"""Every public name resolves once and is used by something other than tests.

A name in ``potsim.__all__`` that only the tests reach is test-only API: the
guard fails on it, so it either gains a user (a run path, a script, the
benchmark, or the README) or leaves ``__all__``.
"""

import re
from pathlib import Path

import potsim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "potsim"


def _user_lines():
    """(path, line) pairs that count as a use outside the tests."""
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "README.md")
    return [(path, line) for path in sources
            for line in path.read_text(encoding="utf-8").splitlines()]


def _referenced(name, user_lines):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own_definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(word.search(line) and not (path.parent == PACKAGE
                                          and own_definition.match(line))
               for path, line in user_lines)


def test_every_public_name_resolves_and_appears_once():
    names = potsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(potsim, name)]
    assert missing == []


def test_every_public_name_has_a_user_outside_the_tests():
    user_lines = _user_lines()
    unused = [name for name in potsim.__all__
              if not _referenced(name, user_lines)]
    assert unused == []
