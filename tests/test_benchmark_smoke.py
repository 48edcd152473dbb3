"""The benchmark command prints one well-formed result line per run.

Runs ``perfbench/run.py`` at its shortest (three iterations after set-up) on
each workload, untraced and traced, and checks the contract of its last
stdout line: strict JSON, a correct run, finite end-to-end metrics and no
traced metric whose hook has gone missing.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "setup_s", "drops_per_s", "policy_bytes", "peak_rss_mb")


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "sweep"])
def test_benchmark_prints_a_well_formed_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    if trace:
        missing = {name: entry["missing"] for name, entry in metrics.items()
                   if "missing" in entry}
        assert not missing
    else:
        assert set(metrics) == set(END_TO_END)
        for name in END_TO_END:
            value = metrics[name]["value"]
            assert isinstance(value, (int, float)) and not isinstance(value, bool), name
            assert math.isfinite(value), name
