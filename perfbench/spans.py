"""Spans and counters recorded around potsim's layers, from outside the program.

A hook replaces one attribute of a potsim module or class for the duration of
a ``Tracer.installed()`` block. Each hook patches the name the *caller* looks
up: ``experiments.py`` imports ``victim_energy_tables`` and friends by name,
so those are patched on ``potsim.experiments`` rather than where they are
defined. Methods are patched on the class.

A span hook records (id, name, start, end, parent id, size tag) in memory;
a counter hook only counts calls, for the hot leaf methods whose span would
cost more than their body. A hook whose target no longer exists is reported
as missing with the reason and never raises.
"""

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _scenario_size(args):
    return len(args[1].links) - 1


def _state_size(args):
    return len(args[1])


#: (span name, "module:attribute.path", size tag from positional args, kind)
HOOKS = (
    ("waveform.cross_ambiguity", "potsim.waveform:CrossAmbiguity.__init__", None, "span"),
    ("waveform.convolved_full", "potsim.waveform:CrossAmbiguity.convolved_full", None, "span"),
    ("channel.realize_channel", "potsim.experiments:realize_channel", None, "span"),
    ("experiments.generate_drop", "potsim.experiments:generate_drop", None, "span"),
    ("interference.scenario_energies", "potsim.interference:ScenarioEnergies.__init__",
     _scenario_size, "span"),
    ("interference.victim_energy_tables", "potsim.experiments:victim_energy_tables", None, "span"),
    ("interference.mean_sum_capacity",
     "potsim.interference:EnsembleEvaluator.mean_sum_capacity", _state_size, "span"),
    ("qlearning.train", "potsim.experiments:train", None, "span"),
    ("qlearning.train", "potsim.qlearning:train", None, "span"),
    ("qlearning.values_for", "potsim.qlearning:QTable.values_for", None, "count"),
    ("qlearning.greedy", "potsim.qlearning:QTable.greedy", None, "greedy"),
    ("qlearning.save", "potsim.qlearning:QTable.save", None, "span"),
    ("qlearning.load", "potsim.qlearning:QTable.load", None, "span"),
    ("network.fo_assignment", "potsim.qlearning:QTable.fo_assignment", None, "span"),
    ("network.entry_sequence", "potsim.experiments:entry_sequence", None, "span"),
    ("experiments.run", "potsim:run", None, "span"),
    ("experiments.run", "potsim.cli:run", None, "span"),
    ("experiments.write_results_csv", "potsim.experiments:write_results_csv", None, "span"),
    ("cli.main", "potsim.cli:main", None, "span"),
)


def _resolve(target):
    """(owner, attribute, raw value) for a hook target, or a reason string."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        return f"cannot import {module_name}: {exc}"
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            return f"{module_name} has no attribute {name!r}"
        owner = getattr(owner, name)
    if inspect.isclass(owner):
        if attr not in owner.__dict__:
            return f"{owner.__qualname__} defines no {attr!r}"
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        return f"{module_name} has no attribute {attr!r}"
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory spans and counters for the hooks in ``HOOKS``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = {}
        self.present = set()
        self._stack = []
        self._next_id = 0

    def _span(self, name, fn, size_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            size = None
            if size_of is not None:
                try:
                    size = size_of(args)
                except (TypeError, AttributeError, IndexError):
                    size = None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, size))
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _greedy(self, name, fn):
        counts = self.counts

        def wrapper(table, *args, **kwargs):
            before = getattr(table, "fallback_events", 0)
            result = fn(table, *args, **kwargs)
            counts[name] += 1
            if getattr(table, "fallback_events", 0) != before:
                counts["network.fallback"] += 1
            return result
        return wrapper

    def _wrap(self, name, kind, fn, size_of):
        if kind == "count":
            return self._counter(name, fn)
        if kind == "greedy":
            return self._greedy(name, fn)
        return self._span(name, fn, size_of)

    @contextmanager
    def installed(self):
        """Patch every resolvable hook for the block, then restore it."""
        restore = self._install()
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def _install(self):
        restore = []
        reasons = defaultdict(list)
        for name, target, size_of, kind in HOOKS:
            resolved = _resolve(target)
            if isinstance(resolved, str):
                reasons[name].append(resolved)
                continue
            owner, attr, raw = resolved
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(name, kind, raw.__func__, size_of))
            else:
                patched = self._wrap(name, kind, raw, size_of)
            setattr(owner, attr, patched)
            restore.append((owner, attr, raw))
            self.present.add(name)
        for name, why in reasons.items():
            if name not in self.present:
                self.missing[name] = "; ".join(why)
        return restore

    def self_times(self):
        """Per span name: (calls, total seconds, self seconds, [(size, seconds)])."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for span_id, name, start, end, _, size in self.spans:
            calls, total, own, sized = stats.get(name, (0, 0.0, 0.0, []))
            sized.append((size, end - start))
            stats[name] = (calls + 1, total + end - start,
                           own + end - start - child_time[span_id], sized)
        return stats

    def write(self, path):
        """One JSON object per span, then one line of counters and misses."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, size in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "size": size}) + "\n")
            out.write(json.dumps({"counts": dict(self.counts),
                                  "missing": self.missing}) + "\n")

