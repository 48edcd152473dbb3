"""potsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A single-workload run sets up (timed, see ``setup_s``), then repeats timed
iterations until ``--seconds`` have passed, three at least, checking every
iteration's outputs. Its last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run keeps
its first iteration untraced, so the difference to the traced ones is the
tracing overhead; it writes its spans to ``perfbench/out/``.

``--workload all`` runs every workload in its own process, untraced and then
traced, and prints the metric tables, including ``error_rate`` and the
layer timings at S = 10 and S = 50.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Relative to ROOT, the working directory: results.csv carries a config
#: hash that includes the policy path, so an absolute path would make the
#: output digest depend on where the checkout lives.
OUT = Path("perfbench") / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import potsim, potsim.cli"

#: Every run reruns the workload, so its output can be compared with the
#: first iteration's, and the median of three drops one slow iteration.
MIN_ITERATIONS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "drops_per_s": "1/s",
                    "policy_bytes": "bytes", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Run BLAS on one thread unless asked for more, never above nproc.

    potsim's matrices are small: a second BLAS thread made set-up slower
    (14-16 s against 21 s for the sweep policy on a 2-core Xeon) and makes
    every timing depend on the load of the other core. Must run before numpy
    is imported; the import probe inherits it too.
    """
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, 1))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, limit)))


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS}}


def time_import() -> float:
    """Wall time of a fresh interpreter importing potsim, as a CLI user pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - start


def reference_status(workload: str, seed: int, digest) -> str:
    """Compare the output digest with the one recorded in reference.json."""
    try:
        recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return "unrecorded"
    expected = recorded.get(workload, {}).get(str(seed), {}).get("digest")
    if expected is None or digest is None:
        return "unrecorded"
    return "match" if expected == digest else "mismatch"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import potsim  # noqa: F401  (untimed here; time_import times a fresh one)
    from spans import Tracer
    from workloads import WORKLOADS, EXPECTED_HOOKS, CheckFailed

    work_dir = OUT / f"work-{name}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        setups = []
        for _ in range(workload.setup_repeats):
            imported = time_import()
            start = time.perf_counter()
            workload.prepare()
            setups.append(imported + time.perf_counter() - start)

        tracer = Tracer() if trace else None
        walls, traced_walls, rates, facts = [], [], [], []
        digests, failures = [], []
        attempted = 0
        start_all = time.perf_counter()
        while True:
            traced = trace and attempted > 0
            attempted += 1
            try:
                with tracer.installed() if traced else nullcontext():
                    start = time.perf_counter()
                    result = workload.iterate(attempted)
                    wall = time.perf_counter() - start
                digest = workload.check(result)
                if digests and digest != digests[0]:
                    raise CheckFailed(f"output sha256 {digest} differs from the "
                                      f"first iteration's {digests[0]}")
                digests.append(digest)
            except Exception:  # noqa: BLE001  (count the failure, keep measuring)
                failures.append(traceback.format_exc())
                print(failures[-1], file=sys.stderr)
            else:
                (traced_walls if traced else walls).append(wall)
                rates.append(result.drops / wall)
                facts.append((traced, result.facts))
            # Drop this iteration's outputs before timing the next one.
            result = None
            if (time.perf_counter() - start_all >= seconds
                    and attempted >= MIN_ITERATIONS):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    unfired = []
    if trace:
        fired = set(tracer.counts) | {span[1] for span in tracer.spans}
        unfired = [hook for hook in EXPECTED_HOOKS[name]
                   if hook in tracer.present and hook not in fired]
        for hook in unfired:
            print(f"hook {hook} never fired on workload {name}", file=sys.stderr)
    correct = not failures and not unfired and bool(walls)
    if trace:
        metrics = layer_metrics(tracer, walls, traced_walls, facts)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setups),
            "drops_per_s": statistics.median(rates) if rates else None,
            "policy_bytes": workload.policy_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in metrics.items()}
    last_facts = facts[-1][1] if facts else {}
    details = {
        "workload": name, "seed": seed, "trace": trace,
        "machine": machine_facts(),
        "setup_s": setups, "wall_s": walls, "traced_wall_s": traced_walls,
        "digest": digests[0] if digests else None,
        "reference": reference_status(name, seed, digests[0] if digests else None),
        "prescriptions": last_facts.get("prescriptions"),
        "error_rate": len(failures) / attempted,
    }
    print("details: " + json.dumps(details, sort_keys=True))
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, walls, traced_walls, facts) -> dict:
    """Per-layer metrics averaged over the traced iterations.

    Counts and self times are per iteration; per-call times are medians over
    calls, at S = 10 and S = 50 where the layer's cost depends on S. A layer
    this workload never calls reads 0; a hook whose target is gone reads
    null with the reason under ``missing``.
    """
    stats = tracer.self_times()
    counts = tracer.counts
    runs = max(len(traced_walls), 1)
    traced_facts = [f for traced, f in facts if traced]

    def calls(name):
        return stats.get(name, (0,))[0] / runs

    def self_s(name):
        return stats[name][2] / runs if name in stats else 0.0

    def total_s(name):
        return stats[name][1] / runs if name in stats else 0.0

    def per_call(name, size=None, scale=1.0):
        sized = stats.get(name, (0, 0.0, 0.0, []))[3]
        return scale * _median_or_zero([d for s, d in sized
                                        if size is None or s == size])

    def count_seconds(count):
        return _median_or_zero([f["train_count_s"][count] for f in traced_facts
                                if count in f.get("train_count_s", {})])

    steps = counts["qlearning.values_for"] / 2 / runs
    train_total = total_s("qlearning.train")
    states = [f["states"] for f in traced_facts if "states" in f]
    untraced = _median_or_zero(walls)
    overhead = _median_or_zero(traced_walls) - untraced
    table = [
        ("waveform.cross_ambiguity.builds", "count", ("waveform.cross_ambiguity",),
         lambda: calls("waveform.cross_ambiguity")),
        ("waveform.cross_ambiguity.build_s", "s", ("waveform.cross_ambiguity",),
         lambda: per_call("waveform.cross_ambiguity")),
        ("waveform.convolved_full.calls", "count", ("waveform.convolved_full",),
         lambda: calls("waveform.convolved_full")),
        ("waveform.convolved_full.self_s", "s", ("waveform.convolved_full",),
         lambda: self_s("waveform.convolved_full")),
        ("channel.realize_channel.calls", "count", ("channel.realize_channel",),
         lambda: calls("channel.realize_channel")),
        ("channel.realize_channel.self_s", "s", ("channel.realize_channel",),
         lambda: self_s("channel.realize_channel")),
        ("interference.scenario_energies.calls", "count",
         ("interference.scenario_energies",),
         lambda: calls("interference.scenario_energies")),
        ("interference.scenario_energies.ms_per_drop.s10", "ms",
         ("interference.scenario_energies",),
         lambda: per_call("interference.scenario_energies", 10, 1e3)),
        ("interference.scenario_energies.ms_per_drop.s50", "ms",
         ("interference.scenario_energies",),
         lambda: per_call("interference.scenario_energies", 50, 1e3)),
        ("interference.victim_energy_tables.calls", "count",
         ("interference.victim_energy_tables",),
         lambda: calls("interference.victim_energy_tables")),
        ("interference.victim_energy_tables.self_s", "s",
         ("interference.victim_energy_tables",),
         lambda: self_s("interference.victim_energy_tables")),
        ("interference.mean_sum_capacity.calls", "count",
         ("interference.mean_sum_capacity",),
         lambda: calls("interference.mean_sum_capacity")),
        ("interference.mean_sum_capacity.us_per_call.s10", "us",
         ("interference.mean_sum_capacity",),
         lambda: per_call("interference.mean_sum_capacity", 10, 1e6)),
        ("interference.mean_sum_capacity.us_per_call.s50", "us",
         ("interference.mean_sum_capacity",),
         lambda: per_call("interference.mean_sum_capacity", 50, 1e6)),
        ("qlearning.train.self_s", "s", ("qlearning.train",),
         lambda: self_s("qlearning.train")),
        ("qlearning.train_one_count_s.s10", "s", (), lambda: count_seconds(10)),
        ("qlearning.train_one_count_s.s50", "s", (), lambda: count_seconds(50)),
        ("qlearning.steps", "count", ("qlearning.values_for",), lambda: steps),
        ("qlearning.steps_per_s", "1/s", ("qlearning.values_for", "qlearning.train"),
         lambda: steps / train_total if train_total else 0.0),
        ("qlearning.capacity_miss_ratio", "ratio",
         ("qlearning.values_for", "interference.mean_sum_capacity"),
         lambda: calls("interference.mean_sum_capacity") / steps if steps else 0.0),
        ("qlearning.states", "count", (),
         lambda: _median_or_zero([s for s in states if s is not None])),
        ("qlearning.save_s", "s", ("qlearning.save",),
         lambda: per_call("qlearning.save")),
        ("qlearning.load_s", "s", ("qlearning.load",),
         lambda: per_call("qlearning.load")),
        ("network.entry_sequence.calls", "count", ("network.entry_sequence",),
         lambda: calls("network.entry_sequence")),
        ("network.entry_sequence.self_s", "s", ("network.entry_sequence",),
         lambda: self_s("network.entry_sequence")),
        ("network.fo_assignment.calls", "count", ("network.fo_assignment",),
         lambda: calls("network.fo_assignment")),
        ("network.fallback_ratio", "ratio", ("qlearning.greedy",),
         lambda: (counts["network.fallback"] / counts["qlearning.greedy"]
                  if counts["qlearning.greedy"] else 0.0)),
        ("experiments.run.self_s", "s", ("experiments.run",),
         lambda: self_s("experiments.run")),
        ("experiments.write_results_csv.s", "s", ("experiments.write_results_csv",),
         lambda: total_s("experiments.write_results_csv")),
        ("experiments.drops", "count", ("experiments.generate_drop",),
         lambda: calls("experiments.generate_drop")),
        ("cli.main.self_s", "s", ("cli.main",), lambda: self_s("cli.main")),
        ("tracing.overhead_s", "s", (), lambda: overhead),
        ("tracing.overhead_pct", "%", (),
         lambda: 100.0 * overhead / untraced if untraced else 0.0),
    ]
    metrics = {}
    for name, unit, hooks, value in table:
        gone = [f"{hook}: {tracer.missing[hook]}" for hook in hooks
                if hook in tracer.missing]
        if name == "qlearning.states" and states and all(s is None for s in states):
            gone.append("the trained table has no per_count states")
        if gone:
            metrics[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
        else:
            metrics[name] = {"value": value(), "unit": unit}
    return metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced; print tables."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            details = next(json.loads(line[len("details: "):]) for line in lines
                           if line.startswith("details: "))
            results[(name, trace)] = (json.loads(lines[-1]), details)

    machine = results[(next(iter(WORKLOADS)), 0)][1]["machine"]
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"seed {seed}, {seconds:g} s per run\n")
    print("## End to end (untraced)\n")
    names = list(WORKLOADS)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, unit in END_TO_END_UNITS.items():
        cells = [_fmt(results[(n, 0)][0]["metrics"][metric]["value"]) for n in names]
        print(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
    cells = [_fmt(results[(n, 0)][0]["failed"] / results[(n, 0)][0]["attempted"])
             for n in names]
    print("| error_rate | fraction | " + " | ".join(cells) + " |")
    cells = [results[(n, 0)][1]["reference"] for n in names]
    print("| output vs reference.json | | " + " | ".join(cells) + " |")

    print("\n## Per layer (traced run)\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    layer_names = results[(names[0], 1)][0]["metrics"]
    for metric in layer_names:
        entries = [results[(n, 1)][0]["metrics"][metric] for n in names]
        cells = [_fmt(e["value"]) if e["value"] is not None
                 else "missing: " + e["missing"] for e in entries]
        print(f"| {metric} | {entries[0]['unit']} | " + " | ".join(cells) + " |")

    layers = {n: results[(n, 1)][0]["metrics"] for n in names}

    def value(workload, metric, scale=1.0):
        entry = layers[workload][metric]
        return "missing" if entry["value"] is None else _fmt(scale * entry["value"])

    print("\n## Layer timings at S = 10 and S = 50 (traced run)\n")
    print("| Measurement | Value |\n|---|---|")
    print(f"| CrossAmbiguity build (sweep, per build) | "
          f"{value('sweep', 'waveform.cross_ambiguity.build_s', 1e3)} ms |")
    for size in (10, 50):
        print(f"| ScenarioEnergies, S = {size} | "
              f"{value('train', f'interference.scenario_energies.ms_per_drop.s{size}')}"
              " ms per drop |")
    for size in (10, 50):
        print(f"| mean_sum_capacity, ensemble 4, S = {size} | "
              f"{value('train', f'interference.mean_sum_capacity.us_per_call.s{size}')}"
              " us |")
    for size in (10, 50):
        print(f"| train one count, S = {size} | "
              f"{value('train', f'qlearning.train_one_count_s.s{size}')} s |")
    print(f"| artifact save, counts 10, 20, 50 | {value('train', 'qlearning.save_s')} s"
          f" ({_fmt(results[('train', 0)][0]['metrics']['policy_bytes']['value'])}"
          " bytes) |")
    print(f"| artifact load, counts 1..50 (sweep) | {value('sweep', 'qlearning.load_s')} s |")

    ok = all(r[0]["correct"] for r in results.values())
    summary = {"correct": ok,
               "attempted": sum(r[0]["attempted"] for r in results.values()),
               "failed": sum(r[0]["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n in names
                           for m, v in results[(n, 0)][0]["metrics"].items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "potsim" / "__init__.py").is_file():
        print(f"error: no potsim sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
