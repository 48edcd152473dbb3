"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Every workload runs potsim through its public entry points, one call at a
time (a closed loop with one client). The workload seed reaches the program
only as ``ExperimentConfig.seed`` or ``train(rng_seed=...)``.

- ``train``: ``potsim.qlearning.train`` at S = 10, 20, 50 with the acceptance
  budget, then ``QTable.save``/``load``. Training is ~93 % of the paper
  workload; S = 50 is where the O(S^2) drop build and the Q-table peak. No
  sweep work.
- ``sweep``: three aggressor sweeps (capacity, ME, outage against the
  aggressor count, AWGN, three filters), two through ``potsim.run`` and the
  outage one through ``potsim.cli.main(["run", ...])``. Exercises the
  victim-only energy path, the entry protocol up to S = 50, artifact load,
  CSV output and the CLI/JSON path, and bypasses training, so a
  training-only speed-up must not show here.
"""

import hashlib
import io
import json
import math
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

#: Acceptance-suite training budget (500 episodes x 80 steps).
TRAIN_BUDGET = {"ensemble": 4, "beta": 1.0, "epsilon_end": 0.3, "gamma": 0.95}
TRAIN_COUNTS = (10, 20, 50)
#: Budget of the policy artifact the sweeps load; trained during set-up.
POLICY_BUDGET = {"episodes": 20, "ensemble": 1, "beta": 1.0,
                 "epsilon_end": 0.3, "gamma": 0.95}
#: Drops per grid point, sized so that one iteration takes ~5 s on a 2-core
#: Xeon and a 30 s run repeats it about six times.
SWEEP_DROPS = 20

METRIC_RANGES = {"capacity": (0.0, math.inf), "me": (0.0, 1.0),
                 "outage": (0.0, 1.0)}


class CheckFailed(Exception):
    """An iteration's outputs failed a correctness check."""


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def check_results_csv(payload: bytes, config):
    """results.csv parses, has grid x filters x modes rows, means in range."""
    from potsim.experiments import CSV_HEADER, EXPERIMENT_METRICS

    lines = payload.decode("utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config_hash=") \
            or lines[1] != CSV_HEADER:
        raise CheckFailed(f"{config.experiment}: malformed results.csv header")
    expected = {(float(g), family, mode) for g in config.aggressor_grid
                for family in config.filters for mode in config.modes}
    metric = EXPERIMENT_METRICS[config.experiment]
    low, high = METRIC_RANGES[metric]
    seen = set()
    for line in lines[2:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise CheckFailed(f"{config.experiment}: bad row {line!r}")
        grid_value, family, mode, row_metric, mean, ci95, drops = fields
        mean, ci95 = float(mean), float(ci95)
        if row_metric != metric or int(drops) != config.num_drops:
            raise CheckFailed(f"{config.experiment}: bad row {line!r}")
        if not (math.isfinite(mean) and low <= mean <= high
                and math.isfinite(ci95) and ci95 >= 0.0):
            raise CheckFailed(f"{config.experiment}: value out of range {line!r}")
        seen.add((float(grid_value), family, mode))
    if len(lines) - 2 != len(expected) or seen != expected:
        raise CheckFailed(f"{config.experiment}: expected {len(expected)} rows "
                          f"(grid x filters x modes), got {len(lines) - 2}")


def _drop_filter_evaluations(config) -> int:
    return config.num_drops * len(config.aggressor_grid) * len(config.filters)


def _training_family(seed: int):
    """AWGN ``capacity_vs_aggressors`` drop family on the Gaussian pulse."""
    from potsim.experiments import ExperimentConfig, scenario_family
    from potsim.waveform import CrossAmbiguity, filter_factory

    config = ExperimentConfig(experiment="capacity_vs_aggressors", seed=seed)
    pulse = filter_factory(config.filters[0], config.filter_param,
                           sample_rate=config.sample_rate,
                           density=config.lattice_density)
    cross_amb = CrossAmbiguity(pulse, pulse, config.lattice,
                               fo_quantum=config.fo_quantum)
    return scenario_family(config, cross_amb)


def _train_policy(seed: int, s_max: int, path: Path) -> int:
    """Train and save the sweep policy for counts 1..s_max; its size in bytes."""
    import potsim.qlearning as qlearning

    table = qlearning.train(_training_family(seed), s_max,
                            qlearning.Hyperparams(**POLICY_BUDGET), rng_seed=seed)
    table.save(path)
    return path.stat().st_size


class CountMarks:
    """Drop family wrapper noting when training moves on to a new count.

    ``train`` builds each count's whole ensemble before its Q-learning walk,
    so the first drop of a new size marks where the previous count ended.
    """

    def __init__(self, family):
        self.family = family
        self.marks = []

    def __call__(self, num_links, rng):
        if not self.marks or self.marks[-1][0] != num_links - 1:
            self.marks.append((num_links - 1, time.perf_counter()))
        return self.family(num_links, rng)

    def seconds_per_count(self, end: float) -> dict:
        bounds = [t for _, t in self.marks[1:]] + [end]
        return {count: stop - start
                for (count, start), stop in zip(self.marks, bounds)}


@dataclass
class Iteration:
    """What one timed iteration produced, for checks and metrics."""

    outputs: object
    drops: int
    facts: dict = field(default_factory=dict)


class TrainWorkload:
    name = "train"
    setup_repeats = 3

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.policy_bytes = None
        self.family = None

    def prepare(self):
        self.family = _training_family(self.seed)

    def iterate(self, index: int) -> Iteration:
        import potsim.qlearning as qlearning

        marks = CountMarks(self.family)
        path = self.work_dir / "policy.npz"
        table = qlearning.train(marks, max(TRAIN_COUNTS),
                                qlearning.Hyperparams(**TRAIN_BUDGET),
                                rng_seed=self.seed, counts=TRAIN_COUNTS)
        trained_at = time.perf_counter()
        table.save(path)
        loaded = type(table).load(path)
        return Iteration((table, loaded, path), len(TRAIN_COUNTS) * TRAIN_BUDGET["ensemble"],
                         {"train_count_s": marks.seconds_per_count(trained_at)})

    def check(self, result: Iteration) -> str:
        """Loaded and in-memory tables decode the same prescriptions."""
        table, loaded, path = result.outputs
        prescriptions = {}
        for count in TRAIN_COUNTS:
            trained = tuple(int(q) for q in table.fo_assignment(count))
            reloaded = tuple(int(q) for q in loaded.fo_assignment(count))
            if trained != reloaded:
                raise CheckFailed(f"count {count}: loaded table decodes {reloaded}, "
                                  f"in-memory table {trained}")
            if len(trained) != count or not all(0 <= q < table.fo_quantum
                                                for q in trained):
                raise CheckFailed(f"count {count}: invalid prescription {trained}")
            prescriptions[str(count)] = list(trained)
        self.policy_bytes = path.stat().st_size
        per_count = getattr(table, "per_count", None)
        result.facts["states"] = (sum(len(sub) for sub in per_count.values())
                                  if isinstance(per_count, dict) else None)
        result.facts["prescriptions"] = prescriptions
        return _sha256(json.dumps(prescriptions, sort_keys=True).encode())


class SweepWorkload:
    name = "sweep"
    #: One policy training costs 12-22 s here; three would not fit a run.
    setup_repeats = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.policy = work_dir / "policy.npz"
        self.cli_config = work_dir / "outage.json"
        self.policy_bytes = None
        self.configs = ()

    def prepare(self):
        from potsim.experiments import (CAPACITY_VS_AGGRESSORS, ME_VS_AGGRESSORS,
                                        OUTAGE_VS_AGGRESSORS, ExperimentConfig)

        common = {"num_drops": SWEEP_DROPS, "seed": self.seed,
                  "qtable_path": str(self.policy)}
        outage = {"experiment": OUTAGE_VS_AGGRESSORS, **common}
        self.configs = (
            ExperimentConfig(experiment=CAPACITY_VS_AGGRESSORS, **common),
            ExperimentConfig(experiment=ME_VS_AGGRESSORS,
                             aggressor_grid=(2, 5, 10, 20), **common),
            ExperimentConfig.from_dict(outage),
        )
        self.cli_config.write_text(json.dumps(outage), encoding="utf-8")
        s_max = max(max(c.aggressor_grid) for c in self.configs)
        self.policy_bytes = _train_policy(self.seed, s_max, self.policy)

    def iterate(self, index: int) -> Iteration:
        import potsim
        import potsim.cli

        *direct, via_cli = self.configs
        outputs = []
        for config in direct:
            out_dir = self.work_dir / f"{config.experiment}_{index}"
            potsim.run(config, out_dir)
            outputs.append((config, out_dir))
        out_dir = self.work_dir / f"{via_cli.experiment}_{index}"
        with redirect_stdout(io.StringIO()):
            code = potsim.cli.main(["run", "--config", str(self.cli_config),
                                    "--out", str(out_dir)])
        outputs.append((via_cli, out_dir))
        return Iteration((code, outputs), sum(_drop_filter_evaluations(c)
                                              for c in self.configs))

    def check(self, result: Iteration) -> str:
        code, outputs = result.outputs
        if code != 0:
            raise CheckFailed(f"potsim run exited {code}")
        digest = hashlib.sha256()
        for config, out_dir in outputs:
            payload = (out_dir / "results.csv").read_bytes()
            check_results_csv(payload, config)
            digest.update(payload)
            shutil.rmtree(out_dir)
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (TrainWorkload, SweepWorkload)}

#: Hooks each workload must fire: the layers it is meant to exercise.
EXPECTED_HOOKS = {
    "train": ("waveform.convolved_full", "channel.realize_channel",
              "interference.scenario_energies", "interference.mean_sum_capacity",
              "qlearning.train", "qlearning.values_for", "qlearning.save",
              "qlearning.load"),
    "sweep": ("waveform.cross_ambiguity", "waveform.convolved_full",
              "interference.victim_energy_tables", "qlearning.load",
              "network.entry_sequence", "network.fo_assignment",
              "qlearning.greedy", "experiments.run",
              "experiments.write_results_csv", "cli.main"),
}
