"""Monte Carlo experiment harness with plot-ready CSV/JSON output.

A run sweeps one grid (receive SNR or aggressor count), draws independent
victim-centric network drops at every grid point, and aggregates one metric
per (grid value, filter, overlap mode) series. The entry protocol runs once
per run, for the largest aggressor count: its FO assignment depends on the
policy alone, and each grid point reads a prefix of it. Geometry and channel
draws are keyed by (seed, grid index, drop index) alone, so every filter and
overlap mode sees identical drops and reruns are byte-identical.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .channel import ChannelModel, realize_channel
from .errors import (ConfigError, MissingArtifactError, ParameterError,
                     check_field_types, is_integer)
from .interference import ScenarioEnergies, link_metric, victim_energy_tables
from .network import (Link, NetworkScenario, entry_sequence, sample_point_near)
from .qlearning import Hyperparams, QTable, artifact_path, train
from .waveform import (CrossAmbiguity, FILTER_FAMILIES, LatticeConfig,
                       PrototypeFilter, filter_factory)

AMBIGUITY_SURFACE = "ambiguity_surface"
CAPACITY_VS_SNR = "capacity_vs_snr"
CAPACITY_VS_AGGRESSORS = "capacity_vs_aggressors"
ME_VS_AGGRESSORS = "me_vs_aggressors"
OUTAGE_VS_AGGRESSORS = "outage_vs_aggressors"
EXPERIMENTS = (AMBIGUITY_SURFACE, CAPACITY_VS_SNR, CAPACITY_VS_AGGRESSORS,
               ME_VS_AGGRESSORS, OUTAGE_VS_AGGRESSORS)

POT = "pot"
FULL_OVERLAP = "full_overlap"
OVERLAP_MODES = (POT, FULL_OVERLAP)

#: Metric emitted by each sweep experiment.
EXPERIMENT_METRICS = {
    CAPACITY_VS_SNR: "capacity",
    CAPACITY_VS_AGGRESSORS: "capacity",
    ME_VS_AGGRESSORS: "me",
    OUTAGE_VS_AGGRESSORS: "outage",
}

CSV_HEADER = "grid_value,filter,mode,metric,mean,ci95,drops"


def _snr_value(value) -> float:
    # Strings such as "inf" parse: JSON has no infinity. An infinite SNR is
    # noiseless; NaN and -inf are not SNRs.
    try:
        if not isinstance(value, bool) and float(value) > -math.inf:
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"snr_grid entries must be numbers above -inf, "
                      f"got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on, hashable into the outputs."""

    experiment: str
    filters: tuple = ("gaussian", "rrc", "iota")
    filter_param: float = 0.2
    channel: str = "awgn"
    num_drops: int = 200
    snr_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    aggressor_grid: tuple = (1, 2, 5, 10, 20, 50)
    num_aggressors: int = 10
    snr_db: float = 10.0
    num_subcarriers: int = 12
    num_symbols: int = 12
    bandwidth: float = 200e3
    carrier_freq: float = 800e6
    lattice_density: float = 1.0
    sample_rate: int = 16
    outage_threshold_db: float = -6.0
    seed: int = 0
    overlap_mode: str = "both"
    area_side: float = 1000.0
    max_link_range: float = 100.0
    interference_radius: float = 300.0
    fo_quantum: int = 8
    qtable_path: str = ""
    train_if_missing: bool = False
    train_overrides: dict = field(default_factory=dict)
    surface_extent: float = 3.0
    surface_resolution: int = 61

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        try:
            hyperparams = Hyperparams(**self.train_overrides)
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"invalid train_overrides: {exc}") from exc
        object.__setattr__(self, "train_overrides", {
            name: getattr(hyperparams, name) for name in self.train_overrides})
        object.__setattr__(self, "filters",
                           tuple(str(f).lower() for f in self.filters))
        if not self.filters:
            raise ConfigError("at least one filter family is required")
        for family in self.filters:
            if family not in FILTER_FAMILIES:
                raise ConfigError(f"unknown filter family {family!r}")
        object.__setattr__(self, "channel", self.channel.lower())
        if self.channel not in ("awgn", "epa"):
            raise ConfigError(f"unknown channel kind {self.channel!r}")
        if self.overlap_mode not in OVERLAP_MODES + ("both",):
            raise ConfigError(f"unknown overlap mode {self.overlap_mode!r}")
        if self.num_drops < 1:
            raise ConfigError("num_drops must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        object.__setattr__(self, "snr_grid",
                           tuple(_snr_value(v) for v in self.snr_grid))
        if not all(is_integer(value) for value in self.aggressor_grid):
            raise ConfigError(f"aggressor_grid entries must be integers, "
                              f"got {list(self.aggressor_grid)!r}")
        object.__setattr__(self, "aggressor_grid",
                           tuple(int(v) for v in self.aggressor_grid))
        for grid, name in ((self.snr_grid, "snr_grid"),
                           (self.aggressor_grid, "aggressor_grid")):
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            # A repeated value would pool two drop sets into one row.
            if any(a >= b for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly ascending, "
                                  f"got {list(grid)!r}")
        if min(self.aggressor_grid) < 1:
            raise ConfigError("aggressor counts must be at least 1")
        if self.filter_param <= 0:
            raise ConfigError("filter_param must be positive")
        if self.num_aggressors < 1:
            raise ConfigError("num_aggressors must be at least 1")
        if min(self.area_side, self.max_link_range,
               self.interference_radius) <= 0:
            raise ConfigError("geometry lengths must be positive")
        if self.fo_quantum < 2:
            raise ConfigError("fo_quantum must be at least 2")
        if self.surface_resolution < 3 or self.surface_extent <= 0:
            raise ConfigError("surface grid must have extent > 0, >= 3 points")

    @property
    def modes(self) -> tuple:
        if self.overlap_mode == "both":
            return OVERLAP_MODES
        return (self.overlap_mode,)

    @property
    def lattice(self) -> LatticeConfig:
        return LatticeConfig.for_bandwidth(self.bandwidth, self.num_subcarriers,
                                           self.num_symbols,
                                           density=self.lattice_density)

    @property
    def channel_model(self) -> ChannelModel:
        return ChannelModel.of_kind(self.channel, self.carrier_freq)

    def pulse(self, family: str) -> PrototypeFilter:
        """The configured pulse of one filter family."""
        return filter_factory(family, self.filter_param, sample_rate=self.sample_rate,
                              density=self.lattice_density)

    def to_dict(self) -> dict:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError("config must name an experiment")
        return cls(**data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def generate_drop(config: ExperimentConfig, num_aggressors: int,
                  rng: np.random.Generator) -> NetworkScenario:
    """One victim-centric drop: the victim enters first, aggressors follow.

    The victim transmit point is uniform on the area and its receive point
    within link range; every aggressor transmit point lands inside the
    interference radius around the victim receive point, so the aggressor
    count is controlled rather than an accident of density.
    """
    lattice = config.lattice
    tau0 = lattice.tau0
    victim_tp = tuple(rng.uniform(0.0, config.area_side, size=2))
    victim_rp = sample_point_near(victim_tp, config.max_link_range,
                                  config.area_side, rng)
    # tau0 * rng.random() is rng.uniform(0.0, tau0) to the bit.
    links = [Link(tp_position=victim_tp, rp_position=victim_rp,
                  timing_offset=tau0 * rng.random())]
    for _ in range(num_aggressors):
        tp = sample_point_near(victim_rp, config.interference_radius,
                               config.area_side, rng)
        rp = sample_point_near(tp, config.max_link_range, config.area_side, rng)
        links.append(Link(tp_position=tp, rp_position=rp,
                          timing_offset=tau0 * rng.random()))
    return NetworkScenario(links=links, area_side=config.area_side,
                           max_link_range=config.max_link_range,
                           lattice=lattice)


def realize_channels(scenario: NetworkScenario, model: ChannelModel,
                     rng: np.random.Generator, receivers) -> tuple:
    """A drop's channels from every link into each of ``receivers``.

    Returns path gains (receivers, L) and tap gains (receivers, L, T) for
    ``model.tap_delays``: entry [r, t] is the channel from link t's
    transmitter into receiver r. Draws run receiver by receiver and, within
    one, in link order, so the channels are a pure function of the stream,
    independent of filter or overlap mode. The sweep passes the victim
    alone; sum-capacity training passes every link.
    """
    path_gains = np.empty((len(receivers), len(scenario.links)))
    tap_gains = np.empty(path_gains.shape + (len(model.taps),), dtype=complex)
    for r, rx in enumerate(receivers):
        for t, tx in enumerate(scenario.links):
            path_gains[r, t], tap_gains[r, t] = realize_channel(
                model, math.dist(tx.tp_position, rx.rp_position), rng)
    return path_gains, tap_gains


def scenario_family(config: ExperimentConfig, cross_amb: CrossAmbiguity):
    """Drop generator handed to the policy trainer.

    Training drops reuse the experiment geometry and channel statistics and
    score assignments by network sum capacity at the configured receive SNR.
    """
    model = config.channel_model

    def build(num_links: int, rng: np.random.Generator) -> ScenarioEnergies:
        scenario = generate_drop(config, num_links - 1, rng)
        path_gains, tap_gains = realize_channels(scenario, model, rng, scenario.links)
        return ScenarioEnergies(scenario, path_gains, tap_gains,
                                model.tap_delays, cross_amb, snr_db=config.snr_db)

    return build


def _mean_ci(values) -> tuple:
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    if data.size < 2:
        return mean, 0.0
    half = 1.96 * float(data.std(ddof=1)) / math.sqrt(data.size)
    return mean, half


def _policy_path(config: ExperimentConfig, out_dir: Path) -> Path:
    return artifact_path(config.qtable_path or out_dir / "qtable.npz")


def check_under_directory(path: Path, name: str) -> None:
    """ConfigError unless the nearest existing one of ``path`` and its
    ancestors is a directory, so that files can be written at or under it.
    ``name`` says which path the message is about."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{name}: {existing} is not a directory")


def train_policy(config: ExperimentConfig, s_max: int, path) -> QTable:
    """Train FO tables for counts 1..s_max on drops of ``config`` and save
    them as the artifact ``path`` (``artifact_path``).

    Drops are scored with the first configured filter, under
    ``config.train_overrides`` and the config seed. ConfigError, before any
    training, when the artifact path is a directory or lies under a regular
    file.
    """
    path = artifact_path(path)
    if path.is_dir():
        raise ConfigError(f"Q-table path {path} is a directory")
    check_under_directory(path.parent, f"Q-table path {path}")
    hyperparams = Hyperparams(**config.train_overrides)
    tx = config.pulse(config.filters[0])
    cross_amb = CrossAmbiguity(tx, tx, config.lattice,
                               fo_quantum=config.fo_quantum)
    table = train(scenario_family(config, cross_amb), s_max, hyperparams,
                  rng_seed=config.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    table.save(path)
    return table


def required_s_max(config: ExperimentConfig) -> int:
    if config.experiment == CAPACITY_VS_SNR:
        return config.num_aggressors
    return max(config.aggressor_grid)


def load_or_train_policy(config: ExperimentConfig, out_dir: Path):
    """Fetch the FO policy, training and persisting it when allowed.

    Returns (table, path, trained_now). Raises MissingArtifactError when the
    artifact is absent and training on demand is disabled.
    """
    path = _policy_path(config, out_dir)
    if path.exists():
        table = QTable.load(path)
        if table.fo_quantum != config.fo_quantum:
            raise ConfigError("Q-table artifact uses a different FO quantum")
        return table, path, False
    if not config.train_if_missing:
        raise MissingArtifactError(f"no Q-table artifact at {path}")
    return train_policy(config, required_s_max(config), path), path, True


def _sweep(config: ExperimentConfig, policy) -> list:
    """All CSV rows for a sweep experiment, in deterministic order.

    ``policy`` is read only in POT mode: one entry-protocol run for the
    largest aggressor count consults each count once.
    """
    metric = EXPERIMENT_METRICS[config.experiment]
    if config.experiment == CAPACITY_VS_SNR:
        grid = config.snr_grid
    else:
        grid = tuple(float(v) for v in config.aggressor_grid)
    model = config.channel_model
    lattice = config.lattice
    pulses = {family: config.pulse(family) for family in config.filters}
    evaluators = {family: CrossAmbiguity(pulse, pulse, lattice,
                                         fo_quantum=config.fo_quantum)
                  for family, pulse in pulses.items()}
    # Offsets in entry order, the victim's (0) first. The protocol's outcome
    # for S aggressors is the first S + 1 entries of the largest count's.
    s_max = required_s_max(config)
    offsets = {FULL_OVERLAP: [0] * (s_max + 1)}
    if POT in config.modes:
        offsets[POT] = entry_sequence(policy, s_max + 1, config.fo_quantum)
    samples = {}
    for g_idx, grid_value in enumerate(grid):
        if config.experiment == CAPACITY_VS_SNR:
            num_aggressors, snr_db = config.num_aggressors, grid_value
        else:
            num_aggressors, snr_db = int(grid_value), config.snr_db
        snr_lin = 10.0 ** (snr_db / 10.0)
        # Each aggressor's profile entry at its FO difference from the victim.
        cells = {mode: (np.arange(num_aggressors),
                        np.add(offsets[mode][1:num_aggressors + 1],
                               config.fo_quantum - 1))
                 for mode in config.modes}
        for drop in range(config.num_drops):
            geometry_rng = np.random.default_rng([config.seed, g_idx, drop, 0])
            scenario = generate_drop(config, num_aggressors, geometry_rng)
            channel_rng = np.random.default_rng([config.seed, g_idx, drop, 1])
            (path_gains,), (tap_gains,) = realize_channels(
                scenario, model, channel_rng, scenario.links[:1])
            for family in config.filters:
                e_signal, e_self, profiles = victim_energy_tables(
                    scenario.links, 0, path_gains, tap_gains, model.tap_delays,
                    evaluators[family])
                noise_var = e_signal / snr_lin
                for mode in config.modes:
                    # Python floats, summed in link order: from Python 3.12
                    # the built-in sum compensates exact floats only.
                    e_oi = sum(profiles[cells[mode]].tolist())
                    samples.setdefault((grid_value, family, mode), []).append(
                        link_metric(metric, e_signal, e_self, e_oi, noise_var,
                                    config.outage_threshold_db))
    rows = []
    for grid_value in grid:
        for family in config.filters:
            for mode in config.modes:
                mean, ci95 = _mean_ci(samples[(grid_value, family, mode)])
                rows.append((grid_value, family, mode, metric, mean, ci95,
                             config.num_drops))
    return rows


def _fmt(value) -> str:
    return format(float(value), ".10g")


def write_results_csv(path: Path, rows, config_hash: str) -> bytes:
    lines = [f"# config_hash={config_hash}", CSV_HEADER]
    for grid_value, family, mode, metric, mean, ci95, drops in rows:
        lines.append(",".join([_fmt(grid_value), family, mode, metric,
                               _fmt(mean), _fmt(ci95), str(int(drops))]))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return payload


def export_ambiguity_surface(pulse, grid_resolution: int = 61,
                             extent: float = 3.0, density: float = 1.0):
    """|A| of a filter against itself on a centered (tau, nu) grid.

    Offsets are in lattice units: tau in tau0, nu in nu0. Returns
    (tau_grid, nu_grid, magnitude[len(tau), len(nu)]).
    """
    if grid_resolution < 3 or not 0 < extent < math.inf:
        raise ParameterError("surface grid must have a finite extent > 0, "
                             ">= 3 points")
    tau_grid = np.linspace(-extent, extent, grid_resolution)
    nu_grid = np.linspace(-extent, extent, grid_resolution)
    rate = pulse.sample_rate
    shifted = pulse.resample_shifted(tau_grid)
    phases = np.exp(2j * np.pi * np.outer(pulse.time_grid, nu_grid * density))
    magnitude = np.abs((shifted * pulse.samples[None, :] / rate) @ phases)
    return tau_grid, nu_grid, magnitude


def write_surface_csv(path: Path, tau_grid, nu_grid, magnitude,
                      note: str) -> bytes:
    lines = [f"# {note}",
             ",".join(["tau_over_tau0\\nu_over_nu0"]
                      + [_fmt(nu) for nu in nu_grid])]
    for tau, row in zip(tau_grid, magnitude):
        lines.append(",".join([_fmt(tau)] + [_fmt(v) for v in row]))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(payload)
    return payload


def _surface_outputs(config: ExperimentConfig, out_dir: Path) -> dict:
    # Every pulse is built before the first file is written, so a filter
    # that cannot be built leaves no surface behind.
    pulses = {family: config.pulse(family) for family in config.filters}
    outputs = {}
    for family, pulse in pulses.items():
        tau_grid, nu_grid, magnitude = export_ambiguity_surface(
            pulse, config.surface_resolution, config.surface_extent,
            density=config.lattice_density)
        name = f"surface_{family}.csv"
        note = (f"config_hash={config.config_hash()} filter={family} "
                f"param={_fmt(config.filter_param)}")
        payload = write_surface_csv(out_dir / name, tau_grid, nu_grid,
                                    magnitude, note)
        outputs[name] = hashlib.sha256(payload).hexdigest()
    return outputs


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment and persist results.csv plus summary.json.

    Returns the summary dict; its ``qtable.trained_now`` and
    ``qtable.not_converged_counts`` fields let callers distinguish a clean
    run from one that had to train a policy that did not converge. A run
    that fails before it writes a file removes the directories it created.
    """
    out_dir = Path(out_dir)
    check_under_directory(out_dir, f"output directory {out_dir}")
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_into(config, out_dir)
    except BaseException:
        # Deepest first; one that holds a file stays, and so do its parents.
        for path in created:
            try:
                path.rmdir()
            except OSError:
                break
        raise


def _run_into(config: ExperimentConfig, out_dir: Path) -> dict:
    config_hash = config.config_hash()
    summary = {
        "config": config.to_dict(),
        "config_hash": config_hash,
        "seed": config.seed,
        "outputs": {},
        "qtable": None,
        "warnings": [],
    }
    if config.experiment == AMBIGUITY_SURFACE:
        summary["outputs"] = _surface_outputs(config, out_dir)
    else:
        policy = None
        if POT in config.modes:
            table, path, trained_now = load_or_train_policy(config, out_dir)
            not_converged = table.not_converged_counts()
            summary["qtable"] = {
                "path": str(path),
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "trained_now": trained_now,
                "not_converged_counts": not_converged,
            }
            if not_converged:
                summary["warnings"].append(
                    f"q-table not converged for counts {not_converged}")
            policy = table
        rows = _sweep(config, policy)
        payload = write_results_csv(out_dir / "results.csv", rows, config_hash)
        summary["outputs"]["results.csv"] = hashlib.sha256(payload).hexdigest()
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out_dir / "summary.json").write_text(summary_text, encoding="utf-8")
    return summary
