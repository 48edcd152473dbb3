"""Release acceptance suite: one test per criterion, one PASS/FAIL line each.

The slow shared artifacts (trained FO policies and the 200-drop Monte Carlo
sweeps) are session fixtures, so the whole suite costs a few minutes. Run
with -s to see the per-criterion summary lines on stdout.
"""

import csv
import io
import itertools
import json
import math
import time
from itertools import product

import numpy as np
import pytest

from potsim import (ExperimentConfig, LatticeConfig, Link, filter_factory,
                    make_iota, make_rrc)
from potsim.channel import ChannelRealization
from potsim.cli import main
from potsim.experiments import generate_drop, realize_channels, run
from potsim.interference import (EnsembleEvaluator, ScenarioEnergies,
                                 profile_at, victim_energy_tables)
from potsim.qlearning import Hyperparams, train
from potsim.waveform import CrossAmbiguity, ambiguity

SEED = 11
DROPS = 200
TRAIN = {"ensemble": 4, "beta": 1.0, "epsilon_end": 0.3, "gamma": 0.95}
THREE_FILTERS = ("gaussian", "rrc", "iota")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def closed_form_gaussian(rho: float, lam: float, phi: float) -> float:
    return math.exp(-(math.pi / 2) * (rho * lam ** 2 + phi ** 2 / rho))


def sweep_table(out_dir):
    """results.csv parsed into {(grid_value, filter, mode, metric): mean}."""
    text = (out_dir / "results.csv").read_text().split("\n", 1)[1]
    table = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (float(row["grid_value"]), row["filter"], row["mode"],
               row["metric"])
        table[key] = float(row["mean"])
    return table


@pytest.fixture(scope="session")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def snr_sweep_awgn(out_root):
    """Gaussian capacity vs SNR under AWGN, 10 aggressors, both modes."""
    config = ExperimentConfig(experiment="capacity_vs_snr",
                              filters=("gaussian",),
                              snr_grid=(10.0, 30.0, float("inf")),
                              num_aggressors=10, num_drops=DROPS, seed=SEED,
                              train_if_missing=True,
                              train_overrides=dict(TRAIN))
    out = out_root / "snr_awgn"
    started = time.perf_counter()
    run(config, out)
    elapsed = time.perf_counter() - started
    return sweep_table(out), out / "qtable.npz", elapsed


@pytest.fixture(scope="session")
def snr_sweep_epa(out_root, snr_sweep_awgn):
    """The 10 dB grid point of the same sweep under EPA fading."""
    _, artifact, _ = snr_sweep_awgn
    config = ExperimentConfig(experiment="capacity_vs_snr",
                              filters=("gaussian",), channel="epa",
                              snr_grid=(10.0,), num_aggressors=10,
                              num_drops=DROPS, seed=SEED,
                              qtable_path=str(artifact))
    out = out_root / "snr_epa"
    run(config, out)
    return sweep_table(out)


@pytest.fixture(scope="session")
def density_sweeps(out_root):
    """Capacity, ME, and outage vs aggressor count for all three filters.

    The capacity run trains the shared policy (counts 1 through 50); the ME
    and outage runs reuse its artifact.
    """
    grid = (1, 2, 5, 10, 20, 50)
    capacity_config = ExperimentConfig(experiment="capacity_vs_aggressors",
                                       filters=THREE_FILTERS,
                                       aggressor_grid=grid, num_drops=DROPS,
                                       seed=SEED, train_if_missing=True,
                                       train_overrides=dict(TRAIN))
    cap_dir = out_root / "capacity_density"
    run(capacity_config, cap_dir)
    artifact = str(cap_dir / "qtable.npz")
    me_config = ExperimentConfig(experiment="me_vs_aggressors",
                                 filters=THREE_FILTERS,
                                 aggressor_grid=(2, 5, 10, 20),
                                 num_drops=DROPS, seed=SEED,
                                 qtable_path=artifact)
    me_dir = out_root / "me_density"
    run(me_config, me_dir)
    outage_config = ExperimentConfig(experiment="outage_vs_aggressors",
                                     filters=THREE_FILTERS,
                                     aggressor_grid=grid, num_drops=DROPS,
                                     seed=SEED, qtable_path=artifact)
    outage_dir = out_root / "outage_density"
    run(outage_config, outage_dir)
    return {"capacity": sweep_table(cap_dir), "me": sweep_table(me_dir),
            "outage": sweep_table(outage_dir), "grid": grid}


def test_criterion_1_gaussian_ambiguity_matches_closed_form():
    started = time.perf_counter()
    lattice = LatticeConfig.for_bandwidth(200e3, 12, 12)
    pulse = filter_factory("gaussian", 0.2)
    offsets = (0.0, 0.25, 0.5, 1.0, 1.5)
    worst = 0.0
    for lam, phi in product(offsets, offsets):
        value = abs(ambiguity(pulse, pulse, lattice,
                              delta_t=lam * lattice.tau0,
                              delta_f=phi * lattice.nu0))
        worst = max(worst, abs(value - closed_form_gaussian(0.2, lam, phi)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 5.0
    report(1, ok, f"25 grid points, worst error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 5.0


def test_criterion_2_design_lattice_orthogonality():
    started = time.perf_counter()
    cases = []
    rrc_lattice = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.2)
    cases.append(("rrc 0.2", make_rrc(0.2), rrc_lattice))
    iota_lattice = LatticeConfig.for_bandwidth(200e3, 12, 12, density=2.0)
    cases.append(("iota 1.0", make_iota(1.0, density=2.0), iota_lattice))
    cases.append(("iota 0.2", make_iota(0.2, span=16.0, density=2.0),
                  iota_lattice))
    worst = (0.0, "")
    for name, pulse, lattice in cases:
        for dl, dn in product(range(-2, 3), repeat=2):
            if (dl, dn) == (0, 0):
                continue
            value = abs(ambiguity(pulse, pulse, lattice, delta_l=dl,
                                  delta_n=dn))
            if value > worst[0]:
                worst = (value, f"{name} at ({dl}, {dn})")
    elapsed = time.perf_counter() - started
    ok = worst[0] <= 1e-3 and elapsed < 10.0
    report(2, ok, f"worst |A| {worst[0]:.2e} ({worst[1]}), {elapsed:.2f}s")
    assert worst[0] <= 1e-3
    assert elapsed < 10.0


# --- criterion 3: brute-force time-domain oracle -----------------------------

ORACLE_RATE = 16
ORACLE_LATTICE = LatticeConfig.for_bandwidth(200e3, 2, 2)
AWGN_TAPS = ((1 + 0j, 0.0),)
VICTIM_TAPS = ((0.75 + 0.3j, 0.0), (-0.4 + 0.5j, 4 / 16))
AGGRESSOR_TAPS = ((0.6 - 0.2j, 0.0), (0.35 + 0.45j, 3 / 16))
ORACLE_SHIFT = 5 / 16   # aggressor timing offset in tau0 units
ORACLE_FO = 3 / 8       # aggressor FO in nu0 units (grid index 3 of 8)


def time_domain_energies(pulse, victim_taps, aggressor_taps,
                         num_bursts=10_000, seed=99):
    """Empirical E_S / E_SI / E_OI from waveform synthesis and correlation.

    Bursts occupy time slots {0, 1, 2} on subcarriers {-1, 0}; the victim
    receiver correlates against its slot-1, subcarrier-0 pulse, so it has a
    subcarrier neighbour below it, as on the model's interior reference
    subcarrier (n0 = N // 2 = 1 of the 2-subcarrier oracle lattice). All
    shifts are integer numbers of samples so the tapped-delay-line channel
    is an exact array shift.
    """
    rate = pulse.sample_rate
    span = pulse.span
    u_lo = -(span / 2) - 1.0
    n_grid = int(round((span + 4.0) * rate)) + 1
    u = u_lo + np.arange(n_grid) / rate
    origin = int(round(-u_lo * rate))

    def place(center):
        wave = np.zeros(n_grid)
        start = origin + int(round(center * rate)) - pulse.center_index
        wave[start:start + len(pulse.samples)] = pulse.samples
        return wave

    def basis(slot, subcarrier, shift, fo):
        return place(slot + shift) * np.exp(2j * np.pi * (subcarrier + fo) * u)

    def through_channel(wave, taps):
        received = np.zeros(n_grid, dtype=complex)
        for gain, delay in taps:
            k = int(round(delay * rate))
            received[k:] += gain * wave[:n_grid - k]
        return received

    receive_pulse = place(1.0)

    def demodulate(wave):
        return np.sum(wave * receive_pulse) / rate

    z_own = demodulate(through_channel(basis(1, 0, 0.0, 0.0), victim_taps))
    z_self = np.array([
        demodulate(through_channel(basis(slot, sub, 0.0, 0.0), victim_taps))
        for slot in (0, 1, 2) for sub in (-1, 0) if (slot, sub) != (1, 0)])
    z_cci = np.array([
        demodulate(through_channel(basis(slot, sub, ORACLE_SHIFT, ORACLE_FO),
                                   aggressor_taps))
        for slot in (0, 1, 2) for sub in (-1, 0)])

    rng = np.random.default_rng(seed)

    def qpsk(shape):
        return ((rng.integers(0, 2, shape) * 2 - 1)
                + 1j * (rng.integers(0, 2, shape) * 2 - 1)) / np.sqrt(2)

    e_signal = float(np.mean(np.abs(qpsk(num_bursts) * z_own) ** 2))
    e_self = float(np.mean(np.abs(qpsk((num_bursts, 5)) @ z_self) ** 2))
    e_cci = float(np.mean(np.abs(qpsk((num_bursts, 6)) @ z_cci) ** 2))
    return e_signal, e_self, e_cci


def model_energies(pulse, victim_taps, aggressor_taps):
    tau0 = ORACLE_LATTICE.tau0
    cross = CrossAmbiguity(pulse, pulse, ORACLE_LATTICE, fo_quantum=8)
    victim = Link(0, (0.0, 0.0), (10.0, 0.0), 1)
    aggressor = Link(1, (5.0, 5.0), (12.0, 3.0), 2,
                     timing_offset=ORACLE_SHIFT * tau0,
                     fo_index=3)

    def realization(taps):
        return ChannelRealization(1.0,
                                  np.array([delay * tau0 for _, delay in taps]),
                                  np.array([gain for gain, _ in taps]))

    realizations = {(0, 0): realization(victim_taps),
                    (1, 0): realization(aggressor_taps)}
    tables = victim_energy_tables(victim, [aggressor], realizations, cross)
    profile = profile_at(*tables, [aggressor],
                         [aggressor.fo_index - victim.fo_index], noise_var=0.0)
    return profile.e_signal, profile.e_self, profile.per_aggressor[1]


def test_criterion_3_decompose_matches_time_domain_simulation():
    started = time.perf_counter()
    worst = (0.0, "")
    for family in THREE_FILTERS:
        pulse = filter_factory(family, 0.2, sample_rate=ORACLE_RATE)
        for label, victim_taps, aggressor_taps in (
                ("awgn", AWGN_TAPS, AWGN_TAPS),
                ("2tap", VICTIM_TAPS, AGGRESSOR_TAPS)):
            simulated = time_domain_energies(pulse, victim_taps,
                                             aggressor_taps)
            modeled = model_energies(pulse, victim_taps, aggressor_taps)
            for name, sim, mod in zip(("E_S", "E_SI", "E_OI"), simulated,
                                      modeled):
                rel = abs(sim - mod) / max(abs(mod), 1e-15)
                if rel > worst[0]:
                    worst = (rel, f"{family}/{label} {name}")
    elapsed = time.perf_counter() - started
    ok = worst[0] <= 0.03 and elapsed < 120.0
    report(3, ok, f"worst deviation {worst[0]:.2%} ({worst[1]}), "
                  f"{elapsed:.1f}s over 10^4 bursts x 6 cases")
    assert worst[0] <= 0.03
    assert elapsed < 120.0


def test_criterion_4_policy_matches_exhaustive_optimum():
    started = time.perf_counter()
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    pulse = filter_factory("gaussian", config.filter_param)
    cross = CrossAmbiguity(pulse, pulse, config.lattice,
                           fo_quantum=config.fo_quantum)

    def frozen_drops(num_links):
        drops = []
        for d in range(TRAIN["ensemble"]):
            rng = np.random.default_rng([0, num_links, d])
            scenario = generate_drop(config, num_links - 1, rng)
            realizations = realize_channels(scenario, config.channel_model,
                                            rng, scenario.links)
            drops.append(ScenarioEnergies(scenario, realizations, cross,
                                          snr_db=config.snr_db))
        return drops

    counts = (1, 2)
    ensembles = {count: frozen_drops(count + 1) for count in counts}
    best = {}
    for count, drops in ensembles.items():
        evaluator = EnsembleEvaluator(drops)
        best[count] = max(evaluator.mean_sum_capacity(state)
                          for state in product(range(8), repeat=count))

    hp = Hyperparams(**TRAIN)
    wins = 0
    for seed in range(100):
        cycles = {count: itertools.cycle(ensembles[count])
                  for count in counts}

        def family(num_links, rng):
            return next(cycles[num_links - 1])

        table = train(family, max(counts), hp, rng_seed=seed)
        optimal = True
        for count in counts:
            evaluator = EnsembleEvaluator(ensembles[count])
            achieved = evaluator.mean_sum_capacity(table.fo_assignment(count))
            if achieved < best[count] - 1e-9:
                optimal = False
        wins += optimal
    elapsed = time.perf_counter() - started
    ok = wins >= 95 and elapsed < 300.0
    report(4, ok, f"{wins}/100 seeded runs reach the exhaustive optimum "
                  f"for S in {counts}, {elapsed:.1f}s")
    assert wins >= 95
    assert elapsed < 300.0


def test_criterion_5_pot_capacity_gain_over_full_overlap(snr_sweep_awgn):
    table, _, elapsed = snr_sweep_awgn
    high = table[(30.0, "gaussian", "pot", "capacity")] \
        / table[(30.0, "gaussian", "full_overlap", "capacity")]
    zero_noise = table[(math.inf, "gaussian", "pot", "capacity")] \
        / table[(math.inf, "gaussian", "full_overlap", "capacity")]
    ok = high >= 1.3 and 1.5 <= zero_noise <= 2.1 and elapsed < 600.0
    report(5, ok, f"POT/full ratio {high:.2f} at 30 dB (>= 1.3), "
                  f"{zero_noise:.2f} at zero noise (band [1.5, 2.1]), "
                  f"{DROPS} drops in {elapsed:.0f}s")
    assert high >= 1.3
    assert elapsed < 600.0
    assert 1.5 <= zero_noise <= 2.1, (
        "zero-noise POT/full ratio outside the band. Full overlap does not "
        "depend on the FO convention, so a ratio above it means POT is "
        "credited too little interference: demodulating the victim on the "
        "band-edge subcarrier made an FO of 7/8 nu0 couple nothing (CCI 0.0 "
        "against 1.75 at -1/8 nu0 on a unit tap at 0.42 tau0) although the "
        "FO grid is circular, and read 2.60; the interior reference "
        "subcarrier n0 = N // 2 reads 1.65")


def test_criterion_6_fading_hurts_full_overlap_more(snr_sweep_awgn,
                                                    snr_sweep_epa):
    awgn_table, _, _ = snr_sweep_awgn
    drop = {}
    for mode in ("pot", "full_overlap"):
        awgn = awgn_table[(10.0, "gaussian", mode, "capacity")]
        epa = snr_sweep_epa[(10.0, "gaussian", mode, "capacity")]
        drop[mode] = (awgn - epa) / awgn
    ok = drop["full_overlap"] > drop["pot"]
    report(6, ok, f"relative capacity drop AWGN->EPA: full overlap "
                  f"{drop['full_overlap']:.1%}, POT {drop['pot']:.1%}")
    assert drop["full_overlap"] > drop["pot"], (
        "measured cause: EPA taps are block Rayleigh draws with unit mean "
        "power. Fading only the aggressor links raises capacity (full "
        "overlap +9.9 %, POT +5.6 %): full overlap is interference-limited, "
        "nearly linear in SIR, so faded interference helps it on average "
        "(Jensen). Fading only the victim link costs POT more (full "
        "overlap 13.7 %, POT 16.3 %), where log2(1 + SINR) is concave. "
        "Neither a 20 MHz band (largest EPA delay 0.68 tau0: 5.3 % / "
        "11.5 %), noise set from the mean instead of the instantaneous E_S "
        "(5.1 % / 11.6 %) nor E_SI = 0 (-3.7 % / 3.8 %) reverses the order. "
        "PAPER.md does not say which severe multipath channel the claim "
        "rests on")


@pytest.mark.slow
def test_criterion_7_filter_orderings(density_sweeps):
    me = density_sweeps["me"]
    outage = density_sweeps["outage"]
    capacity = density_sweeps["capacity"]
    failures = []
    for point in (2, 5, 10, 20):
        gaussian = me[(point, "gaussian", "pot", "me")]
        for other in ("rrc", "iota"):
            if gaussian < me[(point, other, "pot", "me")]:
                failures.append(f"ME S={point} gaussian {gaussian:.3f} < "
                                f"{other} {me[(point, other, 'pot', 'me')]:.3f}")
    for point in density_sweeps["grid"]:
        gaussian = outage[(point, "gaussian", "pot", "outage")]
        for other in ("rrc", "iota"):
            if gaussian > outage[(point, other, "pot", "outage")]:
                failures.append(f"outage S={point} gaussian {gaussian:.2f} > "
                                f"{other}")
                break
    for metric, table, grid in (("capacity", capacity,
                                 density_sweeps["grid"]),
                                ("me", me, (2, 5, 10, 20))):
        for point in grid:
            values = [table[(point, f, "full_overlap", metric)]
                      for f in THREE_FILTERS]
            spread = (max(values) - min(values)) / max(min(values), 1e-12)
            if spread > 0.01:
                failures.append(f"full-overlap {metric} S={point} spread "
                                f"{spread:.0%}")
                break
    ok = not failures
    detail = "all orderings hold" if ok else "; ".join(failures[:4])
    report(7, ok, detail)
    assert ok, (
        "measured cause: on the critical lattice at rho = 0.2 the Gaussian "
        "has E_SI = 1.24 E_S (RRC 0.049, IOTA 0.038; the theta series), so "
        "its documented ME max(0, 1 - sqrt(E_SI + E_OI) / sqrt(E_S))^2 is 0 "
        "whatever POT does, and its SINR cannot exceed -0.9 dB, 5.1 dB above "
        "the -6 dB outage threshold against 19-20 dB for RRC and IOTA. With "
        "uniform timing offsets the full-overlap coupling averages the sum "
        "over dn of the integral of |A(tau, dn)|^2, 2.24 for the Gaussian "
        "against 1.00 (RRC) and 1.01 (IOTA), so full-overlap curves cannot "
        "agree within 1 % across filters (S = 1: 0.658 against 2.125 "
        "bit/s/Hz). PAPER.md does not settle the lattice or the ME "
        "reference: " + detail)


@pytest.mark.slow
def test_criterion_8_density_monotonicity_and_convergence(density_sweeps):
    capacity = density_sweeps["capacity"]
    outage = density_sweeps["outage"]
    grid = density_sweeps["grid"]
    failures = []
    for family in THREE_FILTERS:
        for mode in ("pot", "full_overlap"):
            caps = [capacity[(point, family, mode, "capacity")]
                    for point in grid]
            if any(a < b for a, b in zip(caps, caps[1:])):
                failures.append(f"capacity not monotone: {family}/{mode}")
            outs = [outage[(point, family, mode, "outage")] for point in grid]
            if any(a > b for a, b in zip(outs, outs[1:])):
                failures.append(f"outage not monotone: {family}/{mode}")
    densest = grid[-1]
    pot = capacity[(densest, "gaussian", "pot", "capacity")]
    full = capacity[(densest, "gaussian", "full_overlap", "capacity")]
    gap = abs(pot - full) / full
    if gap > 0.10:
        failures.append(f"curves {gap:.0%} apart at S={densest}")
    ok = not failures
    detail = (f"monotone over {grid}, POT/full gap {gap:.0%} at S={densest}"
              if ok else "; ".join(failures))
    report(8, ok, detail)
    assert ok, (
        "measured cause: at S = 50 the entry protocol leaves 42 % of the "
        "aggressors on the victim's offset, 20 % at +-1/8 nu0 and the rest "
        "further out, so POT keeps 0.095 against 0.068 bit/s/Hz for full "
        "overlap (39 % apart). The offsets are not spread evenly; the spread "
        "that remains is the documented entry protocol, and PAPER.md "
        "promises gains for a wide range of densities, not convergence at "
        "S = 50: " + detail)


def test_criterion_9_identical_runs_are_byte_identical(out_root, tmp_path):
    config = ExperimentConfig(experiment="capacity_vs_aggressors",
                              filters=("gaussian",), aggressor_grid=(2,),
                              num_drops=6, seed=5, train_if_missing=True,
                              train_overrides={"episodes": 40, "ensemble": 2,
                                               "beta": 1.0,
                                               "epsilon_end": 0.3})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    first = out_root / "determinism_a"
    second = out_root / "determinism_b"
    code_a = main(["run", "--config", str(path), "--out", str(first)])
    code_b = main(["run", "--config", str(path), "--out", str(second)])
    same = ((first / "results.csv").read_bytes()
            == (second / "results.csv").read_bytes())
    ok = same and code_a == code_b
    report(9, ok, "results.csv byte-identical across reruns" if ok
           else "rerun output differs")
    assert code_a == code_b
    assert same
