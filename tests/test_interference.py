"""Energy decomposition and the link metrics: SINR, capacity, efficiency,
and outage."""

import math
import types
import warnings

import numpy as np
import pytest

import potsim
from potsim import (
    CrossAmbiguity,
    EnsembleEvaluator,
    ExperimentConfig,
    LatticeConfig,
    Link,
    ScenarioEnergies,
    generate_drop,
    link_metric,
    make_rrc,
    victim_energy_tables,
)
from potsim import interference

Q = 8


def link_at(rank, timing=0.0, fo_index=0):
    return Link(tp_position=(0.0, 0.0), rp_position=(1.0, 0.0),
                entry_rank=rank, timing_offset=timing, fo_index=fo_index)


def split_of(links, row, cross, victim=0):
    """(E_S, E_SI, each aggressor's energy at the links' FO indices) of
    ``links[victim]`` over its row of channels (path_gains, tap_gains,
    tap_delays), as a sweep reads the victim's tables."""
    e_signal, e_self, profiles = victim_energy_tables(links, victim, *row, cross)
    aggressors = links[:victim] + links[victim + 1:]
    per_aggressor = [float(r[a.fo_index - links[victim].fo_index + Q - 1])
                     for r, a in zip(profiles, aggressors)]
    return e_signal, e_self, per_aggressor


@pytest.fixture(scope="module")
def setup(lattice, gaussian_02):
    cross = CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=Q)
    victim = link_at(1)
    return lattice, cross, victim


def unit_taps(count, gain=1.0):
    """The victim's row for links[0] as the victim: unit single taps, its own
    channel at path gain 1 and every aggressor's at |gain|^2."""
    path_gains = np.full(count, abs(gain) ** 2)
    path_gains[0] = 1.0
    return path_gains, np.ones((count, 1), dtype=complex), (0.0,)


# ---------------------------------------------------------------------------
# energy decomposition


def test_no_aggressors_means_no_cross_interference(setup):
    lattice, cross, victim = setup
    e_signal, _, per_aggressor = split_of([victim], unit_taps(1), cross)
    assert per_aggressor == []
    assert e_signal == pytest.approx(1.0, abs=1e-6)


def test_fully_overlapping_equal_gain_aggressor_couples_at_least_signal_energy(setup):
    lattice, cross, victim = setup
    aggressor = link_at(2)
    e_signal, _, (e_oi,) = split_of([victim, aggressor], unit_taps(2), cross)
    # Same filter, same FO, same timing: the (0, 0) term alone already equals
    # the signal energy, the non-orthogonal lattice tails add on top of it.
    assert e_oi >= e_signal - 1e-9


def test_full_overlap_gaussian_coupling_matches_theta_series(setup):
    lattice, cross, victim = setup
    aggressor = link_at(2)
    _, e_self, (e_oi,) = split_of([victim, aggressor], unit_taps(2), cross)
    rho = 0.2
    time_series = sum(math.exp(-math.pi * rho * l * l) for l in range(-11, 12))
    freq_series = sum(math.exp(-math.pi * n * n / rho) for n in range(0, 12))
    assert e_oi == pytest.approx(time_series * freq_series, rel=1e-3)
    assert e_self == pytest.approx(time_series * freq_series - 1.0, rel=1e-3)


def test_half_spacing_offset_couples_less_than_full_overlap(setup):
    lattice, cross, victim = setup
    overlapped = link_at(2)
    shifted = link_at(2, fo_index=4)
    (full,) = split_of([victim, overlapped], unit_taps(2), cross)[2]
    (half,) = split_of([victim, shifted], unit_taps(2), cross)[2]
    assert half < full


def test_orthogonal_rrc_design_lattice_has_negligible_self_interference():
    alpha = 0.2
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.0 + alpha)
    pulse = make_rrc(alpha)
    cross = CrossAmbiguity(pulse, pulse, lat, fo_quantum=Q)
    e_signal, e_self, _ = split_of([link_at(1)], unit_taps(1), cross)
    assert e_self <= 1e-3 * e_signal


def test_orthogonal_full_overlap_aggressor_couples_exactly_signal_energy():
    # With an orthogonal pulse the only surviving burst term of a perfectly
    # aligned equal-gain aggressor is its co-slot symbol, so per-aggressor
    # energy collapses to the signal energy instead of exceeding it.
    alpha = 0.2
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.0 + alpha)
    pulse = make_rrc(alpha)
    cross = CrossAmbiguity(pulse, pulse, lat, fo_quantum=Q)
    e_signal, _, (e_oi,) = split_of([link_at(1), link_at(2)], unit_taps(2), cross)
    assert e_oi == pytest.approx(e_signal, rel=1e-3)


def test_cci_is_additive_over_aggressors(setup):
    lattice, cross, victim = setup
    aggressors = [link_at(2, timing=0.3 * lattice.tau0, fo_index=2),
                  link_at(3, timing=0.7 * lattice.tau0, fo_index=5)]
    both = split_of([victim] + aggressors, unit_taps(3, gain=0.5), cross)[2]
    first_only = split_of([victim] + aggressors[:1], unit_taps(2, gain=0.5),
                          cross)[2]
    # One aggressor's entry does not depend on which others are present.
    assert both[:1] == first_only
    assert sum(both) - both[1] == pytest.approx(sum(first_only), rel=1e-12)


# ---------------------------------------------------------------------------
# link metrics


def test_sinr_of_simple_ratios():
    # 10 dB without interference, 0 dB with an aggressor as strong as the
    # signal: the outage threshold brackets the SINR, capacity is Shannon's.
    for threshold, expected in ((10.0 + 1e-9, 1.0), (10.0 - 1e-9, 0.0)):
        assert link_metric("outage", 1.0, 0.0, 0.0, 0.1, threshold) == expected
    assert link_metric("capacity", 1.0, 0.0, 0.0, 0.1, -6.0) == pytest.approx(
        math.log2(11.0), abs=1e-12)
    for threshold, expected in ((1e-9, 1.0), (-1e-9, 0.0)):
        assert link_metric("outage", 1.0, 0.0, 1.0, 0.0, threshold) == expected
    assert link_metric("capacity", 1.0, 0.0, 1.0, 0.0, -6.0) == 1.0


def test_sinr_is_scale_invariant():
    for metric in ("capacity", "me"):
        base = link_metric(metric, 1.0, 0.2, 0.3, 0.05, -6.0)
        scaled = link_metric(metric, 7.0, 1.4, 2.1, 0.35, -6.0)
        assert base == pytest.approx(scaled, abs=1e-9)


def test_sinr_sentinels_at_degenerate_profiles():
    # No signal: zero SINR, an outage at any threshold, zero capacity.
    assert link_metric("outage", 0.0, 0.1, 0.0, 0.0, -1e300) == 1.0
    assert link_metric("capacity", 0.0, 0.1, 0.0, 0.0, -6.0) == 0.0
    # Signal without interference or noise: infinite SINR, never an outage.
    assert link_metric("capacity", 1.0, 0.0, 0.0, 0.0, -6.0) == math.inf
    assert link_metric("outage", 1.0, 0.0, 0.0, 0.0, 1e300) == 0.0


def test_zero_sinr_gives_zero_capacity():
    assert link_metric("capacity", 0.0, 0.0, 0.0, 1.0, -6.0) == 0.0


def test_capacity_is_shannon_in_the_linear_ratio():
    assert link_metric("capacity", 3.0, 0.0, 0.0, 1.0, -6.0) == pytest.approx(
        2.0, abs=1e-12)


def test_efficiency_is_one_without_interference():
    assert link_metric("me", 1.0, 0.0, 0.0, 0.2, -6.0) == 1.0


def test_efficiency_clamps_to_zero_when_interference_dominates():
    assert link_metric("me", 1.0, 0.5, 0.6, 0.0, -6.0) == 0.0


def test_efficiency_matches_the_closed_form_between_the_clamps():
    expected = (1.0 - math.sqrt(0.25)) ** 2
    assert link_metric("me", 1.0, 0.09, 0.16, 0.0, -6.0) == pytest.approx(
        expected, abs=1e-12)


def test_efficiency_never_leaves_the_unit_interval_and_decreases_with_interference():
    last = 1.0
    for e_extra in np.linspace(0.0, 2.0, 21):
        eta = link_metric("me", 1.0, 0.05, float(e_extra), 0.0, -6.0)
        assert 0.0 <= eta <= 1.0
        assert eta <= last + 1e-12
        last = eta


def test_outage_uses_a_strict_threshold():
    # SINR -7 dB is below -6 dB; SINR 10 ** -0.6 lands on the threshold.
    assert link_metric("outage", 10 ** (-0.7), 0.0, 0.0, 1.0, -6.0) == 1.0
    assert 10.0 * math.log10(10 ** (-0.6)) == pytest.approx(-6.0, abs=1e-9)
    assert link_metric("outage", 10 ** (-0.6), 0.0, 0.0, 1.0, -6.0) == 0.0


def test_unknown_metric_is_a_config_error():
    with pytest.raises(potsim.ConfigError):
        link_metric("sinr", 1.0, 0.0, 0.0, 1.0, -6.0)


# The per-profile formulas that ``link_metric`` folds into one function, kept
# as its oracle: a profile holds the energies and the per-aggressor dict whose
# sum is E_OI.


def oracle_sinr(profile):
    denom = profile.e_self + profile.e_cci + profile.noise_var
    if profile.e_signal == 0:
        return -math.inf
    if denom == 0:
        return math.inf
    return 10.0 * math.log10(profile.e_signal / denom)


def oracle_sinr_linear(profile):
    denom = profile.e_self + profile.e_cci + profile.noise_var
    if denom == 0:
        return math.inf if profile.e_signal > 0 else 0.0
    return profile.e_signal / denom


def oracle_multiuser_efficiency(profile, a_peak, g_u):
    reference = g_u * a_peak
    if reference == 0:
        return 0.0
    ratio = math.sqrt(profile.e_self + profile.e_cci) / reference
    return max(0.0, 1.0 - ratio) ** 2


def oracle_metric(metric, profile, threshold_db):
    if metric == "capacity":
        return math.log2(1.0 + oracle_sinr_linear(profile))
    if metric == "me":
        return oracle_multiuser_efficiency(profile, 1.0, math.sqrt(profile.e_signal))
    return float(oracle_sinr(profile) < threshold_db)


def test_link_metric_equals_the_per_profile_oracle():
    rng = np.random.default_rng(17)
    no_signal = no_denominator = 0
    for _ in range(2000):
        per_aggressor = dict(enumerate(
            rng.exponential(size=int(rng.integers(0, 6))).tolist()))
        # E_S, E_SI and the noise are each zero a quarter of the time.
        e_signal, e_self, noise_var = (rng.exponential(size=3)
                                       * (rng.random(3) >= 0.25)).tolist()
        profile = types.SimpleNamespace(
            e_signal=e_signal, e_self=e_self, noise_var=noise_var,
            e_cci=sum(per_aggressor.values()))
        threshold_db = float(rng.uniform(-20.0, 20.0))
        for metric in ("capacity", "me", "outage"):
            assert (link_metric(metric, e_signal, e_self, profile.e_cci,
                                noise_var, threshold_db)
                    == oracle_metric(metric, profile, threshold_db))
        no_signal += e_signal == 0
        no_denominator += e_signal > 0 and e_self + profile.e_cci + noise_var == 0
    assert no_signal and no_denominator


# ---------------------------------------------------------------------------
# precomputed scenario tables agree with the direct route


def build_scenario(num_links, seed):
    """An EPA drop with random FO indices, and its channels
    (path_gains, tap_gains, tap_delays) into every receiver, each pair drawn
    from its own stream."""
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    scenario = generate_drop(config, num_links - 1, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for q, link in zip(rng.integers(0, Q, size=num_links), scenario.links):
        scenario.set_fo_index(link, int(q))
    model = potsim.ChannelModel.epa(800e6)
    path_gains = np.empty((num_links, num_links))
    tap_gains = np.empty((num_links, num_links, len(model.taps)), dtype=complex)
    for r, rx in enumerate(scenario.links):
        for t, tx in enumerate(scenario.links):
            distance = math.dist(tx.tp_position, rx.rp_position)
            path_gains[r, t], tap_gains[r, t] = potsim.realize_channel(
                model, max(distance, 1e-3), np.random.default_rng([seed, t, r]))
    return scenario, (path_gains, tap_gains, model.tap_delays)


def network_capacity(scenario, channels, cross, noise):
    """Sum over links of the direct-route capacity, each link as the victim."""
    path_gains, tap_gains, tap_delays = channels
    total = 0.0
    for index in range(len(scenario.links)):
        e_signal, e_self, per_aggressor = split_of(
            scenario.links, (path_gains[index], tap_gains[index], tap_delays),
            cross, victim=index)
        total += link_metric("capacity", e_signal, e_self, sum(per_aggressor),
                             float(noise[index]), -6.0)
    return total


def test_scenario_tables_reproduce_direct_decomposition(lattice, cross_gaussian):
    scenario, channels = build_scenario(4, seed=77)
    path_gains, tap_gains, tap_delays = channels
    energies = ScenarioEnergies(scenario, *channels, cross_gaussian, snr_db=10.0)
    for index, victim in enumerate(scenario.links):
        aggressors = [link for link in scenario.links if link is not victim]
        e_signal, e_self, per_aggressor = split_of(
            scenario.links, (path_gains[index], tap_gains[index], tap_delays),
            cross_gaussian, victim=index)
        assert energies.e_signal[index] == pytest.approx(e_signal, rel=1e-12)
        assert energies.e_self[index] == pytest.approx(e_self, rel=1e-12)
        assert energies.noise[index] == energies.e_signal[index] / 10.0
        sources = [source for source, link in enumerate(scenario.links)
                   if link is not victim]
        for source, link, direct in zip(sources, aggressors, per_aggressor):
            qdiff = link.fo_index - victim.fo_index
            tabled = energies.cci[source, index, qdiff + Q - 1]
            assert tabled == pytest.approx(direct, rel=1e-9)


def test_victim_tables_slice_to_the_same_profile(lattice, cross_gaussian, fo_columns):
    scenario, (path_gains, tap_gains, tap_delays) = build_scenario(4, seed=78)
    victim = scenario.links[0]
    aggressors = scenario.links[1:]
    row = (path_gains[0], tap_gains[0], tap_delays)
    e_signal, e_self, profiles = victim_energy_tables(
        scenario.links, 0, *row, cross_gaussian)
    per_aggressor = split_of(scenario.links, row, cross_gaussian)[2]
    # Own energies from the block itself: the zero-delay term on the
    # reference subcarrier is the signal, every other term self-interference.
    own = np.abs(fo_columns(cross_gaussian, cross_gaussian.convolved_full(
        path_gains[0, 0], tap_gains[0, 0], tap_delays, 0.0), 0)) ** 2
    signal = own[lattice.num_symbols - 1, cross_gaussian.reference_subcarrier]
    assert e_signal == pytest.approx(signal, rel=1e-12)
    assert e_self == pytest.approx(own.sum() - signal, rel=1e-9)
    assert profiles.shape == (len(aggressors), 2 * Q - 1)
    for source, (row, aggressor, direct) in enumerate(
            zip(profiles, aggressors, per_aggressor), start=1):
        qdiff = aggressor.fo_index - victim.fo_index
        rel_delay = (aggressor.timing_offset - victim.timing_offset) % lattice.tau0
        pair = cross_gaussian.cci_energy_profiles(
            path_gains[0, source:source + 1], tap_gains[0, source:source + 1],
            tap_delays, [rel_delay])[0]
        assert np.array_equal(row, pair)
        assert direct == row[qdiff + Q - 1]


def test_scenario_sum_capacity_matches_profile_route(lattice, cross_gaussian):
    scenario, channels = build_scenario(4, seed=79)
    # The evaluator holds the first link at FO 0.
    scenario.set_fo_index(scenario.links[0], 0)
    energies = ScenarioEnergies(scenario, *channels, cross_gaussian, snr_db=10.0)
    state = tuple(link.fo_index for link in scenario.links[1:])
    via_profiles = network_capacity(scenario, channels, cross_gaussian,
                                    energies.noise)
    evaluator = EnsembleEvaluator([energies])
    assert evaluator.mean_sum_capacity(state) == pytest.approx(via_profiles, rel=1e-12)


def test_infinite_snr_zeroes_the_noise_floor(lattice, cross_gaussian):
    scenario, channels = build_scenario(3, seed=80)
    energies = ScenarioEnergies(scenario, *channels, cross_gaussian, snr_db=math.inf)
    assert np.all(energies.noise == 0.0)


def test_ensemble_evaluator_averages_per_drop_capacities(lattice, cross_gaussian):
    drops = []
    per_drop = []
    for seed in (101, 102, 103):
        scenario, channels = build_scenario(3, seed=seed)
        for link, q in zip(scenario.links, (0, 2, 7)):
            scenario.set_fo_index(link, q)
        drop = ScenarioEnergies(scenario, *channels, cross_gaussian, snr_db=10.0)
        drops.append(drop)
        per_drop.append(network_capacity(scenario, channels, cross_gaussian,
                                         drop.noise))
    evaluator = EnsembleEvaluator(drops)
    state = (2, 7)
    assert evaluator.mean_sum_capacity(state) == pytest.approx(np.mean(per_drop), rel=1e-12)


def take_along_axis_capacity(drops, state):
    """The capacity query as one take_along_axis gather over the drops'
    stacked tables: the fast path's oracle."""
    cci, e_signal, e_self, noise = (np.stack([getattr(d, name) for d in drops])
                                    for name in ("cci", "e_signal", "e_self", "noise"))
    assignment = np.concatenate(([0], np.asarray(state, dtype=int)))
    idx = assignment[:, None] - assignment[None, :] + drops[0].fo_quantum - 1
    gathered = np.take_along_axis(cci, idx[None, :, :, None], axis=3)[..., 0]
    e_oi = gathered.sum(axis=1)
    with np.errstate(divide="ignore"):
        ratio = e_signal / (e_self + e_oi + noise)
    return float(np.log2(1.0 + ratio).sum(axis=1).mean())


def random_drop(num_links, rng, floor=0.1):
    """Energy tables with independent random entries in every cell.

    floor scales E_SI and noise; at zero the denominator has no floor.
    """
    return types.SimpleNamespace(
        fo_quantum=Q,
        cci=rng.exponential(size=(num_links, num_links, 2 * Q - 1)),
        e_signal=rng.exponential(size=num_links),
        e_self=rng.exponential(floor, size=num_links),
        noise=rng.exponential(floor, size=num_links))


@pytest.mark.parametrize("count", [1, 5, 12])
def test_mean_sum_capacity_is_bit_identical_to_the_gather_oracle(count):
    rng = np.random.default_rng(count)
    # Without E_SI and noise a query has to guard against a zero denominator.
    for floor in (0.1, 0.0):
        drops = [random_drop(count + 1, rng, floor) for _ in range(3)]
        evaluator = EnsembleEvaluator(drops)
        # The FO grid wraps: Q - 1 next to 0 reads the extreme columns 0
        # and 2Q - 2.
        wrap = [tuple((Q - 1) * (i % 2) for i in range(count)),
                (0,) * count, (Q - 1,) * count]
        random_states = [tuple(int(q) for q in rng.integers(0, Q, count))
                         for _ in range(200)]
        for state in wrap + random_states:
            assert (evaluator.mean_sum_capacity(state)
                    == take_along_axis_capacity(drops, state))


def random_walk(count, rng, length=300):
    """Training-like states: repeats, no-ops, one-link steps with
    wraparound, multi-link jumps and returns to the all-zero state."""
    state = [0] * count
    states = []
    for _ in range(length):
        move = rng.integers(5)
        if move == 1:
            link = rng.integers(count)
            state[link] = int((state[link] + rng.choice((-1, 1))) % Q)
        elif move == 2:
            for link in rng.choice(count, size=rng.integers(1, count + 1)):
                state[link] = int(rng.integers(Q))
        elif move == 3:
            state = [0] * count
        states.append(tuple(state))
    return states


@pytest.mark.parametrize("route", ["whole", "row by row"])
@pytest.mark.parametrize("count,ensemble", [(1, 3), (5, 4), (12, 20), (30, 4)])
def test_batch_query_is_bit_identical_to_the_gather_oracle(monkeypatch, route,
                                                            count, ensemble):
    monkeypatch.setattr(interference, "_WHOLE_GATHER_CELLS",
                        math.inf if route == "whole" else 0)
    rng = np.random.default_rng([count, ensemble])
    for floor in (0.1, 0.0):
        drops = [random_drop(count + 1, rng, floor) for _ in range(ensemble)]
        if floor == 0.0:
            # Without E_SI and noise, zero cells at every even FO difference
            # leave a zero denominator wherever a link's differences are
            # all even: the all-zero state at least.
            for drop in drops:
                drop.cci[:, :, 1::2] = 0.0
        evaluator = EnsembleEvaluator(drops)
        states = random_walk(count, rng)
        capacities = []
        start = 0
        while start < len(states):
            # One-row batches, repeats within a batch and across batches.
            size = int(rng.choice((1, 1, 2, 7, 40)))
            batch = states[start:start + size]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = evaluator._mean_sum_capacities(np.array(batch))
            assert got == [take_along_axis_capacity(drops, state)
                           for state in batch]
            capacities += got
            start += size
        assert any(map(math.isinf, capacities)) == (floor == 0.0)
        assert (evaluator.mean_sum_capacity(states[-1])
                == take_along_axis_capacity(drops, states[-1]))


def test_zero_noise_and_zero_self_interference_give_infinite_capacity():
    drop = types.SimpleNamespace(
        fo_quantum=Q, cci=np.zeros((2, 2, 2 * Q - 1)),
        e_signal=np.ones(2), e_self=np.zeros(2), noise=np.zeros(2))
    drop.cci[1, 0, Q - 1] = drop.cci[0, 1, Q - 1] = 0.5
    evaluator = EnsembleEvaluator([drop])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluator.mean_sum_capacity((3,)) == math.inf
        assert evaluator.mean_sum_capacity((0,)) == pytest.approx(2 * math.log2(3.0))


def test_mean_sum_capacity_rejects_states_off_the_grid():
    evaluator = EnsembleEvaluator([random_drop(3, np.random.default_rng(0))])
    for state in ((0, Q), (-1, 0), (0,)):
        with pytest.raises(potsim.ConfigError):
            evaluator.mean_sum_capacity(state)
