"""Energy decomposition, SINR, capacity, efficiency, and outage."""

import math
import types
import warnings

import numpy as np
import pytest

import potsim
from potsim import (
    ChannelRealization,
    CrossAmbiguity,
    EnsembleEvaluator,
    ExperimentConfig,
    InterferenceProfile,
    LatticeConfig,
    Link,
    ParameterError,
    ScenarioEnergies,
    capacity,
    generate_drop,
    make_gaussian,
    make_rrc,
    multiuser_efficiency,
    outage,
    sinr,
    sinr_linear,
    victim_energy_tables,
)
from potsim.interference import profile_at

Q = 8


def unit_tap(gain=1.0):
    return ChannelRealization(path_gain=abs(gain) ** 2, tap_delays=(0.0,),
                              tap_gains=(1.0 + 0j,))


def link_at(link_id, rank, timing=0.0, fo_index=0):
    return Link(link_id=link_id, tp_position=(0.0, 0.0), rp_position=(1.0, 0.0),
                entry_rank=rank, timing_offset=timing, fo_index=fo_index)


def profile_of(victim, aggressors, realizations, cross, noise_var):
    """The victim's energy split at the links' FO indices, as a sweep reads it."""
    qdiffs = [aggressor.fo_index - victim.fo_index for aggressor in aggressors]
    tables = victim_energy_tables(victim, aggressors, realizations, cross)
    return profile_at(*tables, aggressors, qdiffs, noise_var)


@pytest.fixture(scope="module")
def setup(lattice, gaussian_02):
    cross = CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=Q)
    victim = link_at(0, 1)
    return lattice, cross, victim


def realizations_for(victim, aggressors, gain=1.0):
    table = {(victim.link_id, victim.link_id): unit_tap()}
    for aggressor in aggressors:
        table[(aggressor.link_id, victim.link_id)] = unit_tap(gain)
    return table


# ---------------------------------------------------------------------------
# energy decomposition


def test_no_aggressors_means_no_cross_interference(setup):
    lattice, cross, victim = setup
    profile = profile_of(victim, [], realizations_for(victim, []), cross, noise_var=0.0)
    assert profile.e_cci == 0.0
    assert profile.per_aggressor == {}
    assert profile.e_signal == pytest.approx(1.0, abs=1e-6)


def test_fully_overlapping_equal_gain_aggressor_couples_at_least_signal_energy(setup):
    lattice, cross, victim = setup
    aggressor = link_at(1, 2)
    profile = profile_of(victim, [aggressor], realizations_for(victim, [aggressor]),
                        cross, noise_var=0.0)
    # Same filter, same FO, same timing: the (0, 0) term alone already equals
    # the signal energy, the non-orthogonal lattice tails add on top of it.
    assert profile.per_aggressor[1] >= profile.e_signal - 1e-9


def test_full_overlap_gaussian_coupling_matches_theta_series(setup):
    lattice, cross, victim = setup
    aggressor = link_at(1, 2)
    profile = profile_of(victim, [aggressor], realizations_for(victim, [aggressor]),
                        cross, noise_var=0.0)
    rho = 0.2
    time_series = sum(math.exp(-math.pi * rho * l * l) for l in range(-11, 12))
    freq_series = sum(math.exp(-math.pi * n * n / rho) for n in range(0, 12))
    assert profile.per_aggressor[1] == pytest.approx(time_series * freq_series, rel=1e-3)
    assert profile.e_self == pytest.approx(time_series * freq_series - 1.0, rel=1e-3)


def test_half_spacing_offset_couples_less_than_full_overlap(setup):
    lattice, cross, victim = setup
    overlapped = link_at(1, 2)
    shifted = link_at(1, 2, fo_index=4)
    reals = realizations_for(victim, [overlapped])
    full = profile_of(victim, [overlapped], reals, cross, 0.0).per_aggressor[1]
    half = profile_of(victim, [shifted], reals, cross, 0.0).per_aggressor[1]
    assert half < full


def test_orthogonal_rrc_design_lattice_has_negligible_self_interference():
    alpha = 0.2
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.0 + alpha)
    pulse = make_rrc(alpha)
    cross = CrossAmbiguity(pulse, pulse, lat, fo_quantum=Q)
    victim = link_at(0, 1)
    profile = profile_of(victim, [], realizations_for(victim, []), cross, 0.0)
    assert profile.e_self <= 1e-3 * profile.e_signal


def test_orthogonal_full_overlap_aggressor_couples_exactly_signal_energy():
    # With an orthogonal pulse the only surviving burst term of a perfectly
    # aligned equal-gain aggressor is its co-slot symbol, so per-aggressor
    # energy collapses to the signal energy instead of exceeding it.
    alpha = 0.2
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.0 + alpha)
    pulse = make_rrc(alpha)
    cross = CrossAmbiguity(pulse, pulse, lat, fo_quantum=Q)
    victim = link_at(0, 1)
    aggressor = link_at(1, 2)
    reals = realizations_for(victim, [aggressor])
    profile = profile_of(victim, [aggressor], reals, cross, 0.0)
    assert profile.per_aggressor[1] == pytest.approx(profile.e_signal, rel=1e-3)


def test_cci_is_additive_over_aggressors(setup):
    lattice, cross, victim = setup
    aggressors = [link_at(1, 2, timing=0.3 * lattice.tau0, fo_index=2),
                  link_at(2, 3, timing=0.7 * lattice.tau0, fo_index=5)]
    reals = realizations_for(victim, aggressors, gain=0.5)
    both = profile_of(victim, aggressors, reals, cross, 0.0)
    assert both.e_cci == pytest.approx(sum(both.per_aggressor.values()), rel=1e-9)
    first_only = profile_of(victim, aggressors[:1], reals, cross, 0.0)
    assert both.e_cci - both.per_aggressor[2] == pytest.approx(first_only.e_cci, rel=1e-12)


def test_missing_realization_is_a_config_error(setup):
    lattice, cross, victim = setup
    aggressor = link_at(1, 2)
    with pytest.raises(potsim.ConfigError):
        profile_of(victim, [aggressor], realizations_for(victim, []), cross, 0.0)


def test_off_grid_fo_difference_is_rejected(setup):
    lattice, cross, victim = setup
    aggressor = link_at(1, 2)
    tables = victim_energy_tables(victim, [aggressor],
                                  realizations_for(victim, [aggressor]), cross)
    # The tables span qdiff in (-Q, Q); a wider difference has no column.
    for qdiff in (Q, -Q, 2 * Q):
        with pytest.raises(potsim.ConfigError):
            profile_at(*tables, [aggressor], [qdiff], 0.0)


def test_negative_energies_are_rejected():
    with pytest.raises(ParameterError):
        InterferenceProfile(e_signal=-1.0, e_self=0.0, noise_var=0.0)
    with pytest.raises(ParameterError):
        InterferenceProfile(e_signal=1.0, e_self=0.0, noise_var=0.0,
                            per_aggressor={3: -0.1})


# ---------------------------------------------------------------------------
# scalar metrics


def test_sinr_of_simple_ratios():
    clean = InterferenceProfile(e_signal=1.0, e_self=0.0, noise_var=0.1)
    assert sinr(clean) == pytest.approx(10.0, abs=1e-9)
    interfered = InterferenceProfile(e_signal=1.0, e_self=0.0, noise_var=0.0,
                                     per_aggressor={1: 1.0})
    assert sinr(interfered) == pytest.approx(0.0, abs=1e-9)


def test_sinr_is_scale_invariant():
    base = InterferenceProfile(e_signal=1.0, e_self=0.2, noise_var=0.05,
                               per_aggressor={1: 0.3})
    scaled = InterferenceProfile(e_signal=7.0, e_self=1.4, noise_var=0.35,
                                 per_aggressor={1: 2.1})
    assert sinr(base) == pytest.approx(sinr(scaled), abs=1e-9)


def test_sinr_sentinels_at_degenerate_profiles():
    silent = InterferenceProfile(e_signal=0.0, e_self=0.1, noise_var=0.0)
    assert sinr(silent) == -math.inf
    noiseless = InterferenceProfile(e_signal=1.0, e_self=0.0, noise_var=0.0)
    assert sinr(noiseless) == math.inf
    assert sinr_linear(noiseless) == math.inf


def test_zero_sinr_gives_zero_capacity():
    profile = InterferenceProfile(e_signal=0.0, e_self=0.0, noise_var=1.0)
    assert capacity(profile) == 0.0


def test_capacity_is_shannon_in_the_linear_ratio():
    profile = InterferenceProfile(e_signal=3.0, e_self=0.0, noise_var=1.0)
    assert capacity(profile) == pytest.approx(2.0, abs=1e-12)


def test_efficiency_is_one_without_interference():
    profile = InterferenceProfile(e_signal=1.0, e_self=0.0, noise_var=0.2)
    assert multiuser_efficiency(profile, a_peak=1.0, g_u=1.0) == 1.0


def test_efficiency_clamps_to_zero_when_interference_dominates():
    profile = InterferenceProfile(e_signal=1.0, e_self=0.5, noise_var=0.0,
                                  per_aggressor={1: 0.6})
    assert multiuser_efficiency(profile, a_peak=1.0, g_u=1.0) == 0.0


def test_efficiency_matches_the_closed_form_between_the_clamps():
    profile = InterferenceProfile(e_signal=1.0, e_self=0.09, noise_var=0.0,
                                  per_aggressor={1: 0.16})
    expected = (1.0 - math.sqrt(0.25)) ** 2
    assert multiuser_efficiency(profile, a_peak=1.0, g_u=1.0) == pytest.approx(expected, abs=1e-12)


def test_efficiency_never_leaves_the_unit_interval_and_decreases_with_interference():
    rng = np.random.default_rng(0)
    last = 1.0
    for e_extra in np.linspace(0.0, 2.0, 21):
        profile = InterferenceProfile(e_signal=1.0, e_self=0.05, noise_var=0.0,
                                      per_aggressor={1: float(e_extra)})
        eta = multiuser_efficiency(profile, a_peak=1.0, g_u=1.0)
        assert 0.0 <= eta <= 1.0
        assert eta <= last + 1e-12
        last = eta
    del rng


def test_outage_uses_a_strict_threshold():
    below = InterferenceProfile(e_signal=10 ** (-0.7), e_self=0.0, noise_var=1.0)
    assert sinr(below) == pytest.approx(-7.0, abs=1e-9)
    assert outage(below, threshold_db=-6.0)
    boundary = InterferenceProfile(e_signal=10 ** (-0.6), e_self=0.0, noise_var=1.0)
    assert sinr(boundary) == pytest.approx(-6.0, abs=1e-9)
    assert not outage(boundary, threshold_db=-6.0)


# ---------------------------------------------------------------------------
# precomputed scenario tables agree with the direct route


def build_scenario(num_links, seed):
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    scenario = generate_drop(config, num_links - 1, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for q, link in zip(rng.integers(0, Q, size=num_links), scenario.links):
        scenario.set_fo_index(link, int(q))
    model = potsim.ChannelModel.epa(800e6)
    realizations = {}
    for rx in scenario.links:
        for tx in scenario.links:
            distance = math.dist(tx.tp_position, rx.rp_position)
            realizations[(tx.link_id, rx.link_id)] = potsim.realize_channel(
                model, max(distance, 1e-3), np.random.default_rng([seed, tx.link_id, rx.link_id]))
    return scenario, realizations


def network_capacity(scenario, realizations, cross, noise):
    """Sum over links of the direct-route capacity, each link as the victim."""
    total = 0.0
    for index, victim in enumerate(scenario.links):
        aggressors = [link for link in scenario.links if link is not victim]
        total += capacity(profile_of(victim, aggressors, realizations, cross,
                                     float(noise[index])))
    return total


def test_scenario_tables_reproduce_direct_decomposition(lattice, cross_gaussian):
    scenario, realizations = build_scenario(4, seed=77)
    energies = ScenarioEnergies(scenario, realizations, cross_gaussian, noise_var=0.01)
    for index, victim in enumerate(scenario.links):
        aggressors = [link for link in scenario.links if link is not victim]
        direct = profile_of(victim, aggressors, realizations, cross_gaussian, 0.01)
        assert energies.e_signal[index] == pytest.approx(direct.e_signal, rel=1e-12)
        assert energies.e_self[index] == pytest.approx(direct.e_self, rel=1e-12)
        assert energies.noise[index] == 0.01
        for source, link in enumerate(scenario.links):
            if link is victim:
                continue
            qdiff = link.fo_index - victim.fo_index
            tabled = energies.cci[source, index, qdiff + Q - 1]
            assert tabled == pytest.approx(direct.per_aggressor[link.link_id], rel=1e-9)


def test_victim_tables_slice_to_the_same_profile(lattice, cross_gaussian):
    scenario, realizations = build_scenario(4, seed=78)
    victim = scenario.links[0]
    aggressors = scenario.links[1:]
    e_signal, e_self, profiles = victim_energy_tables(
        victim, aggressors, realizations, cross_gaussian)
    direct = profile_of(victim, aggressors, realizations, cross_gaussian, 0.0)
    # Own energies from the block itself: the zero-delay term on the
    # reference subcarrier is the signal, every other term self-interference.
    own = np.abs(cross_gaussian.convolved_block(
        realizations[(0, 0)], 0.0, 0)) ** 2
    signal = own[lattice.num_symbols - 1, cross_gaussian.reference_subcarrier]
    assert e_signal == direct.e_signal == pytest.approx(signal, rel=1e-12)
    assert e_self == direct.e_self == pytest.approx(own.sum() - signal, rel=1e-9)
    assert profiles.shape == (len(aggressors), 2 * Q - 1)
    for row, aggressor in zip(profiles, aggressors):
        qdiff = aggressor.fo_index - victim.fo_index
        rel_delay = (aggressor.timing_offset - victim.timing_offset) % lattice.tau0
        pair = cross_gaussian.cci_energy_profile(
            realizations[(aggressor.link_id, 0)], rel_delay)
        assert np.array_equal(row, pair)
        assert direct.per_aggressor[aggressor.link_id] == row[qdiff + Q - 1]


def test_scenario_sum_capacity_matches_profile_route(lattice, cross_gaussian):
    scenario, realizations = build_scenario(4, seed=79)
    # The evaluator holds the first link at FO 0.
    scenario.set_fo_index(scenario.links[0], 0)
    energies = ScenarioEnergies(scenario, realizations, cross_gaussian, snr_db=10.0)
    state = tuple(link.fo_index for link in scenario.links[1:])
    via_profiles = network_capacity(scenario, realizations, cross_gaussian,
                                    energies.noise)
    evaluator = EnsembleEvaluator([energies])
    assert evaluator.mean_sum_capacity(state) == pytest.approx(via_profiles, rel=1e-12)


def test_infinite_snr_zeroes_the_noise_floor(lattice, cross_gaussian):
    scenario, realizations = build_scenario(3, seed=80)
    energies = ScenarioEnergies(scenario, realizations, cross_gaussian, snr_db=math.inf)
    assert np.all(energies.noise == 0.0)


def test_ensemble_evaluator_averages_per_drop_capacities(lattice, cross_gaussian):
    drops = []
    per_drop = []
    for seed in (101, 102, 103):
        scenario, realizations = build_scenario(3, seed=seed)
        for link, q in zip(scenario.links, (0, 2, 7)):
            scenario.set_fo_index(link, q)
        drop = ScenarioEnergies(scenario, realizations, cross_gaussian, snr_db=10.0)
        drops.append(drop)
        per_drop.append(network_capacity(scenario, realizations, cross_gaussian,
                                         drop.noise))
    evaluator = EnsembleEvaluator(drops)
    state = (2, 7)
    assert evaluator.mean_sum_capacity(state) == pytest.approx(np.mean(per_drop), rel=1e-12)


def take_along_axis_capacity(evaluator, state):
    """The capacity query as one take_along_axis gather: the fast path's oracle."""
    assignment = np.concatenate(([0], np.asarray(state, dtype=int)))
    idx = assignment[:, None] - assignment[None, :] + evaluator.fo_quantum - 1
    gathered = np.take_along_axis(
        evaluator._cci, idx[None, :, :, None], axis=3)[..., 0]
    e_oi = gathered.sum(axis=1)
    with np.errstate(divide="ignore"):
        ratio = evaluator._e_signal / (evaluator._e_self + e_oi + evaluator._noise)
    return float(np.log2(1.0 + ratio).sum(axis=1).mean())


def random_drop(num_links, rng, floor=0.1):
    """Energy tables with independent random entries in every cell.

    floor scales E_SI and noise; at zero the denominator has no floor.
    """
    return types.SimpleNamespace(
        link_ids=list(range(num_links)), fo_quantum=Q,
        cci=rng.exponential(size=(num_links, num_links, 2 * Q - 1)),
        e_signal=rng.exponential(size=num_links),
        e_self=rng.exponential(floor, size=num_links),
        noise=rng.exponential(floor, size=num_links))


@pytest.mark.parametrize("count", [1, 5, 12])
def test_mean_sum_capacity_is_bit_identical_to_the_gather_oracle(count):
    rng = np.random.default_rng(count)
    # Without E_SI and noise a query has to guard against a zero denominator.
    for floor in (0.1, 0.0):
        evaluator = EnsembleEvaluator([random_drop(count + 1, rng, floor)
                                       for _ in range(3)])
        # The FO grid wraps: Q - 1 next to 0 reads the extreme columns 0
        # and 2Q - 2.
        wrap = [tuple((Q - 1) * (i % 2) for i in range(count)),
                (0,) * count, (Q - 1,) * count]
        random_states = [tuple(int(q) for q in rng.integers(0, Q, count))
                         for _ in range(200)]
        for state in wrap + random_states:
            assert (evaluator.mean_sum_capacity(state)
                    == take_along_axis_capacity(evaluator, state))


def test_zero_noise_and_zero_self_interference_give_infinite_capacity():
    drop = types.SimpleNamespace(
        link_ids=[0, 1], fo_quantum=Q, cci=np.zeros((2, 2, 2 * Q - 1)),
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
