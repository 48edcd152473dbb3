"""Scenario generation, the 3 dB counting rule, and the entry protocol."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import potsim
from potsim import (
    ExperimentConfig,
    Link,
    NetworkScenario,
    ParameterError,
    PolicyUnavailableError,
    entry_sequence,
    generate_drop,
    sample_point_near,
    update_aggressor_count,
)
from potsim.network import FixedAssignmentPolicy

#: Default geometry: a 1 km square, 100 m links, the 200 kHz 12x12 lattice.
CONFIG = ExperimentConfig(experiment="capacity_vs_aggressors")


def make_link(link_id, rank):
    return Link(link_id=link_id, tp_position=(0.0, 0.0), rp_position=(1.0, 0.0),
                entry_rank=rank)


def fresh_scenario(num_links, seed=0):
    """A drop of num_links links that enter in a seeded random order."""
    rng = np.random.default_rng(seed)
    scenario = generate_drop(CONFIG, num_links - 1, rng)
    for link, rank in zip(scenario.links, rng.permutation(num_links) + 1):
        link.entry_rank = int(rank)
    return scenario


def recording_policy(fallback):
    """A fixed policy that lists, in order, the counts it is consulted at."""
    fixed = FixedAssignmentPolicy({}, fallback=fallback)
    consulted = []

    def fo_assignment(count):
        consulted.append(count)
        return fixed.fo_assignment(count)

    return types.SimpleNamespace(fo_assignment=fo_assignment), consulted


# ---------------------------------------------------------------------------
# geometry


def test_scenario_respects_area_and_range_bounds(lattice):
    scenario = fresh_scenario(50, seed=3)
    for link in scenario.links:
        for coord in (*link.tp_position, *link.rp_position):
            assert 0.0 <= coord <= 1000.0
        assert 0.0 < link.length <= 100.0
        assert link.fo_index == 0
        assert 0.0 <= link.timing_offset < lattice.tau0


def test_single_link_scenario_has_no_aggressors():
    scenario = fresh_scenario(1)
    assert scenario.links[0].aggressor_count == 0


def test_generation_is_seed_deterministic():
    a = fresh_scenario(10, seed=42)
    b = fresh_scenario(10, seed=42)
    for la, lb in zip(a.links, b.links):
        assert la.tp_position == lb.tp_position
        assert la.rp_position == lb.rp_position
        assert la.entry_rank == lb.entry_rank
        assert la.timing_offset == lb.timing_offset


def test_duplicate_entry_ranks_are_rejected(lattice):
    links = [make_link(0, 1), make_link(1, 1)]
    with pytest.raises((potsim.ConfigError, ParameterError)):
        NetworkScenario(links=links, area_side=100.0, max_link_range=10.0,
                        lattice=lattice, fo_quantum=8)


@given(st.floats(min_value=0.0, max_value=1000.0),
       st.floats(min_value=0.0, max_value=1000.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_paired_points_stay_in_area_and_range(x, y, seed):
    center = np.array([x, y])
    point = sample_point_near(center, 100.0, 1000.0, np.random.default_rng(seed))
    assert 0.0 <= point[0] <= 1000.0
    assert 0.0 <= point[1] <= 1000.0
    assert np.hypot(point[0] - x, point[1] - y) <= 100.0 + 1e-9


def numpy_point_near(center, max_range, area_side, rng):
    """sample_point_near's numpy-array formula; returns (point, draws)."""
    center = np.asarray(center, dtype=float)
    draws = 0
    while True:
        draws += 1
        radius = max_range * np.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * np.pi)
        point = center + radius * np.array([np.cos(angle), np.sin(angle)])
        if 0 <= point[0] <= area_side and 0 <= point[1] <= area_side:
            return (float(point[0]), float(point[1])), draws


def test_paired_points_replay_the_numpy_formula():
    # Corners and edges reject most disk draws, so points are drawn again.
    centers = [(0.0, 0.0), (1000.0, 1000.0), (0.0, 500.0), (1000.0, 0.0),
               (3.7, 999.1), (500.0, 500.0), (12.5, 640.0)]
    redrawn = 0
    for seed in range(300):
        for i, center in enumerate(centers):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            if i % 2:
                center = np.array(center)
            point = sample_point_near(center, 100.0, 1000.0, rng)
            expected, draws = numpy_point_near(center, 100.0, 1000.0, oracle_rng)
            assert point == expected
            assert all(type(value) is float for value in point)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            redrawn += draws > 1
    assert redrawn > 300


CENTERS = [(0.0, 0.0), (1000.0, 1000.0), (0.0, 500.0), (500.0, 500.0), (12.5, 640.0)]


def farthest_corner(center, area_side=1000.0):
    return max(math.hypot(center[0] - x, center[1] - y)
               for x in (0.0, area_side) for y in (0.0, area_side))


def test_disks_short_of_covering_the_area_replay_the_numpy_formula():
    # Up to the largest radius that leaves the farthest corner outside, the
    # disk is resampled as before, draw for draw.
    for seed in range(40):
        for center in CENTERS:
            far = farthest_corner(center)
            for max_range in (0.5 * far, 0.9 * far, math.nextafter(far, 0.0)):
                rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
                point = sample_point_near(center, max_range, 1000.0, rng)
                expected, _ = numpy_point_near(center, max_range, 1000.0, oracle_rng)
                assert point == expected
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_a_disk_covering_the_area_draws_uniformly_over_it():
    # A 1e12 m radius once resampled practically forever.
    for center in CENTERS:
        for max_range in (farthest_corner(center), 1500.0, 1e12, math.inf):
            rng, oracle_rng = (np.random.default_rng(5) for _ in range(2))
            point = sample_point_near(center, max_range, 1000.0, rng)
            assert point == (oracle_rng.uniform(0.0, 1000.0),
                             oracle_rng.uniform(0.0, 1000.0))
            assert all(type(value) is float for value in point)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_the_direct_draw_matches_the_resampled_distribution():
    # Resampling a covering disk converges to the uniform law on the area;
    # a 1500 m disk still lands in the 1 km square one draw in seven.
    direct = np.array([sample_point_near((300.0, 800.0), 1500.0, 1000.0,
                                         np.random.default_rng([1, i]))
                       for i in range(2000)])
    resampled = np.array([numpy_point_near((300.0, 800.0), 1500.0, 1000.0,
                                           np.random.default_rng([2, i]))[0]
                          for i in range(2000)])
    for axis in (0, 1):
        assert stats.ks_2samp(direct[:, axis], resampled[:, axis]).pvalue > 1e-3


# ---------------------------------------------------------------------------
# counting rule


def test_drop_beyond_three_db_increments_the_counter():
    link = make_link(0, 1)
    link.aggressor_count = 2
    assert update_aggressor_count(link, 10.0, 5.5) == 3


def test_small_changes_leave_the_counter_alone():
    link = make_link(0, 1)
    link.aggressor_count = 2
    assert update_aggressor_count(link, 10.0, 8.5) == 2
    assert update_aggressor_count(link, 10.0, 12.9) == 2


def test_counter_is_floored_at_zero():
    link = make_link(0, 1)
    assert update_aggressor_count(link, 10.0, 14.0) == 0


def test_exact_three_db_change_is_not_an_event():
    link = make_link(0, 1)
    link.aggressor_count = 1
    assert update_aggressor_count(link, 10.0, 7.0) == 1
    assert update_aggressor_count(link, 10.0, 13.0) == 1


def test_infinite_drop_counts_once():
    link = make_link(0, 1)
    assert update_aggressor_count(link, math.inf, 0.0) == 1


# ---------------------------------------------------------------------------
# entry protocol


@pytest.mark.parametrize("num_links", [2, 3, 4, 5])
def test_noiseless_counting_converges_to_true_aggressor_number(num_links):
    scenario = fresh_scenario(num_links, seed=num_links)
    policy = FixedAssignmentPolicy({}, fallback=tuple(range(8)))
    entry_sequence(scenario, policy)
    for link in scenario.links:
        assert link.aggressor_count == num_links - 1


def test_consulted_counts_equal_number_of_links_present_at_entry():
    scenario = fresh_scenario(5, seed=9)
    policy, consulted = recording_policy(tuple(range(8)))
    entry_sequence(scenario, policy)
    # The first entrant hears nobody and never consults the policy.
    assert consulted == [1, 2, 3, 4]


def test_sole_link_keeps_zero_offset():
    scenario = fresh_scenario(1)
    policy, consulted = recording_policy((3,))
    entry_sequence(scenario, policy)
    assert consulted == []
    assert scenario.links[0].fo_index == 0


def test_two_links_end_with_distinct_quantized_offsets():
    scenario = fresh_scenario(2, seed=5)
    policy = FixedAssignmentPolicy({1: (4,)})
    entry_sequence(scenario, policy)
    first, second = scenario.by_entry_order()
    assert first.fo_index == 0
    assert second.fo_index == 4


def test_second_entrant_ends_with_two_aggressors_and_its_own_offset():
    scenario = fresh_scenario(3, seed=2)
    policy = FixedAssignmentPolicy({1: (4,), 2: (2, 6)})
    entry_sequence(scenario, policy)
    by_order = scenario.by_entry_order()
    assert by_order[1].aggressor_count == 2
    assert by_order[1].fo_index != by_order[0].fo_index


def test_no_duplicate_offsets_while_unclaimed_offsets_remain():
    scenario = fresh_scenario(8, seed=13)
    # A policy that keeps prescribing the same index must still spread links
    # over the quantized grid while unused offsets exist.
    policy = FixedAssignmentPolicy({}, fallback=(4,))
    entry_sequence(scenario, policy)
    offsets = [link.fo_index for link in scenario.links]
    assert len(set(offsets)) == len(offsets)


def test_replaying_the_sequence_is_idempotent():
    scenario = fresh_scenario(4, seed=21)
    policy = FixedAssignmentPolicy({}, fallback=(1, 5, 3))
    assert entry_sequence(scenario, policy) is None
    first = [link.fo_index for link in scenario.links]
    entry_sequence(scenario, policy)
    assert [link.fo_index for link in scenario.links] == first
    for link in scenario.links:
        assert link.aggressor_count == 3


def test_full_overlap_baseline_keeps_all_offsets_at_zero():
    scenario = fresh_scenario(6, seed=8)
    entry_sequence(scenario, None)
    assert all(link.fo_index == 0 for link in scenario.links)
    assert all(link.aggressor_count == 5 for link in scenario.links)


def test_missing_count_level_raises_policy_unavailable():
    scenario = fresh_scenario(3, seed=4)
    policy = FixedAssignmentPolicy({1: (2,)})
    with pytest.raises(PolicyUnavailableError):
        entry_sequence(scenario, policy)


def test_event_isolated_measure_drives_the_counters():
    # A measurement hook that only reports a drop when the entrant is within
    # 300 m of the observer's receiver; distant entries go unnoticed.
    scenario = fresh_scenario(6, seed=30)

    def measure(observer, entrant):
        d = np.hypot(observer.rp_position[0] - entrant.tp_position[0],
                     observer.rp_position[1] - entrant.tp_position[1])
        return (10.0, 2.0) if d <= 300.0 else (10.0, 9.5)

    policy = FixedAssignmentPolicy({}, fallback=tuple(range(8)))
    entry_sequence(scenario, policy, measure=measure)
    for link in scenario.links:
        nearby = sum(
            1 for other in scenario.links if other is not link
            and np.hypot(link.rp_position[0] - other.tp_position[0],
                         link.rp_position[1] - other.tp_position[1]) <= 300.0)
        assert link.aggressor_count == nearby
    # Some entries went unnoticed, so the hook, not the link count, decided.
    assert min(link.aggressor_count for link in scenario.links) < 5


def test_fixed_policy_falls_back_then_refuses():
    policy = FixedAssignmentPolicy({2: (1, 3)}, fallback=(0,))
    assert policy.fo_assignment(2) == (1, 3)
    assert policy.fo_assignment(7) == (0,)
    strict = FixedAssignmentPolicy({2: (1, 3)})
    with pytest.raises(PolicyUnavailableError):
        strict.fo_assignment(7)
