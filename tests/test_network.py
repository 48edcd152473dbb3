"""Scenario generation, the 3 dB counting rule, and the entry protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import potsim
from potsim import (
    FixedAssignmentPolicy,
    Link,
    NetworkScenario,
    ParameterError,
    PolicyUnavailableError,
    entry_sequence,
    generate_scenario,
    sample_point_near,
    update_aggressor_count,
)


def make_link(link_id, rank, fo_index=0, fo_step=1.0):
    return Link(link_id=link_id, tp_position=(0.0, 0.0), rp_position=(1.0, 0.0),
                entry_rank=rank, fo=fo_index * fo_step)


def fresh_scenario(num_links, seed=0, lattice=None, **kwargs):
    lattice = lattice or potsim.LatticeConfig.for_bandwidth(200e3, 12, 12)
    return generate_scenario(num_links, 1000.0, 100.0,
                             np.random.default_rng(seed), lattice, **kwargs)


# ---------------------------------------------------------------------------
# geometry


def test_scenario_respects_area_and_range_bounds(lattice):
    scenario = fresh_scenario(50, seed=3)
    for link in scenario.links:
        for coord in (*link.tp_position, *link.rp_position):
            assert 0.0 <= coord <= 1000.0
        assert 0.0 < link.length <= 100.0
        assert link.fo == 0.0
        assert 0.0 <= link.timing_offset < lattice.tau0


def test_entry_ranks_are_a_permutation():
    scenario = fresh_scenario(20, seed=1)
    assert sorted(link.entry_rank for link in scenario.links) == list(range(1, 21))


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


def test_trace_counts_equal_number_of_links_present_at_entry():
    scenario = fresh_scenario(5, seed=9)
    policy = FixedAssignmentPolicy({}, fallback=tuple(range(8)))
    trace = entry_sequence(scenario, policy)
    assert [event.aggressor_count for event in trace] == [0, 1, 2, 3, 4]


def test_sole_link_keeps_zero_offset():
    scenario = fresh_scenario(1)
    trace = entry_sequence(scenario, FixedAssignmentPolicy({}, fallback=(3,)))
    assert len(trace) == 1
    assert trace[0].fo == 0.0


def test_two_links_end_with_distinct_quantized_offsets(lattice):
    scenario = fresh_scenario(2, seed=5)
    policy = FixedAssignmentPolicy({1: (4,)})
    entry_sequence(scenario, policy)
    first, second = scenario.by_entry_order()
    assert first.fo == 0.0
    assert second.fo != first.fo
    ratio = (second.fo - first.fo) / (lattice.nu0 / 8.0)
    assert ratio == pytest.approx(round(ratio), abs=1e-9)


def test_second_entrant_ends_with_two_aggressors_and_its_own_offset():
    scenario = fresh_scenario(3, seed=2)
    policy = FixedAssignmentPolicy({1: (4,), 2: (2, 6)})
    entry_sequence(scenario, policy)
    by_order = scenario.by_entry_order()
    assert by_order[1].aggressor_count == 2
    assert by_order[1].fo != by_order[0].fo


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
    first = entry_sequence(scenario, policy)
    second = entry_sequence(scenario, policy)
    assert first == second
    for link in scenario.links:
        assert link.aggressor_count == 3


def test_full_overlap_baseline_keeps_all_offsets_at_zero():
    scenario = fresh_scenario(6, seed=8)
    entry_sequence(scenario, None)
    assert all(link.fo == 0.0 for link in scenario.links)
    assert all(link.aggressor_count == 5 for link in scenario.links)


def test_missing_count_level_raises_policy_unavailable():
    scenario = fresh_scenario(3, seed=4)
    policy = FixedAssignmentPolicy({1: (2,)})
    with pytest.raises(PolicyUnavailableError):
        entry_sequence(scenario, policy)


def test_event_isolated_measure_drives_the_counters():
    # A measurement hook that only reports a drop when the entrant is within
    # 300 m of the observer's receiver; distant entries go unnoticed.
    scenario = fresh_scenario(6, seed=30, fo_quantum=8)

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


def test_fixed_policy_falls_back_then_refuses():
    policy = FixedAssignmentPolicy({2: (1, 3)}, fallback=(0,))
    assert policy.fo_assignment(2) == (1, 3)
    assert policy.fo_assignment(7) == (0,)
    strict = FixedAssignmentPolicy({2: (1, 3)})
    with pytest.raises(PolicyUnavailableError):
        strict.fo_assignment(7)
