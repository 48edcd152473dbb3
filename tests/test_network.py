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
    QTable,
    entry_sequence,
    generate_drop,
    sample_point_near,
    update_aggressor_count,
)
from potsim.experiments import train_policy

#: Default geometry: a 1 km square, 100 m links, the 200 kHz 12x12 lattice.
CONFIG = ExperimentConfig(experiment="capacity_vs_aggressors")


def make_link(rank):
    return Link(tp_position=(0.0, 0.0), rp_position=(1.0, 0.0),
                entry_rank=rank)


def fresh_scenario(num_links, seed=0):
    """A drop of num_links links that enter in a seeded random order."""
    rng = np.random.default_rng(seed)
    scenario = generate_drop(CONFIG, num_links - 1, rng)
    for link, rank in zip(scenario.links, rng.permutation(num_links) + 1):
        link.entry_rank = int(rank)
    return scenario


def fixed_policy(prescriptions):
    """A policy prescribing ``prescriptions[count]`` from a dict, or the same
    tuple at every count."""
    if isinstance(prescriptions, dict):
        return types.SimpleNamespace(fo_assignment=prescriptions.__getitem__)
    return types.SimpleNamespace(fo_assignment=lambda count: prescriptions)


def recording_policy(prescription):
    """A policy prescribing the same tuple at every count that lists, in
    order, the counts it is consulted at."""
    consulted = []

    def fo_assignment(count):
        consulted.append(count)
        return prescription

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
    links = [make_link(1), make_link(1)]
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
    link = make_link(1)
    link.aggressor_count = 2
    assert update_aggressor_count(link, 10.0, 5.5) == 3


def test_small_changes_leave_the_counter_alone():
    link = make_link(1)
    link.aggressor_count = 2
    assert update_aggressor_count(link, 10.0, 8.5) == 2
    assert update_aggressor_count(link, 10.0, 12.9) == 2


def test_counter_is_floored_at_zero():
    link = make_link(1)
    assert update_aggressor_count(link, 10.0, 14.0) == 0


def test_exact_three_db_change_is_not_an_event():
    link = make_link(1)
    link.aggressor_count = 1
    assert update_aggressor_count(link, 10.0, 7.0) == 1
    assert update_aggressor_count(link, 10.0, 13.0) == 1


def test_infinite_drop_counts_once():
    link = make_link(1)
    assert update_aggressor_count(link, math.inf, 0.0) == 1


# ---------------------------------------------------------------------------
# entry protocol


@pytest.mark.parametrize("num_links", [2, 3, 4, 5])
def test_noiseless_counting_converges_to_true_aggressor_number(num_links):
    scenario = fresh_scenario(num_links, seed=num_links)
    policy = fixed_policy(tuple(range(8)))
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
    policy = fixed_policy({1: (4,)})
    entry_sequence(scenario, policy)
    first, second = scenario.by_entry_order()
    assert first.fo_index == 0
    assert second.fo_index == 4


def test_second_entrant_ends_with_two_aggressors_and_its_own_offset():
    scenario = fresh_scenario(3, seed=2)
    policy = fixed_policy({1: (4,), 2: (2, 6)})
    entry_sequence(scenario, policy)
    by_order = scenario.by_entry_order()
    assert by_order[1].aggressor_count == 2
    assert by_order[1].fo_index != by_order[0].fo_index


def test_no_duplicate_offsets_while_unclaimed_offsets_remain():
    scenario = fresh_scenario(8, seed=13)
    # A policy that keeps prescribing the same index must still spread links
    # over the quantized grid while unused offsets exist.
    policy = fixed_policy((4,))
    entry_sequence(scenario, policy)
    offsets = [link.fo_index for link in scenario.links]
    assert len(set(offsets)) == len(offsets)


@pytest.mark.parametrize("sensed", [False, True])
def test_overflow_rule_takes_the_first_prescribed_offset(sensed):
    # Twelve links on eight offsets, every count prescribing (4, 2). The
    # second and third entrants take prescribed offsets, the next five the
    # lowest unused ones, and once every offset is in use the rest take the
    # first prescribed offset. In the sensed drop every entrant hears only
    # the first link, so count 1 repeats and the same rule still holds.
    scenario = fresh_scenario(12, seed=17)
    first = scenario.by_entry_order()[0]
    measure = None
    if sensed:
        def measure(observer, heard):
            return (10.0, 2.0) if heard is first else (10.0, 9.5)
    policy, consulted = recording_policy((4, 2))
    entry_sequence(scenario, policy, measure=measure)
    assert consulted == ([1] * 11 if sensed else list(range(1, 12)))
    assert [link.fo_index for link in scenario.by_entry_order()] == [
        0,
        4, 2,              # first prescribed index no active link uses
        1, 3, 5, 6, 7,     # lowest unused quantized index
        4, 4, 4, 4,        # every offset in use: the first prescribed index
    ]


def test_the_overflow_rule_reads_only_the_first_prescribed_offset():
    # Once every offset is in use, the entrant goes straight to the first
    # prescribed offset; before that it reads the prescription only up to
    # the offset it takes.
    class Prescription(tuple):
        def __iter__(self):
            for q in tuple.__iter__(self):
                read.append(q)
                yield q

    read = []
    scenario = fresh_scenario(12, seed=17)
    long_prescription = Prescription((4, 2) + (0,) * 48)
    entry_sequence(scenario, fixed_policy(long_prescription))
    # Entrants 2 and 3 take 4 and 2, the next five read the whole
    # prescription before the lowest unused offset, the last four only 4.
    assert len(read) == 1 + 2 + 5 * 50 + 4 * 1
    assert [link.fo_index for link in scenario.by_entry_order()] == [
        0, 4, 2, 1, 3, 5, 6, 7, 4, 4, 4, 4]


@pytest.fixture(scope="module")
def policy_to_fifty(tmp_path_factory):
    """A policy trained for counts 1..50 on a token budget: what it
    prescribes does not matter here, only that a trained table decodes it."""
    config = ExperimentConfig(
        experiment="capacity_vs_aggressors", seed=3,
        train_overrides={"episodes": 2, "ensemble": 1, "steps_per_episode": 4})
    return train_policy(config, 50, tmp_path_factory.mktemp("policy") / "policy")


@pytest.mark.parametrize("trained", [True, False])
def test_exact_counting_equals_the_always_detect_hook(trained, policy_to_fifty):
    # Without a hook the counts are set in O(S); a hook that detects every
    # transmission replays the pairwise 3 dB rule and must agree link for
    # link, offsets included.
    policy = policy_to_fifty if trained else None
    spread = 0
    for num_links in (1, 2, 3, 8, 9, 10, 21, 51):
        for seed in range(3):
            exact = fresh_scenario(num_links, seed=seed)
            heard = fresh_scenario(num_links, seed=seed)
            entry_sequence(exact, policy)
            entry_sequence(heard, policy, measure=lambda o, e: (math.inf, 0.0))
            outcome = [(link.aggressor_count, link.fo_index) for link in exact.links]
            assert outcome == [(link.aggressor_count, link.fo_index)
                               for link in heard.links]
            assert all(count == num_links - 1 for count, _ in outcome)
            spread += any(q != 0 for _, q in outcome)
    assert spread > 0 if trained else spread == 0


def test_replaying_the_sequence_is_idempotent():
    scenario = fresh_scenario(4, seed=21)
    policy = fixed_policy((1, 5, 3))
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
    # A table trained for one aggressor only: the third entrant counts two.
    scenario = fresh_scenario(3, seed=4)
    policy = QTable(fo_quantum=8, per_count={1: {(0,): np.zeros(3)}})
    with pytest.raises(PolicyUnavailableError, match="aggressor count 2"):
        entry_sequence(scenario, policy)


def test_an_empty_prescription_raises_policy_unavailable():
    scenario = fresh_scenario(2, seed=4)
    with pytest.raises(PolicyUnavailableError, match="no offsets for count 1"):
        entry_sequence(scenario, fixed_policy(()))


def test_event_isolated_measure_drives_the_counters():
    # A measurement hook that only reports a drop when the entrant is within
    # 300 m of the observer's receiver; distant entries go unnoticed.
    scenario = fresh_scenario(6, seed=30)

    def measure(observer, entrant):
        d = np.hypot(observer.rp_position[0] - entrant.tp_position[0],
                     observer.rp_position[1] - entrant.tp_position[1])
        return (10.0, 2.0) if d <= 300.0 else (10.0, 9.5)

    policy = fixed_policy(tuple(range(8)))
    entry_sequence(scenario, policy, measure=measure)
    for link in scenario.links:
        nearby = sum(
            1 for other in scenario.links if other is not link
            and np.hypot(link.rp_position[0] - other.tp_position[0],
                         link.rp_position[1] - other.tp_position[1]) <= 300.0)
        assert link.aggressor_count == nearby
    # Some entries went unnoticed, so the hook, not the link count, decided.
    assert min(link.aggressor_count for link in scenario.links) < 5

