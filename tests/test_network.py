"""Scenario generation and the entry protocol."""

import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from potsim import (
    ExperimentConfig,
    PolicyUnavailableError,
    QTable,
    entry_sequence,
    generate_drop,
    sample_point_near,
)
from potsim import experiments
from potsim.experiments import FULL_OVERLAP, POT, _sweep, train_policy

#: Default geometry: a 1 km square, 100 m links, the 200 kHz 12x12 lattice.
CONFIG = ExperimentConfig(experiment="capacity_vs_aggressors")


def fresh_scenario(num_links, seed=0):
    """A seeded drop of num_links links."""
    return generate_drop(CONFIG, num_links - 1, np.random.default_rng(seed))


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
        assert 0.0 <= link.timing_offset < lattice.tau0


def test_single_link_scenario_has_no_aggressors():
    (victim,) = fresh_scenario(1).links
    assert 0.0 < victim.length <= 100.0


def test_generation_is_seed_deterministic():
    a = fresh_scenario(10, seed=42)
    b = fresh_scenario(10, seed=42)
    for la, lb in zip(a.links, b.links):
        assert la.tp_position == lb.tp_position
        assert la.rp_position == lb.rp_position
        assert la.timing_offset == lb.timing_offset


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
# entry protocol


@pytest.mark.parametrize("num_links", [2, 3, 4, 5])
def test_noiseless_counting_converges_to_true_aggressor_number(num_links):
    # Counting is exact, so the last entrant counts every other link.
    policy, consulted = recording_policy(tuple(range(8)))
    assert len(entry_sequence(policy, num_links, 8)) == num_links
    assert consulted[-1] == num_links - 1


def test_consulted_counts_equal_number_of_links_present_at_entry():
    policy, consulted = recording_policy(tuple(range(8)))
    entry_sequence(policy, 5, 8)
    # The first entrant hears nobody and never consults the policy.
    assert consulted == [1, 2, 3, 4]


def test_sole_link_keeps_zero_offset():
    policy, consulted = recording_policy((3,))
    assert entry_sequence(policy, 1, 8) == [0]
    assert consulted == []


def test_two_links_end_with_distinct_quantized_offsets():
    assert entry_sequence(fixed_policy({1: (4,)}), 2, 8) == [0, 4]


def test_second_entrant_ends_with_two_aggressors_and_its_own_offset():
    # In a three-link drop the second entrant ends up hearing both others;
    # on entry it counted one and took its own offset.
    assert entry_sequence(fixed_policy({1: (4,), 2: (2, 6)}), 3, 8) == [0, 4, 2]


def test_no_duplicate_offsets_while_unclaimed_offsets_remain():
    # A policy that keeps prescribing the same index must still spread links
    # over the quantized grid while unused offsets exist.
    assert sorted(entry_sequence(fixed_policy((4,)), 8, 8)) == list(range(8))


def test_overflow_rule_takes_the_first_prescribed_offset():
    # Twelve links on eight offsets, every count prescribing (4, 2). The
    # second and third entrants take prescribed offsets, the next five the
    # lowest unused ones, and once every offset is in use the rest take the
    # first prescribed offset.
    policy, consulted = recording_policy((4, 2))
    assert entry_sequence(policy, 12, 8) == [
        0,
        4, 2,              # first prescribed index no active link uses
        1, 3, 5, 6, 7,     # lowest unused quantized index
        4, 4, 4, 4,        # every offset in use: the first prescribed index
    ]
    assert consulted == list(range(1, 12))


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
    long_prescription = Prescription((4, 2) + (0,) * 48)
    offsets = entry_sequence(fixed_policy(long_prescription), 12, 8)
    # Entrants 2 and 3 take 4 and 2, the next five read the whole
    # prescription before the lowest unused offset, the last four only 4.
    assert len(read) == 1 + 2 + 5 * 50 + 4 * 1
    assert offsets == [0, 4, 2, 1, 3, 5, 6, 7, 4, 4, 4, 4]


@pytest.fixture(scope="module")
def policy_to_fifty(tmp_path_factory):
    """A policy trained for counts 1..50 on a token budget: what it
    prescribes does not matter here, only that a trained table decodes it."""
    config = ExperimentConfig(
        experiment="capacity_vs_aggressors", seed=3,
        train_overrides={"episodes": 2, "ensemble": 1, "steps_per_episode": 4})
    return train_policy(config, 50, tmp_path_factory.mktemp("policy") / "policy")


def test_the_offsets_for_fewer_aggressors_are_a_prefix(policy_to_fifty):
    # A sweep runs the protocol once, for its largest count, and reads the
    # offsets of every grid point's S aggressors as a prefix of that run.
    full = entry_sequence(policy_to_fifty, 51, 8)
    assert full[0] == 0
    assert any(full)
    for num_aggressors in (1, 2, 3, 5, 8, 9, 10, 20, 50):
        assert (entry_sequence(policy_to_fifty, num_aggressors + 1, 8)
                == full[:num_aggressors + 1])


def test_replaying_the_sequence_is_idempotent():
    policy = fixed_policy((1, 5, 3))
    first = entry_sequence(policy, 4, 8)
    assert first == [0, 1, 5, 3]
    assert entry_sequence(policy, 4, 8) == first


def test_full_overlap_baseline_keeps_all_offsets_at_zero(policy_to_fifty,
                                                         monkeypatch):
    config = ExperimentConfig(experiment="capacity_vs_aggressors",
                              filters=("gaussian",), aggressor_grid=(1, 5),
                              num_drops=2, seed=3)
    both = _sweep(config, policy_to_fifty)
    full_overlap = [row for row in both if row[2] == FULL_OVERLAP]
    # The baseline needs no policy and reads the same rows without one ...
    assert _sweep(replace(config, overlap_mode=FULL_OVERLAP), None) == full_overlap
    # ... and they are what POT reads once every offset is 0.
    monkeypatch.setattr(experiments, "entry_sequence",
                        lambda policy, num_links, fo_quantum: [0] * num_links)
    zeros = _sweep(config, policy_to_fifty)
    assert ([row[:2] + row[3:] for row in zeros if row[2] == POT]
            == [row[:2] + row[3:] for row in full_overlap])


def test_missing_count_level_raises_policy_unavailable():
    # A table trained for one aggressor only: the third entrant counts two.
    policy = QTable(fo_quantum=8, per_count={1: {bytes(1): {}}})
    with pytest.raises(PolicyUnavailableError, match="aggressor count 2"):
        entry_sequence(policy, 3, 8)


def test_an_empty_prescription_raises_policy_unavailable():
    with pytest.raises(PolicyUnavailableError, match="no offsets for count 1"):
        entry_sequence(fixed_policy(()), 2, 8)
