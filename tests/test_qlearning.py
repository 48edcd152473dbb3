"""Tabular value updates, greedy decoding, artifacts, and desk-scale optimality."""

import itertools
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import potsim
from potsim import (
    ConfigError,
    CrossAmbiguity,
    EnsembleEvaluator,
    Hyperparams,
    ParameterError,
    PolicyUnavailableError,
    QTable,
    entry_sequence,
    generate_drop,
    train,
)
from potsim.experiments import ExperimentConfig, scenario_family
from potsim.qlearning import q_update, reward

Q = 8


# ---------------------------------------------------------------------------
# scalar update rules


def test_full_overwrite_update():
    assert q_update(0.0, 1.0, 0.0, beta=1.0, gamma=0.0) == 1.0


def test_half_rate_decay_update():
    assert q_update(5.0, 0.0, 0.0, beta=0.5, gamma=0.9) == 2.5


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(0.01, 1.0))
@settings(max_examples=25, deadline=None)
def test_zero_discount_ignores_the_next_state(q_old, r, max_next, beta):
    with_next = q_update(q_old, r, max_next, beta=beta, gamma=0.0)
    without = (1 - beta) * q_old + beta * r
    assert with_next == pytest.approx(without, abs=1e-12)


def test_repeated_updates_contract_to_the_fixed_point():
    q = 0.0
    for _ in range(800):
        q = q_update(q, 1.0, q, beta=0.3, gamma=0.9)
    assert q == pytest.approx(1.0 / (1.0 - 0.9), abs=1e-6)


def test_reward_is_scaled_capacity_difference():
    assert reward(3.0, 3.0, 10.0) == 0.0
    assert reward(3.2, 3.0, 10.0) == pytest.approx(2.0, abs=1e-9)
    assert reward(2.9, 3.0, 10.0) == pytest.approx(-1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# hyperparameters


def test_hyperparameter_ranges_are_enforced():
    with pytest.raises(ParameterError):
        Hyperparams(beta=0.0)
    with pytest.raises(ParameterError):
        Hyperparams(beta=1.5)
    with pytest.raises(ParameterError):
        Hyperparams(gamma=1.0)
    with pytest.raises(ParameterError):
        Hyperparams(epsilon_start=1.2)
    with pytest.raises(ParameterError):
        Hyperparams(lambda1=0.0)


def test_epsilon_anneals_linearly_between_its_endpoints():
    hp = Hyperparams(episodes=11, epsilon_start=1.0, epsilon_end=0.0)
    assert hp.epsilon(0) == pytest.approx(1.0)
    assert hp.epsilon(10) == pytest.approx(0.0)
    assert hp.epsilon(5) == pytest.approx(0.5)


def test_default_step_budget_scales_with_the_fo_grid():
    hp = Hyperparams()
    assert hp.steps(8) == 80
    assert Hyperparams(steps_per_episode=17).steps(8) == 17


# ---------------------------------------------------------------------------
# table mechanics


def test_action_effect_steps_one_link_with_wraparound():
    table = QTable(fo_quantum=Q)
    assert table.action_effect((3, 5), 0) == (3, 5)
    assert table.action_effect((3, 5), 1) == (4, 5)
    assert table.action_effect((3, 5), 2) == (2, 5)
    assert table.action_effect((3, 5), 3) == (3, 6)
    assert table.action_effect((7, 0), 1) == (0, 0)
    assert table.action_effect((0, 0), 2) == (7, 0)
    with pytest.raises(ParameterError):
        table.action_effect((3,), 4)


def test_greedy_picks_the_argmax_action():
    table = QTable(fo_quantum=Q)
    table.per_count[1] = {(0,): np.array([0.0, 2.0, 5.0])}
    assert table.greedy(1, (0,)) == 2


def test_greedy_breaks_ties_toward_the_lowest_index():
    table = QTable(fo_quantum=Q)
    table.per_count[1] = {(0,): np.array([1.0, 1.0, 1.0])}
    assert table.greedy(1, (0,)) == 0
    table.per_count[1][(0,)] = np.array([0.5, 1.0, 1.0])
    assert table.greedy(1, (0,)) == 1


def test_greedy_is_invariant_to_positive_scaling():
    table = QTable(fo_quantum=Q)
    values = np.array([0.3, 1.7, 0.9])
    table.per_count[1] = {(0,): values}
    before = table.greedy(1, (0,))
    table.per_count[1][(0,)] = 4.0 * values
    assert table.greedy(1, (0,)) == before


def test_unknown_state_borrows_the_circularly_nearest_neighbor():
    table = QTable(fo_quantum=Q)
    table.per_count[1] = {(0,): np.array([0.0, 1.0, 0.0]),
                          (4,): np.array([0.0, 0.0, 1.0])}
    assert table.fallback_events == 0
    # (7,) wraps to distance 1 from (0,) but 3 from (4,).
    assert table.greedy(1, (7,)) == 1
    assert table.fallback_events == 1
    assert table.greedy(1, (3,)) == 2
    assert table.fallback_events == 2


def test_untrained_count_is_a_policy_error():
    table = QTable(fo_quantum=Q)
    with pytest.raises(PolicyUnavailableError):
        table.greedy(2, (0, 0))


def test_decode_returns_the_absorbing_state_of_the_greedy_walk():
    table = QTable(fo_quantum=Q)
    sub = {}
    # Stepping up is best until state (3,), where the no-op dominates.
    for q in range(Q):
        if q < 3:
            sub[(q,)] = np.array([0.0, 1.0, -1.0])
        else:
            sub[(q,)] = np.array([1.0, 0.0, 0.0])
    table.per_count[1] = sub
    assert table.fo_assignment(1) == (3,)


def test_decode_falls_back_to_least_remaining_improvement_on_cycles():
    table = QTable(fo_quantum=Q)
    # Every state insists on stepping up, so the walk wraps around; the
    # smallest maximum value marks the state closest to convergence.
    sub = {(q,): np.array([0.0, float(Q - q), 0.5]) for q in range(Q)}
    table.per_count[1] = sub
    assert table.fo_assignment(1) == (7,)


def test_decode_requires_a_trained_count():
    table = QTable(fo_quantum=Q)
    with pytest.raises(KeyError):
        table.fo_assignment(1)
    with pytest.raises(ParameterError):
        table.fo_assignment(0)


class ReadRecorder(dict):
    """A per-count table that records the states whose values are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, state):
        self.read.add(state)
        return super().__getitem__(state)


def decode_reads(table, count):
    """States whose value vectors ``table.fo_assignment(count)`` reads."""
    probe = QTable(fo_quantum=table.fo_quantum)
    probe.per_count[count] = ReadRecorder(table.per_count[count])
    probe.fo_assignment(count)
    return probe.per_count[count].read


def walk_table():
    """Count 1 absorbs at (3,) after three steps up, with rows off the walk;
    count 2 steps from (0, 0) onto untrained states and borrows rows."""
    table = QTable(fo_quantum=Q, hyperparams=Hyperparams(beta=0.25, episodes=7),
                   seed=99, fallback_events=5)
    table.per_count[1] = {(q,): (np.array([0.0, 1.0, -1.0]) if q < 3
                                 else np.array([1.0, 0.0, 0.0])) + 0.1 * q
                          for q in range(Q)}
    table.per_count[2] = {(0, 0): np.array([0.0, 2.0, 0.0, 1.0, 0.0]),
                          (1, 5): np.ones(5), (6, 6): np.arange(5.0)}
    table.converged = {1: True, 2: False}
    return table


def test_artifact_round_trips_exactly(tmp_path):
    """The artifact stores exactly the rows the decode reads, bit for bit,
    so every count decodes the same; it is not a dump of every Q-value."""
    table = walk_table()
    path = tmp_path / "table.npz"
    table.save(path)
    assert table.fallback_events == 5
    loaded = QTable.load(path)
    assert loaded.fo_quantum == Q
    assert loaded.seed == 99
    assert loaded.hyperparams == table.hyperparams
    assert loaded.converged == {1: True, 2: False}
    assert sorted(loaded.per_count) == [1, 2]
    assert loaded.fallback_events == 5
    for count, sub in loaded.per_count.items():
        assert set(sub) == decode_reads(table, count)
        for state, values in sub.items():
            assert type(state) is tuple
            assert all(type(q) is int for q in state)
            assert values.dtype == table.per_count[count][state].dtype
            assert np.array_equal(values, table.per_count[count][state])
    assert set(loaded.per_count[1]) == {(0,), (1,), (2,), (3,)}
    for count in (1, 2):
        before = (table.fallback_events, loaded.fallback_events)
        assert loaded.fo_assignment(count) == table.fo_assignment(count)
        assert (loaded.fallback_events - before[1]
                == table.fallback_events - before[0])


def test_artifact_stores_the_row_greedy_borrows_for_an_untrained_state(tmp_path):
    table = QTable(fo_quantum=Q)
    # (0,) steps up onto untrained (1,), which borrows (0,) and steps up onto
    # untrained (2,), which borrows (3,): a no-op, so the walk absorbs at
    # (2,). (3,) is read but never visited; (6,) is never read.
    table.per_count[1] = {(0,): np.array([0.0, 1.0, 0.0]),
                          (3,): np.array([1.0, 0.0, 0.0]),
                          (6,): np.array([0.0, 0.0, 1.0])}
    assert table.fo_assignment(1) == (2,)
    assert table.fallback_events == 2
    path = tmp_path / "table.npz"
    table.save(path)
    assert table.fallback_events == 2
    loaded = QTable.load(path)
    assert set(loaded.per_count[1]) == {(0,), (3,)}
    assert loaded.fo_assignment(1) == (2,)
    assert loaded.fallback_events == 2 + 2


def test_full_artifact_in_the_earlier_layout_still_loads(tmp_path):
    """Artifacts that store every row (the layout before the decode rows)
    keep loading, and decode the same."""
    table = walk_table()
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        arrays = {"header": data["header"]}
    for count, sub in table.per_count.items():
        states = sorted(sub)
        arrays[f"states_{count}"] = np.array(states, dtype=np.int64)
        arrays[f"values_{count}"] = np.stack([sub[s] for s in states])
    full = tmp_path / "full.npz"
    np.savez_compressed(full, **arrays)
    loaded = QTable.load(full)
    for count, sub in table.per_count.items():
        assert set(loaded.per_count[count]) == set(sub)
        for state, values in sub.items():
            assert np.array_equal(loaded.per_count[count][state], values)
        assert loaded.fo_assignment(count) == table.fo_assignment(count)


def test_trained_table_round_trips_every_prescription(tmp_path):
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    pulse = potsim.filter_factory("gaussian", 0.2)
    cross = CrossAmbiguity(pulse, pulse, config.lattice, fo_quantum=Q)
    hp = Hyperparams(episodes=30, ensemble=2, beta=1.0, epsilon_end=0.3)
    table = train(scenario_family(config, cross), 6, hp, rng_seed=4)
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    for count in range(1, 7):
        assert loaded.fo_assignment(count) == table.fo_assignment(count)
        assert set(loaded.per_count[count]) == decode_reads(table, count)
        assert len(loaded.per_count[count]) < len(table.per_count[count])


def saved_arrays(tmp_path):
    """The arrays of a saved two-count artifact, by name."""
    table = QTable(fo_quantum=Q)
    table.per_count[1] = {(0,): np.zeros(3), (3,): np.ones(3)}
    table.per_count[2] = {(1, 5): np.ones(5)}
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def load_tampered(tmp_path, arrays):
    tampered = tmp_path / "tampered.npz"
    np.savez_compressed(tampered, **arrays)
    return QTable.load(tampered)


@pytest.mark.parametrize("name", ["states_2", "values_1"])
def test_artifact_missing_a_count_array_is_a_config_error(tmp_path, name):
    arrays = saved_arrays(tmp_path)
    del arrays[name]
    with pytest.raises(ConfigError, match=name):
        load_tampered(tmp_path, arrays)


def test_artifact_states_of_the_wrong_width_are_a_config_error(tmp_path):
    arrays = saved_arrays(tmp_path)
    arrays["states_2"] = np.array([[1, 5, 0]])
    with pytest.raises(ConfigError, match="states_2"):
        load_tampered(tmp_path, arrays)
    arrays["states_2"] = np.array([1, 5])
    with pytest.raises(ConfigError, match="states_2"):
        load_tampered(tmp_path, arrays)


def test_artifact_values_of_the_wrong_shape_are_a_config_error(tmp_path):
    arrays = saved_arrays(tmp_path)
    arrays["values_1"] = np.zeros((2, 5))
    with pytest.raises(ConfigError, match="values_1"):
        load_tampered(tmp_path, arrays)
    arrays["values_1"] = np.zeros((3, 3))
    with pytest.raises(ConfigError, match="values_1"):
        load_tampered(tmp_path, arrays)


@pytest.mark.parametrize("kind", ["text", "npy", "empty", "zip", "no_header"])
def test_a_file_that_is_not_an_npz_artifact_is_a_config_error(tmp_path, kind):
    path = tmp_path / "policy.npz"
    if kind == "text":
        path.write_text("not an artifact\n")
    elif kind == "npy":
        with open(path, "wb") as handle:
            np.save(handle, np.zeros(3))
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "zip":
        path.write_bytes(b"PK\x03\x04truncated")
    else:
        np.savez_compressed(path, values_1=np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        QTable.load(path)


def with_header(arrays, edit):
    """``arrays`` with its JSON header replaced by ``edit(header)``."""
    header = edit(json.loads(bytes(arrays["header"]).decode()))
    return {**arrays, "header": np.frombuffer(json.dumps(header).encode(),
                                              dtype=np.uint8)}


def without(name):
    return lambda header: {k: v for k, v in header.items() if k != name}


def edited(name, value):
    return lambda header: {**header, name: value}


@pytest.mark.parametrize("edit", [
    without("counts"), without("fo_quantum"), without("seed"),
    without("hyperparams"), without("converged"),
    lambda header: [header],
    lambda header: {**header, "hyperparams": {**header["hyperparams"], "warp": 1}},
    edited("hyperparams", {"beta": 5.0}),
    edited("hyperparams", [0.1]),
    edited("counts", [1, 2.5]), edited("counts", ["1", "2"]),
    edited("counts", 2), edited("counts", [True, 2]),
    edited("fo_quantum", 8.0), edited("seed", "zero"),
    edited("converged", [True, False]),
], ids=["no_counts", "no_fo_quantum", "no_seed", "no_hyperparams",
        "no_converged", "list", "unknown_hyperparam", "bad_hyperparam",
        "hyperparams_list", "float_count", "string_counts", "scalar_counts",
        "bool_count", "float_fo_quantum", "string_seed", "converged_list"])
def test_malformed_artifact_header_is_a_config_error(tmp_path, edit):
    arrays = with_header(saved_arrays(tmp_path), edit)
    with pytest.raises(ConfigError):
        load_tampered(tmp_path, arrays)


def test_artifact_version_and_format_are_checked(tmp_path):
    table = QTable(fo_quantum=Q)
    table.per_count[1] = {(0,): np.zeros(3)}
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["version"] = 999
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    tampered = tmp_path / "tampered.npz"
    np.savez_compressed(tampered, **arrays)
    with pytest.raises(ConfigError):
        QTable.load(tampered)
    header["version"] = 1
    header["format"] = "something-else"
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(tampered, **arrays)
    with pytest.raises(ConfigError):
        QTable.load(tampered)


# ---------------------------------------------------------------------------
# training on a controlled landscape


def synthetic_family(optimum=4, noise=0.5):
    """Two-link drops whose capacity is maximized at one known FO index."""

    window = 2 * Q - 1

    def coupling(idx):
        qdiff = idx - (Q - 1)
        return 1.6 + 1.5 * np.cos(2.0 * np.pi * (qdiff - (optimum - 4)) / Q)

    cci = np.zeros((2, 2, window))
    cci[1, 0] = coupling(np.arange(window))
    cci[0, 1] = coupling(2 * (Q - 1) - np.arange(window))

    def build(num_links, rng):
        if num_links != 2:
            raise AssertionError("synthetic landscape only covers one aggressor")
        return types.SimpleNamespace(link_ids=[0, 1], fo_quantum=Q, cci=cci,
                                     e_signal=np.ones(2), e_self=np.zeros(2),
                                     noise=np.full(2, noise))

    return build


def test_training_finds_the_planted_optimum():
    hp = Hyperparams(ensemble=2, episodes=120, beta=1.0, epsilon_end=0.3)
    for optimum in (2, 4, 6):
        table = train(synthetic_family(optimum=optimum), 1, hp, rng_seed=3)
        assert table.fo_assignment(1) == (optimum,)


def test_training_is_seed_deterministic():
    hp = Hyperparams(ensemble=2, episodes=60)
    a = train(synthetic_family(), 1, hp, rng_seed=11)
    b = train(synthetic_family(), 1, hp, rng_seed=11)
    assert sorted(a.per_count) == sorted(b.per_count) == [1]
    for state, values in a.per_count[1].items():
        assert np.array_equal(values, b.per_count[1][state])
    c = train(synthetic_family(), 1, hp, rng_seed=12)
    assert any(not np.array_equal(values, c.per_count[1][state])
               for state, values in a.per_count[1].items())


def test_trained_assignments_match_exhaustive_search_on_a_fixed_geometry():
    """100 seeded trainings on one landscape; the greedy decode must hit the
    brute-force optimum (or tie its capacity) for S in {1, 2, 3} in at least
    95 of them."""
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    pulse = potsim.filter_factory("gaussian", 0.2)
    cross = CrossAmbiguity(pulse, pulse, config.lattice, fo_quantum=Q)
    base = scenario_family(config, cross)
    hp = Hyperparams(ensemble=4, beta=1.0, epsilon_end=0.3, gamma=0.95)
    prebuilt = {n: [base(n, np.random.default_rng([0, n, d]))
                    for d in range(hp.ensemble)] for n in (2, 3, 4)}
    counters = {n: itertools.count() for n in prebuilt}

    def fixed_family(num_links, rng):
        return prebuilt[num_links][next(counters[num_links]) % hp.ensemble]

    evaluators = {s: EnsembleEvaluator(prebuilt[s + 1]) for s in (1, 2, 3)}
    best = {s: max(evaluators[s].mean_sum_capacity(state)
                   for state in itertools.product(range(Q), repeat=s))
            for s in (1, 2, 3)}
    wins = 0
    for seed in range(100):
        table = train(fixed_family, 3, hp, rng_seed=seed)
        wins += all(
            evaluators[s].mean_sum_capacity(table.fo_assignment(s)) >= best[s] - 1e-9
            for s in (1, 2, 3))
    assert wins >= 95


def test_trained_table_drives_the_entry_protocol():
    hp = Hyperparams(ensemble=2, episodes=120, beta=1.0, epsilon_end=0.3)
    table = train(synthetic_family(), 1, hp, rng_seed=3)
    table.per_count[2] = {(0, 0): np.zeros(5), (4, 2): np.array([1.0, 0, 0, 0, 0])}
    table.per_count[3] = {(1, 2, 3): np.array([1.0] + [0.0] * 6)}
    rng = np.random.default_rng(6)
    scenario = generate_drop(ExperimentConfig(experiment="capacity_vs_aggressors"),
                             3, rng)
    for link, rank in zip(scenario.links, rng.permutation(4) + 1):
        link.entry_rank = int(rank)
    entry_sequence(scenario, table)
    offsets = [link.fo_index for link in scenario.links]
    assert all(0 <= q < Q for q in offsets)
    assert len(set(offsets)) == len(offsets)
