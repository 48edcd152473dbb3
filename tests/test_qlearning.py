"""Tabular value updates, greedy decoding, artifacts, and desk-scale optimality."""

import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import types
from pathlib import Path

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
    train,
)
from potsim.experiments import ExperimentConfig, scenario_family
from potsim import qlearning
from potsim.qlearning import _train_one_count, q_update, reward

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


def test_integer_values_of_real_knobs_stay_valid():
    hp = Hyperparams(beta=1, gamma=0, epsilon_end=0, lambda1=10)
    assert (hp.beta, hp.gamma, hp.epsilon_end, hp.lambda1) == (1, 0, 0, 10)


def test_numpy_integers_are_valid_budgets():
    # np.int64 was once rejected as not an integer.
    assert Hyperparams(episodes=np.int64(5)).episodes == 5


def test_numpy_knobs_round_trip_through_an_artifact(tmp_path):
    # A float32 beta once passed its check, then QTable.save raised TypeError.
    table = table_of({1: {(0,): [1.0, 0.0, 0.0]}},
                     hyperparams=Hyperparams(beta=np.float32(0.5)))
    table.save(tmp_path / "table.npz")
    loaded = QTable.load(tmp_path / "table.npz")
    assert loaded.hyperparams == table.hyperparams
    assert loaded.hyperparams.beta == 0.5


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


def key(state, fo_quantum=Q):
    """The state key of an FO tuple."""
    return np.array(state, dtype=qlearning._key_dtype(fo_quantum)).tobytes()


def fo(state_key, fo_quantum=Q):
    """The FO tuple of a state key."""
    return tuple(np.frombuffer(state_key, qlearning._key_dtype(fo_quantum)).tolist())


def sparse(values):
    """A dense value row as a table keeps it: the entries whose bits are not
    +0.0, by action index."""
    values = np.asarray(values, dtype=float)
    return {int(a): float(values[a]) for a in np.flatnonzero(values.view(np.uint64))}


def table_of(rows, fo_quantum=Q, **fields):
    """A table holding ``rows``: {count: {FO tuple: dense values}}."""
    table = QTable(fo_quantum=fo_quantum, **fields)
    for count, sub in rows.items():
        table.per_count[count] = {key(state, fo_quantum): sparse(values)
                                  for state, values in sub.items()}
    return table


def dense(table, count):
    """The rows of ``table.per_count[count]`` as dense float64 rows by FO
    tuple, in table order: an action never written holds 0.0."""
    rows = {}
    for state, row in table.per_count[count].items():
        values = rows[fo(state, table.fo_quantum)] = np.zeros(2 * count + 1)
        values[list(row)] = list(row.values())
    return rows


def rollout(table, count):
    """``table._rollout(count)`` with FO tuples for state keys."""
    visited, absorbed = table._rollout(count)
    return ([fo(state, table.fo_quantum) for state in visited],
            None if absorbed is None else fo(absorbed, table.fo_quantum))


@pytest.mark.parametrize("fo_quantum", [Q, 300])
def test_step_key_steps_one_link_with_wraparound(fo_quantum):
    top = fo_quantum - 1
    width = qlearning._key_dtype(fo_quantum).itemsize

    def step(state, action):
        moved = qlearning._step_key(key(state, fo_quantum), action, width, fo_quantum)
        return fo(moved, fo_quantum)

    assert step((3, 5), 0) == (3, 5)
    assert step((3, 5), 1) == (4, 5)
    assert step((3, 5), 2) == (2, 5)
    assert step((3, 5), 3) == (3, 6)
    assert step((top, 0), 1) == (0, 0)
    assert step((0, 0), 2) == (top, 0)
    assert step((0, 0), 4) == (0, top)


def test_state_keys_sort_in_state_order_on_a_two_byte_grid():
    states = [(0, 299), (1, 0), (42, 7), (43, 1), (255, 3), (256, 0), (298, 2)]
    assert sorted(key(state, 300) for state in states) == [key(s, 300) for s in states]


def test_greedy_picks_the_argmax_action():
    table = table_of({1: {(0,): [0.0, 2.0, 5.0]}})
    assert table.greedy(1, key((0,))) == 2


def test_greedy_breaks_ties_toward_the_lowest_index():
    table = table_of({1: {(0,): [1.0, 1.0, 1.0]}})
    assert table.greedy(1, key((0,))) == 0
    table.per_count[1][key((0,))] = sparse([0.5, 1.0, 1.0])
    assert table.greedy(1, key((0,))) == 1
    # An unwritten action reads 0.0, so it ties a written +0.0 or -0.0.
    table.per_count[1][key((0,))] = {1: -0.0, 2: -1.0}
    assert table.greedy(1, key((0,))) == 0


def test_greedy_is_invariant_to_positive_scaling():
    values = np.array([0.3, 1.7, 0.9])
    table = table_of({1: {(0,): values}})
    before = table.greedy(1, key((0,)))
    table.per_count[1][key((0,))] = sparse(4.0 * values)
    assert table.greedy(1, key((0,))) == before


def test_greedy_on_a_state_without_a_row_is_a_key_error():
    table = table_of({1: {(0,): [0.0, 1.0, 0.0], (4,): [0.0, 0.0, 1.0]}})
    with pytest.raises(KeyError):
        table.greedy(1, key((7,)))
    with pytest.raises(KeyError):
        table.greedy(2, key((0, 0)))


def test_untrained_count_is_a_policy_error():
    # A count whose table holds no row is as untrained as an absent one.
    table = QTable(fo_quantum=Q)
    table.per_count[2] = {}
    with pytest.raises(PolicyUnavailableError,
                       match="no table for aggressor count 2"):
        table.fo_assignment(2)


def test_decode_returns_the_absorbing_state_of_the_greedy_walk():
    # Stepping up is best until state (3,), where the no-op dominates.
    table = table_of({1: {(q,): [0.0, 1.0, -1.0] if q < 3 else [1.0, 0.0, 0.0]
                          for q in range(Q)}})
    assert table.fo_assignment(1) == (3,)
    assert all(type(q) is int for q in table.fo_assignment(1))


def test_decode_falls_back_to_least_remaining_improvement_on_cycles():
    # Every state insists on stepping up, so the walk wraps around; the
    # smallest maximum value marks the state closest to convergence.
    table = table_of({1: {(q,): [0.0, float(Q - q), 0.5] for q in range(Q)}})
    assert table.fo_assignment(1) == (7,)


def test_decode_stops_at_the_first_state_without_a_row():
    # (0,) steps up to (1,) and (2,), which step up onto (3,): no row. (1,)
    # has the least improvement left; (6,) is never visited.
    table = table_of({1: {(0,): [0.0, 3.0, 0.0], (1,): [0.0, 2.0, 0.0],
                          (2,): [0.0, 2.5, 0.0], (6,): [0.0, 0.0, 1.0]}})
    assert rollout(table, 1) == ([(0,), (1,), (2,), (3,)], None)
    assert table.fo_assignment(1) == (1,)
    assert decode_reads(table, 1) == {(0,), (1,), (2,)}


def test_decode_requires_a_trained_count():
    table = QTable(fo_quantum=Q)
    with pytest.raises(PolicyUnavailableError,
                       match="no table for aggressor count 1"):
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
    """FO tuples of the states whose rows ``table.fo_assignment(count)``
    reads."""
    probe = QTable(fo_quantum=table.fo_quantum)
    probe.per_count[count] = ReadRecorder(table.per_count[count])
    probe.fo_assignment(count)
    return {fo(state, table.fo_quantum) for state in probe.per_count[count].read}


def walk_table():
    """Count 1 absorbs at (3,) after three steps up, with rows off the walk;
    count 2 steps from (0, 0) onto (1, 0), which has no row, so it stops
    there and decodes to (0, 0). (0, 0) stores a -0.0, which reads as 0.0
    but is kept."""
    table = table_of(
        {1: {(q,): (np.array([0.0, 1.0, -1.0]) if q < 3
                    else np.array([1.0, 0.0, 0.0])) + 0.1 * q for q in range(Q)},
         2: {(0, 0): [0.0, 2.0, -0.0, 1.0, 0.0], (1, 5): np.ones(5),
             (6, 6): np.arange(5.0)}},
        hyperparams=Hyperparams(beta=0.25, episodes=7), seed=99)
    table.converged = {1: True, 2: False}
    return table


def test_artifact_round_trips_exactly(tmp_path):
    """The artifact stores exactly the rows the decode reads, bit for bit,
    so every count decodes the same; it is not a dump of every Q-value."""
    table = walk_table()
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    assert loaded.fo_quantum == Q
    assert loaded.seed == 99
    assert loaded.hyperparams == table.hyperparams
    assert loaded.converged == {1: True, 2: False}
    assert sorted(loaded.per_count) == [1, 2]
    for count, sub in loaded.per_count.items():
        assert set(dense(loaded, count)) == decode_reads(table, count)
        assert list(sub) == sorted(sub)
        for state, row in sub.items():
            assert type(state) is bytes
            assert all(type(a) is int and type(v) is float for a, v in row.items())
            assert row == table.per_count[count][state]
    assert list(dense(loaded, 1)) == [(0,), (1,), (2,), (3,)]
    assert list(dense(loaded, 2)) == [(0, 0)]
    assert loaded.per_count[2][key((0, 0))] == {1: 2.0, 2: -0.0, 3: 1.0}
    assert rollout(table, 2) == ([(0, 0), (1, 0)], None)
    loaded.save(tmp_path / "resaved.npz")
    assert (tmp_path / "resaved.npz").read_bytes() == path.read_bytes()
    assert table.fo_assignment(1) == (3,)
    assert table.fo_assignment(2) == (0, 0)
    for count in (1, 2):
        assert loaded.fo_assignment(count) == table.fo_assignment(count)


def test_artifact_stores_the_trained_rows_of_a_walk_that_stops(tmp_path):
    # (0,) steps up twice onto (2,), which has no row; (6,) is never read.
    table = table_of({1: {(0,): [0.0, 2.0, 0.0], (1,): [0.0, 1.0, 0.0],
                          (6,): [0.0, 0.0, 1.0]}})
    assert rollout(table, 1) == ([(0,), (1,), (2,)], None)
    assert table.fo_assignment(1) == (1,)
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    assert set(dense(loaded, 1)) == decode_reads(table, 1) == {(0,), (1,)}
    assert loaded._rollout(1) == table._rollout(1)
    assert loaded.fo_assignment(1) == (1,)


def v2_arrays(table, header):
    """Artifact members holding every row of ``table``, in state order,
    under a copy of ``header`` whose ``rows`` list matches them."""
    counts = sorted(table.per_count)
    rows = [dict(sorted(dense(table, count).items())) for count in counts]
    header = {**header, "counts": counts, "rows": [len(sub) for sub in rows]}
    return {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            "states": np.array([q for sub in rows for state in sub for q in state],
                               dtype=np.int64),
            "values": np.concatenate([values for sub in rows
                                      for values in sub.values()])}


def test_artifact_with_extra_rows_loads_and_decodes_the_same(tmp_path):
    """An artifact that stores every row, not only the decode rows, loads
    them all, and decodes the same."""
    table = walk_table()
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
    loaded = load_tampered(tmp_path, v2_arrays(table, header))
    for count, sub in table.per_count.items():
        assert len(sub) > len(decode_reads(table, count))
        assert list(loaded.per_count[count]) == sorted(sub)
        assert loaded.per_count[count] == sub
        assert loaded.fo_assignment(count) == table.fo_assignment(count)


def full_table(family, s_max, hp, rng_seed):
    """Every row the training walk of each count touched: the table ``train``
    builds, on the same drops and streams, before it keeps the decode rows."""
    table = QTable(fo_quantum=Q, hyperparams=hp, seed=rng_seed)
    for count in range(1, s_max + 1):
        drops = [family(count + 1, np.random.default_rng([rng_seed, count, d]))
                 for d in range(hp.ensemble)]
        table.converged[count] = _train_one_count(
            table, count, EnsembleEvaluator(drops),
            np.random.default_rng([rng_seed, count, hp.ensemble]))
    return table


def real_family():
    """AWGN capacity-vs-aggressors drops on the Gaussian pulse."""
    config = ExperimentConfig(experiment="capacity_vs_aggressors")
    pulse = potsim.filter_factory("gaussian", 0.2)
    cross = CrossAmbiguity(pulse, pulse, config.lattice, fo_quantum=Q)
    return scenario_family(config, cross)


#: The budget of the counts 1..6 tables on real drops.
REAL_HP = Hyperparams(episodes=30, ensemble=2, beta=1.0, epsilon_end=0.3)


@pytest.fixture(scope="module")
def trained_and_full():
    """(``train``'s table, the full table) for counts 1..6 on real drops."""
    family = real_family()
    return train(family, 6, REAL_HP, rng_seed=4), full_table(family, 6, REAL_HP, 4)


def test_training_keeps_only_the_decode_rows_of_the_full_table(trained_and_full):
    table, full = trained_and_full
    assert table.converged == full.converged
    assert list(table.per_count) == list(full.per_count)
    for count, rows in table.per_count.items():
        kept, every = dense(table, count), dense(full, count)
        assert set(kept) == decode_reads(full, count) == decode_reads(table, count)
        assert list(rows) == sorted(rows)
        assert len(rows) < len(full.per_count[count])
        for state, values in kept.items():
            assert values.tobytes() == every[state].tobytes()
        assert table.fo_assignment(count) == full.fo_assignment(count)


def test_the_kept_rows_save_the_bytes_of_the_full_table(trained_and_full, tmp_path):
    table, full = trained_and_full
    table.save(tmp_path / "kept.npz")
    full.save(tmp_path / "full.npz")
    assert (tmp_path / "kept.npz").read_bytes() == (tmp_path / "full.npz").read_bytes()


def test_trained_table_round_trips_every_prescription(trained_and_full, tmp_path):
    # The trained table already holds only the rows the artifact stores;
    # that they are fewer than the walk touched is checked above.
    table, _ = trained_and_full
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    for count in range(1, 7):
        assert loaded.fo_assignment(count) == table.fo_assignment(count)
        assert list(loaded.per_count[count]) == list(table.per_count[count])
        assert set(dense(loaded, count)) == decode_reads(table, count)


def saved_arrays(tmp_path):
    """The arrays of a saved two-count artifact, by name: count 1 steps from
    (0,) up onto (1,), count 2 from (0, 0) onto (0, 1), and each absorbs
    there, so each keeps two rows; (5,) is off the walk."""
    table = table_of({1: {(0,): [0.0, 1.0, 0.0], (1,): np.zeros(3), (5,): np.ones(3)},
                      2: {(0, 0): [0.0, 0.0, 0.0, 1.0, 0.0], (0, 1): np.full(5, 2.0)}})
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def load_tampered(tmp_path, arrays):
    tampered = tmp_path / "tampered.npz"
    np.savez_compressed(tampered, **arrays)
    return QTable.load(tampered)


@pytest.mark.parametrize("name", ["header", "states", "values"])
def test_artifact_missing_a_member_is_a_config_error(tmp_path, name):
    arrays = saved_arrays(tmp_path)
    del arrays[name]
    with pytest.raises(ConfigError, match=name):
        load_tampered(tmp_path, arrays)


def test_artifact_stores_three_members_whatever_the_number_of_counts(tmp_path):
    arrays = saved_arrays(tmp_path)
    assert sorted(arrays) == ["header", "states", "values"]
    header = json.loads(bytes(arrays["header"]).decode())
    assert header["version"] == 2
    assert (header["counts"], header["rows"]) == ([1, 2], [2, 2])
    assert arrays["states"].dtype == np.int64
    assert arrays["states"].tolist() == [0, 1, 0, 0, 0, 1]
    assert arrays["values"].dtype == np.float64
    assert arrays["values"].tolist() == ([0.0, 1.0, 0.0] + [0.0] * 3
                                         + [0.0, 0.0, 0.0, 1.0, 0.0] + [2.0] * 5)


@pytest.mark.parametrize("rows", [None, 2, [1], [1, 1, 0], [1, -1], [1, 1.0],
                                  [True, 1], ["1", 1]],
                         ids=["missing", "scalar", "short", "long", "negative",
                              "float", "bool", "string"])
def test_artifact_rows_must_be_non_negative_integers_aligned_with_counts(
        tmp_path, rows):
    edit = without("rows") if rows is None else edited("rows", rows)
    with pytest.raises(ConfigError, match="rows"):
        load_tampered(tmp_path, with_header(saved_arrays(tmp_path), edit))


def test_artifact_states_of_the_wrong_width_are_a_config_error(tmp_path):
    # rows [2, 2] over counts [1, 2] hold 2 * 1 + 2 * 2 = 6 states.
    arrays = saved_arrays(tmp_path)
    for states in ([0, 1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0], [[0, 1, 0], [0, 0, 1]]):
        arrays["states"] = np.array(states)
        with pytest.raises(ConfigError, match=r"states must have shape \(6,\)"):
            load_tampered(tmp_path, arrays)
    arrays = with_header(saved_arrays(tmp_path), edited("rows", [1, 2]))
    with pytest.raises(ConfigError, match=r"states must have shape \(5,\)"):
        load_tampered(tmp_path, arrays)


def test_artifact_values_of_the_wrong_shape_are_a_config_error(tmp_path):
    # rows [2, 2] over counts [1, 2] hold 2 * 3 + 2 * 5 = 16 values.
    arrays = saved_arrays(tmp_path)
    for values in (np.zeros(17), np.zeros(15), np.zeros((2, 8))):
        arrays["values"] = values
        with pytest.raises(ConfigError, match=r"values must have shape \(16,\)"):
            load_tampered(tmp_path, arrays)
    arrays["values"] = np.zeros(16, dtype=np.float32)
    with pytest.raises(ConfigError, match="values"):
        load_tampered(tmp_path, arrays)


@pytest.mark.parametrize("dtype", [float, bool, np.complex128])
def test_artifact_states_that_are_not_integers_are_a_config_error(tmp_path, dtype):
    arrays = saved_arrays(tmp_path)
    arrays["states"] = arrays["states"].astype(dtype)
    with pytest.raises(ConfigError, match="states must be integers"):
        load_tampered(tmp_path, arrays)


@pytest.mark.parametrize("states", [[0, 1, 0, 0, 0, -1], [0, 1, 0, 0, 0, Q],
                                    [2 ** 40, 1, 0, 0, 0, 1]])
def test_artifact_states_outside_the_fo_grid_are_a_config_error(tmp_path, states):
    arrays = saved_arrays(tmp_path)
    arrays["states"] = np.array(states, dtype=np.int64)
    with pytest.raises(ConfigError, match=rf"states must lie in \[0, {Q}\)"):
        load_tampered(tmp_path, arrays)


def test_artifact_repeating_a_state_within_a_count_is_a_config_error(tmp_path):
    arrays = saved_arrays(tmp_path)
    # Count 1's two states may equal count 2's first coordinates; only a
    # repeat within one count is an error.
    arrays["states"] = np.array([0, 1, 1, 0, 0, 1])
    assert list(load_tampered(tmp_path, arrays).per_count[2]) == [key((1, 0)),
                                                                   key((0, 1))]
    arrays["states"] = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(ConfigError, match="states repeat within count 2"):
        load_tampered(tmp_path, arrays)
    arrays["states"] = np.array([1, 1, 0, 0, 0, 1])
    with pytest.raises(ConfigError, match="states repeat within count 1"):
        load_tampered(tmp_path, arrays)


def test_an_artifact_in_the_earlier_layout_is_a_config_error(tmp_path):
    """Version 1 stored ``states_<count>`` and ``values_<count>`` per count;
    it is rejected by its version, naming both versions and the retrain."""
    table = walk_table()
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as data:
        header = {**json.loads(bytes(data["header"]).decode()), "version": 1}
    del header["rows"]
    arrays = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for count in table.per_count:
        rows = dense(table, count)
        arrays[f"states_{count}"] = np.array(sorted(rows), dtype=np.int64)
        arrays[f"values_{count}"] = np.stack([rows[s] for s in sorted(rows)])
    with pytest.raises(ConfigError,
                       match=r"version 1 is not 2; retrain the policy with potsim train"):
        load_tampered(tmp_path, arrays)


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_an_artifact_path_that_cannot_be_opened_is_a_config_error(tmp_path, kind):
    path = tmp_path / "policy.npz"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ConfigError, match="policy.npz"):
        QTable.load(path)


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
    edited("hyperparams", {"beta": True}),
    edited("counts", [1, 2.5]), edited("counts", ["1", "2"]),
    edited("counts", 2), edited("counts", [True, 2]),
    edited("counts", [2, 1]), edited("counts", [1, 1]),
    edited("fo_quantum", 8.0), edited("seed", "zero"), edited("seed", -1),
    edited("converged", [True, False]),
    edited("converged", {"1": "false"}), edited("converged", {"1": 0}),
], ids=["no_counts", "no_fo_quantum", "no_seed", "no_hyperparams",
        "no_converged", "list", "unknown_hyperparam", "bad_hyperparam",
        "hyperparams_list", "bool_hyperparam", "float_count", "string_counts",
        "scalar_counts", "bool_count", "descending_counts", "repeated_count",
        "float_fo_quantum", "string_seed", "negative_seed",
        "converged_list", "string_converged", "integer_converged"])
def test_malformed_artifact_header_is_a_config_error(tmp_path, edit):
    arrays = with_header(saved_arrays(tmp_path), edit)
    with pytest.raises(ConfigError):
        load_tampered(tmp_path, arrays)


def test_artifact_version_and_format_are_checked(tmp_path):
    table = table_of({1: {(0,): np.zeros(3)}})
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
    """Drops whose two-link capacity is maximized at one known FO index;
    with more links every pair couples the same way."""

    window = 2 * Q - 1

    def coupling(idx):
        qdiff = idx - (Q - 1)
        return 1.6 + 1.5 * np.cos(2.0 * np.pi * (qdiff - (optimum - 4)) / Q)

    def build(num_links, rng):
        cci = np.zeros((num_links, num_links, window))
        for first, second in itertools.combinations(range(num_links), 2):
            cci[second, first] = coupling(np.arange(window))
            cci[first, second] = coupling(2 * (Q - 1) - np.arange(window))
        return types.SimpleNamespace(
            fo_quantum=Q, cci=cci,
            e_signal=np.ones(num_links), e_self=np.zeros(num_links),
            noise=np.full(num_links, noise))

    return build


def test_training_finds_the_planted_optimum():
    hp = Hyperparams(ensemble=2, episodes=120, beta=1.0, epsilon_end=0.3)
    for optimum in (2, 4, 6):
        table = train(synthetic_family(optimum=optimum), 1, hp, rng_seed=3)
        assert table.fo_assignment(1) == (optimum,)


@given(counts=st.sets(st.integers(1, 3), min_size=1),
       episodes=st.integers(1, 30),
       beta=st.floats(0.0, 1.0, exclude_min=True),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       epsilon=st.sampled_from([(1.0, 0.05), (1.0, 1.0), (0.3, 0.0),
                                (0.0, 0.0)]),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_the_greedy_walk_of_a_trained_table_never_leaves_its_rows(
        counts, episodes, beta, gamma, epsilon, seed):
    # The decode stops at a state without a row; on a trained table it
    # never meets one, so the artifact's rows are every row it reads.
    hp = Hyperparams(ensemble=1, episodes=episodes, beta=beta, gamma=gamma,
                     epsilon_start=epsilon[0], epsilon_end=epsilon[1])
    table = train(synthetic_family(), 3, hp, rng_seed=seed, counts=counts)
    for count in counts:
        visited, _ = table._rollout(count)
        assert all(state in table.per_count[count] for state in visited)


def test_training_is_seed_deterministic():
    hp = Hyperparams(ensemble=2, episodes=60)

    def rows(seed):
        table = train(synthetic_family(), 1, hp, rng_seed=seed)
        assert list(table.per_count) == [1]
        return table.per_count[1]

    # Another seed may keep other states, so whole row sets are compared.
    assert rows(11) == rows(11)
    assert rows(11) != rows(12)


def test_training_rejects_a_negative_seed():
    # numpy's seed sequence once raised its own ValueError here.
    with pytest.raises(ParameterError, match="rng_seed"):
        train(synthetic_family(), 1, Hyperparams(ensemble=1, episodes=1),
              rng_seed=-1)


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
    # Each counter serves one count and wraps once per ``train`` call, so it
    # picks the same drops whether a count trains here or in a forked
    # worker, whose advances this process never sees.
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
    table.per_count.update(table_of({
        2: {(0, 0): np.zeros(5), (4, 2): [1.0, 0, 0, 0, 0]},
        3: {(1, 2, 3): [1.0] + [0.0] * 6}}).per_count)
    offsets = entry_sequence(table, 4, Q)
    assert all(0 <= q < Q for q in offsets)
    assert len(set(offsets)) == len(offsets)


# ---------------------------------------------------------------------------
# deferred updates against the step-by-step walk


def step_by_step_train_one_count(hp, count, evaluator, rng, fo_quantum=Q):
    """The training walk over dense rows by state tuple that queries each
    step's capacity and updates its row at once: the oracle of
    ``_train_one_count``. Returns (rows in the order their states were first
    touched, converged)."""
    steps = hp.steps(fo_quantum)
    num_actions = 2 * count + 1
    rows, capacity_cache = {}, {}

    def values_for(state):
        values = rows.get(state)
        if values is None:
            values = rows[state] = np.zeros(num_actions)
        return values

    def step(state, action):
        if action == 0:
            return state
        link, parity = divmod(action - 1, 2)
        moved = list(state)
        moved[link] = (moved[link] + (1 if parity == 0 else -1)) % fo_quantum
        return tuple(moved)

    def mean_capacity(state):
        capacity = capacity_cache.get(state)
        if capacity is None:
            capacity = capacity_cache[state] = evaluator.mean_sum_capacity(state)
        return capacity

    for episode in range(hp.episodes):
        eps = hp.epsilon(episode)
        state = (0,) * count
        cap_prev = mean_capacity(state)
        sweep_delta = 0.0
        for _ in range(steps):
            values = values_for(state)
            if rng.random() < eps:
                action = int(rng.integers(num_actions))
            else:
                action = int(values.argmax())
            next_state = step(state, action)
            cap_now = mean_capacity(next_state)
            step_reward = reward(cap_now, cap_prev, hp.lambda1)
            max_next = float(values_for(next_state).max())
            old = float(values[action])
            new = q_update(old, step_reward, max_next, hp.beta, hp.gamma)
            values[action] = new
            sweep_delta = max(sweep_delta, abs(new - old))
            state, cap_prev = next_state, cap_now
        if sweep_delta < hp.tolerance:
            return rows, True
    return rows, False


def random_energies(num_links, rng, fo_quantum=Q):
    """Drop energy tables with independent random entries in every cell."""
    return types.SimpleNamespace(
        fo_quantum=fo_quantum,
        cci=rng.exponential(size=(num_links, num_links, 2 * fo_quantum - 1)),
        e_signal=rng.exponential(size=num_links),
        e_self=rng.exponential(0.1, size=num_links),
        noise=rng.exponential(0.1, size=num_links))


def train_both_ways(count, hp, fo_quantum=Q):
    """(table, step-by-step rows, step-by-step converged) for one count on
    the same drops and walk stream: ``table`` holds the deferred walk and
    its ``converged`` flag."""
    rng = np.random.default_rng([count, hp.ensemble])
    drops = [random_energies(count + 1, rng, fo_quantum) for _ in range(hp.ensemble)]
    table = QTable(fo_quantum=fo_quantum, hyperparams=hp)
    table.converged[count] = _train_one_count(table, count, EnsembleEvaluator(drops),
                                              np.random.default_rng(7))
    rows, converged = step_by_step_train_one_count(
        hp, count, EnsembleEvaluator(drops), np.random.default_rng(7), fo_quantum)
    return table, rows, converged


def assert_rows_bit_identical(got, want):
    """Dense rows by state tuple, equal in order (the order states were first
    touched) and bit for bit."""
    assert list(got) == list(want)
    assert ([values.tobytes() for values in got.values()]
            == [values.tobytes() for values in want.values()])


def assert_bit_identical(got, want):
    assert got.converged == want.converged
    assert list(got.per_count) == list(want.per_count)
    for count in want.per_count:
        assert_rows_bit_identical(dense(got, count), dense(want, count))


@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("ensemble", [1, 4, 20])
@pytest.mark.parametrize("count", [1, 3, 12])
def test_deferred_updates_train_the_step_by_step_table(count, ensemble, beta):
    hp = Hyperparams(ensemble=ensemble, episodes=25, beta=beta,
                     epsilon_end=0.3, gamma=0.95)
    table, rows, converged = train_both_ways(count, hp)
    assert table.converged == {count: converged}
    assert_rows_bit_identical(dense(table, count), rows)


@pytest.mark.parametrize("count", [1, 3, 12])
def test_deferred_updates_stop_at_the_step_by_step_episode(count):
    # A greedy tail lets the largest update fall below the tolerance
    # before the episode budget runs out.
    hp = Hyperparams(ensemble=4, episodes=60, beta=1.0, epsilon_start=0.3,
                     epsilon_end=0.0, gamma=0.5, tolerance=1e-3)
    table, rows, converged = train_both_ways(count, hp)
    assert converged
    assert table.converged == {count: True}
    assert_rows_bit_identical(dense(table, count), rows)


@pytest.mark.parametrize("count", [1, 3])
def test_a_grid_wider_than_one_byte_trains_the_step_by_step_table(count):
    # Q = 300 needs two bytes per FO index in a state key; stepping down
    # from 0 wraps to 299, so the walk meets indices above 255.
    hp = Hyperparams(ensemble=2, episodes=25, steps_per_episode=60, beta=0.5,
                     epsilon_end=0.3, gamma=0.95)
    table, rows, converged = train_both_ways(count, hp, fo_quantum=300)
    assert max(max(state) for state in rows) > 255
    assert table.converged == {count: converged}
    assert_rows_bit_identical(dense(table, count), rows)


@st.composite
def sparse_rows(draw):
    """(row, number of actions): values written at some actions, in any
    order, from signed zeros, infinities, NaN and all-negative stretches."""
    num_actions = draw(st.integers(1, 7))
    written = draw(st.permutations(range(num_actions)))
    written = written[:draw(st.integers(0, num_actions))]
    values = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
                       st.floats(max_value=-1e-300), st.floats())
    return {action: draw(values) for action in written}, num_actions


@given(sparse_rows())
@settings(max_examples=500, deadline=None)
def test_the_sparse_row_max_is_the_dense_rows(row_and_actions):
    row, num_actions = row_and_actions
    dense = np.zeros(num_actions)
    dense[list(row)] = list(row.values())
    best, first = qlearning._row_max(row, num_actions)
    assert first == np.argmax(dense)
    # +0.0 == -0.0; a NaN max is any NaN.
    assert best == np.max(dense) or (math.isnan(best) and np.isnan(np.max(dense)))


def test_tables_trained_on_random_energies_round_trip_through_an_artifact(tmp_path):
    hp = Hyperparams(ensemble=2, episodes=20, beta=0.5, epsilon_end=0.3,
                     gamma=0.95)
    table = train(random_energies, 12, hp, rng_seed=5)
    path = tmp_path / "table.npz"
    table.save(path)
    loaded = QTable.load(path)
    assert (loaded.fo_quantum, loaded.seed, loaded.hyperparams) == (Q, 5, hp)
    assert_bit_identical(loaded, table)
    for count in range(1, 13):
        assert loaded.fo_assignment(count) == table.fo_assignment(count)


def test_a_two_byte_grid_round_trips_through_an_artifact(tmp_path):
    # At Q = 300 a state key holds two bytes per FO index; the artifact
    # still lists each count's states in ascending tuple order, and a loaded
    # table saves the same bytes.
    hp = Hyperparams(ensemble=2, episodes=25, steps_per_episode=60, beta=0.5,
                     epsilon_end=0.3, gamma=0.95)
    table = train(lambda links, rng: random_energies(links, rng, 300), 3, hp,
                  rng_seed=1)
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    table.save(first)
    loaded = QTable.load(first)
    loaded.save(second)
    assert second.read_bytes() == first.read_bytes()
    assert_bit_identical(loaded, table)
    with np.load(first) as data:
        header = json.loads(bytes(data["header"]).decode())
        states = data["states"]
    assert states.max() > 255
    at = 0
    for count, n in zip(header["counts"], header["rows"]):
        block = [tuple(s) for s in states[at:at + n * count].reshape(n, count).tolist()]
        assert block == sorted(set(block))
        assert loaded.fo_assignment(count) == table.fo_assignment(count)
        at += n * count


# ---------------------------------------------------------------------------
# training workers


@pytest.fixture
def workers(monkeypatch):
    """Set the usable CPUs ``train`` sees; no child outlives the test."""
    yield lambda cpus: monkeypatch.setattr(qlearning, "_usable_cpus", lambda: cpus)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("counts", [[], (), [True], [1, False], [2.5], [1, "2"],
                                    3, "12"])
def test_training_rejects_counts_that_are_not_a_non_empty_integer_list(
        counts, workers):
    workers(3)

    def family(num_links, rng):
        raise AssertionError("no drop may be drawn")

    with pytest.raises(ParameterError, match="counts"):
        train(family, 3, Hyperparams(ensemble=1, episodes=1), counts=counts)


def test_numpy_integer_counts_train_python_int_keys(workers, tmp_path):
    # A numpy key once reached the artifact header, which JSON cannot hold.
    workers(3)
    table = train(synthetic_family(), 3, Hyperparams(ensemble=1, episodes=2),
                  counts=[np.int64(3), np.int32(1), np.int64(3)])
    assert [type(count) for count in table.per_count] == [int, int]
    assert list(table.per_count) == list(table.converged) == [1, 3]
    table.save(tmp_path / "table.npz")
    assert list(QTable.load(tmp_path / "table.npz").per_count) == [1, 3]


def test_the_worker_count_changes_no_output(workers, tmp_path):
    family = real_family()
    tables = []
    for cpus in (1, 3):
        workers(cpus)
        tables.append(train(family, 6, REAL_HP, rng_seed=4))
        tables[-1].save(tmp_path / f"{cpus}.npz")
    serial, forked = tables
    assert_bit_identical(forked, serial)
    assert list(forked.per_count) == list(forked.converged) == list(range(1, 7))
    assert list(serial.converged) == list(forked.converged)
    for count in range(1, 7):
        assert forked.fo_assignment(count) == serial.fo_assignment(count)
    assert (tmp_path / "3.npz").read_bytes() == (tmp_path / "1.npz").read_bytes()


def test_more_workers_than_cores_claim_every_count_once(workers, tmp_path):
    # One drop per count: a lost update of the shared queue would show as a
    # count whose drop was drawn twice, or never.
    workers(min(12, (os.cpu_count() or 1) + 2))
    base = synthetic_family()

    def family(num_links, rng):
        (tmp_path / f"{num_links - 1}-{os.getpid()}").touch()
        return base(num_links, rng)

    hp = Hyperparams(ensemble=1, episodes=3)
    forked = train(family, 12, hp, rng_seed=5)
    drawn = sorted(int(path.name.split("-")[0]) for path in tmp_path.iterdir())
    assert drawn == list(range(1, 13))
    workers(1)
    assert_bit_identical(forked, train(base, 12, hp, rng_seed=5))


def test_an_error_in_a_forked_worker_is_raised_in_the_caller(workers):
    workers(3)
    base, caller = synthetic_family(), os.getpid()

    def family(num_links, rng):
        if os.getpid() != caller:
            raise RuntimeError("no drop for this count")
        # The caller keeps the largest count while the children claim the
        # other two.
        time.sleep(0.5)
        return base(num_links, rng)

    with pytest.raises(RuntimeError) as raised:
        train(family, 3, Hyperparams(ensemble=1, episodes=1))
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == "no drop for this count"
    assert "forked training worker" in str(raised.value.__cause__)


def test_training_inside_a_forked_worker_runs_serially(workers):
    # A worker is daemonic, and a daemonic process may not have children.
    workers(3)
    base, caller = synthetic_family(), os.getpid()
    hp = Hyperparams(ensemble=1, episodes=2)

    def family(num_links, rng):
        if os.getpid() == caller:
            time.sleep(0.5)
        else:
            train(synthetic_family(), 2, hp)
        return base(num_links, rng)

    forked = train(family, 3, hp)
    workers(1)
    assert_bit_identical(forked, train(synthetic_family(), 3, hp))


def test_an_error_in_the_caller_terminates_the_workers(workers, tmp_path):
    workers(3)
    started, caller = tmp_path / "started", os.getpid()

    def family(num_links, rng):
        if os.getpid() != caller:
            started.touch()
            time.sleep(60)
        while not started.exists():
            time.sleep(0.01)
        raise RuntimeError("no drop for the largest count")

    began = time.monotonic()
    with pytest.raises(RuntimeError, match="no drop for the largest count"):
        train(family, 3, Hyperparams(ensemble=1, episodes=1))
    # Joining the workers without terminating them would take a minute.
    assert time.monotonic() - began < 30


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_family_that_changes_the_fo_quantum_is_a_config_error(workers, cpus):
    workers(cpus)
    base = synthetic_family()

    def family(num_links, rng):
        drop = base(num_links, rng)
        if num_links == 3:
            drop.fo_quantum = Q // 2
        return drop

    with pytest.raises(ConfigError, match="scenario family changed the FO quantum"):
        train(family, 3, Hyperparams(ensemble=1, episodes=2))


PARENT_DIES = '''
import os, sys, time
from pathlib import Path

from potsim import qlearning
from potsim.experiments import ExperimentConfig, scenario_family
from potsim.waveform import CrossAmbiguity, filter_factory

log = Path(sys.argv[1])
config = ExperimentConfig(experiment="capacity_vs_aggressors")
pulse = filter_factory("gaussian", 0.2)
base = scenario_family(config, CrossAmbiguity(pulse, pulse, config.lattice,
                                              fo_quantum=config.fo_quantum))
parent = os.getpid()


def family(num_links, rng):
    if os.getpid() == parent:
        # The largest count: die, with no clean-up, once a child has begun
        # its first count.
        while not log.exists():
            time.sleep(0.01)
        os._exit(0)
    with log.open("a") as out:
        out.write(f"{os.getpid()} {num_links - 1}\\n")
    while os.getppid() == parent:
        time.sleep(0.01)
    return base(num_links, rng)


qlearning._usable_cpus = lambda: 2
qlearning.train(family, 3, qlearning.Hyperparams(ensemble=1, episodes=1))
'''


def process_ended(pid: int) -> bool:
    """True once ``pid`` has exited, reaped or not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_worker_whose_parent_has_gone_ends_after_its_current_count(tmp_path):
    log = tmp_path / "child.log"
    script = tmp_path / "parent_dies.py"
    script.write_text(PARENT_DIES)
    path = [str(Path(__file__).resolve().parent.parent / "src")]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run([sys.executable, str(script), str(log)],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    deadline = time.monotonic() + 60
    while not log.read_text().endswith("\n"):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    pid = int(log.read_text().split()[0])
    while not process_ended(pid):
        assert time.monotonic() < deadline, "the orphaned worker still runs"
        time.sleep(0.05)
    # It trained the count it had begun, then claimed no other.
    assert log.read_text() == f"{pid} 2\n"
