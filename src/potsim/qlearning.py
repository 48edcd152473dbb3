"""Offline tabular Q-learning over quantized frequency-offset assignments.

For each aggressor count S the trainer runs epsilon-greedy episodes on the
state space of aggressor FO tuples, rewarding steps by the scaled change in
ensemble-averaged network sum capacity. A ``QTable`` is sparse: byte-string
states, and rows that hold only the Q-values the walk wrote. A trained table
keeps the rows its decode reads, which turn into the FO prescriptions the
entry protocol hands to arriving links.
"""

import json
import math
import os
import zipfile
from dataclasses import dataclass, field, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ParameterError, PolicyUnavailableError,
                     check_field_types, is_integer)
from .interference import EnsembleEvaluator

ARTIFACT_FORMAT = "potsim-qtable"
ARTIFACT_VERSION = 2


def artifact_path(path) -> Path:
    """Path of the Q-table artifact named ``path``: ``.npz`` is appended when
    missing, as ``numpy.savez_compressed`` does on save."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs; defaults sized for desk-scale convergence. Budgets are
    integers, the rest real numbers other than NaN; a numpy scalar is stored
    as a Python number, so ``QTable.save`` can write it."""

    beta: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    lambda1: float = 10.0
    episodes: int = 500
    steps_per_episode: int = 0
    ensemble: int = 20
    tolerance: float = 1e-4

    def __post_init__(self):
        check_field_types(self, ParameterError)
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError("beta must lie in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ParameterError("gamma must lie in [0, 1)")
        for eps in (self.epsilon_start, self.epsilon_end):
            if not 0.0 <= eps <= 1.0:
                raise ParameterError("epsilon must lie in [0, 1]")
        if self.lambda1 <= 0:
            raise ParameterError("lambda1 must be positive")
        if self.episodes < 1 or self.ensemble < 1:
            raise ParameterError("episode and ensemble budgets must be positive")
        if self.steps_per_episode < 0:
            raise ParameterError("steps_per_episode must be non-negative")
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")

    def steps(self, fo_quantum: int) -> int:
        """Steps per episode; zero means the 10 * Q default."""
        return self.steps_per_episode or 10 * fo_quantum

    def epsilon(self, episode: int) -> float:
        if self.episodes == 1:
            return self.epsilon_start
        frac = episode / (self.episodes - 1)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


def q_update(q_old: float, reward_value: float, max_next: float,
             beta: float, gamma: float) -> float:
    """One state-action value update: (1 - beta) q + beta (r + gamma max')."""
    return (1.0 - beta) * q_old + beta * (reward_value + gamma * max_next)


def reward(capacity_now: float, capacity_prev: float, lambda1: float) -> float:
    """Scaled capacity improvement; negative when capacity drops."""
    return lambda1 * (capacity_now - capacity_prev)


@dataclass
class QTable:
    """Per-aggressor-count state-action value tables.

    per_count maps S to a dict from state keys to rows. A state key is the
    ``bytes`` of one ``_key_dtype`` integer per aggressor, its quantized FO
    index, so sorted keys are in state order. A row is a dict from action
    index to value, where an action never written reads 0.0 (``_row_max``).
    Of the 2S + 1 actions, index 0 is the no-op, index 2j + 1 steps link j
    up by one FO quantum, index 2j + 2 steps it down (``_step_key``).

    A table that ``train`` returns or ``load`` reads holds, per count, only
    the rows ``fo_assignment`` reads (``_decode_rows``), so it answers every
    decode exactly as the full table of the training walk does.
    """

    fo_quantum: int
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 0
    per_count: dict = field(default_factory=dict)
    converged: dict = field(default_factory=dict)

    def not_converged_counts(self) -> list:
        """Counts, ascending, whose training walk did not converge."""
        return sorted(count for count in self.per_count
                      if not self.converged.get(count, False))

    def values_for(self, count: int, state: bytes) -> dict:
        """Mutable row of a state key, created empty on first touch."""
        return self.per_count.setdefault(count, {}).setdefault(state, {})

    def greedy(self, count: int, state: bytes) -> int:
        """Greedy action index: the first maximum of the state's row;
        KeyError when the count or the state has no row."""
        return _row_max(self.per_count[count][state], 2 * count + 1)[1]

    def fo_assignment(self, count: int) -> tuple:
        """Decode the trained table into an FO prescription for S aggressors.

        Rolls the greedy policy out from the all-zero (full overlap) entry
        state. A no-op is the policy declaring the current state optimal, so
        the walk returns there. Rewards are capacity differences, which makes
        a state's value its remaining improvement rather than its quality;
        if the walk cycles, exhausts its step cap or reaches a state with no
        row instead of absorbing, the trained visited state with the smallest
        value (least improvement left) is the best candidate. Raises
        PolicyUnavailableError when the count was never trained.
        """
        if count < 1:
            raise ParameterError("aggressor count must be at least 1")
        sub = self.per_count.get(count)
        if not sub:
            raise PolicyUnavailableError(
                f"policy has no table for aggressor count {count}")
        visited, state = self._rollout(count)
        if state is None:
            # A state with no row carries no evidence; it ranks after every
            # trained state.
            state = min(visited, key=lambda key: _row_max(sub[key], 2 * count + 1)[0]
                        if key in sub else math.inf)
        return tuple(np.frombuffer(state, _key_dtype(self.fo_quantum)).tolist())

    def _rollout(self, count: int):
        """The greedy walk ``fo_assignment`` decodes: (visited state keys in
        order, the absorbing one or None when the walk cycles, runs out of
        steps or stops at a state with no row, which stays last in visited).

        On a trained table the walk never stops there: a no-op's value never
        falls below 0 (its reward is 0), so greedy takes either the no-op or
        a positive value, which only a tried action holds, and each tried
        action created its next state's row.
        """
        sub = self.per_count[count]
        width = _key_dtype(self.fo_quantum).itemsize
        state = bytes(count * width)
        visited = [state]
        seen = {state}
        absorbed = None
        for _ in range(2 * count * self.fo_quantum):
            if state not in sub:
                break
            action = self.greedy(count, state)
            if action == 0:
                absorbed = state
                break
            state = _step_key(state, action, width, self.fo_quantum)
            if state in seen:
                break
            seen.add(state)
            visited.append(state)
        return visited, absorbed

    def _decode_rows(self, count: int) -> dict:
        """The rows ``fo_assignment`` reads, in key order: the trained
        states of the greedy walk from the all-zero state (see ``_rollout``).
        """
        sub = self.per_count[count]
        return {state: sub[state]
                for state in sorted(s for s in self._rollout(count)[0] if s in sub)}

    def save(self, path) -> None:
        """Write only the rows ``fo_assignment`` reads (``_decode_rows``), so
        a loaded table decodes the same: ``header`` (JSON; ``rows`` gives each
        count's row count), then every row's state and dense values, in count
        then state order, flattened into ``states`` and ``values``."""
        counts = sorted(self.per_count)
        decoded = [self._decode_rows(count) for count in counts]
        header = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
                  "fo_quantum": self.fo_quantum, "seed": self.seed,
                  "hyperparams": asdict(self.hyperparams),
                  "converged": {str(k): bool(v) for k, v in self.converged.items()},
                  "counts": counts, "rows": [len(rows) for rows in decoded]}
        keys = b"".join(state for rows in decoded for state in rows)
        blocks = [np.zeros(0)]
        for count, rows in zip(counts, decoded):
            block = np.zeros((len(rows), 2 * count + 1))
            for dense, row in zip(block, rows.values()):
                dense[list(row)] = list(row.values())
            blocks.append(block.ravel())
        np.savez_compressed(
            path, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            states=np.frombuffer(keys, _key_dtype(self.fo_quantum)).astype(np.int64),
            values=np.concatenate(blocks))

    @classmethod
    def load(cls, path) -> "QTable":
        """Read an artifact written by ``save``; ConfigError if unreadable."""
        # Opened here because np.load leaves its own handle open when it
        # meets a broken zip.
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise ConfigError(f"cannot open Q-table {path}: {exc.strerror}") from exc
        with handle:
            try:
                data = np.load(handle, allow_pickle=False)
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ConfigError(f"{path} is not an npz Q-table artifact") from exc
            if isinstance(data, np.ndarray):
                raise ConfigError(f"{path} is not an npz Q-table artifact")
            with data:
                return cls._from_npz(data)

    @classmethod
    def _from_npz(cls, data) -> "QTable":
        try:
            header = json.loads(bytes(data["header"]).decode())
        except (KeyError, ValueError) as exc:
            raise ConfigError("Q-table artifact header is missing or not JSON") from exc
        if not isinstance(header, dict) or header.get("format") != ARTIFACT_FORMAT:
            raise ConfigError("not a Q-table artifact")
        if (version := header.get("version")) != ARTIFACT_VERSION:
            raise ConfigError(f"Q-table artifact version {version!r} is not "
                              f"{ARTIFACT_VERSION}; retrain the policy with potsim train")
        _check_header(header)
        try:
            hyperparams = Hyperparams(**header["hyperparams"])
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"Q-table artifact hyperparams are invalid: {exc}") from exc
        missing = [name for name in ("states", "values") if name not in data.files]
        if missing:
            raise ConfigError(f"Q-table artifact lacks {', '.join(missing)}")
        states, values = data["states"], data["values"]
        if not np.issubdtype(states.dtype, np.integer) or values.dtype != np.float64:
            raise ConfigError("Q-table artifact states must be integers, values float64")
        counts, rows, quantum = header["counts"], header["rows"], header["fo_quantum"]
        for name, array, width in (("states", states, lambda c: c),
                                   ("values", values, lambda c: 2 * c + 1)):
            size = sum(n * width(c) for c, n in zip(counts, rows))
            if array.shape != (size,):
                raise ConfigError(f"Q-table artifact {name} must have shape ({size},)")
        if states.size and not 0 <= states.min() <= states.max() < quantum:
            raise ConfigError(f"Q-table artifact states must lie in [0, {quantum})")
        table = cls(fo_quantum=quantum, hyperparams=hyperparams, seed=header["seed"])
        dtype = _key_dtype(quantum)
        keys = states.astype(dtype).tobytes()
        # A row holds its entries whose bits are not +0.0: the others read
        # 0.0 unwritten, and a stored -0.0 saves back as -0.0.
        widths = np.repeat([2 * count + 1 for count in counts], rows)
        starts = np.concatenate([[0], np.cumsum(widths, dtype=np.int64)])
        written = np.flatnonzero(values.view(np.uint64))
        bounds = np.searchsorted(written, starts).tolist()
        actions = (written - np.repeat(starts[:-1], np.diff(bounds))).tolist()
        entries = values[written].tolist()
        written_rows = (dict(zip(actions[lo:hi], entries[lo:hi]))
                        for lo, hi in zip(bounds, bounds[1:]))
        at = 0
        for count, n in zip(counts, rows):
            width = count * dtype.itemsize
            sub = table.per_count[count] = dict(zip(
                (keys[key:key + width] for key in range(at, at + n * width, width)),
                written_rows))
            if len(sub) != n:
                raise ConfigError(f"Q-table artifact states repeat within count {count}")
            table.converged[count] = header["converged"].get(str(count), False)
            at += n * width
        return table


def _check_header(header: dict) -> None:
    """ConfigError unless the header fields ``save`` writes are well formed."""
    missing = [name for name in ("fo_quantum", "seed", "hyperparams",
                                 "converged", "counts", "rows") if name not in header]
    if missing:
        raise ConfigError(f"Q-table artifact header lacks {', '.join(missing)}")
    if not is_integer(header["fo_quantum"]) or header["fo_quantum"] < 1:
        raise ConfigError("Q-table artifact fo_quantum must be a positive integer")
    if not is_integer(header["seed"]) or header["seed"] < 0:
        raise ConfigError("Q-table artifact seed must be a non-negative integer")
    counts, rows = header["counts"], header["rows"]
    if not (isinstance(counts, list) and all(is_integer(c) and c >= 1 for c in counts)
            and counts == sorted(set(counts))):
        raise ConfigError("Q-table artifact counts must be ascending positive integers")
    if not isinstance(rows, list) or len(rows) != len(counts) or not all(
            is_integer(n) and n >= 0 for n in rows):
        raise ConfigError("Q-table artifact rows need one non-negative integer per count")
    for name in ("hyperparams", "converged"):
        if not isinstance(header[name], dict):
            raise ConfigError(f"Q-table artifact {name} must be a JSON object")
    if not all(isinstance(flag, bool) for flag in header["converged"].values()):
        raise ConfigError("Q-table artifact converged flags must be JSON booleans")


def _key_dtype(fo_quantum: int) -> np.dtype:
    """Dtype of one FO index in a state key: the narrowest big-endian
    unsigned integer that holds Q - 1 (one byte up to Q = 256), so that
    sorted keys of one count are in state order."""
    width = 1
    while fo_quantum - 1 >= 256 ** width:
        width *= 2
    return np.dtype(f">u{width}")


def _step_key(key: bytes, action: int, width: int, fo_quantum: int) -> bytes:
    """The state key an action leads to from ``key``, of ``width`` bytes per
    link: action 2j + 1 steps link j up by one FO quantum, 2j + 2 steps it
    down, modulo Q, and 0 stays."""
    if action == 0:
        return key
    link, parity = divmod(action - 1, 2)
    at = link * width
    index = int.from_bytes(key[at:at + width], "big") + (1 if parity == 0 else -1)
    return key[:at] + (index % fo_quantum).to_bytes(width, "big") + key[at + width:]


def _row_max(row: dict, num_actions: int) -> tuple:
    """(``np.max``, ``np.argmax``) of the dense row of ``num_actions``
    values that ``row`` stands for, where an action never written reads 0.0.

    The argmax is the first maximum, +0.0 and -0.0 being equal, or the
    first NaN when the row holds one, whose max is then NaN. The max is the
    argmax's value, so its zero may carry the other sign than ``np.max``'s;
    the walk adds it to a reward, which is never -0.0, so no Q-value
    depends on that sign.
    """
    if not row:
        return 0.0, 0
    if len(row) < num_actions:
        best, first = 0.0, 0
        while first in row:
            first += 1
    else:
        best, first = -math.inf, num_actions
    nan = None
    for action, value in row.items():
        if value > best or (value == best and action < first):
            best, first = value, action
        elif value != value and (nan is None or action < nan):
            nan = action
    return (best, first) if nan is None else (row[nan], nan)


def _train_one_count(table: QTable, count: int, evaluator: EnsembleEvaluator,
                     rng: np.random.Generator) -> bool:
    """Epsilon-greedy episodes from the all-zero state, written into
    ``table.per_count[count]``: True once an episode's largest update falls
    below the tolerance.

    Each state the walk touches gets its row through ``QTable.values_for``,
    in the order it first did, and the walk writes one value per step, so a
    row costs a few hundred bytes where a dense row of 2S + 1 floats under a
    tuple key cost 1.4 kB at S = 50.

    A step's update waits until its row is read: each step records
    (row, action, state, next state, next row), and a flush evaluates the
    capacities of the recorded states not seen before in one batch query,
    then applies the updates in step order. The walk flushes at the end of
    every episode and before a greedy step reads a row with a pending update,
    so every value, and every row created, is the one a step-by-step update
    of the dense table gives.
    """
    hp = table.hyperparams
    steps = hp.steps(table.fo_quantum)
    num_actions = 2 * count + 1
    dtype = _key_dtype(table.fo_quantum)
    step_key = partial(_step_key, width=dtype.itemsize, fo_quantum=table.fo_quantum)
    entry = bytes(count * dtype.itemsize)
    capacity = {entry: evaluator.mean_sum_capacity((0,) * count)}
    entry_row = table.values_for(count, entry)
    rows = table.per_count[count]
    # Rows with a pending update are kept by identity: an int hashes faster
    # than a state key.
    pending, pending_rows = [], set()

    def flush(sweep_delta):
        missing = list(dict.fromkeys(next_state for *_, next_state, _ in pending
                                     if next_state not in capacity))
        if missing:
            states = np.frombuffer(b"".join(missing), dtype=dtype).reshape(-1, count)
            capacity.update(zip(missing, evaluator._mean_sum_capacities(states)))
        # Recorded steps are consecutive: each starts where the last ended.
        cap_prev = capacity[pending[0][2]]
        for row, action, _, next_state, next_row in pending:
            cap_now = capacity[next_state]
            step_reward = reward(cap_now, cap_prev, hp.lambda1)
            old = row.get(action, 0.0)
            new = q_update(old, step_reward, _row_max(next_row, num_actions)[0],
                           hp.beta, hp.gamma)
            row[action] = new
            sweep_delta = max(sweep_delta, abs(new - old))
            cap_prev = cap_now
        pending.clear()
        pending_rows.clear()
        return sweep_delta

    for episode in range(hp.episodes):
        eps = hp.epsilon(episode)
        state, row = entry, entry_row
        sweep_delta = 0.0
        for _ in range(steps):
            if rng.random() < eps:
                action = int(rng.integers(num_actions))
            else:
                if id(row) in pending_rows:
                    sweep_delta = flush(sweep_delta)
                action = _row_max(row, num_actions)[1]
            next_state = step_key(state, action)
            next_row = rows.get(next_state)
            if next_row is None:
                next_row = table.values_for(count, next_state)
            pending.append((row, action, state, next_state, next_row))
            pending_rows.add(id(row))
            state, row = next_state, next_row
        if flush(sweep_delta) < hp.tolerance:
            return True
    return False


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform does not say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _train_count(scenario_family, hp: Hyperparams, rng_seed: int, count: int):
    """(decode rows, converged, FO quantum) of one count, trained on its own
    drops and walk stream, which depend only on (rng_seed, count)."""
    drops = [scenario_family(count + 1, np.random.default_rng([rng_seed, count, d]))
             for d in range(hp.ensemble)]
    evaluator = EnsembleEvaluator(drops)
    table = QTable(fo_quantum=evaluator.fo_quantum, hyperparams=hp, seed=rng_seed)
    converged = _train_one_count(table, count, evaluator,
                                 np.random.default_rng([rng_seed, count, hp.ensemble]))
    return table._decode_rows(count), converged, evaluator.fo_quantum


def _train_counts(train_count, chosen: list) -> dict:
    """{count: train_count(count)} over min(len(chosen), usable CPUs)
    workers: forked ones where the ``fork`` start method exists and this
    process may have children (a daemonic worker may not), else this
    process alone, in ``chosen`` order."""
    workers = min(len(chosen), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return _train_forked(train_count, chosen, workers,
                                 multiprocessing.get_context("fork"))
    return {count: train_count(count) for count in chosen}


def _train_forked(train_count, chosen: list, workers: int, ctx) -> dict:
    """Train ``chosen`` here and in ``workers - 1`` forked children.

    This process claims the largest count before it forks, so the traced
    hooks always see one count trained in-process; then every worker takes
    the next count from one largest-first queue. A child returns its
    results once the queue is empty, stops at the first error (emptying the
    queue for the others) and at the latest after its current count once
    this process has gone. On any error here the children are terminated.
    """
    order = sorted(chosen, reverse=True)
    claimed = ctx.Value("i", 1)  # order[0] is this process's

    def claim(stop=False):
        with claimed.get_lock():
            index = claimed.value
            claimed.value = len(order) if stop else index + 1
        return order[index] if index < len(order) else None

    def work(writer, parent, inherited):
        for reader in inherited:
            reader.close()
        results, error = {}, None
        try:
            while os.getppid() == parent and (count := claim()) is not None:
                results[count] = train_count(count)
        except Exception as exc:  # noqa: BLE001  (re-raised by the parent)
            import traceback

            claim(stop=True)
            error = (exc, traceback.format_exc())
        if os.getppid() == parent:
            writer.send((results, error))

    procs, readers = [], []
    try:
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, daemon=True,
                               args=(writer, os.getpid(), list(readers)))
            proc.start()
            writer.close()
            procs.append(proc)
            readers.append(reader)
        results = {}
        count = order[0]
        while count is not None:
            results[count] = train_count(count)
            count = claim()
        for proc, reader in zip(procs, readers):
            try:
                part, error = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a training worker exited with code "
                                   f"{proc.exitcode} before returning its "
                                   "counts") from None
            if error is not None:
                exc, remote = error
                raise exc from RuntimeError(
                    "raised in a forked training worker:\n" + remote)
            results.update(part)
        return results
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()


def train(scenario_family, s_max: int, hyperparams: Hyperparams = None,
          rng_seed: int = 0, counts=None) -> QTable:
    """Train per-count FO assignment tables.

    scenario_family(num_links, rng) must return a ScenarioEnergies drop for a
    network of num_links links (victim plus aggressors). Each count S gets its
    own drop ensemble and its own seeded stream, so tables for distinct S are
    reproducible independently of training order. ``counts``, a non-empty
    list of integers in [1, s_max], restricts training to those counts
    (sharded budgets); the default trains every count.

    Counts train on min(number of counts, usable CPUs) workers, forked
    where possible (``_train_counts``). The result does not depend on the
    number of workers: every count trains on the same drops and stream
    either way, and the table holds the counts in ascending order.
    ``scenario_family`` may run in a forked child, where its side effects
    are not seen by the caller. Python 3.12 and later warn when a process
    that already runs threads forks.

    Each count's walk writes a table of its own (``_train_one_count``).
    Once it ends, only the rows ``save`` writes (``QTable._decode_rows``) are
    kept; so memory peaks at one count's working set per worker, not the sum
    over all counts, and the table, its convergence flags and its artifact
    are those a walk over dense rows gives, bit for bit.
    """
    if s_max < 1:
        raise ParameterError("s_max must be at least 1")
    if rng_seed < 0:
        raise ParameterError(f"rng_seed must be non-negative, got {rng_seed!r}")
    if counts is None:
        chosen = list(range(1, s_max + 1))
    else:
        items = (list(counts) if np.iterable(counts) and not isinstance(counts, str)
                 else [])
        if not items or not all(is_integer(c) for c in items):
            raise ParameterError(
                f"counts must be a non-empty list of integers, got {counts!r}")
        chosen = sorted({int(c) for c in items})
        if chosen[0] < 1 or chosen[-1] > s_max:
            raise ParameterError("counts must lie in [1, s_max]")
    hp = hyperparams if hyperparams is not None else Hyperparams()
    trained = _train_counts(
        partial(_train_count, scenario_family, hp, rng_seed), chosen)
    table = QTable(fo_quantum=0, hyperparams=hp, seed=int(rng_seed))
    for count in chosen:
        rows, converged, fo_quantum = trained[count]
        if table.fo_quantum == 0:
            table.fo_quantum = fo_quantum
        elif table.fo_quantum != fo_quantum:
            raise ConfigError("scenario family changed the FO quantum")
        table.converged[count] = converged
        table.per_count[count] = rows
    return table
