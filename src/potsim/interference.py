"""Received-energy decomposition and the link metrics built on it.

Every received burst at a victim splits into the desired symbol energy E_S,
the self-interference E_SI of the victim's own lattice, and cross-link
interference from each aggressor at its frequency-offset difference, summed
into E_OI, all through the channel-convolved ambiguity coefficients. Symbols
are unit-energy and independent across positions and links, so energies add
without cross terms. ``link_metric`` scores one sweep link from its split;
``EnsembleEvaluator`` scores training's sum capacity from whole tables.
"""

import math

import numpy as np

from .errors import ConfigError
from .waveform import CrossAmbiguity

#: Gathered cells per state above which a batch query edits one table row by
#: row instead of gathering every state's table whole. On training's queries
#: (one or two links moved per state) a whole gather cost 7 us per state at
#: 484 cells and 75 us at 10,404 on a 2-core Xeon, the row-by-row edit
#: 15-25 us at any size; they crossed between 2,400 and 3,400 cells.
_WHOLE_GATHER_CELLS = 3000


def victim_energy_tables(links, victim: int, path_gains, tap_gains, tap_delays,
                         cross_amb: CrossAmbiguity):
    """Signal and self energies plus per-aggressor CCI profiles for one victim.

    ``links[victim]`` is the victim, every other link an aggressor in link
    order. path_gains (L,) and tap_gains (L, T) are the victim's row of the
    drop's channels (``realize_channels``), entry i from link i's
    transmitter; tap_delays (T,) are the channel model's.
    The victim is demodulated on the evaluator's reference subcarrier
    n0 = N // 2: E_S is the zero-delay term of its own block at subcarrier
    offset 0, and E_SI sums the other (delta_l, delta_n) terms with
    delta_l in (-K, K) and delta_n in [-n0, N - 1 - n0]. Aggressor terms are
    evaluated at the relative timing offset, summed over the same lattice
    offsets.

    Returns (e_signal, e_self, profiles) where row i of profiles holds
    aggressor i's energy at every signed FO difference, indexed qdiff + Q - 1.
    Summing each row's entry at the realized FO difference gives E_OI for
    any assignment without touching the channel convolution again, which is
    what lets one drop serve several overlap modes.
    """
    e_signal, e_self = cross_amb.own_energies(path_gains[victim],
                                              tap_gains[victim], tap_delays)
    tau0, start = cross_amb.lattice.tau0, links[victim].timing_offset
    aggressors = links[:victim] + links[victim + 1:]
    others = np.arange(len(links)) != victim
    profiles = cross_amb.cci_energy_profiles(
        path_gains[others], tap_gains[others], tap_delays,
        [(aggressor.timing_offset - start) % tau0 for aggressor in aggressors])
    return e_signal, e_self, profiles


def link_metric(metric: str, e_signal: float, e_self: float, e_oi: float,
                noise_var: float, threshold_db: float) -> float:
    """One link's "capacity", "me" or "outage" from its energy split.

    Capacity is log2(1 + SINR) in bits/s/Hz, SINR = E_S / (E_SI + E_OI +
    noise); a zero denominator gives an infinite SINR when there is signal,
    else zero. Outage is 1.0 when the SINR falls strictly below
    ``threshold_db``, a zero SINR included. The asymptotic multiuser
    efficiency of the matched-filter receiver is max(0, 1 - sqrt(E_SI +
    E_OI) / sqrt(E_S)) squared, 0 without signal; noise does not enter it.
    """
    if metric == "me":
        if e_signal == 0:
            return 0.0
        return max(0.0, 1.0 - math.sqrt(e_self + e_oi) / math.sqrt(e_signal)) ** 2
    denom = e_self + e_oi + noise_var
    if denom == 0:
        ratio = math.inf if e_signal > 0 else 0.0
    else:
        ratio = e_signal / denom
    if metric == "capacity":
        return math.log2(1.0 + ratio)
    if metric == "outage":
        return float(ratio == 0 or 10.0 * math.log10(ratio) < threshold_db)
    raise ConfigError(f"unknown metric {metric!r}")


class ScenarioEnergies:
    """Precomputed energy tables for one scenario drop.

    Holds, for every ordered link pair, the cross-link interference energy at
    each quantized FO difference (cci[source, victim, qdiff + Q - 1]), plus
    per-link signal, self, and noise energies: one ``victim_energy_tables``
    call per receiving link. Capacity then becomes a table lookup for any FO
    assignment, which is what policy training iterates on. Row u of the
    drop's channels (``realize_channels`` over every receiver) is link u's.
    """

    def __init__(self, scenario, path_gains, tap_gains, tap_delays,
                 cross_amb: CrossAmbiguity, snr_db: float):
        self.fo_quantum = cross_amb.fo_quantum
        links = scenario.links
        count = len(links)
        self.e_signal = np.zeros(count)
        self.e_self = np.zeros(count)
        self.cci = np.zeros((count, count, 2 * self.fo_quantum - 1))
        for u in range(count):
            self.e_signal[u], self.e_self[u], self.cci[np.arange(count) != u, u] = (
                victim_energy_tables(links, u, path_gains[u], tap_gains[u],
                                     tap_delays, cross_amb))
        self.noise = self.e_signal / (10.0 ** (snr_db / 10.0))


class EnsembleEvaluator:
    """Mean sum-capacity over an ensemble of drops, as one callable table.

    Training treats the first link of every drop as the zero-FO victim and
    controls the remaining links, so states carry one FO index per aggressor.
    """

    def __init__(self, drops):
        if not drops:
            raise ConfigError("at least one drop is required")
        sizes = {len(d.e_signal) for d in drops}
        if len(sizes) != 1:
            raise ConfigError("all drops must have the same link count")
        if len({d.fo_quantum for d in drops}) != 1:
            raise ConfigError("all drops must share the FO quantum")
        self.num_aggressors = len(drops[0].e_signal) - 1
        self.fo_quantum = drops[0].fo_quantum
        # Stacked views over the ensemble keep one capacity query a single
        # vectorized gather, which is what makes training affordable.
        cci = np.stack([d.cci for d in drops])
        self._e_signal = np.stack([d.e_signal for d in drops])
        self._e_self = np.stack([d.e_self for d in drops])
        self._noise = np.stack([d.noise for d in drops])
        # Flat offset of cci[drop, source, receiver, qdiff = 0], laid out
        # source-major as [source, drop, receiver]: a query adds the FO
        # differences, reads every entry with one take over the flattened
        # table, and folds the sources in order along axis 0.
        ensemble, links, _, window = cci.shape
        self._flat_cci = cci.reshape(-1)
        self._qdiff_zero = np.ascontiguousarray((np.arange(
            ensemble * links * links).reshape(ensemble, links, links) * window
            + self.fo_quantum - 1).transpose(1, 0, 2))
        # The table the row-by-row route edits, and the assignment it holds
        # (none yet, so the first query gathers it whole).
        self._rows = np.empty(self._qdiff_zero.shape)
        self._rows_at = np.full(links, -1)

    def mean_sum_capacity(self, state) -> float:
        """Sum capacity of the victim and its aggressors at ``state``, a
        sequence of one FO index per aggressor, averaged over the drops."""
        return self._mean_sum_capacities(np.array([state], dtype=np.intp))[0]

    def _mean_sum_capacities(self, states: np.ndarray) -> list:
        """``mean_sum_capacity`` of every row of the integer (states,
        aggressors) array ``states``, from one query."""
        if states.ndim != 2 or states.shape[1] != self.num_aggressors:
            raise ConfigError("state length must equal the aggressor count")
        # One row per state: the victim's zero FO, then the aggressors'.
        assignments = np.zeros((len(states), self.num_aggressors + 1), dtype=np.intp)
        assignments[:, 1:] = states
        # Off the grid, the flat take would read a neighbouring cell instead
        # of failing.
        if self.num_aggressors and not (
                0 <= assignments.min() and assignments.max() < self.fo_quantum):
            raise ConfigError("state FO index outside the quantized grid")
        if self._qdiff_zero.size > _WHOLE_GATHER_CELLS:
            e_oi = self._gather_row_by_row(assignments)
        else:
            qdiffs = assignments[:, :, None] - assignments[:, None, :]
            gathered = self._flat_cci.take(self._qdiff_zero + qdiffs[:, :, None, :])
            e_oi = np.add.reduce(gathered, axis=1)
        # A link with no self-interference, noise or CCI has a zero
        # denominator: its capacity is infinite, without a warning.
        with np.errstate(divide="ignore"):
            ratio = self._e_signal / (self._e_self + e_oi + self._noise)
        per_drop = np.log2(1.0 + ratio).sum(axis=2)
        # sum / size is the arithmetic of ndarray.mean without its overhead.
        return (per_drop.sum(axis=1) / per_drop.shape[1]).tolist()

    def _gather_row_by_row(self, assignments) -> np.ndarray:
        """Interference energies (state, drop, receiver) of each assignment,
        from one table edited in place: only the source row and the receiver
        column of each link that moved since the previous assignment are
        read again."""
        flat, zero, rows = self._flat_cci, self._qdiff_zero, self._rows
        moved = [[] for _ in assignments]
        changed = np.diff(assignments, axis=0, prepend=self._rows_at[None, :])
        for index, link in zip(*(axis.tolist() for axis in changed.nonzero())):
            moved[index].append(link)
        e_oi = np.empty((len(assignments),) + zero.shape[1:])
        # The caller checked every index against the grid, so "clip" only
        # spares take its bounds check.
        for assignment, links, out in zip(assignments, moved, e_oi):
            # A jump that moves a quarter of the links or more (the walk's
            # return to its entry state) reads less as one whole gather.
            if 4 * len(links) >= len(assignment):
                flat.take(zero + np.subtract.outer(assignment, assignment)[:, None, :],
                          out=rows, mode="clip")
                links = ()
            for link in links:
                offset = assignment[link]
                flat.take(zero[link] + (offset - assignment), out=rows[link], mode="clip")
                rows[:, :, link] = flat.take(
                    zero[:, :, link] + (assignment - offset)[:, None], mode="clip")
            np.add.reduce(rows, axis=0, out=out)
        self._rows_at = assignments[-1]
        return e_oi
