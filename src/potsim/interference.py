"""Received-energy decomposition and the link metrics built on it.

Every received burst at a victim splits into the desired symbol energy, the
self-interference of the victim's own lattice, and cross-link interference
from each aggressor at its frequency-offset difference, all through the
channel-convolved ambiguity coefficients. Symbols are unit-energy and
independent across positions and links, so energies add without cross terms.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParameterError
from .waveform import CrossAmbiguity


@dataclass(frozen=True)
class InterferenceProfile:
    """Energy split of one victim's received burst."""

    e_signal: float
    e_self: float
    noise_var: float
    per_aggressor: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.e_signal, self.e_self, self.noise_var) < 0:
            raise ParameterError("energies must be non-negative")
        if any(value < 0 for value in self.per_aggressor.values()):
            raise ParameterError("aggressor energies must be non-negative")

    @property
    def e_cci(self) -> float:
        return sum(self.per_aggressor.values())


def _relative_delay(aggressor, victim, tau0: float) -> float:
    return (aggressor.timing_offset - victim.timing_offset) % tau0


def _own_energies(cross_amb: CrossAmbiguity, realization) -> tuple:
    """Signal and self-interference energy of a link over its own channel.

    The desired symbol is the zero-delay term on the reference subcarrier;
    every other (delta_l, delta_n) term of the own lattice is
    self-interference, from neighbours above and below it.
    """
    power = np.abs(cross_amb.convolved_block(realization, 0.0, 0)) ** 2
    e_signal = float(power[cross_amb.lattice.num_symbols - 1,
                           cross_amb.reference_subcarrier])
    return e_signal, float(max(power.sum() - e_signal, 0.0))


def victim_energy_tables(victim, aggressors, realizations,
                         cross_amb: CrossAmbiguity):
    """Signal and self energies plus per-aggressor CCI profiles for one victim.

    realizations maps (transmitter_link_id, receiver_link_id) to a
    ChannelRealization; the victim's own channel sits under (victim, victim).
    The victim is demodulated on the evaluator's reference subcarrier
    n0 = N // 2: E_S is the zero-delay term of its own block at subcarrier
    offset 0, and E_SI sums the other (delta_l, delta_n) terms with
    delta_l in (-K, K) and delta_n in [-n0, N - 1 - n0]. Aggressor terms are
    evaluated at the relative timing offset, summed over the same lattice
    offsets.

    Returns (e_signal, e_self, profiles) where row i of profiles holds
    aggressor i's energy at every signed FO difference, indexed qdiff + Q - 1.
    Slicing the rows at the realized FO differences (``profile_at``) serves
    any assignment without touching the channel convolution again, which is
    what lets one drop serve several overlap modes.
    """
    lattice = cross_amb.lattice
    for source in [victim] + list(aggressors):
        key = (source.link_id, victim.link_id)
        if key not in realizations:
            raise ConfigError(f"missing channel realization for {key}")
    e_signal, e_self = _own_energies(
        cross_amb, realizations[(victim.link_id, victim.link_id)])
    profiles = np.zeros((len(aggressors), 2 * cross_amb.fo_quantum - 1))
    for i, aggressor in enumerate(aggressors):
        rel_delay = _relative_delay(aggressor, victim, lattice.tau0)
        profiles[i] = cross_amb.cci_energy_profile(
            realizations[(aggressor.link_id, victim.link_id)], rel_delay)
    return e_signal, e_self, profiles


def profile_at(e_signal: float, e_self: float, profiles: np.ndarray,
               aggressors, qdiffs, noise_var: float) -> InterferenceProfile:
    """InterferenceProfile of ``victim_energy_tables`` at given FO differences.

    qdiffs holds each aggressor's quantized FO index minus the victim's.
    """
    fo_quantum = (profiles.shape[1] + 1) // 2
    per_aggressor = {}
    for row, aggressor, qdiff in zip(profiles, aggressors, qdiffs):
        if not -fo_quantum < qdiff < fo_quantum:
            raise ConfigError("FO difference outside the quantized grid")
        per_aggressor[aggressor.link_id] = float(row[qdiff + fo_quantum - 1])
    return InterferenceProfile(e_signal=e_signal, e_self=e_self,
                               noise_var=noise_var, per_aggressor=per_aggressor)


def sinr(profile: InterferenceProfile) -> float:
    """Post-demodulation SINR in dB, with infinite sentinels at the edges."""
    denom = profile.e_self + profile.e_cci + profile.noise_var
    if profile.e_signal == 0:
        return -math.inf
    if denom == 0:
        return math.inf
    return 10.0 * math.log10(profile.e_signal / denom)


def sinr_linear(profile: InterferenceProfile) -> float:
    denom = profile.e_self + profile.e_cci + profile.noise_var
    if denom == 0:
        return math.inf if profile.e_signal > 0 else 0.0
    return profile.e_signal / denom


def capacity(profile: InterferenceProfile) -> float:
    """Spectral efficiency log2(1 + SINR) in bits/s/Hz."""
    return math.log2(1.0 + sinr_linear(profile))


def multiuser_efficiency(profile: InterferenceProfile, a_peak: float,
                         g_u: float) -> float:
    """Asymptotic multiuser efficiency of the matched-filter receiver.

    eta = max(0, 1 - sqrt(E_SI + E_OI) / (G_u * A_peak)) squared, clamped to
    [0, 1]. Noise does not enter; only interference degrades the efficiency.
    """
    if a_peak < 0 or g_u < 0:
        raise ParameterError("gains must be non-negative")
    reference = g_u * a_peak
    if reference == 0:
        return 0.0
    ratio = math.sqrt(profile.e_self + profile.e_cci) / reference
    return max(0.0, 1.0 - ratio) ** 2


def outage(profile: InterferenceProfile, threshold_db: float = -6.0) -> bool:
    """True when the SINR falls strictly below the threshold."""
    return sinr(profile) < threshold_db


class ScenarioEnergies:
    """Precomputed energy tables for one scenario drop.

    Holds, for every ordered link pair, the cross-link interference energy at
    each quantized FO difference (cci[source, victim, qdiff + Q - 1]), plus
    per-link signal, self, and noise energies: one ``victim_energy_tables``
    call per receiving link. Capacity then becomes a table lookup for any FO
    assignment, which is what policy training iterates on.
    """

    def __init__(self, scenario, realizations, cross_amb: CrossAmbiguity,
                 snr_db: float = None, noise_var: float = None):
        if (snr_db is None) == (noise_var is None):
            raise ConfigError("specify exactly one of snr_db or noise_var")
        self.fo_quantum = cross_amb.fo_quantum
        links = list(scenario.links)
        self.link_ids = [link.link_id for link in links]
        count = len(links)
        self.e_signal = np.zeros(count)
        self.e_self = np.zeros(count)
        self.cci = np.zeros((count, count, 2 * self.fo_quantum - 1))
        for u, victim in enumerate(links):
            others = links[:u] + links[u + 1:]
            self.e_signal[u], self.e_self[u], self.cci[np.arange(count) != u, u] = (
                victim_energy_tables(victim, others, realizations, cross_amb))
        if snr_db is None:
            self.noise = np.full(count, float(noise_var))
        elif math.isinf(snr_db):
            self.noise = np.zeros(count)
        else:
            self.noise = self.e_signal / (10.0 ** (snr_db / 10.0))


class EnsembleEvaluator:
    """Mean sum-capacity over an ensemble of drops, as one callable table.

    Training treats the first link of every drop as the zero-FO victim and
    controls the remaining links, so states carry one FO index per aggressor.
    """

    def __init__(self, drops):
        if not drops:
            raise ConfigError("at least one drop is required")
        sizes = {len(d.link_ids) for d in drops}
        if len(sizes) != 1:
            raise ConfigError("all drops must have the same link count")
        if len({d.fo_quantum for d in drops}) != 1:
            raise ConfigError("all drops must share the FO quantum")
        self.drops = list(drops)
        self.num_aggressors = len(self.drops[0].link_ids) - 1
        self.fo_quantum = self.drops[0].fo_quantum
        # Stacked views over the ensemble keep one capacity query a single
        # vectorized gather, which is what makes training affordable.
        self._cci = np.stack([d.cci for d in drops])
        self._e_signal = np.stack([d.e_signal for d in drops])
        self._e_self = np.stack([d.e_self for d in drops])
        self._noise = np.stack([d.noise for d in drops])
        # Flat offset of cci[drop, source, receiver, qdiff = 0]: a query adds
        # the FO differences and reads every (drop, source, receiver) entry
        # with one take over the flattened table.
        ensemble, links, _, window = self._cci.shape
        self._flat_cci = self._cci.reshape(-1)
        self._qdiff_zero = (np.arange(ensemble * links * links).reshape(
            ensemble, links, links) * window + self.fo_quantum - 1)
        # CCI entries are non-negative, so a positive self-plus-noise floor
        # on every link rules out a zero denominator for any state; only
        # otherwise does a query need to silence the divide warning.
        self._may_divide_by_zero = not np.all(self._e_self + self._noise > 0)

    def mean_sum_capacity(self, state) -> float:
        if len(state) != self.num_aggressors:
            raise ConfigError("state length must equal the aggressor count")
        # Off the grid, the flat take would read a neighbouring cell instead
        # of failing.
        if self.num_aggressors and not (
                0 <= min(state) and max(state) < self.fo_quantum):
            raise ConfigError("state FO index outside the quantized grid")
        assignment = np.array((0, *state))
        qdiffs = np.subtract.outer(assignment, assignment)
        gathered = self._flat_cci.take(self._qdiff_zero + qdiffs)
        e_oi = gathered.sum(axis=1)
        if self._may_divide_by_zero:
            with np.errstate(divide="ignore"):
                ratio = self._e_signal / (self._e_self + e_oi + self._noise)
        else:
            ratio = self._e_signal / (self._e_self + e_oi + self._noise)
        per_drop = np.log2(1.0 + ratio).sum(axis=1)
        # sum / size is the arithmetic of ndarray.mean without its overhead.
        return float(per_drop.sum() / per_drop.size)
