"""Network geometry and the distributed frequency-offset entry protocol.

Links are transmit/receive point pairs dropped on a square area. Each link
keeps an aggressor counter that it updates from observed SINR changes, and
on entry adopts the frequency offset a trained policy prescribes for its
counter value, never reusing an offset another link has already claimed
while an unclaimed quantized offset remains.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ParameterError, PolicyUnavailableError
from .waveform import LatticeConfig

#: SINR change, in dB, that the counting protocol treats as one aggressor
#: appearing or disappearing.
COUNT_THRESHOLD_DB = 3.0


@dataclass
class Link:
    """One transmitter-receiver pair and its protocol state."""

    link_id: int
    tp_position: tuple
    rp_position: tuple
    entry_rank: int
    timing_offset: float = 0.0
    fo_index: int = 0
    aggressor_count: int = 0

    @property
    def length(self) -> float:
        return math.dist(self.tp_position, self.rp_position)


@dataclass
class NetworkScenario:
    """A set of links plus the lattice and FO quantization they share."""

    links: list
    area_side: float
    max_link_range: float
    lattice: LatticeConfig
    fo_quantum: int = 8

    def __post_init__(self):
        if self.area_side <= 0 or self.max_link_range <= 0:
            raise ParameterError("area side and link range must be positive")
        if self.fo_quantum < 1:
            raise ParameterError("fo_quantum must be at least 1")
        ranks = sorted(link.entry_rank for link in self.links)
        if ranks != list(range(1, len(self.links) + 1)):
            raise ConfigError("entry ranks must be a permutation of 1..num_links")
        for link in self.links:
            for pos in (link.tp_position, link.rp_position):
                if not (0 <= pos[0] <= self.area_side and 0 <= pos[1] <= self.area_side):
                    raise ConfigError("positions must lie inside the area")
            if link.length > self.max_link_range + 1e-9:
                raise ConfigError("link length exceeds max_link_range")
            if not 0 <= link.timing_offset < self.lattice.tau0:
                raise ConfigError("timing offsets must lie in [0, tau0)")

    def set_fo_index(self, link: Link, q: int):
        link.fo_index = int(q) % self.fo_quantum

    def by_entry_order(self) -> list:
        return sorted(self.links, key=lambda link: link.entry_rank)


def sample_point_near(center, max_range: float, area_side: float,
                      rng: np.random.Generator) -> tuple:
    """Point uniform in the disk around ``center``, resampled into the area.

    When the disk covers the whole area, the resampled point is uniform over
    the area, so it is drawn that way at once: resampling a disk far larger
    than the area would almost never land in it.
    """
    # Python floats round each operation as numpy's float64 does (math.sqrt
    # is correctly rounded, like np.sqrt) without numpy's per-call overhead;
    # the cosine and sine stay numpy's so the point is the same to the bit.
    cx, cy = (float(c) for c in center)
    max_range = float(max_range)
    # The square is the convex hull of its corners, so it lies in the disk
    # once its farthest corner does. That corner is more than half a side
    # away, so the first test spares the common small disk the distance.
    if (2.0 * max_range > area_side and math.hypot(
            max(cx, area_side - cx), max(cy, area_side - cy)) <= max_range):
        return (rng.uniform(0.0, area_side), rng.uniform(0.0, area_side))
    while True:
        radius = max_range * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * np.pi)
        x = cx + radius * float(np.cos(angle))
        y = cy + radius * float(np.sin(angle))
        if 0 <= x <= area_side and 0 <= y <= area_side:
            return (x, y)


def update_aggressor_count(link: Link, sinr_before_db: float,
                           sinr_after_db: float) -> int:
    """Apply the 3 dB counting rule and return the updated counter.

    A drop of more than 3 dB means one more aggressor, a rise of more than
    3 dB one less; the counter never goes below zero.
    """
    if sinr_after_db < sinr_before_db - COUNT_THRESHOLD_DB:
        link.aggressor_count += 1
    elif sinr_after_db > sinr_before_db + COUNT_THRESHOLD_DB:
        link.aggressor_count = max(0, link.aggressor_count - 1)
    return link.aggressor_count


def entry_sequence(scenario: NetworkScenario, policy,
                   measure: Optional[Callable[[Link, Link], tuple]] = None) -> None:
    """Replay sequential link entries and assign frequency offsets in place.

    Links activate in entry_rank order at FO zero. Every active link compares
    its SINR just before and just after the newcomer's first burst (through
    ``measure(observer, entrant)``, which returns that dB pair) and updates
    its counter by the 3 dB rule; the entrant senses each active transmission
    the same way. The entrant then adopts the FO the policy prescribes for
    its counter, skipping values other links already claimed while unclaimed
    quantized offsets remain. Without a ``measure`` hook every transmission
    is detected, which is the noiseless limit.

    ``policy`` may be None (every link stays at FO zero, the fully
    overlapping baseline) or any object with fo_assignment(count) returning a
    tuple of quantized FO indices for that many aggressors.

    Returns None: the outcome is each link's ``fo_index`` and
    ``aggressor_count``, as the entry left them.
    """
    if measure is None:
        measure = lambda observer, entrant: (math.inf, 0.0)
    active = []
    claimed_at_count = {}
    for entrant in scenario.by_entry_order():
        scenario.set_fo_index(entrant, 0)
        entrant.aggressor_count = 0
        for observer in active:
            before, after = measure(observer, entrant)
            update_aggressor_count(observer, before, after)
        for other in active:
            before, after = measure(entrant, other)
            update_aggressor_count(entrant, before, after)
        count = entrant.aggressor_count
        if count > 0 and policy is not None:
            q = _pick_offset(scenario, policy, count,
                             claimed_at_count.setdefault(count, set()),
                             {link.fo_index for link in active})
            scenario.set_fo_index(entrant, q)
            claimed_at_count[count].add(entrant.fo_index)
        active.append(entrant)


def _pick_offset(scenario: NetworkScenario, policy, count: int,
                 claimed: set, in_use: set) -> int:
    """Choose the entrant's FO index from the policy's prescription.

    Preference order: prescribed indices not yet used by any active link,
    then any unused quantized index, then prescribed indices unclaimed at
    this count, then the prescription slot for this entrant's arrival order.
    """
    prescription = _prescribed_indices(policy, count, scenario.fo_quantum)
    for q in prescription:
        if q not in in_use:
            return q
    for q in range(scenario.fo_quantum):
        if q not in in_use:
            return q
    for q in prescription:
        if q not in claimed:
            return q
    return prescription[len(claimed) % len(prescription)]


def _prescribed_indices(policy, count: int, fo_quantum: int) -> list:
    try:
        assignment = policy.fo_assignment(count)
    except (KeyError, PolicyUnavailableError) as exc:
        raise PolicyUnavailableError(
            f"policy has no table for aggressor count {count}") from exc
    indices = [int(q) % fo_quantum for q in assignment]
    if not indices:
        raise PolicyUnavailableError(f"policy returned no offsets for count {count}")
    # Deduplicate preserving order so claim bookkeeping sees each value once.
    return list(dict.fromkeys(indices))


@dataclass
class FixedAssignmentPolicy:
    """Minimal policy mapping aggressor count to a fixed index tuple.

    Useful for protocol tests and as the file-free stand-in for a trained
    table.
    """

    assignments: dict
    fallback: Optional[Sequence[int]] = None

    def fo_assignment(self, count: int):
        if count in self.assignments:
            return tuple(self.assignments[count])
        if self.fallback is not None:
            return tuple(self.fallback)
        raise PolicyUnavailableError(f"no assignment for count {count}")
