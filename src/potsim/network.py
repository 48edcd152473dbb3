"""Network geometry and the distributed frequency-offset entry protocol.

Links are transmit/receive point pairs dropped on a square area. Each link
keeps an aggressor counter that it updates from observed SINR changes, and
on entry adopts the frequency offset a trained policy prescribes for its
counter value, never reusing an offset an active link already uses while an
unused quantized offset remains.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    # h * rng.random() is numpy's scalar rng.uniform(0.0, h), low + (high -
    # low) * next_double, to the bit, without its argument handling.
    if (2.0 * max_range > area_side and math.hypot(
            max(cx, area_side - cx), max(cy, area_side - cy)) <= max_range):
        return (area_side * rng.random(), area_side * rng.random())
    while True:
        radius = max_range * math.sqrt(rng.random())
        angle = 2.0 * np.pi * rng.random()
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
    its counter, skipping offsets active links already use while unused
    quantized offsets remain (``_pick_offset``). Without a ``measure`` hook
    every transmission is detected, which is the noiseless limit: the
    entrant counts the active links and each of them adds one, set directly
    in O(S) instead of measured pair by pair.

    ``policy`` may be None (every link stays at FO zero, the fully
    overlapping baseline) or any object with fo_assignment(count) returning a
    tuple of quantized FO indices for that many aggressors, or raising
    PolicyUnavailableError for a count it has none for.

    Returns None: the outcome is each link's ``fo_index`` and
    ``aggressor_count``, as the entry left them.
    """
    active = []
    in_use = set()
    for entrant in scenario.by_entry_order():
        scenario.set_fo_index(entrant, 0)
        if measure is None:
            # Exact counting: the entrant hears every active link.
            entrant.aggressor_count = len(active)
        else:
            entrant.aggressor_count = 0
            for observer in active:
                before, after = measure(observer, entrant)
                update_aggressor_count(observer, before, after)
            for other in active:
                before, after = measure(entrant, other)
                update_aggressor_count(entrant, before, after)
        count = entrant.aggressor_count
        if count > 0 and policy is not None:
            scenario.set_fo_index(entrant, _pick_offset(scenario, policy, count, in_use))
        in_use.add(entrant.fo_index)
        active.append(entrant)
    if measure is None:
        # Every active link heard each later entrant too, so in the end each
        # link counts all the others.
        for link in active:
            link.aggressor_count = len(active) - 1


def _pick_offset(scenario: NetworkScenario, policy, count: int,
                 in_use: set) -> int:
    """Choose the entrant's FO index from the policy's prescription.

    The first prescribed index no active link uses; otherwise the lowest
    unused quantized index; otherwise, once every offset is in use, the
    first prescribed index. That last branch is the overflow rule, a model
    choice: it piles late entrants onto the offsets their counts prescribe
    first, which at S = 50 is often the victim's offset 0, so it sets the
    gap between POT and full overlap that acceptance criterion 8 measures.
    """
    quantum = scenario.fo_quantum
    prescription = (int(q) % quantum for q in policy.fo_assignment(count))
    first = next(prescription, None)
    if first is None:
        raise PolicyUnavailableError(f"policy returned no offsets for count {count}")
    if len(in_use) < quantum:
        for q in itertools.chain((first,), prescription, range(quantum)):
            if q not in in_use:
                return q
    return first
