"""Network geometry and the distributed frequency-offset entry protocol.

Links are transmit/receive point pairs dropped on a square area and listed
in entry order. On entry a link counts the links already active as its
aggressors and adopts the frequency offset a trained policy prescribes for
that count, never reusing an offset an active link already uses while an
unused quantized offset remains. Counting is exact, so the offsets depend
on the policy alone, not on where the links lie.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, PolicyUnavailableError
from .waveform import LatticeConfig


@dataclass
class Link:
    """One transmitter-receiver pair."""

    tp_position: tuple
    rp_position: tuple
    timing_offset: float = 0.0

    @property
    def length(self) -> float:
        return math.dist(self.tp_position, self.rp_position)


@dataclass
class NetworkScenario:
    """A set of links, in entry order, plus the lattice they share."""

    links: list
    area_side: float
    max_link_range: float
    lattice: LatticeConfig

    def __post_init__(self):
        if self.area_side <= 0 or self.max_link_range <= 0:
            raise ParameterError("area side and link range must be positive")
        for link in self.links:
            for pos in (link.tp_position, link.rp_position):
                if not (0 <= pos[0] <= self.area_side and 0 <= pos[1] <= self.area_side):
                    raise ConfigError("positions must lie inside the area")
            if link.length > self.max_link_range + 1e-9:
                raise ConfigError("link length exceeds max_link_range")
            if not 0 <= link.timing_offset < self.lattice.tau0:
                raise ConfigError("timing offsets must lie in [0, tau0)")


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


def entry_sequence(policy, num_links: int, fo_quantum: int) -> list:
    """Each link's FO index, in entry order, after ``num_links`` links enter.

    The first link (the victim) hears nobody and stays at FO zero. Counting
    is exact: the k-th entrant counts the k - 1 active links and adopts the
    offset the policy prescribes for that count (``_pick_offset``). So the
    offsets depend on the policy alone, and those of the first n links do
    not depend on how many enter after them.

    ``policy`` is any object with fo_assignment(count) returning a tuple of
    quantized FO indices for that many aggressors, or raising
    PolicyUnavailableError for a count it has none for. Each count from 1
    to num_links - 1 is consulted once, in order.
    """
    offsets, in_use = [0], {0}
    for count in range(1, num_links):
        q = _pick_offset(policy, count, in_use, fo_quantum)
        offsets.append(q)
        in_use.add(q)
    return offsets


def _pick_offset(policy, count: int, in_use: set, quantum: int) -> int:
    """Choose the entrant's FO index from the policy's prescription.

    The first prescribed index no active link uses; otherwise the lowest
    unused quantized index; otherwise, once every offset is in use, the
    first prescribed index. That last branch is the overflow rule, a model
    choice: it piles late entrants onto the offsets their counts prescribe
    first, which at S = 50 is often the victim's offset 0, so it sets the
    gap between POT and full overlap that acceptance criterion 8 measures.
    """
    prescription = (int(q) % quantum for q in policy.fo_assignment(count))
    first = next(prescription, None)
    if first is None:
        raise PolicyUnavailableError(f"policy returned no offsets for count {count}")
    if len(in_use) < quantum:
        for q in itertools.chain((first,), prescription, range(quantum)):
            if q not in in_use:
                return q
    return first
