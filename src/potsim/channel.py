"""Path loss and block-fading multipath channel models.

Links see a free-space path gain from the carrier frequency and distance,
plus either a single unit tap (AWGN) or the LTE Extended Pedestrian A tapped
delay line with independent Rayleigh tap gains, drawn once per drop.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ParameterError

SPEED_OF_LIGHT = 299792458.0

AWGN = "awgn"
EPA = "epa"
CHANNEL_KINDS = (AWGN, EPA)

#: Extended Pedestrian A power delay profile.
EPA_TAP_DELAYS_NS = (0.0, 30.0, 70.0, 90.0, 110.0, 190.0, 410.0)
EPA_TAP_POWERS_DB = (0.0, -1.0, -2.0, -3.0, -8.0, -17.2, -20.8)


@dataclass(frozen=True)
class ChannelModel:
    """Static description of the propagation model for a run.

    taps is a tuple of (delay_seconds, mean_linear_power) pairs whose powers
    sum to one, so fading never changes the mean received energy.
    """

    kind: str
    carrier_freq: float
    taps: tuple

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ParameterError(f"unknown channel kind {self.kind!r}")
        # Stored as nested tuples so the tap arrays can be cached per profile.
        object.__setattr__(self, "taps", tuple(map(tuple, self.taps)))
        if self.carrier_freq <= 0:
            raise ParameterError("carrier frequency must be positive")
        total = sum(power for _, power in self.taps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"tap powers sum to {total!r}, expected 1")
        if self.kind == AWGN and len(self.taps) != 1:
            raise ConfigError("an AWGN channel has exactly one tap")

    @classmethod
    def awgn(cls, carrier_freq: float) -> "ChannelModel":
        return cls(AWGN, carrier_freq, ((0.0, 1.0),))

    @classmethod
    def epa(cls, carrier_freq: float) -> "ChannelModel":
        powers = 10.0 ** (np.array(EPA_TAP_POWERS_DB) / 10.0)
        powers = powers / powers.sum()
        taps = tuple((delay * 1e-9, float(power))
                     for delay, power in zip(EPA_TAP_DELAYS_NS, powers))
        return cls(EPA, carrier_freq, taps)

    @classmethod
    def of_kind(cls, kind: str, carrier_freq: float) -> "ChannelModel":
        if kind == AWGN:
            return cls.awgn(carrier_freq)
        if kind == EPA:
            return cls.epa(carrier_freq)
        raise ParameterError(f"unknown channel kind {kind!r}")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One block-fading draw for a transmitter-receiver pair."""

    path_gain: float
    tap_delays: np.ndarray
    tap_gains: np.ndarray

    def __post_init__(self):
        if self.path_gain < 0:
            raise ParameterError("path gain must be non-negative")
        if len(self.tap_delays) != len(self.tap_gains):
            raise ConfigError("tap delay and gain counts differ")


def free_space_path_loss(distance: float, carrier_freq: float) -> float:
    """Linear free-space power gain (c / (4 pi d f))^2."""
    if distance <= 0:
        raise ParameterError("distance must be positive")
    if carrier_freq <= 0:
        raise ParameterError("carrier frequency must be positive")
    amplitude = SPEED_OF_LIGHT / (4.0 * np.pi * distance * carrier_freq)
    return amplitude ** 2


_UNIT_GAIN = np.ones(1, dtype=complex)
_UNIT_GAIN.setflags(write=False)


@lru_cache(maxsize=8)
def _tap_arrays(taps: tuple) -> tuple:
    """Read-only (delays, powers) arrays of a tap profile, built once per profile.

    Every realization of a model shares them, which is safe because no one
    can write to them.
    """
    delays = np.array([delay for delay, _ in taps])
    powers = np.array([power for _, power in taps])
    delays.setflags(write=False)
    powers.setflags(write=False)
    return delays, powers


def realize_channel(model: ChannelModel, distance: float,
                    rng: np.random.Generator) -> ChannelRealization:
    """Draw tap gains for one pair at the given distance from ``rng``.

    AWGN always yields the deterministic unit tap and draws nothing.
    Multipath taps are independent circularly symmetric complex Gaussians
    with variance equal to the profile power, i.e. Rayleigh magnitudes. The
    realization does not know its pair: callers key it by (transmitter id,
    receiver id).
    """
    path_gain = free_space_path_loss(distance, model.carrier_freq)
    delays, powers = _tap_arrays(model.taps)
    if model.kind == AWGN:
        gains = _UNIT_GAIN
    else:
        raw = rng.standard_normal(len(powers)) + 1j * rng.standard_normal(len(powers))
        gains = np.sqrt(powers / 2.0) * raw
        gains.setflags(write=False)
    return ChannelRealization(path_gain=float(path_gain), tap_delays=delays,
                              tap_gains=gains)
