"""Path loss and block-fading multipath channel models.

Links see a free-space path gain from the carrier frequency and distance,
plus either a single unit tap (AWGN) or the LTE Extended Pedestrian A tapped
delay line with independent Rayleigh tap gains, drawn once per drop.
"""

from dataclasses import dataclass

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

    link_id: tuple
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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def realize_channel(model: ChannelModel, distance: float, rng,
                    link_id: tuple = (0, 0)) -> ChannelRealization:
    """Draw tap gains for one pair at the given distance.

    AWGN always yields the deterministic unit tap. Multipath taps are
    independent circularly symmetric complex Gaussians with variance equal to
    the profile power, i.e. Rayleigh magnitudes.
    """
    generator = _as_generator(rng)
    path_gain = free_space_path_loss(distance, model.carrier_freq)
    delays = np.array([delay for delay, _ in model.taps])
    powers = np.array([power for _, power in model.taps])
    if model.kind == AWGN:
        gains = np.ones(1, dtype=complex)
    else:
        raw = generator.standard_normal(len(powers)) + 1j * generator.standard_normal(len(powers))
        gains = np.sqrt(powers / 2.0) * raw
    delays.setflags(write=False)
    gains.setflags(write=False)
    return ChannelRealization(link_id=tuple(link_id), path_gain=float(path_gain),
                              tap_delays=delays, tap_gains=gains)


def effective_gain(realization: ChannelRealization, ambiguity_fn,
                   delta_l: int = 0, delta_n: int = 0, delta_f: float = 0.0,
                   base_delay: float = 0.0) -> complex:
    """Channel-convolved ambiguity coefficient for one lattice offset.

    ambiguity_fn(delta_l, delta_n, delta_f, delta_t) must evaluate the pulse
    pair ambiguity at a residual delay delta_t in seconds; each tap
    contributes its gain times the ambiguity at base_delay + tap_delay.
    """
    total = 0j
    for delay, gain in zip(realization.tap_delays, realization.tap_gains):
        total += gain * ambiguity_fn(delta_l, delta_n, delta_f, base_delay + delay)
    return np.sqrt(realization.path_gain) * total
