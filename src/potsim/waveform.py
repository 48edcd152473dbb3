"""Prototype filters, the multicarrier lattice, and cross-ambiguity evaluation.

All pulses are stored in normalized time u = t / tau0 at an integer number of
samples per symbol period, with unit discrete energy sum(s**2) / rate == 1.
The ambiguity of two pulses is the inner product of the transmit pulse,
shifted in time and frequency, against the receive pulse, evaluated by
Riemann summation on the common sample grid. The frequency shift is applied
after the delay, i.e. its phase is referenced to the delayed pulse, so that
summing tap_gain * A(..., tap_delay) over channel taps reproduces the carrier
rotation a delayed waveform physically picks up.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateFilterError, ParameterError

GAUSSIAN = "gaussian"
RRC = "rrc"
IOTA = "iota"
FILTER_FAMILIES = (GAUSSIAN, RRC, IOTA)

#: Default pulse truncation spans in units of tau0.
DEFAULT_SPANS = {GAUSSIAN: 8.0, RRC: 12.0, IOTA: 8.0}
DEFAULT_SAMPLE_RATE = 16

# Extra orthogonalization sweeps for the IOTA construction. One time/frequency
# pass pair leaves mixed-shift residuals slightly above 1e-3 at critical
# density; repeating the pair drives the lattice inner products to the
# fixed point where both periodization conditions hold simultaneously.
_IOTA_PASSES = 4

# Lag-table entries kept per process (see _lag_tables). One entry holds
# 1.71 MB for the default Gaussian and IOTA (span 8) and 2.55 MB for RRC
# (span 12) on the default lattice at Q = 8, so the bound keeps at most about
# 20 MB; the three filters of a run need three entries.
_LAG_TABLE_ENTRIES = 8

# Powers of the local coordinate in the single-tap CCI energy polynomial
# (|cubic|^2 has degree 6), as a column: one row of powers per tap.
_DEGREES = np.arange(7)[:, None]


@dataclass(frozen=True)
class LatticeConfig:
    """Rectangular time-frequency grid used by transmitter and receiver.

    tau0 is the symbol spacing in seconds, nu0 the subcarrier spacing in
    hertz. num_subcarriers (N) and num_symbols (K) bound the lattice offsets
    that interference sums run over.
    """

    tau0: float
    nu0: float
    num_subcarriers: int
    num_symbols: int

    def __post_init__(self):
        if not (0 < self.tau0 < math.inf and 0 < self.nu0 < math.inf):
            raise ParameterError("lattice spacings must be positive and finite")
        if self.num_subcarriers < 1 or self.num_symbols < 1:
            raise ParameterError("lattice dimensions must be at least 1")

    @property
    def density(self) -> float:
        """Time-frequency area per lattice cell, tau0 * nu0."""
        return self.tau0 * self.nu0

    @classmethod
    def for_bandwidth(cls, bandwidth: float, num_subcarriers: int,
                      num_symbols: int, density: float = 1.0) -> "LatticeConfig":
        """Build a lattice whose N subcarriers exactly fill ``bandwidth``."""
        if not bandwidth > 0:
            raise ParameterError("bandwidth must be positive")
        if not density > 0:
            raise ParameterError("lattice density must be positive")
        nu0 = bandwidth / num_subcarriers
        return cls(tau0=density / nu0, nu0=nu0,
                   num_subcarriers=num_subcarriers, num_symbols=num_symbols)


@dataclass(frozen=True, eq=False)
class PrototypeFilter:
    """A sampled real prototype pulse with unit discrete energy.

    samples holds span * sample_rate points on the grid
    u_i = (i - n // 2) / sample_rate, so the peak of an even pulse sits
    exactly on the center sample.
    """

    family: str
    dispersion: float
    samples: np.ndarray
    sample_rate: int
    span: float

    def __post_init__(self):
        if self.family not in FILTER_FAMILIES:
            raise ParameterError(f"unknown filter family {self.family!r}")
        expected = _sample_count(self.span, self.sample_rate)
        if len(self.samples) != expected:
            raise ConfigError("sample count does not match span * sample_rate")
        energy = np.sum(self.samples ** 2) / self.sample_rate
        if not abs(energy - 1.0) <= 1e-9:
            raise ConfigError(f"filter energy {energy!r} is not 1")
        self.samples.setflags(write=False)

    @property
    def time_grid(self) -> np.ndarray:
        """Sample times in units of tau0."""
        return _time_grid(len(self.samples), self.sample_rate)

    def resample_shifted(self, shifts: np.ndarray) -> np.ndarray:
        """Evaluate the pulse on its own grid delayed by ``shifts`` (tau0 units).

        Returns an array of shape (len(shifts), n_samples). Uses cubic spline
        interpolation, which reproduces stored samples exactly at integer
        sample shifts and treats the pulse as zero outside its span.
        """
        return _resample_shifted(self.time_grid, self.samples, shifts)


def _time_grid(count: int, sample_rate: int) -> np.ndarray:
    """``count`` sample times in units of tau0, the center one at 0."""
    return (np.arange(count) - count // 2) / sample_rate


def _resample_shifted(grid: np.ndarray, samples: np.ndarray, shifts) -> np.ndarray:
    """Samples on ``grid`` delayed by ``shifts``, zero outside the grid."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    spline = _NotAKnotSpline(grid, samples)
    points = grid[None, :] - shifts[:, None]
    return np.nan_to_num(spline(points), copy=False)


class _NotAKnotSpline:
    """Cubic spline through (x, y) along axis 0 with not-a-knot ends.

    Reproduces scipy.interpolate.CubicSpline(x, y, axis=0,
    extrapolate=False) to the last bit: the same banded system, solved in
    LAPACK gtsv's order, the same Hermite coefficients and the same
    evaluation. ``c`` has scipy's layout (4, n - 1, ...): c[m, i]
    multiplies (x - x[i])^(3 - m) on interval i. Points outside [x[0],
    x[-1]] evaluate to NaN; the last knot belongs to the last interval.
    Knots that would make gtsv interchange rows are rejected; uniform knots
    never do.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        y = y.astype(complex if np.iscomplexobj(y) else float, copy=False)
        n = len(x)
        if x.ndim != 1 or n < 4 or y.shape[0] != n:
            raise ConfigError("a spline needs at least 4 knots, one per row of y")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ConfigError("spline knots must be strictly increasing")
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # The knot derivatives s solve a tridiagonal system. Interior rows:
        # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = b[i];
        # the end rows make the third derivative continuous at x[1] and
        # x[n-2] (not-a-knot). s holds b until it is solved in place.
        s = np.empty(y.shape, dtype=y.dtype)
        s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        s[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        s[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        lower = dx[1:].tolist() + [float(x[-1] - x[-3])]
        diag = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
        upper = [float(x[2] - x[0])] + dx[:-1].tolist()
        # Row by row in place. Complex rows go through their real view, each
        # component divided by the real pivot, as zgtsv does for a real matrix.
        _solve_tridiagonal(lower, diag, upper, list(_real_view(s.reshape(n, -1))))
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
        self.x = x
        self._parts = _real_view(self.c.reshape(4, n - 1, -1))

    def __call__(self, points) -> np.ndarray:
        """Values at ``points``, shape points.shape + y.shape[1:]."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1)
        columns = self.c.shape[2:]
        inside = (flat >= self.x[0]) & (flat <= self.x[-1])
        values = np.full((flat.size,) + columns, np.nan, dtype=self.c.dtype)
        values[inside] = self._in_span(flat[inside]).reshape((-1,) + columns)
        return values.reshape(points.shape + columns)

    def _in_span(self, flat: np.ndarray) -> np.ndarray:
        """Values at points in [x[0], x[-1]], one row per point."""
        x = self.x
        # The last knot belongs to the last interval.
        interval = np.searchsorted(x, flat, side="right") - 1
        np.minimum(interval, len(x) - 2, out=interval)
        t = (flat - x[interval])[:, None]
        t2 = t * t
        # c3 + c2 t + c1 t^2 + c0 t^3, summed left to right as PPoly does,
        # from one gather per coefficient.
        c0, c1, values, c3 = (part.take(interval, axis=0) for part in self._parts)
        values *= t
        values += c3
        c1 *= t2
        values += c1
        c0 *= t2 * t
        values += c0
        return values.view(self.c.dtype)


def _real_view(array: np.ndarray) -> np.ndarray:
    """A contiguous complex array as (real, imag) pairs of floats; real passes."""
    return array.view(float) if np.iscomplexobj(array) else array


def _solve_tridiagonal(lower, diag, upper, rows):
    """Solve a tridiagonal system in LAPACK gtsv's order, in place.

    ``lower``, ``diag`` and ``upper`` are lists of floats (lower[k] sits in
    row k + 1, upper[k] in row k); ``rows`` is a list of right-hand side
    rows, array views that are updated in place. Returns ``rows``. Raises
    ConfigError where gtsv would interchange rows.
    """
    n = len(rows)
    diag = list(diag)
    for k in range(n - 1):
        if abs(diag[k]) < abs(lower[k]):
            raise ConfigError("spline knots would need a row interchange")
        mult = lower[k] / diag[k]
        diag[k + 1] -= mult * upper[k]
        rows[k + 1] -= mult * rows[k]
    rows[-1] /= diag[-1]
    for k in range(n - 2, -1, -1):
        rows[k] -= upper[k] * rows[k + 1]
        rows[k] /= diag[k]
    return rows


def _sample_count(span: float, sample_rate: int) -> int:
    count = span * sample_rate
    if abs(count - round(count)) > 1e-9:
        raise ParameterError("span * sample_rate must be an integer")
    return int(round(count))


def _validate_pulse_args(sample_rate: int, span: float, min_span: float):
    if not 8 <= sample_rate < math.inf or int(sample_rate) != sample_rate:
        raise ParameterError("sample_rate must be an integer of at least 8")
    if not min_span <= span < math.inf:
        raise ParameterError(f"span must be at least {min_span} tau0")


def _unit_energy(raw: np.ndarray, sample_rate: int) -> np.ndarray:
    energy = np.sum(raw ** 2) / sample_rate
    if energy <= 0:
        raise DegenerateFilterError("pulse has no energy inside its span")
    return raw / np.sqrt(energy)


def _pulse_grid(span: float, sample_rate: int) -> np.ndarray:
    return _time_grid(_sample_count(span, sample_rate), sample_rate)


def make_gaussian(dispersion: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
                  span: float = DEFAULT_SPANS[GAUSSIAN]) -> PrototypeFilter:
    """Gaussian pulse (2 rho)^(1/4) exp(-pi rho (t/tau0)^2), renormalized.

    dispersion (rho) trades time for frequency localization: rho = 1 is
    isotropic, smaller rho widens the pulse in time and narrows it in
    frequency.
    """
    if not 0 < dispersion < math.inf:
        raise ParameterError("dispersion must be positive and finite")
    _validate_pulse_args(sample_rate, span, 4.0)
    u = _pulse_grid(span, sample_rate)
    raw = (2.0 * dispersion) ** 0.25 * np.exp(-np.pi * dispersion * u ** 2)
    samples = _unit_energy(raw, sample_rate)
    return PrototypeFilter(GAUSSIAN, dispersion, samples, int(sample_rate), span)


def rrc_time_response(u: np.ndarray, roll_off: float) -> np.ndarray:
    """Root-raised-cosine pulse in normalized time, unit continuous energy.

    The removable singularities at u = 0 and |u| = 1 / (4 roll_off) are
    filled with their analytic limits.
    """
    u = np.asarray(u, dtype=float)
    a = roll_off
    num = np.sin(np.pi * u * (1 - a)) + 4 * a * u * np.cos(np.pi * u * (1 + a))
    den = np.pi * u * (1 - (4 * a * u) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    at_zero = np.abs(u) < 1e-12
    vals = np.where(at_zero, 1 + a * (4 / np.pi - 1), vals)
    at_edge = np.abs(np.abs(4 * a * u) - 1) < 1e-9
    edge_val = (a / np.sqrt(2)) * ((1 + 2 / np.pi) * np.sin(np.pi / (4 * a))
                                   + (1 - 2 / np.pi) * np.cos(np.pi / (4 * a)))
    return np.where(at_edge, edge_val, vals)


def make_rrc(roll_off: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
             span: float = DEFAULT_SPANS[RRC]) -> PrototypeFilter:
    """Root-raised-cosine pulse with roll-off in (0, 1]."""
    if not 0 < roll_off <= 1:
        raise ParameterError("roll_off must lie in (0, 1]")
    _validate_pulse_args(sample_rate, span, 8.0)
    u = _pulse_grid(span, sample_rate)
    raw = rrc_time_response(u, roll_off)
    samples = _unit_energy(raw, sample_rate)
    return PrototypeFilter(RRC, roll_off, samples, int(sample_rate), span)


def make_iota(dispersion: float, sample_rate: int = DEFAULT_SAMPLE_RATE,
              span: float = DEFAULT_SPANS[IOTA],
              density: float = 1.0) -> PrototypeFilter:
    """Isotropic orthogonal transform algorithm pulse.

    Starts from the Gaussian of the given dispersion and alternately divides
    by the square root of the periodized squared magnitude in the time domain
    (period 1 / nu0, enforcing orthogonality to subcarrier shifts) and in the
    frequency domain (period 1 / tau0, enforcing orthogonality to symbol
    shifts). Verified by the lattice orthogonality tests rather than by a
    reference sample sequence.
    """
    if not 0 < dispersion < math.inf:
        raise ParameterError("dispersion must be positive and finite")
    if not 0 < density < math.inf:
        raise ParameterError("lattice density must be positive and finite")
    _validate_pulse_args(sample_rate, span, 4.0)
    rate = int(sample_rate)

    # Periods in normalized units: time period 1/(nu0 tau0), frequency period
    # one cycle per u. Both must land on integer sample / bin counts.
    time_period = rate / density
    if abs(time_period - round(time_period)) > 1e-9:
        raise ParameterError("sample_rate / density must be an integer")
    time_period = int(round(time_period))

    n = _sample_count(span, rate)
    pad = 8 * n
    # Circular grid with the pulse peak at index 0 keeps every transform real.
    u = ((np.arange(pad) + pad // 2) % pad - pad // 2) / rate
    pulse = (2.0 * dispersion) ** 0.25 * np.exp(-np.pi * dispersion * u ** 2)

    freq_period = pad // rate  # bins per cycle/u
    for _ in range(_IOTA_PASSES):
        pulse = _orthogonalize(pulse, time_period)
        spectrum = np.fft.fft(pulse)
        spectrum = _orthogonalize(spectrum, freq_period)
        pulse = np.fft.ifft(spectrum).real

    centered = np.roll(pulse, pad // 2)
    start = pad // 2 - n // 2
    window = centered[start:start + n].copy()
    # Restore exact even symmetry about the center sample.
    sym = np.zeros_like(window)
    sym[1:] = 0.5 * (window[1:] + window[:0:-1])
    sym[0] = window[0]
    samples = _unit_energy(sym, rate)
    return PrototypeFilter(IOTA, dispersion, samples, rate, span)


def _orthogonalize(values: np.ndarray, period: int) -> np.ndarray:
    """Divide by the square root of the period-folded squared magnitude.

    The fold is computed circularly over the full buffer, whose length must
    be a multiple of ``period``. The overall scale is irrelevant because the
    pulse is renormalized afterwards.
    """
    folded = np.abs(values.reshape(-1, period)) ** 2
    profile = folded.sum(axis=0)
    if profile.min() < 1e-12 * profile.max():
        raise DegenerateFilterError("periodized energy vanishes; cannot orthogonalize")
    return values / np.sqrt(np.tile(profile, len(values) // period))


def _check_common_grid(tx_filter: PrototypeFilter, rx_filter: PrototypeFilter):
    """Reject a pulse pair whose sample grids differ.

    The inner products multiply the shifted transmit pulse, sampled on its
    own grid, sample by sample with the receive pulse, so both grids must
    have the same rate and the same number of samples.
    """
    if (tx_filter.sample_rate != rx_filter.sample_rate
            or len(tx_filter.samples) != len(rx_filter.samples)):
        raise ConfigError("filters must share a sample grid (rate and span)")


def ambiguity(tx_filter: PrototypeFilter, rx_filter: PrototypeFilter,
              lattice: LatticeConfig, delta_l: int = 0, delta_n: int = 0,
              delta_f: float = 0.0, delta_t: float = 0.0) -> complex:
    """Cross-ambiguity of two pulses at a lattice-plus-residual offset.

    The transmit pulse is delayed by delta_l * tau0 + delta_t seconds and
    shifted up in frequency by delta_n * nu0 + delta_f hertz, then projected
    onto the receive pulse. Matched filters at zero offset give exactly 1.
    """
    _check_common_grid(tx_filter, rx_filter)
    n_sub = lattice.num_subcarriers
    if abs(delta_f) >= n_sub * lattice.nu0:
        raise ParameterError("delta_f must stay below the channel bandwidth")
    max_span = (tx_filter.span + rx_filter.span) / 2 * lattice.tau0
    if abs(delta_l * lattice.tau0 + delta_t) >= max_span:
        # The pulses cannot overlap; treat larger shifts as a domain error so
        # channel delays beyond the filter span are caught loudly.
        if abs(delta_t) >= max_span:
            raise ParameterError("time shift exceeds the filter span")
        return 0j
    lag = delta_l + delta_t / lattice.tau0
    freq = (delta_n * lattice.nu0 + delta_f) * lattice.tau0
    shifted = tx_filter.resample_shifted(np.array([lag]))[0]
    phase = np.exp(2j * np.pi * freq * (rx_filter.time_grid - lag))
    return complex(np.sum(shifted * rx_filter.samples * phase) / rx_filter.sample_rate)


class _LagTables(NamedTuple):
    """What a CrossAmbiguity reads of its pulse pair, lattice and Q."""

    delta_l: np.ndarray
    max_lag: float
    reference_subcarrier: int
    spline: _NotAKnotSpline
    freqs: np.ndarray
    profile_columns: np.ndarray
    single_tap: np.ndarray


def _pulse_key(pulse: PrototypeFilter) -> tuple:
    """The content of ``pulse`` that its lag tables read, hashable."""
    return pulse.samples.dtype.str, pulse.samples.tobytes(), pulse.span


@functools.lru_cache(maxsize=_LAG_TABLE_ENTRIES)
def _lag_tables(tx_key: tuple, rx_key: tuple, rate: int,
                lattice: LatticeConfig, q: int) -> _LagTables:
    """Build the read-only tables of one (pulse pair, lattice, Q) evaluator.

    A pure function of its arguments, the content of both pulses included,
    so equal pulses built apart share one entry and every evaluator sees
    the tables a fresh build would give, bit for bit.
    """
    (tx_dtype, tx_bytes, tx_span), (rx_dtype, rx_bytes, rx_span) = tx_key, rx_key
    tx_samples = np.frombuffer(tx_bytes, tx_dtype)
    rx_samples = np.frombuffer(rx_bytes, rx_dtype)
    k = lattice.num_symbols
    n_sub = lattice.num_subcarriers
    delta_l = np.arange(-(k - 1), k)
    half = (tx_span + rx_span) / 2
    lag_count = int(np.ceil(half * rate))
    lags = np.arange(-lag_count, lag_count + 1) / rate
    # Frequency index j covers dn * Q + qdiff for dn in [-n0, N - 1 - n0]
    # and signed qdiff in (-Q, Q). With neighbours on both sides of n0, an
    # FO of q / Q * nu0 couples like (q - Q) / Q * nu0 up to the far band
    # edges, which the circular FO grid of the network model relies on.
    reference = n_sub // 2
    j0 = -reference * q - (q - 1)
    js = np.arange(j0, (n_sub - 1 - reference) * q + q)
    freqs = js * lattice.density / q
    # Both pulses lie on one grid (_check_common_grid).
    u = _time_grid(len(rx_samples), rate)
    phases = np.exp(2j * np.pi * np.outer(u, freqs))
    shifted = _resample_shifted(u, tx_samples, lags)
    products = shifted * rx_samples[None, :]
    # The spline interpolates the smooth fixed-anchor correlation; the
    # delay-anchored phase exp(-2j pi f lag) is restored analytically
    # after every lookup, where it is exact at any fractional lag.
    table = (products / rate) @ phases
    spline = _NotAKnotSpline(lags, table)
    # Row qdiff + Q - 1 holds the N columns of one signed FO difference,
    # in transmit-subcarrier order: entry n is the column of
    # delta_n = n - n0, so the reference subcarrier's own column sits at
    # position n0.
    delta_n = np.arange(n_sub) - reference
    qdiffs = np.arange(-(q - 1), q)
    profile_columns = delta_n[None, :] * q + qdiffs[:, None] - j0
    single_tap = _single_tap_kernel(spline.c, profile_columns, delta_l, rate,
                                    lag_count)
    for shared in (spline.c, spline.x, spline._parts, freqs, profile_columns,
                   single_tap, delta_l):
        shared.setflags(write=False)
    return _LagTables(delta_l, lag_count / rate, reference, spline, freqs,
                      profile_columns, single_tap)


def _single_tap_kernel(c: np.ndarray, profile_columns: np.ndarray,
                       delta_l: np.ndarray, rate: int, lag_count: int) -> np.ndarray:
    """Polynomial coefficients of the one-tap CCI energy profile.

    A tap at delay x = k / rate + t reads lag delta_l + x, which lies in
    spline interval (delta_l * rate + k + lag_count) at local coordinate
    t for every delta_l, because the knot step is 1 / rate. On that
    interval column j is the cubic sum_m c[m, i, j] t^(3 - m), with c
    the lag-table spline's coefficients in scipy's PPoly layout, so
    sum |S_j|^2 over the in-span intervals and the columns of one FO
    difference is a degree-6 polynomial in t. Returns its coefficients
    as (rate, 2Q - 1, 7), entry p multiplying t^p.
    """
    # Re(c_m conj(c_n)) summed over columns is the dot product of the
    # real parts plus that of the imaginary parts.
    parts = np.concatenate((c.real, c.imag), axis=-1)
    power = np.zeros((7,) + parts.shape[1:])
    for m in range(4):
        for n in range(4):
            power[6 - m - n] += parts[m] * parts[n]
    profiles = len(profile_columns)
    member = np.zeros((c.shape[2], profiles))
    member[profile_columns, np.arange(profiles)[:, None]] = 1.0
    per_interval = power @ np.vstack((member, member))
    # Intervals beyond the span read a zero row appended at the end.
    intervals = per_interval.shape[1]
    padded = np.concatenate(
        (per_interval, np.zeros((7, 1, profiles))), axis=1)
    idx = delta_l[None, :] * rate + np.arange(rate)[:, None] + lag_count
    idx[(idx < 0) | (idx >= intervals)] = intervals
    return np.ascontiguousarray(np.moveaxis(padded[:, idx].sum(axis=2), 0, -1))


class CrossAmbiguity:
    """Fast evaluator of channel-convolved ambiguity blocks.

    Precomputes the cross-correlation of the modulated pulse pair on a fine
    lag grid for every frequency offset of the quantized FO grid, then
    answers arbitrary fractional-delay queries through one cubic spline
    evaluation. Results match the direct ``ambiguity`` Riemann sum to spline
    accuracy (integer sample lags are exact). The spline is the module's
    numpy not-a-knot spline, whose coefficients equal those of
    scipy.interpolate.CubicSpline bit for bit; scipy is not imported.

    For a single channel tap at a total delay in [0, tau0] the CCI energy
    profile needs no spline evaluation at all: it is one degree-6
    polynomial per sample interval of the delay and FO difference, built
    once from the spline's own coefficients (see ``cci_energy_profiles``).

    The lag table, its spline and that kernel are built once per process for
    each (pulse content, lattice, Q) by ``_lag_tables`` and shared,
    read-only, by every evaluator of that content; each instance still
    validates its pair and keeps its own memo of own-channel values.

    The receiver demodulates ``reference_subcarrier`` (n0 = N // 2), so the
    subcarrier offsets run over delta_n in [-n0, N - 1 - n0] and
    ``own_energies`` splits a link's own block into the desired symbol at
    [K - 1, n0] and self-interference.
    """

    def __init__(self, tx_filter: PrototypeFilter, rx_filter: PrototypeFilter,
                 lattice: LatticeConfig, fo_quantum: int = 8):
        _check_common_grid(tx_filter, rx_filter)
        if fo_quantum < 1:
            raise ParameterError("fo_quantum must be at least 1")
        self.tx_filter = tx_filter
        self.rx_filter = rx_filter
        self.lattice = lattice
        self.fo_quantum = int(fo_quantum)
        (self.delta_l, self.max_lag, self.reference_subcarrier, self._spline,
         self._freqs, self._profile_columns, self._single_tap) = _lag_tables(
            _pulse_key(tx_filter), _pulse_key(rx_filter), rx_filter.sample_rate,
            lattice, self.fo_quantum)
        # Twisted values at rel_delay 0, keyed by tuple(tap_delays).
        self._own_values = {}

    def _twist(self, lags: np.ndarray) -> np.ndarray:
        return np.exp(-2j * np.pi * np.multiply.outer(lags, self._freqs))

    def convolved_full(self, path_gain: float, tap_gains, tap_delays,
                       rel_delay: float) -> np.ndarray:
        """Channel-convolved ambiguity over the whole frequency index grid.

        Sums tap_gain * A(dl, ., rel_delay + tap_delay) over the taps and
        scales by the root path gain; tap delays and rel_delay are in
        seconds. One spline evaluation serves every FO difference.

        A link's own channel is read at rel_delay 0, where the twisted
        lag-table values depend only on the tap delays, which the channel
        model fixes. They are computed once per tap-delay vector and kept,
        read-only, in a per-instance memo; only the gains and path gain
        change from call to call, so a memo hit returns what a fresh
        evaluation would, bit for bit.
        """
        if rel_delay == 0.0:
            key = tuple(tap_delays)
            values = self._own_values.get(key)
            if values is None:
                values = self._tap_values(tap_delays, rel_delay)
                values.setflags(write=False)
                self._own_values[key] = values
        else:
            values = self._tap_values(tap_delays, rel_delay)
        block = np.einsum("t,ltj->lj", np.asarray(tap_gains), values)
        return math.sqrt(path_gain) * block

    def _tap_values(self, tap_delays, rel_delay: float) -> np.ndarray:
        """Twisted lag-table values A(dl, j, delay), shape (2K - 1, taps, J),
        at the total tap delays tap_delays + rel_delay (seconds)."""
        tau0 = self.lattice.tau0
        delays = np.asarray(tap_delays) / tau0 + rel_delay / tau0
        if np.any(np.abs(delays) >= self.max_lag):
            raise ParameterError("tap delay exceeds the filter span")
        lags = self.delta_l[:, None] + delays[None, :]
        # The pulses do not overlap beyond max_lag, the spline's span, so
        # lags outside it read exactly zero.
        values = np.nan_to_num(self._spline(lags), copy=False)
        return values * self._twist(lags)

    def own_energies(self, path_gain: float, tap_gains, tap_delays) -> tuple:
        """Signal and self-interference energy of a link over its own channel.

        The receiver demodulates the reference subcarrier n0, so the desired
        symbol is the zero-delay term at FO difference 0 and subcarrier
        offset 0, entry [K - 1, n0] of its block; every other (delta_l,
        delta_n) term of the own lattice is self-interference, from
        neighbours above and below it. Reads the own-channel memo of
        ``convolved_full``.
        """
        block = self.convolved_full(path_gain, tap_gains, tap_delays, 0.0)[
            :, self._profile_columns[self.fo_quantum - 1]]
        power = np.abs(block) ** 2
        e_signal = float(power[self.lattice.num_symbols - 1, self.reference_subcarrier])
        return e_signal, float(max(power.sum() - e_signal, 0.0))

    def cci_energy_profiles(self, path_gains, tap_gains, tap_delays,
                            rel_delays) -> np.ndarray:
        """CCI energy profiles of many pairs, shape (pairs, 2Q - 1).

        Pair i has path gain ``path_gains[i]``, tap gains ``tap_gains[i]``
        (one per entry of the shared ``tap_delays``) and relative delay
        ``rel_delays[i]`` seconds. Entry [i, qdiff + Q - 1] sums its |A|^2
        over delta_l in (-K, K) and the N columns of FO difference qdiff.
        For one tap at total delay x = (rel_delay + tap_delay) / tau0 in
        [0, 1], which every AWGN pair meets, the twist and the tap phase drop
        out of |A|^2 and the sum is path_gain * |g|^2 times the precomputed
        polynomial of x's sample interval at the local coordinate
        t = x - k / rate. All such pairs are evaluated together, bit for bit
        as one at a time, and agree with the spline route to rounding. Other
        pairs go through ``convolved_full`` one by one.
        """
        path_gains = np.asarray(path_gains, dtype=float)
        tap_delays = np.asarray(tap_delays)
        tap_gains = np.asarray(tap_gains).reshape(len(path_gains), len(tap_delays))
        rel_delays = np.asarray(rel_delays, dtype=float)
        tau0 = self.lattice.tau0
        rate = self.rx_filter.sample_rate
        x = tap_delays[0] / tau0 + rel_delays / tau0
        spline = (x < 0.0) | (x > 1.0) | (len(tap_delays) > 1)
        # Every pair goes through the kernel, and spline pairs then overwrite
        # their rows. The per-pair scalar arithmetic as arrays, bit for bit:
        # for x >= 0 the cast truncates like int(), and np.hypot and
        # np.float_power are the libm hypot and pow behind Python's
        # abs(complex) and ** 2, which np.abs and an array's ** 2 are not.
        intervals = np.minimum((x * rate).astype(np.intp), rate - 1)
        offsets = x - intervals / rate
        gains = tap_gains[:, 0]
        scales = path_gains * np.float_power(np.hypot(gains.real, gains.imag), 2.0)
        # One gather of the interval polynomials (a spline pair's x < 0 reads
        # row 0), one array of powers of t and one stacked matrix-vector
        # product, however many pairs.
        energies = self._single_tap.take(intervals, axis=0, mode="clip") @ (
            offsets[:, None, None] ** _DEGREES)
        energies *= scales[:, None, None]
        profiles = energies[:, :, 0]
        for i in np.flatnonzero(spline).tolist():
            full = self.convolved_full(path_gains[i], tap_gains[i], tap_delays,
                                       rel_delays[i])
            column_power = np.sum(np.abs(full) ** 2, axis=0)
            profiles[i] = column_power[self._profile_columns].sum(axis=1)
        return profiles


def filter_factory(family: str, dispersion: float,
                   sample_rate: int = DEFAULT_SAMPLE_RATE,
                   span: float | None = None, density: float = 1.0) -> PrototypeFilter:
    """Build a prototype filter by family name with per-family defaults."""
    if family not in FILTER_FAMILIES:
        raise ParameterError(f"unknown filter family {family!r}")
    if span is None:
        span = DEFAULT_SPANS[family]
    if family == GAUSSIAN:
        return make_gaussian(dispersion, sample_rate, span)
    if family == RRC:
        return make_rrc(dispersion, sample_rate, span)
    return make_iota(dispersion, sample_rate, span, density=density)
