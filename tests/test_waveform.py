"""Pulse construction and ambiguity tests.

The Gaussian has a closed-form ambiguity function, which serves as the
independent oracle for the numerical inner-product route. RRC and IOTA are
checked against their defining properties (Nyquist autocorrelation, lattice
orthogonality) instead of stored sample sequences.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import potsim
from potsim import (
    ConfigError,
    CrossAmbiguity,
    LatticeConfig,
    ParameterError,
    ambiguity,
    filter_factory,
    make_gaussian,
    make_iota,
    make_rrc,
)
from potsim.waveform import _NotAKnotSpline, rrc_time_response


def gaussian_ambiguity_magnitude(rho, lam, phi):
    """Closed-form |A| of the unit-energy Gaussian at normalized offsets.

    lam is the time offset in units of tau0, phi the frequency offset in
    units of 1/tau0.
    """
    return np.exp(-(np.pi / 2.0) * (rho * lam ** 2 + phi ** 2 / rho))


# ---------------------------------------------------------------------------
# pulse construction


@pytest.mark.parametrize("family,param", [("gaussian", 0.2), ("rrc", 0.2), ("iota", 0.2)])
def test_pulses_have_unit_discrete_energy(family, param):
    pulse = filter_factory(family, param)
    energy = np.sum(pulse.samples ** 2) / pulse.sample_rate
    assert energy == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family,param", [("gaussian", 0.2), ("rrc", 0.2), ("iota", 0.2)])
def test_sample_count_matches_span_times_rate(family, param):
    pulse = filter_factory(family, param)
    assert len(pulse.samples) == int(pulse.span * pulse.sample_rate)


@pytest.mark.parametrize("make", [make_gaussian, make_iota])
def test_gaussian_and_iota_are_even_about_center(make):
    pulse = make(0.5)
    c = len(pulse.samples) // 2
    left = pulse.samples[c - 1:0:-1]
    right = pulse.samples[c + 1:]
    m = min(len(left), len(right))
    assert np.allclose(left[:m], right[:m], atol=1e-12)


def test_gaussian_center_sample_matches_truncation_renormalized_peak():
    for rho, span in ((1.0, 8.0), (0.2, 8.0)):
        pulse = make_gaussian(rho, span=span)
        trunc_energy = quad(
            lambda u: np.sqrt(2.0 * rho) * np.exp(-2.0 * np.pi * rho * u * u),
            -span / 2.0, span / 2.0)[0]
        expected = (2.0 * rho) ** 0.25 / np.sqrt(trunc_energy)
        assert pulse.samples[len(pulse.samples) // 2] == pytest.approx(expected, abs=1e-6)


def test_rrc_value_at_zero_matches_analytic_limit():
    for alpha in (1.0, 0.5, 0.2):
        value = rrc_time_response(np.array([0.0]), alpha)[0]
        assert value == pytest.approx(1.0 + alpha * (4.0 / np.pi - 1.0), abs=1e-9)


def test_rrc_is_continuous_at_quarter_period_singularity():
    for alpha in (1.0, 0.35):
        u_star = 1.0 / (4.0 * alpha)
        probe = rrc_time_response(u_star + np.array([-1e-7, 0.0, 1e-7]), alpha)
        assert np.all(np.isfinite(probe))
        assert abs(probe[0] - probe[1]) < 1e-5
        assert abs(probe[2] - probe[1]) < 1e-5


def test_rrc_autocorrelation_is_nyquist_at_symbol_lag(lattice):
    pulse = make_rrc(1.0)
    value = ambiguity(pulse, pulse, lattice, delta_l=1)
    assert abs(value) < 1e-3


@pytest.mark.parametrize("bad", [0.0, -0.3])
def test_nonpositive_dispersion_is_rejected(bad):
    with pytest.raises(ParameterError):
        make_gaussian(bad)
    with pytest.raises(ParameterError):
        make_iota(bad)


@pytest.mark.parametrize("bad", [0.0, 1.2, -0.1])
def test_rrc_roll_off_outside_unit_interval_is_rejected(bad):
    with pytest.raises(ParameterError):
        make_rrc(bad)


def test_undersampled_or_short_pulses_are_rejected():
    with pytest.raises(ParameterError):
        make_gaussian(0.2, sample_rate=4)
    with pytest.raises(ParameterError):
        make_gaussian(0.2, span=2.0)
    with pytest.raises(ParameterError):
        make_rrc(0.2, span=6.0)


def test_filter_factory_dispatches_and_rejects_unknown_family():
    assert filter_factory("gaussian", 0.2).family == "gaussian"
    assert filter_factory("rrc", 0.2).family == "rrc"
    assert filter_factory("iota", 0.2).family == "iota"
    with pytest.raises(ParameterError):
        filter_factory("hann", 0.2)


@given(st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_gaussian_unit_energy_across_dispersion(rho):
    pulse = make_gaussian(rho)
    assert np.sum(pulse.samples ** 2) / pulse.sample_rate == pytest.approx(1.0, abs=1e-9)


@given(st.integers(min_value=-5, max_value=5))
@settings(max_examples=11, deadline=None)
def test_resample_shifted_reproduces_samples_at_integer_shifts(shift):
    pulse = make_gaussian(0.3)
    shifted = pulse.resample_shifted(np.array([float(shift)]))[0]
    k = shift * pulse.sample_rate
    expect = np.zeros_like(pulse.samples)
    if k >= 0:
        expect[k:] = pulse.samples[:len(pulse.samples) - k]
    else:
        expect[:k] = pulse.samples[-k:]
    assert np.allclose(shifted, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# lattice configuration


def test_lattice_for_bandwidth_covers_the_channel():
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12)
    assert lat.num_subcarriers * lat.nu0 == pytest.approx(200e3, abs=1.0)
    assert lat.tau0 * lat.nu0 == pytest.approx(1.0, abs=1e-12)
    sparse = LatticeConfig.for_bandwidth(200e3, 12, 12, density=2.0)
    assert sparse.density == pytest.approx(2.0, abs=1e-12)


def test_lattice_rejects_nonpositive_parameters():
    with pytest.raises(ParameterError):
        LatticeConfig(tau0=0.0, nu0=1.0, num_subcarriers=4, num_symbols=4)
    with pytest.raises(ParameterError):
        LatticeConfig(tau0=1.0, nu0=1.0, num_subcarriers=0, num_symbols=4)


# ---------------------------------------------------------------------------
# ambiguity oracle checks


def test_matched_filters_at_zero_offset_give_unity(gaussian_02, lattice):
    value = ambiguity(gaussian_02, gaussian_02, lattice)
    assert abs(value - 1.0) < 1e-9


@pytest.mark.parametrize("rho", [1.0, 0.2])
def test_gaussian_ambiguity_matches_closed_form_on_grid(rho, lattice):
    pulse = make_gaussian(rho)
    offsets = (0.0, 0.25, 0.5, 1.0, 1.5)
    for lam, phi in itertools.product(offsets, offsets):
        got = abs(ambiguity(pulse, pulse, lattice,
                            delta_f=phi * lattice.nu0, delta_t=lam * lattice.tau0))
        assert got == pytest.approx(gaussian_ambiguity_magnitude(rho, lam, phi), abs=1e-4)


def test_half_spacing_offset_value_at_isotropic_dispersion(lattice):
    pulse = make_gaussian(1.0)
    got = abs(ambiguity(pulse, pulse, lattice, delta_f=lattice.nu0 / 2.0))
    assert got == pytest.approx(np.exp(-np.pi / 8.0), abs=1e-6)


def test_non_overlapping_supports_give_exact_zero(rrc_02, lattice):
    value = ambiguity(rrc_02, rrc_02, lattice, delta_l=int(3 * rrc_02.span))
    assert value == 0j


def test_residual_delay_beyond_span_is_a_domain_error(gaussian_02, lattice):
    with pytest.raises(ParameterError):
        ambiguity(gaussian_02, gaussian_02, lattice,
                  delta_t=2.0 * gaussian_02.span * lattice.tau0)


def test_mismatched_sample_rates_are_a_config_error(lattice):
    a = make_gaussian(0.2, sample_rate=16)
    b = make_gaussian(0.2, sample_rate=32)
    with pytest.raises(ConfigError):
        ambiguity(a, b, lattice)


@pytest.mark.parametrize("tx, rx", [
    (make_rrc(0.2), make_gaussian(0.2)),
    (make_gaussian(0.2), make_gaussian(0.2, span=10.0)),
])
def test_mismatched_spans_are_a_config_error(tx, rx, lattice):
    for a, b in ((tx, rx), (rx, tx)):
        with pytest.raises(ConfigError, match="sample grid"):
            ambiguity(a, b, lattice)
        with pytest.raises(ConfigError, match="sample grid"):
            CrossAmbiguity(a, b, lattice)


@given(st.floats(min_value=-1.5, max_value=1.5), st.floats(min_value=-1.5, max_value=1.5))
@settings(max_examples=20, deadline=None)
def test_ambiguity_magnitude_is_symmetric_under_offset_negation(lam, phi, ):
    pulse = make_gaussian(0.4)
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12)
    fwd = abs(ambiguity(pulse, pulse, lat, delta_f=phi * lat.nu0, delta_t=lam * lat.tau0))
    rev = abs(ambiguity(pulse, pulse, lat, delta_f=-phi * lat.nu0, delta_t=-lam * lat.tau0))
    assert fwd == pytest.approx(rev, abs=1e-9)


def _magnitude_grid(pulse, taus, nus):
    shifted = pulse.resample_shifted(taus)
    phases = np.exp(2j * np.pi * np.outer(pulse.time_grid, nus))
    return np.abs((shifted * pulse.samples[None, :] / pulse.sample_rate) @ phases)


@pytest.mark.parametrize("family,param", [("gaussian", 0.2), ("rrc", 0.2), ("iota", 0.2)])
def test_ambiguity_peaks_at_the_origin(family, param):
    pulse = filter_factory(family, param)
    grid = np.linspace(-2.0, 2.0, 41)
    mags = _magnitude_grid(pulse, grid, grid)
    peak = np.unravel_index(np.argmax(mags), mags.shape)
    assert peak == (20, 20)


@pytest.mark.parametrize("family,param", [("gaussian", 0.2), ("rrc", 0.2), ("iota", 0.2)])
def test_squared_ambiguity_volume_is_unity(family, param):
    pulse = filter_factory(family, param)
    grid = np.linspace(-6.0, 6.0, 121)
    cell = (grid[1] - grid[0]) ** 2
    volume = np.sum(_magnitude_grid(pulse, grid, grid) ** 2) * cell
    assert volume == pytest.approx(1.0, rel=0.02)


def test_isotropic_gaussian_has_equal_time_and_frequency_cuts(lattice):
    pulse = make_gaussian(1.0)
    for a in (0.25, 0.5, 0.75):
        along_time = abs(ambiguity(pulse, pulse, lattice, delta_t=a * lattice.tau0))
        along_freq = abs(ambiguity(pulse, pulse, lattice, delta_f=a * lattice.nu0))
        assert along_time == pytest.approx(along_freq, abs=1e-3)


def test_shrinking_dispersion_squeezes_ambiguity_toward_time(lattice):
    freq_cut = []
    time_cut = []
    for rho in (1.0, 0.5, 0.2):
        pulse = make_gaussian(rho)
        freq_cut.append(abs(ambiguity(pulse, pulse, lattice, delta_f=lattice.nu0 / 2.0)))
        time_cut.append(abs(ambiguity(pulse, pulse, lattice, delta_t=lattice.tau0)))
    assert freq_cut[0] > freq_cut[1] > freq_cut[2]
    assert time_cut[0] < time_cut[1] < time_cut[2]


# ---------------------------------------------------------------------------
# lattice orthogonality of the constructed pulses


def test_iota_is_orthogonal_to_pure_lattice_shifts_at_unit_dispersion(lattice):
    pulse = make_iota(1.0)
    assert abs(ambiguity(pulse, pulse, lattice, delta_l=1)) < 1e-3
    assert abs(ambiguity(pulse, pulse, lattice, delta_n=1)) < 1e-3


def test_iota_design_lattice_orthogonality_extends_to_mixed_shifts():
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=2.0)
    pulse = make_iota(1.0, density=2.0)
    for dl, dn in itertools.product(range(-2, 3), repeat=2):
        if (dl, dn) == (0, 0):
            continue
        assert abs(ambiguity(pulse, pulse, lat, delta_l=dl, delta_n=dn)) < 1e-3


def test_rrc_design_lattice_orthogonality():
    alpha = 0.2
    lat = LatticeConfig.for_bandwidth(200e3, 12, 12, density=1.0 + alpha)
    pulse = make_rrc(alpha)
    for dl, dn in itertools.product(range(-2, 3), repeat=2):
        if (dl, dn) == (0, 0):
            continue
        assert abs(ambiguity(pulse, pulse, lat, delta_l=dl, delta_n=dn)) < 1e-3


def test_iota_stays_close_to_gaussian_away_from_lattice_points(lattice):
    iota = make_iota(1.0)
    gauss = make_gaussian(1.0)
    for lam, phi in ((0.4, 0.35), (0.3, 0.6), (0.5, 0.5)):
        a_iota = abs(ambiguity(iota, iota, lattice,
                               delta_f=phi * lattice.nu0, delta_t=lam * lattice.tau0))
        a_gauss = abs(ambiguity(gauss, gauss, lattice,
                                delta_f=phi * lattice.nu0, delta_t=lam * lattice.tau0))
        assert a_iota == pytest.approx(a_gauss, abs=0.1)


# ---------------------------------------------------------------------------
# channel-facing evaluator


# A pair's channel is (path_gain, tap_gains, tap_delays), the arguments
# ``convolved_full`` takes ahead of the delay and ``own_energies`` alone.


def unit_tap():
    return 1.0, (1.0 + 0j,), (0.0,)


def cci_energy_profile(cross, channel, rel_delay):
    """One pair's row of ``cci_energy_profiles``."""
    path_gain, tap_gains, tap_delays = channel
    return cross.cci_energy_profiles([path_gain], [tap_gains], tap_delays,
                                     [rel_delay])[0]


def test_cross_ambiguity_block_matches_direct_values(cross_gaussian, gaussian_02, lattice,
                                                     fo_columns):
    # Columns are indexed delta_n + n0; delta_n = 0 and -1 carry |A| of about
    # 0.14 and 0.02 here, so a wrong column or a wrong twist cannot hide
    # below the tolerance.
    full = cross_gaussian.convolved_full(*unit_tap(), 0.37 * lattice.tau0)
    block = fo_columns(cross_gaussian, full, 3)
    n0 = cross_gaussian.reference_subcarrier
    assert n0 == 6
    for delta_n in (0, -1):
        direct = ambiguity(gaussian_02, gaussian_02, lattice, delta_l=-2,
                           delta_n=delta_n, delta_f=3 * lattice.nu0 / 8,
                           delta_t=0.37 * lattice.tau0)
        assert abs(direct) > 1e-2
        assert abs(block[-2 + 12 - 1, delta_n + n0] - direct) < 1e-5


def test_cross_ambiguity_block_vanishes_beyond_combined_span(cross_gaussian, fo_columns):
    block = fo_columns(cross_gaussian, cross_gaussian.convolved_full(*unit_tap(), 0.0), 0)
    # Strictly beyond: the lag at exactly max_lag still reads a spline knot.
    beyond = np.abs(cross_gaussian.delta_l) > cross_gaussian.max_lag
    assert beyond.any()
    assert np.all(block[beyond] == 0)
    assert abs(block[12 - 1, cross_gaussian.reference_subcarrier]) == pytest.approx(1.0, abs=1e-6)


def test_cci_profile_columns_match_single_offset_energies(cross_gaussian, rng,
                                                         fo_columns):
    realization = (0.5, (1.0 + 0j,), (0.0,))
    delay = 0.42 * cross_gaussian.lattice.tau0
    profile = cci_energy_profile(cross_gaussian, realization, delay)
    full = cross_gaussian.convolved_full(*realization, delay)
    for qdiff in (-7, -3, 0, 2, 7):
        block = fo_columns(cross_gaussian, full, qdiff)
        single = float(np.sum(np.abs(block) ** 2))
        assert profile[qdiff + 8 - 1] == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_cci_profile_is_periodic_in_the_fo_difference(family, lattice):
    # The FO grid is circular (offset indices wrap mod Q), which is only
    # sound if an offset of q / Q * nu0 couples like (q - Q) / Q * nu0, i.e.
    # if the victim has subcarrier neighbours on both sides.
    pulse = filter_factory(family, 0.2)
    cross = CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)
    profile = cci_energy_profile(cross, unit_tap(), 0.42 * lattice.tau0)
    for q in range(1, 8):
        assert profile[q + 8 - 1] == pytest.approx(profile[q - 8 + 8 - 1], rel=1e-5)


def nan_to_num_convolved_full(cross, realization, rel_delay):
    """convolved_full with the spline read at every lag and NaN set to zero."""
    path_gain, tap_gains, tap_delays = realization
    tau0 = cross.lattice.tau0
    delays = np.asarray(tap_delays) / tau0 + rel_delay / tau0
    lags = cross.delta_l[:, None] + delays[None, :]
    values = np.nan_to_num(cross._spline(lags.reshape(-1)), copy=False)
    values = values.reshape(len(cross.delta_l), len(delays), -1)
    values = values * cross._twist(lags)
    block = np.einsum("t,ltj->lj", np.asarray(tap_gains), values)
    return np.sqrt(path_gain) * block


def realized(model, distance, rng):
    """One pair's channel drawn by ``realize_channel``."""
    return (*potsim.realize_channel(model, distance, rng), model.tap_delays)


def epa_realization(seed):
    model = potsim.ChannelModel.epa(800e6)
    return realized(model, 150.0, np.random.default_rng(seed))


def test_convolved_full_is_finite_and_zero_beyond_the_span(cross_gaussian):
    tau0 = cross_gaussian.lattice.tau0
    realization = epa_realization(5)
    rel_delay = 0.6 * tau0
    full = cross_gaussian.convolved_full(*realization, rel_delay)
    assert np.all(np.isfinite(full))
    delays = np.asarray(realization[2]) / tau0 + rel_delay / tau0
    lags = cross_gaussian.delta_l[:, None] + delays[None, :]
    beyond = np.all(np.abs(lags) > cross_gaussian.max_lag, axis=1)
    assert beyond.any() and not beyond.all()
    assert np.all(full[beyond] == 0)
    assert np.all(np.abs(full[~beyond]).max(axis=1) > 0)


@pytest.mark.parametrize("family", ["gaussian", "iota"])
def test_convolved_full_matches_the_nan_to_num_formula_at_the_span_edge(
        family, lattice):
    pulse = filter_factory(family, 0.2)
    cross = CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)
    tau0 = lattice.tau0
    realization = epa_realization(9)
    taps = np.asarray(realization[2]) / tau0
    edge_row = int(cross.max_lag) - 1
    # rel_delay moves row edge_row so that taps up to ``split`` sit at or
    # inside max_lag and later taps beyond it; split 0 puts tap 0 exactly on
    # max_lag, the last spline knot.
    for split in (0.0, taps[3], taps[5]):
        rel_delay = (cross.max_lag - edge_row - split) * tau0
        lags = edge_row + (taps + rel_delay / tau0)
        assert (lags <= cross.max_lag).any() and (lags > cross.max_lag).any()
        assert np.array_equal(cross.convolved_full(*realization, rel_delay),
                              nan_to_num_convolved_full(cross, realization,
                                                        rel_delay))


@pytest.mark.parametrize("kind", ["awgn", "epa"])
@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_own_channel_memo_returns_the_oracle_bit_for_bit(family, kind, lattice):
    pulse = filter_factory(family, 0.2)
    cross = CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)
    model = potsim.ChannelModel.of_kind(kind, 800e6)
    rng = np.random.default_rng(21)
    first = realized(model, 150.0, rng)
    taps = len(model.tap_delays)
    # The same tap delays with other gains and path gains share one entry.
    others = [realized(model, distance, rng) for distance in (3.0, 700.0)]
    others += [(path_gain,
                rng.standard_normal(taps) + 1j * rng.standard_normal(taps),
                model.tap_delays)
               for path_gain in (0.37, 2e-9)]
    for realization in [first, first] + others:
        assert np.array_equal(cross.convolved_full(*realization, 0.0),
                              nan_to_num_convolved_full(cross, realization, 0.0))
    assert list(cross._own_values) == [tuple(model.tap_delays)]
    assert not cross._own_values[tuple(model.tap_delays)].flags.writeable


@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_own_channel_memo_keeps_one_entry_per_tap_delay_vector(family, lattice):
    pulse = filter_factory(family, 0.2)
    cross = CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)
    tau0 = lattice.tau0
    awgn = realized(potsim.ChannelModel.awgn(800e6), 90.0,
                    np.random.default_rng(1))
    epa = [epa_realization(seed) for seed in (3, 4)]
    for realization in (awgn, epa[0]):
        cross.convolved_full(*realization, 0.3 * tau0)
    beyond = (1.0, (1.0,), (cross.max_lag * tau0,))
    with pytest.raises(ParameterError):
        cross.convolved_full(*beyond, 0.0)
    assert cross._own_values == {}
    # One tap, like AWGN's, but at another delay.
    late = (0.5, (0.3 + 0.4j,), (0.25 * tau0,))
    for realization in (awgn, epa[0], late, awgn, epa[1], late):
        assert np.array_equal(cross.convolved_full(*realization, 0.0),
                              nan_to_num_convolved_full(cross, realization, 0.0))
    assert set(cross._own_values) == {tuple(awgn[2]), tuple(epa[0][2]),
                                      tuple(late[2])}
    assert all(not values.flags.writeable
               for values in cross._own_values.values())
    # A filled memo leaves nonzero relative delays on the spline route.
    for realization in (awgn, epa[1]):
        assert np.array_equal(
            cross.convolved_full(*realization, 0.3 * tau0),
            nan_to_num_convolved_full(cross, realization, 0.3 * tau0))
    assert len(cross._own_values) == 3


def spline_cci_profile(cross, realization, rel_delay):
    """CCI energy profile summed from ``convolved_full``: the kernel's oracle."""
    full = cross.convolved_full(*realization, rel_delay)
    column_power = np.sum(np.abs(full) ** 2, axis=0)
    return column_power[profile_columns(cross)].sum(axis=1)


def profile_columns(cross):
    """Columns of every (qdiff, delta_n): the lag table's frequency index j
    counts from j = 0 at delta_n = -n0, qdiff = -(Q - 1)."""
    q = cross.fo_quantum
    delta_n = np.arange(cross.lattice.num_subcarriers) - cross.reference_subcarrier
    qdiffs = np.arange(-(q - 1), q)
    return (delta_n[None, :] + cross.reference_subcarrier) * q + qdiffs[:, None] + q - 1


@pytest.fixture(scope="module", params=["gaussian", "rrc", "iota"])
def cross_family(request, lattice):
    pulse = filter_factory(request.param, 0.2)
    return CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)


def count_general_path_calls(monkeypatch, cross):
    calls = []
    original = cross.convolved_full

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cross, "convolved_full", spy)
    return calls


def test_single_tap_profile_matches_the_spline_oracle(cross_family, monkeypatch):
    tau0 = cross_family.lattice.tau0
    realization = (0.37, (0.6 - 0.9j,), (0.0,))
    rate = cross_family.rx_filter.sample_rate
    delays = np.concatenate((
        [0.0], np.arange(rate + 1) / rate,
        np.random.default_rng(7).random(200), [1.0 - 1e-15]))
    profiles = {}
    calls = count_general_path_calls(monkeypatch, cross_family)
    for x in delays:
        profiles[x] = cci_energy_profile(cross_family, realization, x * tau0)
    # Every one of these delays is served by the polynomial kernel.
    assert calls == []
    monkeypatch.undo()
    for x, profile in profiles.items():
        oracle = spline_cci_profile(cross_family, realization, x * tau0)
        assert np.all(oracle > 0)
        assert np.max(np.abs(profile - oracle) / oracle) <= 1e-12, x


def test_multi_tap_profile_is_the_spline_route(cross_family):
    tau0 = cross_family.lattice.tau0
    for seed, x in ((3, 0.0), (4, 0.42), (5, 0.97)):
        realization = epa_realization(seed)
        assert np.array_equal(
            cci_energy_profile(cross_family, realization, x * tau0),
            spline_cci_profile(cross_family, realization, x * tau0))


@pytest.mark.parametrize("tap_delay,rel_delay", [(0.0, -0.25), (0.3, 0.9),
                                                 (0.0, 1.5)])
def test_single_tap_beyond_one_symbol_takes_the_spline_route(
        cross_gaussian, monkeypatch, tap_delay, rel_delay):
    # Delays outside [0, tau0] would extrapolate the kernel's polynomials.
    tau0 = cross_gaussian.lattice.tau0
    realization = (2.0, (0.5 + 0.5j,), (tap_delay * tau0,))
    calls = count_general_path_calls(monkeypatch, cross_gaussian)
    profile = cci_energy_profile(cross_gaussian, realization, rel_delay * tau0)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(profile, spline_cci_profile(cross_gaussian, realization,
                                                      rel_delay * tau0))


def per_pair_single_tap_profile(cross, realization, rel_delay):
    """The one-pair single-tap formula that ``cci_energy_profiles`` batches,
    kept as its == oracle: the degree-6 polynomial of x's sample interval
    at x's local coordinate, times path_gain * |g|^2."""
    path_gain, tap_gains, tap_delays = realization
    tau0 = cross.lattice.tau0
    x = float(tap_delays[0]) / tau0 + float(rel_delay) / tau0
    assert 0.0 <= x <= 1.0
    rate = cross.rx_filter.sample_rate
    k = min(int(x * rate), rate - 1)
    powers = (x - k / rate) ** np.arange(7)
    gain = abs(complex(tap_gains[0])) ** 2
    return (float(path_gain) * gain) * (cross._single_tap[k] @ powers)


@pytest.fixture(scope="module")
def dyadic_cross(cross_family):
    """cross_family's pulses on a lattice whose tau0 is a power of two, so
    that a delay of x * tau0 reads exactly x, knots k / rate included."""
    lattice = LatticeConfig(tau0=2.0 ** -14, nu0=2.0 ** 14,
                            num_subcarriers=12, num_symbols=12)
    return CrossAmbiguity(cross_family.tx_filter, cross_family.rx_filter,
                          lattice, fo_quantum=8)


def single_taps(count, rng):
    """(path_gains, tap_gains) of ``count`` random single-tap pairs."""
    path_gains = rng.uniform(1e-12, 2.0, size=count)
    tap_gains = rng.standard_normal((count, 1)) + 1j * rng.standard_normal((count, 1))
    return path_gains, tap_gains


@pytest.mark.parametrize("dyadic", [False, True])
def test_batched_single_tap_profiles_equal_the_per_pair_formula(
        cross_family, dyadic_cross, dyadic, monkeypatch):
    cross = dyadic_cross if dyadic else cross_family
    tau0 = cross.lattice.tau0
    rate = cross.rx_filter.sample_rate
    rng = np.random.default_rng(41)
    # x = 0, every knot k / rate, x = 1 (the last interval, clamped to
    # rate - 1, read at its right end) and random delays in between.
    knots = [k / rate * tau0 for k in range(rate + 1)]
    if dyadic:
        assert [delay / tau0 for delay in knots] == [k / rate for k in range(rate + 1)]
    delays = knots + list(rng.random(300) * tau0)
    # A tap delay adds to the relative delay.
    for tap_delays, rel_delays in (((0.0,), delays),
                                   ((0.25 * tau0,), rng.random(20) * 0.75 * tau0)):
        path_gains, tap_gains = single_taps(len(rel_delays), rng)
        calls = count_general_path_calls(monkeypatch, cross)
        batch = cross.cci_energy_profiles(path_gains, tap_gains, tap_delays,
                                          rel_delays)
        assert calls == []
        monkeypatch.undo()
        assert batch.shape == (len(rel_delays), 2 * cross.fo_quantum - 1)
        for row, path_gain, gains, rel_delay in zip(batch, path_gains, tap_gains,
                                                    rel_delays):
            pair = (path_gain, gains, tap_delays)
            assert np.array_equal(
                row, per_pair_single_tap_profile(cross, pair, rel_delay))
            assert np.array_equal(row, cci_energy_profile(cross, pair, rel_delay))


def test_multi_tap_and_out_of_span_pairs_take_the_spline_route_in_a_batch(
        cross_family, monkeypatch):
    tau0 = cross_family.lattice.tau0
    path_gains, tap_gains = single_taps(5, np.random.default_rng(43))
    # Pairs 1 and 3 lie outside [0, tau0].
    delays = np.array([0.1, -0.25, 0.7, 1.5, 1.0]) * tau0
    calls = count_general_path_calls(monkeypatch, cross_family)
    batch = cross_family.cci_energy_profiles(path_gains, tap_gains, (0.0,), delays)
    assert [args[3] for args in calls] == [delays[1], delays[3]]
    monkeypatch.undo()
    for i, rel_delay in enumerate(delays):
        pair = (path_gains[i], tap_gains[i], (0.0,))
        if i in (1, 3):
            expected = spline_cci_profile(cross_family, pair, rel_delay)
        else:
            expected = per_pair_single_tap_profile(cross_family, pair, rel_delay)
        assert np.array_equal(batch[i], expected), i
    # Every multi-tap pair is a spline pair.
    epa = [epa_realization(seed) for seed in (6, 7)]
    delays = [0.4 * tau0, 0.0]
    calls = count_general_path_calls(monkeypatch, cross_family)
    batch = cross_family.cci_energy_profiles(
        [pair[0] for pair in epa], [pair[1] for pair in epa], epa[0][2], delays)
    assert len(calls) == 2
    monkeypatch.undo()
    for row, pair, rel_delay in zip(batch, epa, delays):
        assert np.array_equal(row, spline_cci_profile(cross_family, pair, rel_delay))


def test_no_pairs_give_an_empty_profile_table(cross_gaussian):
    profiles = cross_gaussian.cci_energy_profiles([], np.empty((0, 1)), (0.0,), [])
    assert profiles.shape == (0, 2 * cross_gaussian.fo_quantum - 1)
    assert profiles.dtype == float


def test_convolved_block_reads_the_columns_of_its_fo_difference(cross_gaussian,
                                                                fo_columns):
    # The columns the evaluator reads for one FO difference (own energies at
    # qdiff 0, every CCI profile) are the block the tests read.
    realization = epa_realization(8)
    rel_delay = 0.3 * cross_gaussian.lattice.tau0
    full = cross_gaussian.convolved_full(*realization, rel_delay)
    q = cross_gaussian.fo_quantum
    assert np.array_equal(cross_gaussian._profile_columns, profile_columns(cross_gaussian))
    for qdiff in range(-(q - 1), q):
        assert np.array_equal(
            full[:, cross_gaussian._profile_columns[qdiff + q - 1]],
            fo_columns(cross_gaussian, full, qdiff))


# ---------------------------------------------------------------------------
# lag tables shared per process
#
# Every evaluator of one (pulse content, lattice, Q) reads the tables that
# waveform._lag_tables built once; a hit must equal a fresh build bit for bit.

lag_tables = potsim.waveform._lag_tables


def shared_arrays(cross):
    spline = cross._spline
    return (spline.c, spline.x, spline._parts, cross._single_tap, cross._freqs,
            cross._profile_columns, cross.delta_l)


def awgn_and_epa_pairs(cross, rng):
    """(path_gains, tap_gains, tap_delays, rel_delays) of 40 AWGN pairs,
    some outside [0, tau0], and of 4 EPA pairs."""
    tau0 = cross.lattice.tau0
    path_gains, tap_gains = single_taps(40, rng)
    awgn = (path_gains, tap_gains, (0.0,), rng.uniform(-0.3, 1.3, 40) * tau0)
    epa = [epa_realization(seed) for seed in (11, 12, 13, 14)]
    epa = ([pair[0] for pair in epa], [pair[1] for pair in epa], epa[0][2],
           rng.uniform(0.0, 0.8, 4) * tau0)
    return awgn, epa


@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_a_lag_table_hit_equals_a_fresh_build(family, lattice):
    lag_tables.cache_clear()
    first_pulse, second_pulse = (filter_factory(family, 0.2) for _ in range(2))
    assert first_pulse is not second_pulse
    first = CrossAmbiguity(first_pulse, first_pulse, lattice, fo_quantum=8)
    own = epa_realization(15)
    first.convolved_full(*own, 0.0)
    assert first._own_values
    hit = CrossAmbiguity(second_pulse, second_pulse, lattice, fo_quantum=8)
    assert lag_tables.cache_info()[:2] == (1, 1)
    assert hit._spline is first._spline and hit._own_values == {}
    lag_tables.cache_clear()
    fresh_pulse = filter_factory(family, 0.2)
    fresh = CrossAmbiguity(fresh_pulse, fresh_pulse, lattice, fo_quantum=8)
    assert fresh._spline is not first._spline
    evaluators = (first, hit, fresh)
    for cross in evaluators:
        assert np.array_equal(cross._single_tap, fresh._single_tap)
        assert np.array_equal(cross._spline.c, fresh._spline.c)
        assert not any(array.flags.writeable for array in shared_arrays(cross))
    pairs = awgn_and_epa_pairs(fresh, np.random.default_rng(17))
    tau0 = lattice.tau0
    for batch in pairs:
        expected = fresh.cci_energy_profiles(*batch)
        for cross in (first, hit):
            assert np.array_equal(cross.cci_energy_profiles(*batch), expected)
    for channel in (realized(potsim.ChannelModel.awgn(800e6), 90.0,
                             np.random.default_rng(18)), own):
        for rel_delay in (0.0, 0.3 * tau0):
            expected = fresh.convolved_full(*channel, rel_delay)
            for cross in (first, hit):
                assert np.array_equal(cross.convolved_full(*channel, rel_delay),
                                      expected)


def test_every_key_part_gives_its_own_lag_tables(gaussian_02, iota_02, lattice):
    lag_tables.cache_clear()
    CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=8)
    # The same samples over a span that rounds to the same sample count: only
    # the span differs, and it moves the lag grid by one knot.
    longer = replace(gaussian_02, span=gaussian_02.span + 1e-11)
    variants = {
        "dispersion": (make_gaussian(0.25), make_gaussian(0.25), lattice, 8),
        "span": (longer, longer, lattice, 8),
        "N": (gaussian_02, gaussian_02, replace(lattice, num_subcarriers=10), 8),
        "K": (gaussian_02, gaussian_02, replace(lattice, num_symbols=6), 8),
        "fo_quantum": (gaussian_02, gaussian_02, lattice, 4),
        "tx != rx": (gaussian_02, iota_02, lattice, 8),
        "rx != tx": (iota_02, gaussian_02, lattice, 8),
    }
    for name, (tx, rx, variant_lattice, q) in variants.items():
        misses = lag_tables.cache_info().misses
        cross = CrossAmbiguity(tx, rx, variant_lattice, fo_quantum=q)
        assert lag_tables.cache_info().misses == misses + 1, name
        fresh = lag_tables.__wrapped__(
            potsim.waveform._pulse_key(tx), potsim.waveform._pulse_key(rx),
            tx.sample_rate, variant_lattice, q)
        assert cross._spline.c.shape == fresh.spline.c.shape, name
        for ours, theirs in zip(shared_arrays(cross),
                                (fresh.spline.c, fresh.spline.x, fresh.spline._parts,
                                 fresh.single_tap, fresh.freqs,
                                 fresh.profile_columns, fresh.delta_l)):
            assert np.array_equal(ours, theirs), name
        assert (cross.max_lag, cross.reference_subcarrier) == (
            fresh.max_lag, fresh.reference_subcarrier), name
    assert len(longer.samples) == len(gaussian_02.samples)
    assert CrossAmbiguity(longer, longer, lattice).max_lag > CrossAmbiguity(
        gaussian_02, gaussian_02, lattice).max_lag


def test_rejected_builds_are_not_kept_and_the_memo_is_bounded(gaussian_02, rrc_02,
                                                             lattice):
    lag_tables.cache_clear()
    CrossAmbiguity(gaussian_02, gaussian_02, lattice)
    with pytest.raises(ConfigError, match="share a sample grid"):
        CrossAmbiguity(rrc_02, gaussian_02, lattice)
    with pytest.raises(ParameterError, match="fo_quantum"):
        CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=0)
    assert lag_tables.cache_info().currsize == 1
    bound = potsim.waveform._LAG_TABLE_ENTRIES
    assert lag_tables.cache_info().maxsize == bound
    for q in range(1, bound + 3):
        CrossAmbiguity(gaussian_02, gaussian_02, lattice, fo_quantum=q)
    assert lag_tables.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# not-a-knot spline
#
# scipy's CubicSpline is the oracle. The numpy spline follows its arithmetic
# step for step, so with scipy 1.17.1 and numpy 2.4.6 every coefficient and
# value is array_equal; the bound leaves room for other builds' rounding.

SPLINE_RTOL = 1e-13


def assert_close_to_oracle(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    finite = ~np.isnan(expected)
    scale = np.max(np.abs(expected[finite]))
    assert np.max(np.abs(actual[finite] - expected[finite]), initial=0.0) <= SPLINE_RTOL * scale


def lag_table_knots(cross):
    """The knots and samples of a CrossAmbiguity's lag-table spline.

    c[3] holds the samples of every knot but the last. The last lag, like
    the first, is one whole span away, where the pulses share no sample.
    """
    spline = cross._spline
    first = spline.c[3][0]
    assert np.array_equal(first, np.zeros_like(first))
    return spline.x, np.concatenate((spline.c[3], first[None, :]))


def oracle_points(x, rng):
    inside = rng.uniform(x[0], x[-1], 5000)
    outside = [x[0] - 1e-12, x[-1] + 1e-12, x[0] - 3.0, x[-1] + 3.0, np.nan]
    return np.concatenate((x, inside, outside))


@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_spline_matches_the_scipy_oracle(family, lattice):
    pulse = filter_factory(family, 0.2)
    cross = CrossAmbiguity(pulse, pulse, lattice, fo_quantum=8)
    rng = np.random.default_rng(11)
    cases = ((pulse.time_grid, pulse.samples,
              _NotAKnotSpline(pulse.time_grid, pulse.samples)),
             (*lag_table_knots(cross), cross._spline))
    for x, y, spline in cases:
        oracle = CubicSpline(x, y, axis=0, extrapolate=False)
        assert_close_to_oracle(spline.c, oracle.c)
        points = oracle_points(x, rng)
        values = spline(points)
        assert_close_to_oracle(values, oracle(points))
        # Points outside the knots read NaN, the last knot included in span.
        assert np.isnan(values[-5:]).all(axis=tuple(range(1, values.ndim))).all()
        assert not np.isnan(values[:-5]).any()


@pytest.mark.parametrize("family", ["gaussian", "rrc", "iota"])
def test_resample_shifted_matches_the_scipy_oracle_with_zeros_outside(family):
    pulse = filter_factory(family, 0.2)
    oracle = CubicSpline(pulse.time_grid, pulse.samples, extrapolate=False)
    shifts = np.concatenate((np.random.default_rng(5).uniform(-7.0, 7.0, 40),
                             [0.0, 1.0 / 3.0, -2.5, pulse.span, -pulse.span - 0.5]))
    points = pulse.time_grid[None, :] - shifts[:, None]
    resampled = pulse.resample_shifted(shifts)
    assert_close_to_oracle(resampled, np.nan_to_num(oracle(points)))
    outside = (points < pulse.time_grid[0]) | (points > pulse.time_grid[-1])
    assert outside.any() and np.all(resampled[outside] == 0.0)


def uneven_knots(rng, n=40):
    # Steps in [1, 1.5] never make gtsv interchange rows.
    return np.cumsum(rng.uniform(1.0, 1.5, n))


def test_spline_matches_the_scipy_oracle_on_uneven_knots():
    rng = np.random.default_rng(2)
    x = uneven_knots(rng)
    y = rng.normal(size=(len(x), 2, 3)) + 1j * rng.normal(size=(len(x), 2, 3))
    oracle = CubicSpline(x, y, axis=0, extrapolate=False)
    spline = _NotAKnotSpline(x, y)
    assert_close_to_oracle(spline.c, oracle.c)
    points = oracle_points(x, rng).reshape(-1, 5)
    assert_close_to_oracle(spline(points), oracle(points))


def test_spline_reproduces_the_samples_at_interior_knots():
    rng = np.random.default_rng(3)
    x = uneven_knots(rng)
    for y in (rng.normal(size=len(x)),
              rng.normal(size=(len(x), 3)) + 1j * rng.normal(size=(len(x), 3))):
        spline = _NotAKnotSpline(x, y)
        assert np.array_equal(spline(x[1:-1]), y[1:-1])
        assert np.allclose(spline(x[-1:]), y[-1:], rtol=1e-12, atol=1e-12)


def test_spline_evaluates_in_ppoly_order():
    # scipy's PPoly sums c3 + c2 t + c1 t^2 + c0 t^3 left to right, with
    # t^2 = t t and t^3 = t^2 t; any other order changes last bits.
    rng = np.random.default_rng(6)
    x = uneven_knots(rng)
    spline = _NotAKnotSpline(x, rng.normal(size=len(x)))
    points = rng.uniform(x[0], x[-1], 300)
    expected = []
    for p in points.tolist():
        i = min(int(np.searchsorted(x, p, side="right")) - 1, len(x) - 2)
        c0, c1, c2, c3 = spline.c[:, i].tolist()
        t = p - float(x[i])
        expected.append(c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t))
    assert np.array_equal(spline(points), expected)


def test_spline_third_derivative_is_continuous_at_the_second_and_penultimate_knots():
    rng = np.random.default_rng(4)
    x = uneven_knots(rng)
    y = rng.normal(size=(len(x), 2)) + 1j * rng.normal(size=(len(x), 2))
    # On interval i the third derivative is 6 c[0, i].
    c = _NotAKnotSpline(x, y).c
    scale = np.max(np.abs(c[0]))
    assert np.max(np.abs(c[0, 0] - c[0, 1])) <= 1e-12 * scale
    assert np.max(np.abs(c[0, -2] - c[0, -1])) <= 1e-12 * scale
    # The not-a-knot ends are what make these equal: elsewhere they differ.
    assert np.min(np.abs(c[0, 1] - c[0, 2])) > 1e-6 * scale


def test_spline_knots_that_need_a_row_interchange_are_rejected():
    # The second pivot is dx[0] + dx[1] = 2, below the step dx[2] = 8 it
    # would eliminate.
    x = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
    with pytest.raises(ConfigError, match="row interchange"):
        _NotAKnotSpline(x, np.sin(x))
