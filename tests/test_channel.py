"""Path loss, tap statistics, and channel-convolved ambiguity coefficients."""

import numpy as np
import pytest
from scipy import stats

import potsim
from potsim import (
    ChannelModel,
    ParameterError,
    ambiguity,
    free_space_path_loss,
    realize_channel,
)

CARRIER = 800e6


def to_db(linear):
    return 10.0 * np.log10(linear)


# ---------------------------------------------------------------------------
# free-space path loss


def test_path_loss_at_one_meter():
    assert to_db(free_space_path_loss(1.0, CARRIER)) == pytest.approx(-30.5, abs=0.1)


def test_path_loss_at_hundred_meters():
    assert to_db(free_space_path_loss(100.0, CARRIER)) == pytest.approx(-70.5, abs=0.1)


def test_doubling_distance_costs_six_db():
    for d in (1.0, 37.0, 250.0):
        delta = to_db(free_space_path_loss(d, CARRIER)) - to_db(free_space_path_loss(2 * d, CARRIER))
        assert delta == pytest.approx(20.0 * np.log10(2.0), abs=1e-6)


def test_colocated_endpoints_are_rejected():
    with pytest.raises(ParameterError):
        free_space_path_loss(0.0, CARRIER)
    with pytest.raises(ParameterError):
        free_space_path_loss(10.0, 0.0)


# ---------------------------------------------------------------------------
# channel models


def test_awgn_model_has_single_unit_tap():
    model = ChannelModel.awgn(CARRIER)
    assert len(model.taps) == 1
    delay, power = model.taps[0]
    assert delay == 0.0
    assert power == pytest.approx(1.0, abs=1e-12)


def test_epa_profile_is_power_normalized():
    model = ChannelModel.epa(CARRIER)
    assert sum(power for _, power in model.taps) == pytest.approx(1.0, abs=1e-9)
    assert len(model.taps) == 7
    delays = [delay for delay, _ in model.taps]
    assert delays == sorted(delays)
    assert delays[-1] == pytest.approx(410e-9, rel=1e-12)


def test_of_kind_rejects_unknown_channel():
    assert ChannelModel.of_kind("awgn", CARRIER).kind == "awgn"
    assert ChannelModel.of_kind("epa", CARRIER).kind == "epa"
    with pytest.raises((ParameterError, potsim.ConfigError)):
        ChannelModel.of_kind("tu", CARRIER)


# ---------------------------------------------------------------------------
# realizations


def test_awgn_realization_is_deterministic_unit_tap():
    model = ChannelModel.awgn(CARRIER)
    for seed in (0, 1, 99):
        path_gain, tap_gains = realize_channel(model, 25.0, np.random.default_rng(seed))
        assert np.array_equal(tap_gains, np.array([1.0 + 0j]))
        assert np.array_equal(model.tap_delays, [0.0])
        assert path_gain == pytest.approx(free_space_path_loss(25.0, CARRIER))


def test_same_stream_reproduces_the_same_epa_draw():
    model = ChannelModel.epa(CARRIER)
    a = realize_channel(model, 40.0, np.random.default_rng(7))
    b = realize_channel(model, 40.0, np.random.default_rng(7))
    assert np.array_equal(a[1], b[1])
    assert a[0] == b[0]


def test_epa_tap_powers_match_the_profile_in_the_mean():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(11)
    draws = np.array([realize_channel(model, 10.0, rng)[1] for _ in range(100000)])
    mean_power = np.mean(np.abs(draws) ** 2, axis=0)
    profile = np.array([power for _, power in model.taps])
    assert np.all(np.abs(mean_power - profile) <= 0.02 * profile.max())
    assert mean_power.sum() == pytest.approx(1.0, rel=0.02)


def test_epa_tap_magnitude_is_rayleigh():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(5)
    draws = np.array([realize_channel(model, 10.0, rng)[1][0] for _ in range(10000)])
    power = model.taps[0][1]
    result = stats.kstest(np.abs(draws), "rayleigh", args=(0.0, np.sqrt(power / 2.0)))
    assert result.pvalue > 0.01


def per_call_realization(model, distance, rng):
    """realize_channel building its tap arrays on every call: the oracle.
    Returns (path_gain, tap_delays, tap_gains)."""
    delays = np.array([delay for delay, _ in model.taps])
    powers = np.array([power for _, power in model.taps])
    if model.kind == "awgn":
        gains = np.ones(1, dtype=complex)
    else:
        raw = rng.standard_normal(len(powers)) + 1j * rng.standard_normal(len(powers))
        gains = np.sqrt(powers / 2.0) * raw
    return free_space_path_loss(distance, model.carrier_freq), delays, gains


@pytest.mark.parametrize("kind", ["awgn", "epa"])
def test_realizations_equal_the_per_call_construction(kind):
    model = ChannelModel.of_kind(kind, CARRIER)
    rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
    for distance in (1.0, 25.0, 300.0, 25.0):
        path_gain, tap_gains = realize_channel(model, distance, rng)
        oracle_gain, *oracle_taps = per_call_realization(model, distance, oracle_rng)
        assert path_gain == oracle_gain
        for value, expected in zip((model.tap_delays, tap_gains), oracle_taps):
            assert value.dtype == expected.dtype
            assert np.array_equal(value, expected)
            # Shared between draws, so nobody may write to them.
            assert not value.flags.writeable
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_taps_given_as_lists_realize_like_tuples():
    model = ChannelModel.epa(CARRIER)
    listed = ChannelModel("epa", CARRIER, [list(tap) for tap in model.taps])
    assert listed.taps == model.taps
    a = realize_channel(listed, 40.0, np.random.default_rng(7))
    b = realize_channel(model, 40.0, np.random.default_rng(7))
    assert np.array_equal(listed.tap_delays, model.tap_delays)
    assert np.array_equal(a[1], b[1])


def test_path_gain_never_amplifies():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(3)
    for distance in (0.5, 1.0, 10.0, 500.0):
        path_gain, _ = realize_channel(model, distance, rng)
        assert 0.0 < path_gain <= 1.0


# ---------------------------------------------------------------------------
# channel-convolved ambiguity


def unit_tap():
    """(path_gain, tap_gains, tap_delays) of a lossless single tap."""
    return 1.0, (1.0 + 0j,), (0.0,)


def block_entry(block, delta_l, delta_n, cross):
    """Entry of a ``convolved_block`` at lattice offset (delta_l, delta_n)."""
    k = cross.lattice.num_symbols
    return block[delta_l + k - 1, delta_n + cross.reference_subcarrier]


def test_identity_channel_reduces_to_bare_ambiguity(cross_gaussian, gaussian_02,
                                                    lattice):
    block = cross_gaussian.convolved_block(*unit_tap(), 0.0, 0)
    for dl, dn in ((0, 0), (1, 0), (0, 2)):
        direct = ambiguity(gaussian_02, gaussian_02, lattice, dl, dn, 0.0, 0.0)
        assert abs(block_entry(block, dl, dn, cross_gaussian) - direct) < 1e-5


def test_convolved_block_is_linear_in_tap_gains(cross_gaussian, lattice):
    doubled = (1.0, (1.0 + 0j, 1.0 + 0j), (0.0, 0.0))
    assert np.allclose(cross_gaussian.convolved_block(*doubled, 0.0, 0),
                       2 * cross_gaussian.convolved_block(*unit_tap(), 0.0, 0),
                       rtol=0.0, atol=1e-12)

    rng = np.random.default_rng(2)
    delays = tuple(rng.uniform(0.0, 1e-6, size=3))
    g1 = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    g2 = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    mix = tuple(a + b for a, b in zip(g1, g2))
    rel_delay = 0.3 * lattice.tau0
    parts = [cross_gaussian.convolved_block(1.0, g, delays, rel_delay, 1)
             for g in (g1, g2, mix)]
    assert np.allclose(parts[2], parts[0] + parts[1], rtol=0.0, atol=1e-9)


def test_convolved_block_respects_the_triangle_bound(cross_gaussian, lattice):
    # Unit-energy pulses have |A| <= 1 at every offset, so no entry can
    # exceed the root path gain times the summed tap magnitudes.
    model = ChannelModel.epa(CARRIER)
    path_gain, tap_gains = realize_channel(model, 20.0, np.random.default_rng(17))
    bound = np.sqrt(path_gain) * np.sum(np.abs(tap_gains))
    for rel, qdiff in ((0.0, 0), (0.42, 3), (0.9, -5)):
        block = cross_gaussian.convolved_block(path_gain, tap_gains, model.tap_delays,
                                               rel * lattice.tau0, qdiff)
        assert np.max(np.abs(block)) <= bound * (1.0 + 1e-6)


def test_multi_tap_block_matches_direct_ambiguity_values(cross_gaussian,
                                                        gaussian_02, lattice):
    tau0, nu0 = lattice.tau0, lattice.nu0
    taps = np.array([0.0, 0.04, 0.11]) * tau0
    gains = np.array([0.8 - 0.1j, -0.35 + 0.4j, 0.2 + 0.25j])
    path_gain, rel, qdiff = 0.37, 0.37 * tau0, 3
    block = cross_gaussian.convolved_block(path_gain, gains, taps, rel, qdiff)
    checked = 0
    for dl, dn in ((0, 0), (-1, 0), (-2, 0), (-2, -1), (1, 0)):
        direct = np.sqrt(path_gain) * sum(
            g * ambiguity(gaussian_02, gaussian_02, lattice, delta_l=dl,
                          delta_n=dn, delta_f=qdiff * nu0 / 8,
                          delta_t=rel + tau)
            for g, tau in zip(gains, taps))
        checked += abs(direct) > 1e-2
        assert abs(block_entry(block, dl, dn, cross_gaussian) - direct) < 1e-5
    # Entries well above the tolerance, so a wrong tap phase cannot hide.
    assert checked >= 3


def test_tap_delay_beyond_the_filter_span_is_loud(cross_gaussian, lattice):
    with pytest.raises(ParameterError):
        cross_gaussian.convolved_block(1.0, (1.0 + 0j,), (20.0 * lattice.tau0,),
                                       0.0, 0)
