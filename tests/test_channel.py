"""Path loss, tap statistics, and channel-convolved ambiguity coefficients."""

import numpy as np
import pytest
from scipy import stats

import potsim
from potsim import (
    ChannelModel,
    ChannelRealization,
    ParameterError,
    ambiguity,
    effective_gain,
    free_space_path_loss,
    make_gaussian,
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
        real = realize_channel(model, 25.0, np.random.default_rng(seed))
        assert np.array_equal(real.tap_gains, np.array([1.0 + 0j]))
        assert real.path_gain == pytest.approx(free_space_path_loss(25.0, CARRIER))


def test_same_stream_reproduces_the_same_epa_draw():
    model = ChannelModel.epa(CARRIER)
    a = realize_channel(model, 40.0, np.random.default_rng(7), link_id=(1, 0))
    b = realize_channel(model, 40.0, np.random.default_rng(7), link_id=(1, 0))
    assert np.array_equal(a.tap_gains, b.tap_gains)
    assert a.path_gain == b.path_gain


def test_epa_tap_powers_match_the_profile_in_the_mean():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(11)
    draws = np.array([realize_channel(model, 10.0, rng).tap_gains for _ in range(100000)])
    mean_power = np.mean(np.abs(draws) ** 2, axis=0)
    profile = np.array([power for _, power in model.taps])
    assert np.all(np.abs(mean_power - profile) <= 0.02 * profile.max())
    assert mean_power.sum() == pytest.approx(1.0, rel=0.02)


def test_epa_tap_magnitude_is_rayleigh():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(5)
    draws = np.array([realize_channel(model, 10.0, rng).tap_gains[0] for _ in range(10000)])
    power = model.taps[0][1]
    result = stats.kstest(np.abs(draws), "rayleigh", args=(0.0, np.sqrt(power / 2.0)))
    assert result.pvalue > 0.01


def per_call_realization(model, distance, rng, link_id):
    """realize_channel building its tap arrays on every call: the oracle."""
    delays = np.array([delay for delay, _ in model.taps])
    powers = np.array([power for _, power in model.taps])
    if model.kind == "awgn":
        gains = np.ones(1, dtype=complex)
    else:
        raw = rng.standard_normal(len(powers)) + 1j * rng.standard_normal(len(powers))
        gains = np.sqrt(powers / 2.0) * raw
    return ChannelRealization(link_id=link_id,
                              path_gain=free_space_path_loss(distance, model.carrier_freq),
                              tap_delays=delays, tap_gains=gains)


@pytest.mark.parametrize("kind", ["awgn", "epa"])
def test_realizations_equal_the_per_call_construction(kind):
    model = ChannelModel.of_kind(kind, CARRIER)
    rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
    for distance in (1.0, 25.0, 300.0, 25.0):
        real = realize_channel(model, distance, rng, link_id=(2, 1))
        oracle = per_call_realization(model, distance, oracle_rng, (2, 1))
        assert real.link_id == oracle.link_id
        assert real.path_gain == oracle.path_gain
        for name in ("tap_delays", "tap_gains"):
            value, expected = getattr(real, name), getattr(oracle, name)
            assert value.dtype == expected.dtype
            assert np.array_equal(value, expected)
            # Shared between realizations, so nobody may write to them.
            assert not value.flags.writeable
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_taps_given_as_lists_realize_like_tuples():
    model = ChannelModel.epa(CARRIER)
    listed = ChannelModel("epa", CARRIER, [list(tap) for tap in model.taps])
    assert listed.taps == model.taps
    a = realize_channel(listed, 40.0, np.random.default_rng(7))
    b = realize_channel(model, 40.0, np.random.default_rng(7))
    assert np.array_equal(a.tap_delays, b.tap_delays)
    assert np.array_equal(a.tap_gains, b.tap_gains)


def test_path_gain_never_amplifies():
    model = ChannelModel.epa(CARRIER)
    rng = np.random.default_rng(3)
    for distance in (0.5, 1.0, 10.0, 500.0):
        real = realize_channel(model, distance, rng)
        assert 0.0 < real.path_gain <= 1.0


# ---------------------------------------------------------------------------
# channel-convolved ambiguity


@pytest.fixture(scope="module")
def amb_fn(lattice):
    pulse = make_gaussian(0.2)

    def fn(delta_l, delta_n, delta_f, delta_t):
        return ambiguity(pulse, pulse, lattice, delta_l, delta_n, delta_f, delta_t)

    return fn


def test_identity_channel_reduces_to_bare_ambiguity(amb_fn, lattice):
    real = ChannelRealization(link_id=(0, 0), path_gain=1.0,
                              tap_delays=(0.0,), tap_gains=(1.0 + 0j,))
    for dl, dn in ((0, 0), (1, 0), (0, 2)):
        got = effective_gain(real, amb_fn, delta_l=dl, delta_n=dn)
        assert got == pytest.approx(amb_fn(dl, dn, 0.0, 0.0), abs=1e-12)


def test_effective_gain_is_linear_in_tap_gains(amb_fn):
    doubled = ChannelRealization(link_id=(0, 0), path_gain=1.0,
                                 tap_delays=(0.0, 0.0), tap_gains=(1.0 + 0j, 1.0 + 0j))
    single = ChannelRealization(link_id=(0, 0), path_gain=1.0,
                                tap_delays=(0.0,), tap_gains=(1.0 + 0j,))
    assert effective_gain(doubled, amb_fn) == pytest.approx(2 * effective_gain(single, amb_fn))

    rng = np.random.default_rng(2)
    delays = tuple(rng.uniform(0.0, 1e-6, size=3))
    g1 = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    g2 = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    mix = tuple(a + b for a, b in zip(g1, g2))
    parts = [effective_gain(ChannelRealization((0, 0), 1.0, delays, g), amb_fn, delta_n=1)
             for g in (g1, g2, mix)]
    assert parts[2] == pytest.approx(parts[0] + parts[1], abs=1e-9)


def test_effective_gain_respects_the_triangle_bound(amb_fn):
    model = ChannelModel.epa(CARRIER)
    real = realize_channel(model, 20.0, np.random.default_rng(17))
    got = abs(effective_gain(real, amb_fn))
    bound = np.sqrt(real.path_gain) * np.sum(np.abs(real.tap_gains))
    assert got <= bound + 1e-12


def test_tap_delay_beyond_the_filter_span_is_loud(amb_fn, lattice):
    real = ChannelRealization(link_id=(0, 0), path_gain=1.0,
                              tap_delays=(20.0 * lattice.tau0,), tap_gains=(1.0 + 0j,))
    with pytest.raises(ParameterError):
        effective_gain(real, amb_fn)
