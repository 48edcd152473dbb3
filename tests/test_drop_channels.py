"""A drop's channels as arrays, checked against the per-pair route.

The oracle is the route the arrays replaced: one draw per (transmitter,
receiver) pair, kept in a dict keyed by link positions, and the single-tap
kernel's scalar per-pair prelude (x, interval, local offset, scale). The
array route must reproduce its channels and every energy table with ==.
"""

import math

import numpy as np
import pytest

from potsim import ChannelModel, CrossAmbiguity, ExperimentConfig, filter_factory
from potsim.channel import realize_channel
from potsim.experiments import generate_drop, realize_channels
from potsim.interference import ScenarioEnergies

CONFIG = ExperimentConfig(experiment="capacity_vs_aggressors")
SNR_DB = 10.0


def per_pair_realizations(scenario, model, rng, receivers):
    """{(transmitter index, receiver index): (path_gain, tap_gains)}, drawn
    receiver by receiver and, within one, in link order."""
    realizations = {}
    for r in receivers:
        rx = scenario.links[r]
        for t, tx in enumerate(scenario.links):
            if tx is rx:
                distance = rx.length
            else:
                distance = math.dist(tx.tp_position, rx.rp_position)
            realizations[(t, r)] = realize_channel(model, distance, rng)
    return realizations


def per_pair_profiles(cross, pairs, tap_delays, rel_delays):
    """CCI energy profiles of (path_gain, tap_gains) pairs, one pair at a
    time through the scalar prelude, then one stacked product of the kernel
    polynomials; other pairs through ``convolved_full``."""
    tau0 = cross.lattice.tau0
    rate = cross.rx_filter.sample_rate
    intervals, offsets, scales, spline = [], [], [], []
    for i, ((path_gain, tap_gains), rel_delay) in enumerate(zip(pairs, rel_delays)):
        if len(tap_delays) == 1:
            x = float(tap_delays[0]) / tau0 + rel_delay / tau0
            if 0.0 <= x <= 1.0:
                k = min(int(x * rate), rate - 1)
                intervals.append(k)
                offsets.append(x - k / rate)
                scales.append(path_gain * abs(complex(tap_gains[0])) ** 2)
                continue
        spline.append(i)
    offsets, scales = np.array((offsets, scales))
    energies = cross._single_tap.take(np.array(intervals, dtype=np.intp), axis=0) @ (
        offsets[:, None, None] ** np.arange(7)[:, None])
    energies *= scales[:, None, None]
    kernel = np.ones(len(pairs), dtype=bool)
    kernel[spline] = False
    profiles = np.empty((len(pairs), 2 * cross.fo_quantum - 1))
    profiles[kernel] = energies[:, :, 0]
    for i in spline:
        full = cross.convolved_full(*pairs[i], tap_delays, rel_delays[i])
        column_power = np.sum(np.abs(full) ** 2, axis=0)
        profiles[i] = column_power[cross._profile_columns].sum(axis=1)
    return profiles


def per_pair_energies(scenario, realizations, tap_delays, cross):
    """(e_signal, e_self, cci, noise) of ``ScenarioEnergies`` by the
    per-pair route."""
    links = scenario.links
    count = len(links)
    e_signal, e_self = np.zeros(count), np.zeros(count)
    cci = np.zeros((count, count, 2 * cross.fo_quantum - 1))
    for u, victim in enumerate(links):
        own = np.abs(cross.convolved_block(*realizations[(u, u)], tap_delays,
                                           0.0, 0)) ** 2
        signal = float(own[cross.lattice.num_symbols - 1, cross.reference_subcarrier])
        e_signal[u], e_self[u] = signal, float(max(own.sum() - signal, 0.0))
        others = [t for t in range(count) if t != u]
        rel_delays = [(links[t].timing_offset - victim.timing_offset)
                      % cross.lattice.tau0 for t in others]
        cci[others, u] = per_pair_profiles(
            cross, [realizations[(t, u)] for t in others], tap_delays, rel_delays)
    return e_signal, e_self, cci, e_signal / (10.0 ** (SNR_DB / 10.0))


def late_single_tap():
    """A one-tap Rayleigh model whose tap sits half a symbol late, so about
    half the pairs fall outside [0, tau0] and take the spline route."""
    return ChannelModel("epa", CONFIG.carrier_freq, ((0.5 * CONFIG.lattice.tau0, 1.0),))


MODELS = {"awgn": lambda: ChannelModel.awgn(CONFIG.carrier_freq),
          "epa": lambda: ChannelModel.epa(CONFIG.carrier_freq),
          "late single tap": late_single_tap}


@pytest.fixture(scope="module", params=["gaussian", "rrc", "iota"])
def cross(request):
    pulse = filter_factory(request.param, CONFIG.filter_param)
    return CrossAmbiguity(pulse, pulse, CONFIG.lattice, fo_quantum=CONFIG.fo_quantum)


@pytest.mark.parametrize("aggressors", [1, 5, 50])
@pytest.mark.parametrize("channel", list(MODELS))
def test_scenario_energies_equal_the_per_pair_route(cross, channel, aggressors,
                                                    monkeypatch):
    model = MODELS[channel]()
    scenario = generate_drop(CONFIG, aggressors, np.random.default_rng(aggressors))
    seed = [aggressors, 1]
    path_gains, tap_gains = realize_channels(
        scenario, model, np.random.default_rng(seed), scenario.links)
    realizations = per_pair_realizations(
        scenario, model, np.random.default_rng(seed), range(len(scenario.links)))
    spline_pairs = []
    original = cross.convolved_full

    def count_spline_pairs(*args):
        spline_pairs.append(args[3] != 0.0)
        return original(*args)

    monkeypatch.setattr(cross, "convolved_full", count_spline_pairs)
    energies = ScenarioEnergies(scenario, path_gains, tap_gains, model.tap_delays,
                                cross, snr_db=SNR_DB)
    monkeypatch.undo()
    expected = per_pair_energies(scenario, realizations, model.tap_delays, cross)
    for name, table in zip(("e_signal", "e_self", "cci", "noise"), expected):
        assert np.array_equal(getattr(energies, name), table), name
    # AWGN pairs all take the kernel, EPA pairs never; the late tap takes
    # both routes once the drop has a few links.
    pairs, spline = len(scenario.links) * aggressors, sum(spline_pairs)
    if channel == "awgn":
        assert spline == 0
    elif channel == "epa":
        assert spline == pairs
    elif aggressors > 1:
        assert 0 < spline < pairs


@pytest.mark.parametrize("victim_only", [True, False])
def test_epa_tap_gains_are_the_per_pair_draws_in_receiver_order(victim_only):
    model = ChannelModel.epa(CONFIG.carrier_freq)
    scenario = generate_drop(CONFIG, 12, np.random.default_rng(3))
    receivers = range(1 if victim_only else len(scenario.links))
    rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    path_gains, tap_gains = realize_channels(
        scenario, model, rng, [scenario.links[r] for r in receivers])
    realizations = per_pair_realizations(scenario, model, oracle_rng, receivers)
    assert path_gains.shape == (len(receivers), len(scenario.links))
    assert tap_gains.shape == path_gains.shape + (len(model.taps),)
    for (t, r), (path_gain, gains) in realizations.items():
        assert path_gains[r, t] == path_gain
        assert np.array_equal(tap_gains[r, t], gains)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
