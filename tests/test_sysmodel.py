import math

import numpy as np
import pytest

from wprelay.channel import SystemParams, build_beamformer, sample_channel
from wprelay.sysmodel import _powers, harvest_threshold, relay_threshold, snr_exact, throughput

PARAMS = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)


def _draw(seed=0):
    ch = sample_channel(PARAMS, seed)
    return ch, build_beamformer(ch, 0.6)


def _gains(ch, w):
    return abs(ch.h1 @ w) ** 2, abs(ch.h2 @ w) ** 2


def test_snr_decomposes():
    ch, w = _draw()
    br = snr_exact(PARAMS, ch, w, 0.4)
    assert br.gamma_total == pytest.approx(br.gamma_direct + br.gamma_relay,
                                           rel=1e-12)
    assert br.gamma_direct >= 0 and br.gamma_relay >= 0


def test_upper_bound_dominates():
    rng = np.random.default_rng(1)
    for k in range(30):
        ch = sample_channel(PARAMS, 1, k)
        w = build_beamformer(ch, rng.uniform())
        tau = rng.uniform(0.05, 0.95)
        br = snr_exact(PARAMS, ch, w, tau)
        assert br.gamma_total <= br.gamma_upper * (1 + 1e-12)


def test_relayed_term_below_either_hop():
    # xu*xr/(xu+xr+1) < min(xu, xr): the bound replaces the product form
    ch, w = _draw(2)
    br = snr_exact(PARAMS, ch, w, 0.3)
    assert br.gamma_relay <= br.gamma_upper - br.gamma_direct + 1e-12


def test_powers_scale_with_harvest_time():
    ch, w = _draw(3)
    pu1, pr1 = _powers(PARAMS, *_gains(ch, w), 0.2)
    pu2, pr2 = _powers(PARAMS, *_gains(ch, w), 0.4)
    # tau/(1-tau) grows from 0.25 to 2/3
    assert pu2 == pytest.approx(pu1 * (0.4 / 0.6) / (0.2 / 0.8), rel=1e-12)
    assert pr2 > pr1


def test_circuit_power_floor():
    ch, w = _draw(4)
    base = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
    drained = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0,
                           pc_dbm=60.0)
    pu0, pr0 = _powers(base, *_gains(ch, w), 0.5)
    pu1, pr1 = _powers(drained, *_gains(ch, w), 0.5)
    assert pu0 > 0 and pr0 > 0
    assert pu1 == 0.0 and pr1 == 0.0
    br = snr_exact(drained, ch, w, 0.5)
    assert br.gamma_total == 0.0


def test_snr_tracks_power_monotonically():
    ch, w = _draw(5)
    lo = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=20.0)
    hi = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=30.0)
    assert snr_exact(hi, ch, w, 0.5).gamma_total > \
        snr_exact(lo, ch, w, 0.5).gamma_total


def test_rejects_non_unit_beam():
    ch, w = _draw(6)
    for scale in (2.0, 0.5):
        with pytest.raises(ValueError):
            snr_exact(PARAMS, ch, scale * w, 0.5)


def test_rejects_bad_tau():
    ch, w = _draw(7)
    for tau in (0.0, 1.0):
        with pytest.raises(ValueError):
            snr_exact(PARAMS, ch, w, tau)


def test_throughput_values():
    assert throughput(3.0, 0.5) == pytest.approx(0.25 * math.log2(4.0))
    assert throughput(0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        throughput(-1.0, 0.5)
    with pytest.raises(ValueError):
        throughput(1.0, 1.0)


def test_thresholds_vanish_without_circuit_power():
    # exactly 0 for any gain, where need/(need + c g) would be 0/0 at g = 0
    g = np.array([0.0, 1e-300, 1.0, 1e300, np.inf])
    for relay in (True, False):
        assert np.array_equal(harvest_threshold(PARAMS, g, relay), np.zeros(5))
    assert np.array_equal(relay_threshold(PARAMS, g), np.zeros(5))
    assert harvest_threshold(PARAMS, 0.0) == 0.0


def test_thresholds_are_where_the_harvest_covers_the_circuit():
    ch, w = _draw(6)
    params = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0,
                          pc_dbm=-20.0)
    g1, g2 = _gains(ch, w)
    t_u = float(harvest_threshold(params, g1))
    t_r = float(relay_threshold(params, g2))
    for t, node in ((t_u, 0), (t_r, 1)):
        assert 0.0 < t < 1.0
        assert _powers(params, g1, g2, t * (1 - 1e-9))[node] == 0.0
        assert _powers(params, g1, g2, t * (1 + 1e-9))[node] > 0.0
    assert harvest_threshold(params, 0.0) == relay_threshold(params, 0.0) == 1.0
