import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wprelay.channel import (ChannelDecomposition, LinkStats, SystemParams, build_beamformer,
                             sample_channel)
from wprelay.sysmodel import (_hops, coefficient_snr, harvest_threshold, link_snr,
                              relay_threshold, snr_exact, throughput)

PARAMS = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)


def _draw(seed=0):
    ch = sample_channel(PARAMS, seed)
    return ch, build_beamformer(ch, 0.6)


def _gains(ch, w):
    return abs(ch.h1 @ w) ** 2, abs(ch.h2 @ w) ** 2


def _dec(params, ch):
    return ChannelDecomposition.of(params, LinkStats.of(ch))


# The watt-domain system model, written out independently of the package's
# coefficient form: the reference that link_snr and snr_exact must match.
def _ref_powers(params, g1, g2, tau, relay=True):
    """Average user and relay transmit powers in watts for beam gains g1, g2.

    Harvested energy eta*tau*Ps*g/d^alpha is spent uniformly over the
    transmit phase, (1-tau)/2 with the relay and (1-tau) without; a fixed
    circuit draw pc_watt is deducted and the result floored at zero.
    """
    scale = (2.0 if relay else 1.0) * params.eta * tau * params.ps_watt / (1.0 - tau)
    pu = scale * g1 / params.d1 ** params.alpha
    pr = scale * g2 / params.d2 ** params.alpha
    pc = params.pc_watt
    return np.maximum(0.0, pu - pc), np.maximum(0.0, pr - pc)


def _ref_hops(params, ch, g1, g2, tau, relay=True):
    """Direct-link SNR and the two hop SNRs of the relayed path."""
    pu, pr = _ref_powers(params, g1, g2, tau, relay)
    n0 = params.noise_watt
    gd = pu * float(np.vdot(ch.h1, ch.h1).real) / (params.d1 ** params.alpha * n0)
    xu = pu * abs(ch.h3) ** 2 / (params.d3 ** params.alpha * n0)
    xr = pr * float(np.vdot(ch.h2, ch.h2).real) / (params.d2 ** params.alpha * n0)
    return gd, xu, xr


def _ref_snr(params, ch, g1, g2, tau, relay=True):
    gd, xu, xr = _ref_hops(params, ch, g1, g2, tau, relay)
    return gd + xu * xr / (xu + xr + 1.0) if relay else gd


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
    pu1, pr1 = _ref_powers(PARAMS, *_gains(ch, w), 0.2)
    pu2, pr2 = _ref_powers(PARAMS, *_gains(ch, w), 0.4)
    # tau/(1-tau) grows from 0.25 to 2/3, and so do the powers and the direct SNR
    assert pu2 == pytest.approx(pu1 * (0.4 / 0.6) / (0.2 / 0.8), rel=1e-12)
    assert pr2 > pr1
    gd1, gd2 = (snr_exact(PARAMS, ch, w, t).gamma_direct for t in (0.2, 0.4))
    assert gd2 == pytest.approx(gd1 * (0.4 / 0.6) / (0.2 / 0.8), rel=1e-12)
    for tau in (0.2, 0.4):
        assert snr_exact(PARAMS, ch, w, tau).gamma_direct == pytest.approx(
            _ref_hops(PARAMS, ch, *_gains(ch, w), tau)[0], rel=1e-13)


def test_circuit_power_floor():
    ch, w = _draw(4)
    base = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
    drained = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0,
                           pc_dbm=60.0)
    pu0, pr0 = _ref_powers(base, *_gains(ch, w), 0.5)
    pu1, pr1 = _ref_powers(drained, *_gains(ch, w), 0.5)
    assert pu0 > 0 and pr0 > 0
    assert pu1 == 0.0 and pr1 == 0.0
    assert snr_exact(base, ch, w, 0.5).gamma_total == pytest.approx(
        _ref_snr(base, ch, *_gains(ch, w), 0.5), rel=1e-13)
    br = snr_exact(drained, ch, w, 0.5)
    assert br.gamma_total == br.gamma_direct == br.gamma_upper == 0.0


def test_snr_tracks_power_monotonically():
    ch, w = _draw(5)
    lo = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=20.0)
    hi = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=30.0)
    assert snr_exact(hi, ch, w, 0.5).gamma_total > \
        snr_exact(lo, ch, w, 0.5).gamma_total


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(a0=_decades(-8, 8), c0=_decades(-8, 8), d0=_decades(-8, 8), g1=_decades(-4, 4),
       g2=_decades(-4, 4), tau=st.floats(1e-12, 1.0 - 1e-12),
       needs=st.none() | st.tuples(_decades(-6, 6), _decades(-6, 6)), up=st.floats(0.0, 3.0))
def test_coefficient_snr_never_falls_as_a_gain_grows(a0, c0, d0, g1, g2, tau, needs, up):
    # exact's certificate bounds an x_bar interval at its largest gains, which
    # holds only if the SNR rises in g1 and in g2 at every tau, with or
    # without a circuit draw; a gain grows by 10**up, and by one ulp at least
    dec = ChannelDecomposition(1.0, 1.0, 1.0, a0, c0, d0, *(needs or (0.0, 0.0)))
    base = float(coefficient_snr(dec, g1, g2, tau))
    for h1, h2 in ((max(g1 * 10.0 ** up, np.nextafter(g1, np.inf)), g2),
                   (g1, max(g2 * 10.0 ** up, np.nextafter(g2, np.inf)))):
        assert float(coefficient_snr(dec, h1, h2, tau)) >= base - 4 * np.spacing(base)


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
    for gamma in (-1.0, math.nan):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            throughput(gamma, 0.5)
    with pytest.raises(ValueError):
        throughput(1.0, 1.0)


def test_thresholds_vanish_without_circuit_power():
    # exactly 0 for any gain, where need/(need + c g) would be 0/0 at g = 0
    g = np.array([0.0, 1e-300, 1.0, 1e300, np.inf])
    dec = _dec(PARAMS, _draw()[0])
    for relay in (True, False):
        assert np.array_equal(harvest_threshold(dec, g, relay), np.zeros(5))
    assert np.array_equal(relay_threshold(dec, g), np.zeros(5))
    assert harvest_threshold(dec, 0.0) == 0.0


def test_thresholds_are_where_the_harvest_covers_the_circuit():
    ch, w = _draw(6)
    params = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0,
                          pc_dbm=-20.0)
    g1, g2 = _gains(ch, w)
    dec = _dec(params, ch)
    t_u = float(harvest_threshold(dec, g1))
    t_r = float(relay_threshold(dec, g2))
    for t, node in ((t_u, 0), (t_r, 1)):
        assert 0.0 < t < 1.0
        assert _ref_powers(params, g1, g2, t * (1 - 1e-9))[node] == 0.0
        assert _ref_powers(params, g1, g2, t * (1 + 1e-9))[node] > 0.0
    assert harvest_threshold(dec, 0.0) == relay_threshold(dec, 0.0) == 1.0


_ULPS = 4  # how far around a threshold the two forms may floor differently


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(n=st.integers(1, 12), ps=st.floats(-10.0, 50.0),
       pc=st.none() | st.floats(-40.0, -20.0), seed=st.integers(0, 2 ** 32),
       x_bar=st.floats(0.0, 1.0), relay=st.booleans(),
       at=st.sampled_from([None, "user", "relay"]), ulps=st.integers(-_ULPS, _ULPS),
       u=st.floats(1e-12, 1.0 - 1e-12))
def test_coefficient_form_matches_the_watt_domain_reference(n, ps, pc, seed, x_bar, relay,
                                                            at, ulps, u):
    # tau is drawn from [1e-12, 1 - 1e-12] or lies a few ulps from a harvest
    # threshold. Both forms round the harvest before the circuit draw comes
    # off, so the SNRs agree within 1e-13 of the SNR before that deduction
    # (relative wherever there is no circuit power), and each floor switches
    # on at the same tau up to _ULPS ulps.
    params = replace(PARAMS, n_antennas=n, ps_dbm=ps, pc_dbm=pc)
    ch = sample_channel(params, seed)
    w = build_beamformer(ch, x_bar)
    g1, g2 = _gains(ch, w)
    dec = _dec(params, ch)
    t_u, t_r = float(harvest_threshold(dec, g1, relay)), float(relay_threshold(dec, g2))
    tau = u if at is None or pc is None else {"user": t_u, "relay": t_r}[at]
    tau = float(np.clip(tau + ulps * np.spacing(tau), np.nextafter(0.0, 1.0),
                        np.nextafter(1.0, 0.0)))
    got = float(link_snr(params, LinkStats.of(ch), g1, g2, tau, relay)[0])
    ref = _ref_snr(params, ch, g1, g2, tau, relay)
    gross = _ref_snr(replace(params, pc_dbm=None), ch, g1, g2, tau, relay)
    assert abs(got - ref) <= 1e-13 * gross
    if relay:
        assert abs(snr_exact(params, ch, w, tau).gamma_total - ref) <= 1e-13 * gross
    gd, _, xr = _hops(dec, np.array([g1]), np.array([g2]), tau, relay)
    ref_gd, _, ref_xr = _ref_hops(params, ch, g1, g2, tau, relay)
    for t, mine, theirs in ((t_u, gd, ref_gd), (t_r, xr, ref_xr))[:1 + relay]:
        if (float(mine[0]) > 0.0) != (theirs > 0.0):
            assert abs(tau - t) <= _ULPS * np.spacing(t), (t, tau)
