import math

import numpy as np
import pytest

from wprelay.beamform import (STRATEGIES, BeamformerDesign, bound_min,
                              branch_relay_hop, branch_user_hop, solve,
                              solve_exact, solve_large_n, solve_mrt_user,
                              solve_suboptimal, solve_suboptimal_xbar)
from wprelay.channel import (ChannelDecomposition, SystemParams,
                             sample_channel, decompose)
from wprelay.sysmodel import snr_exact, throughput

PARAMS = SystemParams(n_antennas=4, d1=20.0, d2=20.0, d3=2.0, ps_dbm=40.0)


def _synthetic_dec(a, b, c, cap_a, cap_c, cap_d):
    """Decomposition with arbitrary projection scalars and coefficients."""
    return ChannelDecomposition(a=a, b=b, c=c, a0=cap_a, c0=cap_c, d0=cap_d)


def test_suboptimal_beats_fine_grid():
    xs = np.linspace(0.0, 1.0, 50001)
    for k in range(300):
        ch = sample_channel(PARAMS, 0, k)
        dec = decompose(PARAMS, ch, 0.5)
        x_opt, val, scenario, case = solve_suboptimal_xbar(dec)
        assert 0.0 <= x_opt <= 1.0
        assert case in (1, 2, 3)
        grid = float(np.max(bound_min(dec, xs)))
        assert val >= grid * (1 - 1e-9)
        assert val <= grid * (1 + 1e-4)  # grid resolution slack


def test_suboptimal_value_is_min_of_branches():
    ch = sample_channel(PARAMS, 1)
    dec = decompose(PARAMS, ch, 0.5)
    x_opt, val, _, _ = solve_suboptimal_xbar(dec)
    assert val == pytest.approx(min(float(branch_user_hop(dec, x_opt)),
                                    float(branch_relay_hop(dec, x_opt))),
                                rel=1e-12)


def test_suboptimal_zero_slope_scenario():
    # pick c > b and cap_a so the mixed-branch slope vanishes exactly
    b, c, cap_d = 0.7, 1.3, 2.0
    a = 1.1
    cap_a = cap_d * (c * c - b * b) / (a * a)
    dec = _synthetic_dec(a, b, c, cap_a, 0.9, cap_d)
    x_opt, val, scenario, _ = solve_suboptimal_xbar(dec)
    assert scenario == "mixed-slope-zero"
    xs = np.linspace(0.0, 1.0, 200001)
    assert val >= float(np.max(bound_min(dec, xs))) * (1 - 1e-9)


def test_suboptimal_collinear_channels_point_at_user():
    dec = _synthetic_dec(1.0, 1.5, 0.0, 1.0, 0.5, 0.8)
    x_opt, _, _, _ = solve_suboptimal_xbar(dec)
    assert x_opt == 1.0


def test_suboptimal_orthogonal_channels():
    # b = 0 kills the mixed slope; optimum is the crossing or an edge
    for cap_a, cap_d in [(5.0, 0.1), (0.1, 5.0)]:
        dec = _synthetic_dec(1.0, 0.0, 1.2, cap_a, 0.7, cap_d)
        x_opt, val, _, _ = solve_suboptimal_xbar(dec)
        xs = np.linspace(0.0, 1.0, 200001)
        assert val >= float(np.max(bound_min(dec, xs))) * (1 - 1e-9)


def test_solve_suboptimal_time_split_consistent():
    ch = sample_channel(PARAMS, 2)
    design = solve_suboptimal(PARAMS, ch)
    assert 0.0 < design.tau < 1.0
    # the reported SNR equals the tau-free coefficient scaled by tau/(1-tau)
    dec = decompose(PARAMS, ch, design.tau)
    _, val_at_tau, _, _ = solve_suboptimal_xbar(dec)
    assert design.gamma_max == pytest.approx(val_at_tau, rel=1e-9)


def test_exact_dominates_everything():
    for k in range(10):
        ch = sample_channel(PARAMS, 3, k)
        best = solve_exact(PARAMS, ch)
        t_best = throughput(snr_exact(PARAMS, ch, best.w, best.tau).gamma_total,
                            best.tau)
        for strategy in ("suboptimal", "large-n", "mrt-user"):
            d = solve(strategy, PARAMS, ch)
            t = throughput(snr_exact(PARAMS, ch, d.w, d.tau).gamma_total, d.tau)
            assert t <= t_best * (1 + 1e-9)


def test_exact_result_is_locally_optimal():
    ch = sample_channel(PARAMS, 4)
    d = solve_exact(PARAMS, ch)
    base = throughput(snr_exact(PARAMS, ch, d.w, d.tau).gamma_total, d.tau)
    from wprelay.channel import build_beamformer
    for dx in (-1e-3, 1e-3):
        x = min(1.0, max(0.0, d.x_bar + dx))
        w = build_beamformer(ch, x)
        assert throughput(snr_exact(PARAMS, ch, w, d.tau).gamma_total,
                          d.tau) <= base * (1 + 1e-9)
    for dt in (-1e-3, 1e-3):
        tau = min(1 - 1e-6, max(1e-6, d.tau + dt))
        assert throughput(snr_exact(PARAMS, ch, d.w, tau).gamma_total,
                          tau) <= base * (1 + 1e-9)


def test_large_n_approaches_exact():
    params = SystemParams(n_antennas=48, d1=20.0, d2=20.0, d3=2.0, ps_dbm=40.0)
    te_sum = tl_sum = 0.0
    for k in range(40):
        ch = sample_channel(params, 5, k)
        de = solve_exact(params, ch)
        dl = solve_large_n(params, ch)
        te_sum += throughput(snr_exact(params, ch, de.w, de.tau).gamma_total,
                             de.tau)
        tl_sum += throughput(snr_exact(params, ch, dl.w, dl.tau).gamma_total,
                             dl.tau)
    assert tl_sum >= 0.95 * te_sum


def test_mrt_user_beam_and_tau():
    ch = sample_channel(PARAMS, 6)
    fixed = solve_mrt_user(PARAMS, ch, tau=0.37)
    assert fixed.tau == 0.37
    assert fixed.x_bar == 1.0
    np.testing.assert_allclose(fixed.w, np.conj(ch.h1) / np.linalg.norm(ch.h1))
    free = solve_mrt_user(PARAMS, ch)
    t_free = throughput(snr_exact(PARAMS, ch, free.w, free.tau).gamma_total,
                        free.tau)
    t_fixed = throughput(snr_exact(PARAMS, ch, fixed.w, fixed.tau).gamma_total,
                         fixed.tau)
    assert t_free >= t_fixed * (1 - 1e-9)


def test_solve_dispatch():
    ch = sample_channel(PARAMS, 7)
    for strategy in STRATEGIES:
        d = solve(strategy, PARAMS, ch)
        assert isinstance(d, BeamformerDesign)
        assert d.strategy == strategy
        assert 0.0 <= d.x_bar <= 1.0 and 0.0 < d.tau < 1.0
        assert np.linalg.norm(d.w) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        solve("zero-forcing", PARAMS, ch)
