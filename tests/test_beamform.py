import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wprelay.beamform import (STRATEGIES, BeamformerDesign, _lambert_tau, bound_min, solve,
                              solve_block, solve_suboptimal_xbar, upper_snr)
from wprelay.channel import (ChannelDecomposition, LinkStats, SystemParams, branch_constants,
                             build_beamformer, sample_channel)
from wprelay.montecarlo import check_cell
from wprelay.sysmodel import harvest_threshold, snr_exact, throughput
from wprelay.timesplit import optimal_tau

PARAMS = SystemParams(n_antennas=4, d1=20.0, d2=20.0, d3=2.0, ps_dbm=40.0)


def _dec(params, ch):
    """Coefficients of channel ch, as scalars."""
    return ChannelDecomposition.of(params, LinkStats.of(ch)[0])


def _synthetic_dec(a, b, c, cap_a, cap_c, cap_d):
    """Decomposition with arbitrary projection scalars and coefficients."""
    return ChannelDecomposition(a=a, b=b, c=c, a0=cap_a, c0=cap_c, d0=cap_d)


def test_suboptimal_beats_fine_grid():
    xs = np.linspace(0.0, 1.0, 50001)
    for k in range(300):
        ch = sample_channel(PARAMS, 0, k)
        dec = _dec(PARAMS, ch)
        x_opt, val, scenario, case = solve_suboptimal_xbar(dec)
        assert 0.0 <= x_opt <= 1.0
        assert case in (1, 2, 3)
        grid = float(np.max(bound_min(dec, xs)))
        assert val >= grid * (1 - 1e-9)
        assert val <= grid * (1 + 1e-4)  # grid resolution slack


def _unit_beams(rng, count, n):
    """count random unit beams in C^n, one per row."""
    w = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def test_upper_snr_is_the_bound_of_the_vector_snr():
    # at tau = 0.5 (k = 1) and without circuit power, snr_exact's gamma_d +
    # min(x_u, x_r) from the vectors is upper_snr of the beam's gains
    rng = np.random.default_rng(5)
    for trial in range(20):
        ch = sample_channel(PARAMS, 1, trial)
        dec = _dec(PARAMS, ch)
        for w in _unit_beams(rng, 10, PARAMS.n_antennas):
            snr = snr_exact(PARAMS, ch, w, 0.5)
            bound = float(upper_snr(dec, abs(ch.h1 @ w) ** 2, abs(ch.h2 @ w) ** 2))
            assert snr.gamma_upper == pytest.approx(bound, rel=1e-12, abs=0.0)
            assert bound >= snr.gamma_total


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_no_unit_beam_beats_the_two_direction_family(n):
    # exact certifies x_bar in [0, 1] only, which covers every beam because for
    # any unit w some x_bar gives both gains at least |h1^T w|^2 and |h2^T w|^2:
    # at the g1 of x = sqrt(g1)/a, the family's largest g2 over x_bar >= x is
    # b^2 + c^2 up to the peak x = b/sqrt(b^2 + c^2), and (b x + c sqrt(1 - x^2))^2
    # above it. Half the beams are random, half the family's beams perturbed.
    params, rng = replace(PARAMS, n_antennas=n), np.random.default_rng(n)
    worst = -np.inf
    for trial in range(20):
        ch = sample_channel(params, 3, trial)
        a = np.linalg.norm(ch.h1)
        inner = np.vdot(ch.h1, ch.h2)  # h1^H h2
        b, c = abs(inner) / a, np.linalg.norm(ch.h2 - ch.h1 * inner / (a * a))
        family = np.array([build_beamformer(ch, x) for x in rng.uniform(0.0, 1.0, 50)])
        near = np.repeat(family, 100, axis=0)
        near = near + 10.0 ** rng.uniform(-8.0, 0.0, (near.shape[0], 1)) * _unit_beams(
            rng, near.shape[0], n)
        w = np.concatenate([_unit_beams(rng, 5000, n),
                            near / np.linalg.norm(near, axis=1, keepdims=True)])
        g1, g2 = np.abs(w @ ch.h1) ** 2, np.abs(w @ ch.h2) ** 2
        x = np.minimum(np.sqrt(g1) / a, 1.0)
        top = np.where(x <= b / np.hypot(b, c), b * b + c * c,
                       np.square(b * x + c * np.sqrt(1.0 - x * x)))
        worst = max(worst, float(np.max(g2 - top)) / (b * b + c * c))
    assert worst <= 1e-12
    assert worst > -1e-6  # the perturbed beams reach the family's frontier


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


def _magnitude(decades):
    """10**u with u uniform in [-decades, decades]."""
    return st.floats(-decades, decades).map(lambda u: 10.0 ** u)


def _sometimes(value, strategy):
    """value in about one draw of six, else a draw of strategy."""
    return st.tuples(st.integers(0, 5), strategy).map(lambda d: value if d[0] == 0 else d[1])


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(a=_magnitude(3), b=_sometimes(0.0, _magnitude(3)), c=_sometimes(0.0, _magnitude(3)),
       a0=_sometimes("zero-slope", _magnitude(6)), c0=_magnitude(6), d0=_magnitude(6))
@example(a=0.02, b=0.0, c=5.0, a0=2e-6, c0=5e-6, d0=1e6)
def test_suboptimal_reaches_grid_maximum_over_extreme_decompositions(a, b, c, a0, c0, d0):
    if a0 == "zero-slope":  # as criterion 1 pins it, with b <= c so that A0 >= 0
        b, c = min(b, c), max(b, c)
        a0 = d0 * (c * c - b * b) / (a * a)
    dec = _synthetic_dec(a, b, c, a0, c0, d0)
    x_opt, val, _, _ = solve_suboptimal_xbar(dec)
    assert 0.0 <= x_opt <= 1.0
    assert math.isfinite(val)
    assert val >= (1 - 1e-9) * float(np.max(bound_min(dec, np.linspace(0.0, 1.0, 20001))))


def test_solve_suboptimal_time_split_consistent():
    ch = sample_channel(PARAMS, 2)
    design = solve("suboptimal", PARAMS, ch)
    assert 0.0 < design.tau < 1.0
    # the reported SNR equals the coefficient at k = 1 scaled by k = tau/(1-tau)
    _, kappa, _, _ = solve_suboptimal_xbar(_dec(PARAMS, ch))
    assert design.gamma_max == pytest.approx(kappa * design.tau / (1.0 - design.tau), rel=1e-9)


def test_exact_dominates_everything():
    for k in range(10):
        ch = sample_channel(PARAMS, 3, k)
        best = solve("exact", PARAMS, ch)
        t_best = throughput(snr_exact(PARAMS, ch, best.w, best.tau).gamma_total,
                            best.tau)
        for strategy in ("suboptimal", "large-n", "mrt-user"):
            d = solve(strategy, PARAMS, ch)
            t = throughput(snr_exact(PARAMS, ch, d.w, d.tau).gamma_total, d.tau)
            assert t <= t_best * (1 + 1e-9)


def test_exact_result_is_locally_optimal():
    ch = sample_channel(PARAMS, 4)
    d = solve("exact", PARAMS, ch)
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
        de = solve("exact", params, ch)
        dl = solve("large-n", params, ch)
        te_sum += throughput(snr_exact(params, ch, de.w, de.tau).gamma_total,
                             de.tau)
        tl_sum += throughput(snr_exact(params, ch, dl.w, dl.tau).gamma_total,
                             dl.tau)
    assert tl_sum >= 0.95 * te_sum


def test_mrt_user_beam_and_tau():
    ch = sample_channel(PARAMS, 6)
    fixed = solve("mrt-user", PARAMS, ch, tau=0.37)
    assert fixed.tau == 0.37
    assert fixed.x_bar == 1.0
    np.testing.assert_allclose(fixed.w, np.conj(ch.h1) / np.linalg.norm(ch.h1))
    free = solve("mrt-user", PARAMS, ch)
    t_free = throughput(snr_exact(PARAMS, ch, free.w, free.tau).gamma_total,
                        free.tau)
    t_fixed = throughput(snr_exact(PARAMS, ch, fixed.w, fixed.tau).gamma_total,
                         fixed.tau)
    assert t_free >= t_fixed * (1 - 1e-9)


@pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_fixed_tau_outside_the_open_unit_interval_is_rejected(tau):
    # every entry point that takes a fixed tau rejects it with one message
    ch = sample_channel(PARAMS, 1)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\)"):
        solve("mrt-user", PARAMS, ch, tau=tau)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\)"):
        solve_block("mrt-user", PARAMS, LinkStats.of(ch), tau=tau)
    for check in (lambda: branch_constants(PARAMS, tau), lambda: throughput(1.0, tau),
                  lambda: snr_exact(PARAMS, ch, np.conj(ch.h1) / np.linalg.norm(ch.h1), tau),
                  lambda: check_cell("mrt-user", "throughput", tau)):
        with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\)"):
            check()


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


def _shifted_rate(kappa, t_u, tau):
    """(1 - tau) ln(1 + kappa (k - k_u)), k = tau/(1 - tau), with k - k_u
    written as (tau - t_u)/((1 - tau)(1 - t_u)) to keep it accurate near t_u."""
    gain = np.maximum(tau - t_u, 0.0) / ((1.0 - tau) * (1.0 - t_u))
    return (1.0 - tau) * np.log1p(kappa * gain)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(log_kappa=st.floats(-3.0, 8.0), t_target=st.floats(0.0, 0.999))
@example(log_kappa=8.0, t_target=0.999)
@example(log_kappa=-3.0, t_target=0.0)
def test_shifted_closed_form_tau_beats_dense_grid(log_kappa, t_target):
    params = replace(PARAMS, pc_dbm=-20.0)
    dec = _dec(params, sample_channel(params, 0))
    need = params.pc_watt * params.d1 ** params.alpha
    kappa = np.array([10.0 ** log_kappa])
    with np.errstate(divide="ignore", over="ignore"):  # t_target near 0 takes g1 to inf
        g1 = np.divide(need * (1.0 - t_target), 2.0 * params.eta * params.ps_watt * t_target)
        g1 = np.array([g1])
        t_u = float(harvest_threshold(dec, g1)[0])
        tau = float(_lambert_tau(dec, kappa, g1)[0])
    assert t_u < tau < 1.0
    steps = np.concatenate([np.linspace(0.0, 1.0, 20_001)[:-1], np.logspace(-14, -1e-9, 20_001)])
    grid = t_u + (1.0 - t_u) * steps
    assert _shifted_rate(kappa, t_u, tau) >= (1.0 - 1e-9) * _shifted_rate(kappa, t_u, grid).max()
    # without a circuit power the shift is the identity, bit for bit
    assert _lambert_tau(_dec(PARAMS, sample_channel(PARAMS, 0)), kappa, g1)[0] == \
        optimal_tau(float(kappa[0]))
