"""Block solvers against oracles that evaluate raw beam vectors.

Each test solves 32 channels at once (31 random, one collinear with a
vanishing perpendicular component) and checks every trial against a grid
search over beams from build_beamformer, scored by snr_exact, or against
the single-channel solver.
"""
import math

import numpy as np
import pytest

from wprelay.beamform import (STRATEGIES, bound_min, solve, solve_block,
                              solve_suboptimal)
from wprelay.channel import (ChannelState, LinkStats, SystemParams,
                             build_beamformer, decompose, sample_channel_block)
from wprelay.montecarlo import _block_values
from wprelay.sysmodel import link_snr, snr_exact, throughput

N_CHANNELS = 32


def _params(n):
    return SystemParams(n_antennas=n, d1=20.0, d2=20.0, d3=2.0, ps_dbm=35.0)


def _channels(n):
    """31 sampled channels plus h2 = 2 h1 along one axis, where c = 0 exactly."""
    h1, h2, h3 = sample_channel_block(_params(n), 99, 0, N_CHANNELS - 1)
    e1 = np.zeros((1, n), complex)
    e1[0, 0] = 1.0
    h1 = np.vstack([h1, e1])
    h2 = np.vstack([h2, 2.0 * e1])
    h3 = np.append(h3, 0.5 + 0.5j)
    link = LinkStats.from_block(h1, h2, h3)
    assert link.c[-1] == 0.0 and link.ok.all()
    chans = [ChannelState(h1=h1[i], h2=h2[i], h3=complex(h3[i])) for i in range(h1.shape[0])]
    return link, chans, (h1, h2, h3)


def _rate(params, ch, x, tau):
    w = build_beamformer(ch, x)
    return throughput(snr_exact(params, ch, w, tau).gamma_total, tau)


def _refine_max(f, lo, hi, points, levels):
    """Maximum of f over nested grids, each spanning two steps around the last best."""
    best = lo
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        vals = [f(g) for g in grid]
        i = int(np.argmax(vals))
        best, step = grid[i], grid[1] - grid[0]
        lo, hi = max(lo, best - 2 * step), min(hi, best + 2 * step)
    return best, max(vals)


@pytest.fixture(params=[1, 2, 10], ids=lambda n: f"N={n}")
def setup(request):
    n = request.param
    return (_params(n),) + _channels(n)


def test_exact_reaches_dense_grid_maximum(setup):
    params, link, chans, _ = setup
    d = solve_block("exact", params, link)
    gamma = link_snr(params, link, d.g1, d.g2, d.tau)
    for i, ch in enumerate(chans):
        got = _rate(params, ch, d.x_bar[i], d.tau[i])
        assert throughput(gamma[i], d.tau[i]) == pytest.approx(got, rel=1e-12)
        xs = np.linspace(0.0, 1.0, 26)
        taus = np.linspace(1e-3, 1.0 - 1e-3, 26)
        vals = np.array([[_rate(params, ch, x, t) for x in xs] for t in taus])
        j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        dx, dt = xs[1], taus[1] - taus[0]  # one coarse step either side
        fx = np.linspace(max(0.0, xs[k] - dx), min(1.0, xs[k] + dx), 21)
        ft = np.linspace(max(1e-3, taus[j] - dt), min(1.0 - 1e-3, taus[j] + dt), 21)
        fine = max(_rate(params, ch, x, t) for x in fx for t in ft)
        assert got >= (1.0 - 1e-9) * max(fine, float(vals.max()))


def test_suboptimal_matches_bound_grid(setup):
    params, link, chans, _ = setup
    d = solve_block("suboptimal", params, link)
    xs = np.linspace(0.0, 1.0, 50_001)
    s = np.sqrt(1.0 - xs ** 2)
    for i, ch in enumerate(chans):
        dec = decompose(params, ch, 0.5)
        u_par, u_perp = build_beamformer(ch, 1.0), build_beamformer(ch, 0.0)
        if np.allclose(u_par, u_perp):
            beams = u_par[None, :]  # collinear: the only beam direction
        else:
            beams = xs[:, None] * u_par + s[:, None] * u_perp
        g1, g2 = np.abs(beams @ ch.h1) ** 2, np.abs(beams @ ch.h2) ** 2
        grid = float(np.max(dec.a0 * g1 + np.minimum(dec.c0 * g1, dec.d0 * g2)))
        kappa = d.gamma_bound[i] * (1.0 - d.tau[i]) / d.tau[i]
        assert kappa >= grid * (1 - 1e-9)
        assert kappa <= grid * (1 + 1e-4)
        # the bound at the chosen beam, scored on the raw vector
        w = build_beamformer(ch, d.x_bar[i])
        up = snr_exact(params, ch, w, 0.5).gamma_upper
        assert up == pytest.approx(float(bound_min(dec, d.x_bar[i])), rel=1e-9)


def test_time_split_of_fixed_beams_matches_dense_grid(setup):
    params, link, chans, (h1, h2, h3) = setup
    mrt = solve_block("mrt-user", params, link)
    direct, _ = _block_values(params, "no-relay", None, "tau", h1, h2, h3)
    d1a = params.d1 ** params.alpha
    for i, ch in enumerate(chans):
        w = np.conj(ch.h1) / np.linalg.norm(ch.h1)
        best, _ = _refine_max(
            lambda t: throughput(snr_exact(params, ch, w, t).gamma_total, t),
            1e-6, 1.0 - 1e-6, 101, 6)
        assert abs(mrt.tau[i] - best) <= 1e-7
        y = float(np.vdot(ch.h1, ch.h1).real)

        def direct_rate(t):
            pu = max(0.0, params.eta * t * params.ps_watt * y / ((1.0 - t) * d1a)
                     - params.pc_watt)
            return (1.0 - t) * math.log2(1.0 + pu * y / (d1a * params.noise_watt))

        best, _ = _refine_max(direct_rate, 1e-6, 1.0 - 1e-6, 101, 6)
        assert abs(direct[i] - best) <= 1e-7


def test_block_matches_single_channel_solves(setup):
    params, link, chans, _ = setup
    for strategy in STRATEGIES:
        d = solve_block(strategy, params, link)
        for i, ch in enumerate(chans):
            one = solve(strategy, params, ch)
            assert (one.x_bar, one.tau) == (d.x_bar[i], d.tau[i]), (strategy, i)
    d = solve_block("suboptimal", params, link)
    for i, ch in enumerate(chans):
        one = solve_suboptimal(params, ch)
        assert one.case_index == d.case_index[i]
        assert one.scenario == d.scenario[i]


@pytest.mark.parametrize("n", [2, 10])
def test_tiny_perpendicular_component_matches_build_beamformer(n):
    # h2 = 2 h1 plus a perpendicular part of 5e-8 and 5e-14 times ||h2||:
    # the first must keep its direction, the second must vanish, in
    # LinkStats and in build_beamformer alike
    params = _params(n)
    e = np.eye(n, dtype=complex)
    for eps, mixed in [(1e-7, True), (1e-13, False)]:
        ch = ChannelState(h1=e[0], h2=2.0 * e[0] + eps * e[1], h3=0.5 + 0.5j)
        link = LinkStats.of(ch)
        assert (link.c[0] > 0.0) == mixed
        assert (not np.allclose(build_beamformer(ch, 0.0), build_beamformer(ch, 1.0))) == mixed
        d = solve_block("exact", params, link)
        gamma = link_snr(params, link, d.g1, d.g2, d.tau)
        got = _rate(params, ch, d.x_bar[0], d.tau[0])
        assert throughput(gamma[0], d.tau[0]) == pytest.approx(got, rel=1e-9)


def test_fixed_tau_only_for_mrt_user(setup):
    params, link, chans, _ = setup
    assert np.all(solve_block("mrt-user", params, link, tau=0.3).tau == 0.3)
    for strategy in ("exact", "suboptimal", "large-n"):
        with pytest.raises(ValueError, match="tau"):
            solve_block(strategy, params, link, tau=0.3)
        with pytest.raises(ValueError, match="tau"):
            solve(strategy, params, chans[0], tau=0.3)
