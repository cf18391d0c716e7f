"""Block solvers against oracles that evaluate raw beam vectors.

Each test solves 32 channels at once (31 random, one collinear with a
vanishing perpendicular component) and checks every trial against a grid
search over beams from build_beamformer, scored by snr_exact, or against
the single-channel solver.
"""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wprelay import beamform
from wprelay.beamform import (SCENARIOS, STRATEGIES, beam_gains, bound_min, direct_tau, solve,
                              solve_block, tau_profile)
from wprelay.channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams,
                             build_beamformer, sample_channel_block, sample_link_block)
from wprelay.cli import default_params
from wprelay.sysmodel import (coefficient_snr, harvest_threshold, link_snr, link_throughput,
                              relay_threshold, snr_exact, throughput)
from wprelay.timesplit import _BELOW_ONE

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


def _oracle_id(case):
    n, ps, pc = case
    return f"N={n}" if pc is None else f"N={n}-ps={ps:g}-pc={pc:g}"


@pytest.fixture(params=[(1, 35.0, None), (2, 35.0, None), (10, 35.0, None),
                        (1, 0.0, -20.0), (2, 0.0, -30.0), (10, 20.0, -20.0)],
                ids=_oracle_id)
def oracle_setup(request):
    """setup plus circuit-power cases, for the oracles of the exact rate.

    The suboptimal oracle stays on setup: it compares the bound with the
    circuit power deducted against bound_min, which has none.
    """
    n, ps, pc = request.param
    return (replace(_params(n), ps_dbm=ps, pc_dbm=pc),) + _channels(n)


def test_exact_reaches_dense_grid_maximum(oracle_setup):
    params, link, chans, _ = oracle_setup
    d = solve_block("exact", params, link)
    gamma = link_snr(params, link, d.g1, d.g2, d.tau)
    assert np.all(d.x_bar[link.c == 0.0] == 1.0)  # collinear: the only beam
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


def test_exact_ties_go_to_the_larger_x_bar():
    # at pc 140 dBm the user's harvest threshold rounds to tau = 1, so the
    # rate is 0 at every (x_bar, tau), every beam ties and x_bar stays at 1
    params = replace(_params(2), ps_dbm=0.0, pc_dbm=140.0)
    link, _, _ = _channels(2)
    d = solve_block("exact", params, link)
    assert not np.any(link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau))
    assert np.all(d.x_bar == 1.0)


@pytest.mark.parametrize("pc", [20.0, 30.0, 40.0])
def test_exact_reaches_a_harvest_threshold_near_one(pc):
    # at 0 dBm these circuit draws put the user's threshold within 1e-4 of
    # tau = 1, yet every trial has a positive rate above it
    params = replace(_params(2), ps_dbm=0.0, pc_dbm=pc)
    link, _, _ = _channels(2)
    rates = {}
    for strategy in ("exact", "suboptimal", "mrt-user"):
        d = solve_block(strategy, params, link)
        rates[strategy] = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    assert np.all(rates["suboptimal"] > 0.0)
    for strategy in ("suboptimal", "mrt-user"):
        assert np.all(rates["exact"] >= (1.0 - 1e-9) * rates[strategy]), strategy


def _drawn_block(n, ps, pc, seed):
    """Four trials of seed at N = n antennas, ps and pc dBm, in setup's geometry."""
    params = replace(_params(n), ps_dbm=ps, pc_dbm=pc)
    return params, LinkStats.from_block(*sample_channel_block(params, seed, 0, 4))


_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
_DRAWS = dict(n=st.integers(1, 12), ps=st.floats(-10.0, 50.0),
              pc=st.none() | st.floats(-40.0, -20.0), seed=st.integers(0, 2 ** 32))


def _rates(params, link, x, taus):
    """Rate of each trial of link (axis 0) at beams x and harvest fractions taus."""
    g1, g2 = beam_gains(link.a[:, None, None], link.b[:, None, None], link.c[:, None, None], x)
    return link_throughput(link_snr(params, link[:, None, None], g1, g2, taus), taus)


def _refined_max(params, link, x, taus, levels=2, points=101):
    """Largest rate of each trial on nested grids of points x points, each
    spanning one step of the last grid either side of its best cell, from
    the grid x by taus."""
    m = len(link)
    x, taus = np.broadcast_to(x, (m, 1, x.size)), np.broadcast_to(taus, (m, taus.size, 1))
    top = np.full(m, -np.inf)
    for _ in range(levels):
        rates = _rates(params, link, x, taus)
        best = np.argmax(rates.reshape(m, -1), axis=1)
        i, j = np.unravel_index(best, rates.shape[1:])
        top = np.fmax(top, rates.reshape(m, -1)[np.arange(m), best])
        rows = np.arange(m)
        dx, dt = x[:, 0, 1] - x[:, 0, 0], taus[:, 1, 0] - taus[:, 0, 0]
        offsets = np.linspace(-1.0, 1.0, points)
        x = np.clip(x[rows, 0, j][:, None] + dx[:, None] * offsets, 0.0, 1.0)[:, None, :]
        taus = np.clip(taus[rows, i, 0][:, None] + dt[:, None] * offsets,
                       1e-12, 1.0 - 1e-12)[:, :, None]
    return np.fmax(top, _rates(params, link, x, taus).reshape(m, -1).max(axis=1))


@_SETTINGS
@given(**_DRAWS)
def test_exact_rate_bound_certifies_the_rate(n, ps, pc, seed):
    params, link = _drawn_block(n, ps, pc, seed)
    d = solve_block("exact", params, link)
    rate = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    assert np.all(rate <= d.rate_bound)
    assert np.all(d.rate_bound <= rate * (1.0 + 1e-3))
    x = np.linspace(0.0, 1.0, 41)
    taus = np.linspace(0.0, 1.0, 43)[1:-1, None, None]
    g1, g2 = beam_gains(link.a[:, None], link.b[:, None], link.c[:, None], x)
    grid = link_throughput(link_snr(params, link[:, None], g1, g2, taus), taus)
    assert np.all(grid.max(axis=(0, 2)) <= d.rate_bound)
    # two refinements around each trial's best cell come within rounding of
    # the true maximum, which the bound may undercut by rounding only: 1e-14
    assert np.all(_refined_max(params, link, x, taus[:, 0]) <= d.rate_bound * (1.0 + 1e-14))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(**_DRAWS, d=st.tuples(*[st.floats(2.0, 30.0)] * 3))
def test_rate_has_one_hump_above_both_thresholds(n, ps, pc, seed, d):
    # tau_profile's Newton search and exact's interval bounds rest on this
    # observed property: above both harvest thresholds, the rate of fixed
    # beam gains has a single local maximum in tau. It is not a theorem, as
    # gamma is not concave in k. 32 lanes with random beams per draw.
    params = SystemParams(n_antennas=n, d1=d[0], d2=d[1], d3=d[2], ps_dbm=ps, pc_dbm=pc)
    link = LinkStats.from_block(*sample_channel_block(params, seed, 0, 32))
    x = np.random.default_rng(seed).uniform(0.0, 1.0, 32)
    g1, g2 = beam_gains(link.a, link.b, link.c, x)
    dec = ChannelDecomposition.of(params, link)
    t0 = np.maximum(harvest_threshold(dec, g1), relay_threshold(dec, g2))[:, None]
    taus = np.minimum(t0 + (1.0 - t0) * np.arange(1, 4001) / 4001, _BELOW_ONE)
    rate = link_throughput(link_snr(params, link[:, None], g1[:, None], g2[:, None], taus), taus)
    step = np.diff(rate, axis=1)
    step[np.abs(step) <= 1e-13 * rate.max(axis=1, keepdims=True)] = 0.0  # rounding ties
    for i, lane in enumerate(np.sign(step)):
        moves = lane[lane != 0.0]
        assert np.count_nonzero((moves[:-1] > 0.0) & (moves[1:] < 0.0)) <= 1, i
    assert np.all(tau_profile(dec, g1, g2)[1] >= (1.0 - 1e-12) * rate.max(axis=1))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(**_DRAWS)
def test_closed_form_bound_holds_at_every_tau(n, ps, pc, seed):
    # exact prunes an interval by this bound without a profile, so it must
    # hold at every tau: against the profile and a tau grid, 32 random beams
    params, link = _drawn_block(n, ps, pc, seed)
    dec = ChannelDecomposition.of(params, link)[np.repeat(np.arange(4), 8)]
    g1, g2 = beam_gains(dec.a, dec.b, dec.c, np.random.default_rng(seed).uniform(0.0, 1.0, 32))
    bound, tau = beamform._lambert_bound(dec, g1, g2)
    taus = np.linspace(0.0, 1.0, 4001)[1:-1, None]
    grid = link_throughput(coefficient_snr(dec, g1, g2, taus), taus).max(axis=0)
    assert np.all(np.fmax(grid, tau_profile(dec, g1, g2)[1]) <= bound * (1.0 + 1e-14))
    assert np.all(link_throughput(coefficient_snr(dec, g1, g2, tau), tau) <= bound)


@_SETTINGS
@given(**_DRAWS)
def test_exact_dominates_every_design(n, ps, pc, seed):
    params, link = _drawn_block(n, ps, pc, seed)
    rates = {}
    for strategy in STRATEGIES:
        d = solve_block(strategy, params, link)
        rates[strategy] = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    assert np.all(rates["exact"] >= rates["suboptimal"] - 1e-12)
    for strategy in ("large-n", "mrt-user"):
        assert np.all(rates["exact"] >= (1.0 - 1e-9) * rates[strategy]), strategy


def test_suboptimal_matches_bound_grid(setup):
    params, link, chans, _ = setup
    d = solve_block("suboptimal", params, link)
    xs = np.linspace(0.0, 1.0, 50_001)
    s = np.sqrt(1.0 - xs ** 2)
    for i, ch in enumerate(chans):
        dec = ChannelDecomposition.of(params, link)[i]
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


def test_time_split_of_fixed_beams_matches_dense_grid(oracle_setup):
    params, link, chans, _ = oracle_setup
    mrt = solve_block("mrt-user", params, link)
    direct = direct_tau(ChannelDecomposition.of(params, link), link)
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


def test_closed_form_designs_rate_above_zero_and_at_most_exact(oracle_setup):
    # the closed-form tau starts at the user's harvest threshold, so a
    # circuit power no longer floors every trial's rate at 0
    params, link, _, _ = oracle_setup
    d = solve_block("exact", params, link)
    exact = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    for strategy in ("suboptimal", "large-n"):
        d = solve_block(strategy, params, link)
        rate = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
        assert np.all(rate > 0.0), strategy
        assert np.all(rate <= exact * (1.0 + 1e-9)), strategy


def _fig4_block(n, seed, start, stop):
    """Trials [start, stop) of seed at 0 dBm with a -20 dBm circuit draw."""
    params = replace(_params(n), ps_dbm=0.0, pc_dbm=-20.0)
    return params, LinkStats.from_block(*sample_channel_block(params, seed, start, stop))


def test_mrt_user_tau_finds_the_hump_below_the_relay_threshold():
    # below the relay's harvest threshold only the direct link carries
    # data; here its hump is the higher one, 1.2 % above the search's
    params, link = _fig4_block(4, 5, 90, 91)
    d = solve_block("mrt-user", params, link)
    taus = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    scan = link_throughput(link_snr(params, link, d.g1, d.g2, taus), taus)
    got = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    assert got[0] >= (1.0 - 1e-9) * scan.max()


def test_exact_tau_axis_starts_at_the_user_threshold():
    # at x_bar = 1 these trials rate above 0 only above the user's threshold
    # (tau > 0.994 on trial 29) and peak within 1e-4 of it, so a tau search
    # that does not start at that threshold misses mrt-user's peak
    params, link = _fig4_block(2, 11, 0, 64)
    rates = {}
    for strategy in ("exact", "mrt-user"):
        d = solve_block(strategy, params, link)
        rates[strategy] = link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
    assert np.all(rates["exact"][[29, 49]] >= rates["mrt-user"][[29, 49]])


def test_block_matches_single_channel_solves(setup):
    # solve's beam vector is a unit beam with the gains of the block design
    params, link, chans, _ = setup
    for strategy in STRATEGIES:
        d = solve_block(strategy, params, link)
        for i, ch in enumerate(chans):
            one = solve(strategy, params, ch)
            assert (one.x_bar, one.tau) == (d.x_bar[i], d.tau[i]), (strategy, i)
            assert np.linalg.norm(one.w) == pytest.approx(1.0, rel=1e-12), (strategy, i)
            assert abs(ch.h1 @ one.w) ** 2 == pytest.approx(d.g1[i], rel=1e-12), (strategy, i)
            assert abs(ch.h2 @ one.w) ** 2 == pytest.approx(d.g2[i], rel=1e-12), (strategy, i)
            if strategy == "suboptimal":
                want = (d.case_index[i], SCENARIOS[d.scenario[i]])
                assert (one.case_index, one.scenario) == want


def _assert_rows_solve_alone(params, link, rows):
    """Every field of each strategy's block design, at each of rows, has the
    bytes of solve_block on that trial alone."""
    for strategy in STRATEGIES:
        d = solve_block(strategy, params, link)
        for i in rows:
            one = solve_block(strategy, params, link[i:i + 1])
            for f in fields(d):
                got, alone = getattr(d, f.name), getattr(one, f.name)
                assert (got is None) == (alone is None), (strategy, i, f.name)
                if got is not None:
                    got = np.ascontiguousarray(got[i:i + 1])
                    assert got.dtype == alone.dtype, (strategy, i, f.name)
                    assert got.tobytes() == np.ascontiguousarray(alone).tobytes(), \
                        (strategy, i, f.name)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(**_DRAWS, start=st.integers(0, 10 ** 6), size=st.integers(2, 8))
def test_block_design_equals_each_trial_solved_alone(n, ps, pc, seed, start, size):
    params = replace(_params(n), ps_dbm=ps, pc_dbm=pc)
    link = LinkStats.from_block(*sample_channel_block(params, seed, start, start + size))
    _assert_rows_solve_alone(params, link, range(size))


def test_block_design_across_groups_equals_trials_solved_alone():
    # 300 trials span two of exact's _GROUP = 256 passes, rows 255 and 256
    # sit on either side of the split, and the first pass sends up to
    # 16 384 lanes through tau_profile, whose Newton lanes stop one by one
    params, link = _fig4_block(6, 3, 0, 300)
    _assert_rows_solve_alone(params, link, [0, 255, 256, 299])


_BENCH_SEED = 3894801160  # the mc-optimized stream of perfbench/ at its seed 1


def _bench_block(n, ps, seed=_BENCH_SEED):
    """The four trials of one of the benchmark's exact cells: fig4's geometry."""
    params = replace(default_params(), d1=20.0, d2=20.0, d3=2.0, n_antennas=n, ps_dbm=ps)
    return params, sample_link_block(params.n_antennas, seed, 0, 4)


@pytest.mark.parametrize("seed", [0, _BENCH_SEED])
@pytest.mark.parametrize("ps", [20.0, 35.0, 50.0])
@pytest.mark.parametrize("n", [2, 10])
def test_exact_on_the_benchmark_cells(n, ps, seed):
    params, link = _bench_block(n, ps, seed)
    designs = {s: solve_block(s, params, link) for s in ("exact", "suboptimal")}
    rates = {s: link_throughput(link_snr(params, link, d.g1, d.g2, d.tau), d.tau)
             for s, d in designs.items()}
    assert np.all(rates["exact"] >= rates["suboptimal"] - 1e-12)
    assert np.all(rates["exact"] <= designs["exact"].rate_bound)
    assert np.all(designs["exact"].rate_bound <= rates["exact"] * (1.0 + 1e-3))
    _assert_rows_solve_alone(params, link, range(4))


def _literal_block(**hex_fields) -> LinkStats:
    """A LinkStats block whose float fields are given as float.hex strings."""
    values = {name: np.array([float.fromhex(x) for x in v]) for name, v in hex_fields.items()}
    return LinkStats(**values, ok=values["n1_sq"] > 0.0)


def test_exact_profile_call_budget(monkeypatch):
    # on a block this small each tau_profile call costs more than its lanes'
    # arithmetic, so the count of calls is the cost: here the closed-form
    # bounds certify every interval and _refine stops after two profiles.
    # The block is the first four trials of the benchmark's N = 10, 35 dBm
    # exact cell as the 0.3.0 stream drew them; the 0.4.0 stream's trials
    # there take three calls.
    link = _literal_block(
        n1_sq=["0x1.6fa68d602fb11p+3", "0x1.087a613c65c64p+3", "0x1.24bf5ace05773p+3",
               "0x1.45e87ba7e8c36p+3"],
        phase=["0x1.874400d517842p-1", "-0x1.6749ea7e12f46p+1", "-0x1.0b3748dd5e282p+0",
               "0x1.38a4697d278e2p-1"],
        n2_sq=["0x1.b307306bafb60p+2", "0x1.8b31520739ae5p+2", "0x1.17a00e6b31cdep+4",
               "0x1.5787df6fa91f5p+3"],
        h3_sq=["0x1.c2a75b076a012p-1", "0x1.4be81a61e9b0ap+0", "0x1.7bdad1e8ae2cap-3",
               "0x1.5e853f93574f9p-3"],
        a=["0x1.b1dcedb2d5d15p+1", "0x1.6ffc1719917bap+1", "0x1.8326ecb6e02b1p+1",
           "0x1.987db7b59d986p+1"],
        b=["0x1.c9c5b122d3d59p-1", "0x1.3bd6126b13a4cp+0", "0x1.048117974eafap+0",
           "0x1.46e3197f64e63p+0"],
        c=["0x1.397afcfd911e3p+1", "0x1.1419975e05a20p+1", "0x1.03812f474ab88p+2",
           "0x1.823afde755778p+1"])
    calls = []
    real = beamform.tau_profile

    def counted(*args):
        calls.append(args[1].size)
        return real(*args)

    monkeypatch.setattr(beamform, "tau_profile", counted)
    params = replace(default_params(), d1=20.0, d2=20.0, d3=2.0, n_antennas=10, ps_dbm=35.0)
    solve_block("exact", params, link)
    assert len(calls) == 2, calls


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
