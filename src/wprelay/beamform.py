"""Energy-beam and harvest-time optimization strategies.

Every strategy solves a whole block of trials at once from the per-trial
channel statistics (channel.LinkStats) and returns a BlockDesign: per
trial, the mixing coefficient x_bar of the two-direction beam, the
harvest fraction tau, and the beam gains that sysmodel.link_snr needs:

- "exact":      joint (x_bar, tau) maximum of the exact throughput: a
                branch-and-bound over x_bar bounds each interval by the tau
                profile at the interval's largest beam gains, certifies
                every trial to 1e-3 (BlockDesign.rate_bound), then refines
                each basin that could still win to about 1e-9 by Newton
                steps in (x_bar, tau).
- "suboptimal": closed-form x_bar maximizing the min of the two branches
                of the SNR upper bound (tau-independent; where the branches
                cross, the crossing is the larger root of a quadratic in
                x_bar^2), then the Lambert-W harvest time for the resulting
                SNR coefficient above the user's harvest threshold.
- "large-n":    many-antenna limit where h1 and h2 are treated as
                orthogonal and x_bar depends on channel norms only.
- "mrt-user":   beam fully toward the user (x_bar = 1); tau, unless fixed,
                from the tau profile. The other strategies optimize tau and
                reject a fixed one.

The tau profile (tau_profile) is the best harvest fraction of fixed beam
gains: the better of the Lambert-W closed form below the relay's harvest
threshold and a bracketing grid plus lockstep golden-section search above
both thresholds.

direct_tau is the same closed form for the direct-link baseline. solve
is the one single-channel entry point: it runs solve_block on a block of
one and returns that trial's BeamformerDesign with the beam vector itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams,
                      branch_constants, build_beamformer, decompose_block)
from .sysmodel import harvest_threshold, link_snr, link_throughput, relay_threshold
from .timesplit import _BELOW_ONE, golden_max, optimal_tau

__all__ = [
    "BeamformerDesign",
    "BlockDesign",
    "direct_tau",
    "solve",
    "solve_block",
    "solve_suboptimal_xbar",
    "tau_profile",
    "STRATEGIES",
]

STRATEGIES = ("exact", "suboptimal", "large-n", "mrt-user")
SCENARIOS = ("mixed-slope-negative", "mixed-slope-zero", "mixed-slope-positive")

_SLOPE_ZERO_BAND = 1e-9
_REF_TAU = 0.5  # scale(0.5) = 2*eta*rho, so SNR here equals the tau-free kappa
_SLICE = 8192  # x_bar points per slice of bound_min over one channel
_S_NODES = 25  # s nodes of tau_profile's bracketing pass
_S_GRID = np.arange(_S_NODES) / _S_NODES
_LANES = 1024  # lanes per slice of that pass, which bounds its temporaries
_SEARCH_TOL = 1e-9  # s tolerance of mrt-user's tau_profile
_BOUND_TOL = 1e-3  # s tolerance of tau_profile inside exact's branch-and-bound
_CERT = 1e-3  # relative certificate of exact
_INTERVALS = 32  # starting x_bar intervals of exact
_MAX_ROUNDS = 40  # interval halvings at most; 32 * 2**40 intervals span 1e-14
_GROUP = 256  # trials per branch-and-bound pass, which bounds its lane arrays
_NEWTON_STEPS = 6
_FD_STEP = 1e-5
_TRUST = 0.1  # first trust radius of _refine in theta and in v
# (theta, v) offsets of _refine's 3 x 3 stencil, centre at index 4
_STENCIL = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")).reshape(2, 9)


@dataclass(frozen=True)
class BeamformerDesign:
    strategy: str
    x_bar: float
    w: np.ndarray
    gamma_max: float
    tau: float
    scenario: str | None = None  # sign regime of the mixed-branch slope
    case_index: int | None = None  # which closed-form case fired


@dataclass(frozen=True)
class BlockDesign:
    """Designs for a block of trials, one array entry per trial.

    g1 = |h1^T w|^2 and g2 = |h2^T w|^2 are the gains of the beam w.
    gamma_bound is the SNR upper bound that the suboptimal and large-n
    designs maximize; scenario and case_index are filled by the suboptimal
    design only. rate_bound, filled by the exact design only, is each
    trial's certificate: no (x_bar, tau) rates above it, up to the
    tolerance of the tau search that computes it, and it is at most 1e-3
    above the trial's own rate.
    """

    x_bar: np.ndarray
    tau: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    gamma_bound: np.ndarray | None = None
    scenario: np.ndarray | None = None
    case_index: np.ndarray | None = None
    rate_bound: np.ndarray | None = None


def beam_gains(a, b, c, x_bar):
    """|h1^T w|^2 and |h2^T w|^2 of the two-direction beam with mix x_bar."""
    x = np.asarray(x_bar, dtype=float)
    s = np.sqrt(np.maximum(1.0 - np.square(x), 0.0))
    return a * a * np.square(x), np.square(b * x + c * s)


def branch_user_hop(dec: ChannelDecomposition, x_bar):
    """SNR upper bound when the user->relay hop binds the relayed term."""
    return (dec.a0 + dec.c0) * dec.a * dec.a * np.square(x_bar)


def branch_relay_hop(dec: ChannelDecomposition, x_bar):
    """SNR upper bound when the relay->AP hop binds the relayed term."""
    x = np.asarray(x_bar, dtype=float)
    s = np.sqrt(np.maximum(1.0 - np.square(x), 0.0))
    return dec.a0 * dec.a * dec.a * np.square(x) + dec.d0 * np.square(dec.b * x + dec.c * s)


def bound_min(dec: ChannelDecomposition, x_bar):
    """min of the two bound branches; the objective of the suboptimal design.

    A long x_bar grid against one channel runs in slices that fit in cache.
    """
    x = np.asarray(x_bar, dtype=float)
    if x.ndim == 1 and x.size > _SLICE and not any(np.ndim(v) for v in vars(dec).values()):
        return np.concatenate([bound_min(dec, x[i:i + _SLICE]) for i in range(0, x.size, _SLICE)])
    return np.minimum(branch_user_hop(dec, x), branch_relay_hop(dec, x))


def solve_suboptimal_xbar(dec: ChannelDecomposition):
    """Closed-form maximizer of bound_min over x_bar in [0, 1].

    Returns (x_bar, gamma_max, scenario, case_index), as arrays when the
    fields of dec are arrays and as plain scalars otherwise. With
    t = x_bar^2:
      f1(x) = S t,                          S = (A0 + C0) a^2,
      f3(x) = P t + q x sqrt(1 - t) + e,    e = D0 c^2,
              P = A0 a^2 + D0 (b^2 - c^2),  q = 2 D0 b c.
    f1 rises from 0 to S; f3 peaks at x_hat (from d/dt = 0). The maximizer
    of the min is x = 1 when gap = f1(1) - f3(1) = C0 a^2 - D0 b^2 <= 0
    (case 1). Else f1 is the min below the crossing x_c = sqrt(t_c) and f3
    above it, where with k = gap + e = S - P and r = sqrt(4 e gap + q^2),
      t_c = (2 k e + q^2 + q r) / (2 (k^2 + q^2))
    is the larger root of (k^2 + q^2) t^2 - (2 k e + q^2) t + e^2 = 0, the
    square of k t - e = q sqrt(t (1 - t)); no term is negative. So the
    maximizer is x_hat if x_c <= x_hat (case 3) and x_c otherwise (case 2).
    """
    a_sq = dec.a * dec.a
    p = dec.a0 * a_sq + dec.d0 * (dec.b * dec.b - dec.c * dec.c)
    q = 2.0 * dec.d0 * dec.b * dec.c
    e = dec.d0 * dec.c * dec.c
    gap = dec.c0 * a_sq - dec.d0 * dec.b * dec.b
    k = gap + e
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(p, q)
        x_hat = np.where(q == 0.0, np.where(p >= 0.0, 1.0, 0.0),
                         np.sqrt(0.5 + ratio / (2.0 * np.sqrt(1.0 + ratio * ratio))))
        t_c = (2.0 * k * e + q * q + q * np.sqrt(4.0 * e * gap + q * q)) / (2.0 * (k * k + q * q))
        x_c = np.where(gap > 0.0, np.sqrt(t_c), 1.0)
    scenario = np.where(np.abs(p) <= _SLOPE_ZERO_BAND * dec.d0 * dec.b * dec.c, 1,
                        np.where(p > 0, 2, 0))
    case = np.where(gap <= 0.0, 1, np.where(x_c <= x_hat, 3, 2))
    # f3 is steep near x = 1, where the double below x_c may score higher
    x_opt, x_low = np.maximum(x_hat, x_c), np.maximum(x_hat, np.nextafter(x_c, 0.0))
    gamma, gamma_low = bound_min(dec, x_opt), bound_min(dec, x_low)
    better = gamma_low > gamma
    x_opt, gamma = np.where(better, x_low, x_opt), np.where(better, gamma_low, gamma)
    names = np.asarray(SCENARIOS)[scenario]
    if np.ndim(x_opt) == 0:
        return float(x_opt), float(gamma), str(names), int(case)
    return x_opt, gamma, names, case


def _lambert_tau(params: SystemParams, kappa: np.ndarray, g1: np.ndarray,
                 relay: bool = True) -> np.ndarray:
    """tau maximizing log(1 + kappa (k - k_u))/(1 + k), k = tau/(1-tau), above
    the user's harvest threshold t_u = k_u/(1 + k_u) for beam gain g1; NaN
    where kappa <= 0. With s = (k - k_u)/(1 + k_u) the objective is the
    pc-free log(1 + kappa' s)/(1 + s) over 1 + k_u, kappa' = kappa/(1 - t_u),
    which optimal_tau maximizes in s/(1 + s); so tau = t_u + (1 - t_u)
    optimal_tau(kappa/(1 - t_u)), and optimal_tau(kappa) when t_u = 0.
    Where t_u rounds to 1 no tau gives a rate, and tau is the double below 1.
    """
    t_u = harvest_threshold(params, g1, relay)
    tau = np.full(np.shape(kappa), np.nan)
    good = kappa > 0.0
    if np.any(good):
        span = np.maximum(1.0 - t_u[good], 1.0 - _BELOW_ONE)
        tau[good] = np.minimum(t_u[good] + span * optimal_tau(kappa[good] / span), _BELOW_ONE)
    return tau


def suboptimal_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Closed-form beam plus Lambert-W harvest time on the SNR upper bound.

    The beam maximizing the bound does not depend on tau (every branch
    scales by the same tau factor), so it is computed once at a reference
    tau and the harvest time follows from the resulting SNR coefficient
    and the user's harvest threshold under that beam.
    """
    dec = decompose_block(params, link, _REF_TAU)
    x_opt, kappa, scenario, case = solve_suboptimal_xbar(dec)
    g1, g2 = beam_gains(link.a, link.b, link.c, x_opt)
    tau = _lambert_tau(params, kappa, g1)
    return BlockDesign(x_bar=x_opt, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau),
                       scenario=scenario, case_index=case)


def direct_tau(params: SystemParams, link: LinkStats) -> np.ndarray:
    """Per-trial tau maximizing the direct-link baseline's exact throughput:
    above the user's harvest threshold its SNR is kappa_d (k - k_u), with
    kappa_d = a1 ||h1||^4 / 2 (half the relay case's harvest scale)."""
    kappa = 0.5 * branch_constants(params, _REF_TAU).a1 * np.square(link.n1_sq)
    return _lambert_tau(params, kappa, link.n1_sq, relay=False)


def tau_profile(params: SystemParams, link: LinkStats, g1: np.ndarray, g2: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best harvest fraction for the beam gains (g1, g2) of each lane, its rate,
    and the best harvest fraction above both thresholds.

    Lane i sees the channel link[i]. Below the relay's harvest threshold
    t_r only the direct link carries data, at SNR kappa (k - k_u) with
    kappa = a1 g1 ||h1||^2, so the Lambert-W tau capped at t_r is best
    there. Above t0 = max(t_u, t_r) the rate has one hump in
    s = (tau - t0)/(1 - t0): one link_snr call on _S_NODES values of s
    brackets it, and golden_max narrows the bracket to a width of tol in s.
    The higher of the two rates wins. The lanes run in lockstep, each on
    its own values only.
    """
    t_r = relay_threshold(params, g2)
    t0 = np.maximum(harvest_threshold(params, g1), t_r)
    span = np.maximum(1.0 - t0, 1.0 - _BELOW_ONE)

    def rate(lk, x1, x2, t):
        return link_throughput(link_snr(params, lk, x1, x2, t), t)

    def upper(s):
        return rate(link, g1, g2, np.minimum(t0 + span * s, _BELOW_ONE))

    def peak(sl):  # the best s node of lanes sl
        t = np.minimum(t0[sl, None] + span[sl, None] * _S_GRID, _BELOW_ONE)
        return np.argmax(rate(link[sl, None], g1[sl, None], g2[sl, None], t), axis=1)

    j = np.concatenate([peak(slice(i, i + _LANES)) for i in range(0, max(g1.size, 1), _LANES)])
    lo = np.clip(j - 1, 0, _S_NODES - 2) / _S_NODES
    s, top = golden_max(upper, lo, lo + 2.0 / _S_NODES, tol)
    tau_up = np.minimum(t0 + span * s, _BELOW_ONE)
    if params.pc_watt == 0.0:  # t_r = 0: no tau lies below it
        return tau_up, top, tau_up
    kappa = branch_constants(params, _REF_TAU).a1 * g1 * link.n1_sq
    low = np.minimum(_lambert_tau(params, kappa, g1), t_r)
    r_low = rate(link, g1, g2, low)
    better = r_low > top
    return np.where(better, low, tau_up), np.where(better, r_low, top), tau_up


def _g2_max(b, c, lo, hi):
    """Largest |h2^T w|^2 = (b x + c sqrt(1 - x^2))^2 over x_bar in [lo, hi]: at an
    end, or at x = b/sqrt(b^2 + c^2), where it is b^2 + c^2."""
    g2 = np.maximum(beam_gains(0.0, b, c, lo)[1], beam_gains(0.0, b, c, hi)[1])
    with np.errstate(invalid="ignore"):
        peak = b / np.hypot(b, c)
    return np.where((lo <= peak) & (peak <= hi), np.maximum(g2, b * b + c * c), g2)


def _refine(params: SystemParams, link: LinkStats, theta: np.ndarray,
            tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent of the rate from x_bar = cos(theta) and tau, lane by lane;
    returns the best (theta, tau) found.

    The rate is smooth in theta, continued through theta = 0 by a signed
    sin(theta), and in v, where tau = tau0 + (1 - tau0) v, away from the
    harvest thresholds. Each step takes the gradient and Hessian from
    central differences on a 3 x 3 stencil of spacing _FD_STEP, then moves
    to the maximum of that model, or up the gradient where the model is
    not concave, within a trust radius. A point that does not raise the
    rate is dropped and the radius cut to a quarter of the step; one that
    does doubles it.
    """
    lk = link[:, None]
    a, b, c = link.a[:, None], link.b[:, None], link.c[:, None]
    tau0, span = tau[:, None], 1.0 - tau[:, None]

    def rate(th, v):
        t = np.minimum(tau0 + span * v, _BELOW_ONE)
        cos, sin = np.cos(th), np.sin(th)
        return link_throughput(link_snr(params, lk, np.square(a * cos),
                                        np.square(b * cos + c * sin), t), t)

    h = _FD_STEP
    th, v = theta, np.zeros_like(theta)  # the point proposed
    best_th, best_v = th, v
    fb = np.full((theta.size, 9), -np.inf)  # the stencil around the best point
    radius = np.full_like(theta, _TRUST)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            f = rate(th[:, None] + h * _STENCIL[0], v[:, None] + h * _STENCIL[1])
            up = f[:, 4] > fb[:, 4]
            step = np.maximum(np.abs(th - best_th), np.abs(v - best_v))
            best_th, best_v = np.where(up, th, best_th), np.where(up, v, best_v)
            fb = np.where(up[:, None], f, fb)
            radius = np.where(up, 2.0 * radius, 0.25 * step)
            gt, gv = (fb[:, 7] - fb[:, 1]) / (2 * h), (fb[:, 5] - fb[:, 3]) / (2 * h)
            htt = (fb[:, 7] - 2 * fb[:, 4] + fb[:, 1]) / h ** 2
            hvv = (fb[:, 5] - 2 * fb[:, 4] + fb[:, 3]) / h ** 2
            htv = (fb[:, 8] - fb[:, 6] - fb[:, 2] + fb[:, 0]) / (4 * h * h)
            det = htt * hvv - htv * htv
            newton = (htt < 0.0) & (det > 0.0)
            gmax = np.maximum(np.abs(gt), np.abs(gv))
            dt = np.where(newton, (htv * gv - hvv * gt) / det, np.where(gmax > 0, gt / gmax, 0.0))
            dv = np.where(newton, (htv * gt - htt * gv) / det, np.where(gmax > 0, gv / gmax, 0.0))
            scale = np.minimum(1.0, radius / np.maximum(np.abs(dt), np.abs(dv)))
            scale = np.where(np.isfinite(scale), scale, 0.0)
            th, v = best_th + scale * dt, best_v + scale * dv
    return best_th, np.minimum(tau + (1.0 - tau) * best_v, _BELOW_ONE)


def _exact_group(params: SystemParams, link: LinkStats
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_bar, tau and rate bound of each trial of link; see exact_block."""
    m = len(link)
    t = np.repeat(np.arange(m), _INTERVALS)
    hi = np.tile(np.arange(1, _INTERVALS + 1) / _INTERVALS, m)
    lo = hi - 1.0 / _INTERVALS
    nt, nx = t, hi  # nodes still to rate: every right end (x_bar = 0 rates 0)
    best = np.zeros(m)
    nodes, leaves = [], []
    for rnd in range(_MAX_ROUNDS):
        g1, g2 = beam_gains(link.a[nt], link.b[nt], link.c[nt], nx)
        tau, val, tau_up = tau_profile(
            params, link[np.concatenate([nt, t])], np.concatenate([g1, np.square(link.a[t] * hi)]),
            np.concatenate([g2, _g2_max(link.b[t], link.c[t], lo, hi)]), _BOUND_TOL)
        n = nt.size
        nodes.append((nt, nx, tau[:n], val[:n], tau_up[:n]))
        np.fmax.at(best, nt, val[:n])
        bound = val[n:]
        split = bound > best[t] * (1.0 + _CERT)  # a NaN bound never splits
        if rnd == _MAX_ROUNDS - 1:
            split[:] = False
        leaves.append((t[~split], hi[~split], bound[~split]))
        t, lo, hi = t[split], lo[split], hi[split]
        if not t.size:
            break
        nt, nx = t, 0.5 * (lo + hi)
        t, lo, hi = np.concatenate([t, t]), np.concatenate([lo, nx]), np.concatenate([nx, hi])
    # every leaf ends at a node, so sorted by trial and x_bar the two line up
    nt, nx, ntau, nval, nup = map(np.concatenate, zip(*nodes))
    order = np.lexsort((nx, nt))
    nt, nx, ntau, nval, nup = nt[order], nx[order], ntau[order], nval[order], nup[order]
    lt, lhi, lbound = (np.concatenate(v) for v in zip(*leaves))
    lorder = np.lexsort((lhi, lt))
    same = nt[1:] == nt[:-1]  # node i + 1 is of node i's trial
    left = np.concatenate([[0.0], np.where(same, nval[:-1], 0.0)])
    right = np.concatenate([np.where(same, nval[1:], -np.inf), [-np.inf]])
    adj = lbound[lorder]
    adj = np.fmax(adj, np.concatenate([np.where(same, adj[1:], -np.inf), [-np.inf]]))
    near = adj > best[nt] * (1.0 - _CERT)
    start = ((nval >= left) & (nval >= right) & near) | (nx == 1.0)
    # Every start climbs from its tau above both thresholds. At x_bar = 1 the
    # direct link's closed form can win below the relay's threshold, whose
    # k_r = t_r/(1 - t_r) falls as 1/g2 while the beam turns towards the
    # relay: the relay starts to harvest at the direct link's k = tau/(1 - tau)
    # where (b cos(theta) + c sin(theta))^2 = b^2 k_r/k. Climb from there too.
    one = nx == 1.0
    b, c, k = link.b[nt[one]], link.c[nt[one]], ntau[one] / (1.0 - ntau[one])
    t_r = relay_threshold(params, b * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        on = np.sqrt(t_r / ((1.0 - t_r) * k)) * b / np.hypot(b, c)
        theta_on = np.arctan2(c, b) - np.arccos(np.minimum(on, 1.0))
    st = np.concatenate([nt[start], nt[one]])
    lanes = link[st]
    theta, tau = _refine(params, lanes,
                         np.concatenate([np.arccos(nx[start]),
                                         np.maximum(theta_on, 0.0) + 4.0 * _FD_STEP]),
                         np.concatenate([nup[start], ntau[one]]))
    x = np.cos(np.clip(theta, 0.0, 0.5 * math.pi))
    g1, g2 = beam_gains(lanes.a, lanes.b, lanes.c, x)
    val = link_throughput(link_snr(params, lanes, g1, g2, tau), tau)
    # the starts themselves compete too, so no trial ends below its best node
    st, x = np.concatenate([st, nt[start]]), np.concatenate([x, nx[start]])
    tau, val = np.concatenate([tau, ntau[start]]), np.concatenate([val, nval[start]])
    order = np.lexsort((-x, -val, st))  # per trial the best rate, ties to the larger x_bar
    first = order[np.diff(st[order], prepend=-1) != 0]
    bound = val[first]
    np.fmax.at(bound, lt, lbound)
    return x[first], tau[first], bound


def exact_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Joint (x_bar, tau) maximization of the exact throughput, with a certificate.

    A branch-and-bound over x_bar: link_snr rises in g1 and in g2 at every
    tau, so on an interval [lo, hi] of x_bar the tau profile at g1 = a^2 hi^2
    and at the interval's largest g2 (_g2_max) bounds the rate. It starts
    from _INTERVALS intervals and rates each interval's right end with the
    profile of that beam; every interval whose bound exceeds the best rate
    so far by more than _CERT relative is halved, until none is. These
    profiles search tau to _BOUND_TOL in s.

    _refine then climbs from each local maximum of the rated ends next to
    an interval whose bound comes within _CERT of the best (a basin that
    could still win), from x_bar = 1, and from the beam near x_bar = 1 at
    which the relay starts to harvest at the direct link's tau. Starts and
    refined points compete: the best rate wins, ties to the larger x_bar,
    so a collinear trial (c = 0) keeps x_bar = 1. rate_bound is the larger
    of that rate and the largest interval bound, so it lies within
    (1 + _CERT) of the rate. Trials run in groups of _GROUP; each trial's
    result depends on its own channel only.
    """
    x, tau, bound = (np.concatenate(v) for v in zip(*(
        _exact_group(params, link[i:i + _GROUP])
        for i in range(0, max(len(link), 1), _GROUP))))
    g1, g2 = beam_gains(link.a, link.b, link.c, x)
    return BlockDesign(x_bar=x, tau=tau, g1=g1, g2=g2, rate_bound=bound)


def large_n_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Many-antenna beam: mix raw h1*/||h1|| and h2*/||h2|| directions.

    In the limit the two channel vectors become orthogonal; the mixing
    weight then depends only on the channel norms. For finite N the two
    directions are not exactly orthogonal, so the combined vector is
    renormalized before use.
    """
    dec = decompose_block(params, link, _REF_TAU)
    a_sq = dec.a * dec.a
    h2_sq = dec.b * dec.b + dec.c * dec.c
    au = dec.a0 * a_sq       # direct-branch level at x_bar = 1
    cu = dec.c0 * a_sq
    du = dec.d0 * h2_sq
    edge = (au - du >= 0.0) | (h2_sq == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_bar = np.where(edge, 1.0, np.sqrt(du / (cu + du)))
    # gains of w = x h1*/||h1|| + s h2*/||h2||, renormalized
    n2 = np.sqrt(link.n2_sq)
    s = np.where(n2 > 0.0, np.sqrt(np.maximum(0.0, 1.0 - x_bar * x_bar)), 0.0)
    n2 = np.where(n2 > 0.0, n2, 1.0)
    norm_sq = x_bar * x_bar + s * s + 2.0 * x_bar * s * link.inner.real / (link.a * n2)
    g1 = np.abs(x_bar * link.a + s * np.conj(link.inner) / n2) ** 2 / norm_sq
    g2 = np.abs(x_bar * link.inner / link.a + s * n2) ** 2 / norm_sq
    # harvest time from the actual bound value achieved by this beam
    kappa = np.minimum((dec.a0 + dec.c0) * g1, dec.a0 * g1 + dec.d0 * g2)
    tau = _lambert_tau(params, np.maximum(kappa, 1e-300), g1)
    return BlockDesign(x_bar=x_bar, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau))


def mrt_user_block(params: SystemParams, link: LinkStats,
                   tau: float | None = None) -> BlockDesign:
    """Beam all energy toward the user: w = h1*/||h1||.

    With tau omitted, the harvest time maximizes the exact throughput of
    this beam: tau_profile at x_bar = 1, searched to _SEARCH_TOL in s.
    """
    g1 = link.n1_sq
    g2 = np.abs(link.inner) ** 2 / np.maximum(g1, 1e-300)
    if tau is None:
        tau = tau_profile(params, link, g1, g2, _SEARCH_TOL)[0]
    tau = np.broadcast_to(np.asarray(tau, dtype=float), g1.shape)
    return BlockDesign(x_bar=np.ones(g1.shape), tau=tau, g1=g1, g2=g2)


_BLOCK_SOLVERS = {"exact": exact_block, "suboptimal": suboptimal_block,
                  "large-n": large_n_block}


def solve_block(strategy: str, params: SystemParams, link: LinkStats,
                tau: float | None = None) -> BlockDesign:
    """Solve every trial of link; tau fixes the harvest time of mrt-user."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "mrt-user":
        return mrt_user_block(params, link, tau=tau)
    if tau is not None:
        raise ValueError(f"{strategy} optimizes tau; only mrt-user takes a fixed tau")
    return _BLOCK_SOLVERS[strategy](params, link)


def _beam(strategy: str, ch: ChannelState, link: LinkStats, x_bar: float) -> np.ndarray:
    """The unit beam vector of strategy's design with mix x_bar on channel ch,
    whose statistics are link."""
    if strategy == "mrt-user":
        return np.conj(ch.h1) / link.a[0]
    if strategy == "large-n":  # the raw h1* and h2* directions, renormalized
        w = x_bar * np.conj(ch.h1) / np.linalg.norm(ch.h1)
        n2 = float(np.linalg.norm(ch.h2))
        if n2 > 0.0:
            w = w + math.sqrt(max(0.0, 1.0 - x_bar * x_bar)) * np.conj(ch.h2) / n2
        return w / np.linalg.norm(w)
    return build_beamformer(ch, x_bar)


def solve(strategy: str, params: SystemParams, ch: ChannelState,
          tau: float | None = None) -> BeamformerDesign:
    """Solve one channel: trial 0 of solve_block on a block of one, plus its
    beam vector w; see the module docstring for the strategies.

    gamma_max is the design's bound where it has one, else the exact SNR.
    """
    link = LinkStats.of(ch)
    design = solve_block(strategy, params, link, tau=tau)
    x_bar = float(design.x_bar[0])
    w = _beam(strategy, ch, link, x_bar)
    tau = float(design.tau[0])
    if design.gamma_bound is None:
        gamma = float(link_snr(params, link, design.g1, design.g2, design.tau)[0])
    else:
        gamma = float(design.gamma_bound[0])
    if not (math.isfinite(tau) and math.isfinite(gamma)):
        raise ValueError(f"{strategy}: no finite design for this channel")
    return BeamformerDesign(
        strategy=strategy, x_bar=x_bar, w=w, gamma_max=gamma, tau=tau,
        scenario=None if design.scenario is None else str(design.scenario[0]),
        case_index=None if design.case_index is None else int(design.case_index[0]))


# The package calls none of these four; perfbench/layers.py traces them by
# name, and a traced run raises AttributeError without them.
def solve_exact(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    return solve("exact", params, ch)


def solve_suboptimal(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    return solve("suboptimal", params, ch)


def solve_large_n(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    return solve("large-n", params, ch)


def solve_mrt_user(params: SystemParams, ch: ChannelState,
                   tau: float | None = None) -> BeamformerDesign:
    return solve("mrt-user", params, ch, tau=tau)
