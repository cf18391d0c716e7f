"""Energy-beam and harvest-time optimization strategies.

Every strategy solves a whole block of trials at once from the per-trial
channel statistics (channel.LinkStats) and returns a BlockDesign: per
trial, the mixing coefficient x_bar of the two-direction beam, the
harvest fraction tau, and the beam gains that sysmodel.link_snr needs:

- "exact":      2-D grid search over (x_bar, tau) on the exact throughput,
                evaluated in bounded blocks of trials and tau rows, then
                refined by the same search on ever finer grids centred on
                each trial's best node.
- "suboptimal": closed-form x_bar maximizing the min of the two branches
                of the SNR upper bound (tau-independent; where the branches
                cross, the crossing is the larger root of a quadratic in
                x_bar^2), then the Lambert-W harvest time for the resulting
                SNR coefficient above the user's harvest threshold.
- "large-n":    many-antenna limit where h1 and h2 are treated as
                orthogonal and x_bar depends on channel norms only.
- "mrt-user":   beam fully toward the user (x_bar = 1); tau, unless fixed,
                from the closed form below the relay's harvest threshold or
                a lockstep golden-section search above both thresholds. The
                other strategies optimize tau and reject a fixed one.

direct_tau is the same closed form for the direct-link baseline. The
single-channel functions solve and solve_* run a block of one and
return a BeamformerDesign with the beam vector itself.
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
    "solve_exact",
    "solve_suboptimal",
    "solve_suboptimal_xbar",
    "solve_large_n",
    "solve_mrt_user",
    "STRATEGIES",
]

STRATEGIES = ("exact", "suboptimal", "large-n", "mrt-user")
SCENARIOS = ("mixed-slope-negative", "mixed-slope-zero", "mixed-slope-positive")

_SLOPE_ZERO_BAND = 1e-9
_REF_TAU = 0.5  # scale(0.5) = 2*eta*rho, so SNR here equals the tau-free kappa
_SLICE = 8192  # x_bar points per slice of bound_min over one channel
_GRID_POINTS = 256  # x_bar and tau points of the exact grid
# Elements per temporary array of the exact grid: blocks of trials times
# tau rows times the x_bar axis (4 x 8 x 256).
_GRID_CELLS = 8192
_GRID_ROWS = 8
# Each refinement level of the exact grid spans -2..2 spacings of the
# level before around the best node, in half steps; 22 halvings take the
# spacing from 1/255 below 1e-9.
_ZOOM = np.linspace(-2.0, 2.0, 9)
_ZOOM_LEVELS = 22
_TAU_BRACKET = (1e-6, 1.0 - 1e-6)
_SEARCH_TOL = 1e-9


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
    design only.
    """

    x_bar: np.ndarray
    tau: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    gamma_bound: np.ndarray | None = None
    scenario: np.ndarray | None = None
    case_index: np.ndarray | None = None


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


def _exact_grid(params: SystemParams, link: LinkStats, xs: np.ndarray,
                taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best (x_bar, tau) of each trial i on its own grid xs[i] x taus[i].

    xs has shape (m, nx) and taus (m, nt). Ties resolve to the earliest
    tau row, then the earliest x_bar column.
    """
    m, nx = xs.shape
    group = max(1, _GRID_CELLS // (_GRID_ROWS * nx))  # trials per grid block
    rows = max(1, _GRID_CELLS // (max(1, min(group, m)) * nx))  # tau rows per grid block
    best_val = np.full(m, -1.0)
    best_x, best_tau = xs[:, 0].copy(), taus[:, 0].copy()
    for i in range(0, m, group):
        sl = slice(i, i + group)
        blk = link[sl, None, None]
        g1, g2 = beam_gains(blk.a, blk.b, blk.c, xs[sl, None, :])
        k = g1.shape[0]
        row, trial = np.arange(k), np.arange(i, i + k)
        for j in range(0, taus.shape[1], rows):
            t = taus[sl, j:j + rows, None]
            vals = link_throughput(link_snr(params, blk, g1, g2, t), t).reshape(k, -1)
            idx = np.argmax(vals, axis=1)  # first max, row-major
            top = vals[row, idx]
            better = top > best_val[sl]
            best_val[sl] = np.where(better, top, best_val[sl])
            best_x[sl] = np.where(better, xs[trial, idx % nx], best_x[sl])
            best_tau[sl] = np.where(better, taus[trial, j + idx // nx], best_tau[sl])
    return best_x, best_tau


def exact_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Joint (x_bar, tau) maximization of the exact throughput.

    Grid search over the full rectangle, then on _ZOOM_LEVELS grids
    centred on each trial's best node, each at half the last spacing.
    x_bar runs from 1 down to 0, so ties go to the larger x_bar and a
    collinear trial (c = 0), whose rate never rises as x_bar falls, keeps 1.
    Each trial's tau axis starts at its user's harvest threshold under
    x_bar = 1 (kept inside the axis' ends): no beam gives the user more
    gain, so every node below it rates 0.
    """
    m = len(link)
    xs = np.linspace(1.0, 0.0, _GRID_POINTS)
    taus = np.linspace(np.clip(harvest_threshold(params, link.n1_sq), 1e-4, 1.0 - 1e-4),
                       1.0 - 1e-4, _GRID_POINTS, axis=1)
    dx, dt = xs[0] - xs[1], taus[:, 1] - taus[:, 0]
    bx, bt = _exact_grid(params, link, np.broadcast_to(xs, (m, xs.size)), taus)
    for _ in range(_ZOOM_LEVELS):
        bx, bt = _exact_grid(params, link, np.clip(bx[:, None] - _ZOOM * dx, 0.0, 1.0),
                             np.clip(bt[:, None] + _ZOOM * dt[:, None], 1e-7, 1.0 - 1e-7))
        dx, dt = dx / 2.0, dt / 2.0
    g1, g2 = beam_gains(link.a, link.b, link.c, bx)
    return BlockDesign(x_bar=bx, tau=bt, g1=g1, g2=g2)


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
    this beam. Below the relay's harvest threshold t_r only the direct link
    carries data, at SNR a1 ||h1||^4 (k - k_u), so the closed form capped
    at t_r is best there; above both thresholds a golden-section search
    runs, kept off the rate's lower hump. The higher rate wins.
    """
    g1 = link.n1_sq
    g2 = np.abs(link.inner) ** 2 / np.maximum(g1, 1e-300)
    if tau is None:
        def rate(t):
            return link_throughput(link_snr(params, link, g1, g2, t), t)

        lo, hi = _TAU_BRACKET
        t_r = relay_threshold(params, g2)
        start = np.maximum(harvest_threshold(params, g1), t_r)
        tau, top = golden_max(rate, np.where(start < hi, np.maximum(lo, start), lo), hi,
                              _SEARCH_TOL)
        kappa = branch_constants(params, _REF_TAU).a1 * np.square(g1)
        low = np.minimum(_lambert_tau(params, kappa, g1), t_r)
        tau = np.where(rate(low) > top, low, tau)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), g1.shape)
    return BlockDesign(x_bar=np.ones(g1.shape), tau=tau, g1=g1, g2=g2)


_BLOCK_SOLVERS = {"exact": exact_block, "suboptimal": suboptimal_block,
                  "large-n": large_n_block}


def _check_strategy(strategy: str, tau: float | None) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if tau is not None and strategy != "mrt-user":
        raise ValueError(f"{strategy} optimizes tau; only mrt-user takes a fixed tau")


def solve_block(strategy: str, params: SystemParams, link: LinkStats,
                tau: float | None = None) -> BlockDesign:
    """Solve every trial of link; tau fixes the harvest time of mrt-user."""
    _check_strategy(strategy, tau)
    if strategy == "mrt-user":
        return mrt_user_block(params, link, tau=tau)
    return _BLOCK_SOLVERS[strategy](params, link)


def _single(strategy: str, params: SystemParams, link: LinkStats, design: BlockDesign,
            w: np.ndarray) -> BeamformerDesign:
    """The first trial of design as a BeamformerDesign with beam w.

    gamma_max is the design's bound where it has one, else the exact SNR.
    """
    tau = float(design.tau[0])
    if design.gamma_bound is None:
        gamma = float(link_snr(params, link, design.g1, design.g2, design.tau)[0])
    else:
        gamma = float(design.gamma_bound[0])
    if not (math.isfinite(tau) and math.isfinite(gamma)):
        raise ValueError(f"{strategy}: no finite design for this channel")
    return BeamformerDesign(
        strategy=strategy, x_bar=float(design.x_bar[0]), w=w, gamma_max=gamma, tau=tau,
        scenario=None if design.scenario is None else str(design.scenario[0]),
        case_index=None if design.case_index is None else int(design.case_index[0]))


def solve_suboptimal(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    """Closed-form beam plus Lambert-W harvest time on the SNR upper bound."""
    link = LinkStats.of(ch)
    d = suboptimal_block(params, link)
    return _single("suboptimal", params, link, d, build_beamformer(ch, float(d.x_bar[0])))


def solve_exact(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    """Joint (x_bar, tau) maximization of the exact throughput."""
    link = LinkStats.of(ch)
    d = exact_block(params, link)
    return _single("exact", params, link, d, build_beamformer(ch, float(d.x_bar[0])))


def solve_large_n(params: SystemParams, ch: ChannelState) -> BeamformerDesign:
    """Many-antenna beam mixing the raw h1* and h2* directions."""
    link = LinkStats.of(ch)
    d = large_n_block(params, link)
    x_bar = float(d.x_bar[0])
    w = x_bar * np.conj(ch.h1) / np.linalg.norm(ch.h1)
    n2 = float(np.linalg.norm(ch.h2))
    if n2 > 0.0:
        w = w + math.sqrt(max(0.0, 1.0 - x_bar * x_bar)) * np.conj(ch.h2) / n2
    return _single("large-n", params, link, d, w / np.linalg.norm(w))


def solve_mrt_user(params: SystemParams, ch: ChannelState,
                   tau: float | None = None) -> BeamformerDesign:
    """Beam all energy toward the user: w = h1*/||h1||."""
    link = LinkStats.of(ch)
    d = mrt_user_block(params, link, tau=tau)
    return _single("mrt-user", params, link, d, np.conj(ch.h1) / math.sqrt(link.n1_sq[0]))


def solve(strategy: str, params: SystemParams, ch: ChannelState,
          tau: float | None = None) -> BeamformerDesign:
    """Dispatch on strategy name; see module docstring for the catalogue."""
    _check_strategy(strategy, tau)
    if strategy == "exact":
        return solve_exact(params, ch)
    if strategy == "suboptimal":
        return solve_suboptimal(params, ch)
    if strategy == "large-n":
        return solve_large_n(params, ch)
    return solve_mrt_user(params, ch, tau=tau)
