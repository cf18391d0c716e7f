"""Energy-beam and harvest-time optimization strategies.

Every strategy solves a whole block of trials at once from the per-trial
channel statistics (channel.LinkStats) and returns a BlockDesign: per
trial, the mixing coefficient x_bar of the two-direction beam, the
harvest fraction tau, and the beam gains that sysmodel.link_snr needs:

- "exact":      2-D grid search over (x_bar, tau) on the exact throughput,
                evaluated in bounded blocks of trials and tau rows, then
                six rounds of alternating golden-section refinement run in
                lockstep over the block.
- "suboptimal": closed-form x_bar maximizing the min of the two branches
                of the SNR upper bound (tau-independent; where the branches
                cross, the crossing is found by a fixed count of bisection
                steps), then the Lambert-W harvest time for the resulting
                SNR coefficient.
- "large-n":    many-antenna limit where h1 and h2 are treated as
                orthogonal and x_bar depends on channel norms only.
- "mrt-user":   beam fully toward the user (x_bar = 1); tau from a
                lockstep golden-section search unless fixed. The other
                strategies optimize tau and reject a fixed one.

The single-channel functions solve and solve_* run a block of one and
return a BeamformerDesign with the beam vector itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams,
                      build_beamformer, decompose_block)
from .sysmodel import link_snr, link_throughput
from .timesplit import golden_max, optimal_tau

__all__ = [
    "BeamformerDesign",
    "BlockDesign",
    "golden_tau",
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
# Halving [x_hat, 1] 53 times leaves a bracket of 2**-53, the spacing of
# doubles just below 1.
_BISECT_STEPS = 53
_GRID_POINTS = 256  # x_bar and tau points of the exact grid
# Elements per temporary array of the exact grid: blocks of trials times
# tau rows times the x_bar axis (4 x 8 x 256).
_GRID_CELLS = 8192
_GRID_ROWS = 8
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
    """min of the two bound branches; the objective of the suboptimal design."""
    return np.minimum(branch_user_hop(dec, x_bar), branch_relay_hop(dec, x_bar))


def solve_suboptimal_xbar(dec: ChannelDecomposition):
    """Closed-form maximizer of bound_min over x_bar in [0, 1].

    Returns (x_bar, gamma_max, scenario, case_index), as arrays when the
    fields of dec are arrays and as plain scalars otherwise. With
    t = x_bar^2:
      f1(x) = S t,                          S = (A0 + C0) a^2,
      f3(x) = P t + q x sqrt(1 - t) + D0 c^2,
              P = A0 a^2 + D0 (b^2 - c^2),  q = 2 D0 b c.
    f1 rises from 0 to S; f3 peaks at x_hat (from d/dt = 0). The maximizer
    of the min is x = 1 when f1 stays below f3 there (case 1), the peak
    x_hat when f1 already dominates there (case 3), and otherwise the
    crossing point in between (case 2), found by bisection.
    """
    a_sq = dec.a * dec.a
    s_top = (dec.a0 + dec.c0) * a_sq
    p = dec.a0 * a_sq + dec.d0 * (dec.b * dec.b - dec.c * dec.c)
    q = 2.0 * dec.d0 * dec.b * dec.c

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.divide(p, q)
        x_hat = np.where(q == 0.0, np.where(p >= 0.0, 1.0, 0.0),
                         np.sqrt(0.5 + k / (2.0 * np.sqrt(1.0 + k * k))))
    scenario = np.where(np.abs(p) <= _SLOPE_ZERO_BAND * dec.d0 * dec.b * dec.c, 1,
                        np.where(p > 0, 2, 0))

    # case 1: f1 never exceeds f3 on [0, 1]; min == f1, maximized at the edge
    case1 = s_top <= branch_relay_hop(dec, 1.0)
    # case 3: f1 already above f3 at f3's peak; min == f3, maximized at the peak
    case3 = ~case1 & (s_top * x_hat * x_hat >= branch_relay_hop(dec, x_hat))
    case2 = ~case1 & ~case3
    x_opt = np.where(case1, 1.0, x_hat)
    if np.any(case2):
        # the branches cross between the peak and the edge
        lo, hi = x_opt, np.ones_like(x_opt)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            below = branch_user_hop(dec, mid) < branch_relay_hop(dec, mid)
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        x_opt = np.where(case2, 0.5 * (lo + hi), x_opt)
    gamma = bound_min(dec, x_opt)
    case = np.where(case1, 1, np.where(case3, 3, 2))
    names = np.asarray(SCENARIOS)[scenario]
    if np.ndim(x_opt) == 0:
        return float(x_opt), float(gamma), str(names), int(case)
    return x_opt, gamma, names, case


def _lambert_tau(kappa: np.ndarray) -> np.ndarray:
    """optimal_tau on the entries with kappa > 0; NaN elsewhere."""
    tau = np.full(np.shape(kappa), np.nan)
    good = kappa > 0.0
    if np.any(good):
        tau[good] = optimal_tau(kappa[good]).tau
    return tau


def suboptimal_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Closed-form beam plus Lambert-W harvest time on the SNR upper bound.

    The beam maximizing the bound does not depend on tau (every branch
    scales by the same tau factor), so it is computed once at a reference
    tau and the harvest time follows from the resulting SNR coefficient.
    """
    dec = decompose_block(params, link, _REF_TAU)
    x_opt, kappa, scenario, case = solve_suboptimal_xbar(dec)
    tau = _lambert_tau(kappa)
    g1, g2 = beam_gains(link.a, link.b, link.c, x_opt)
    return BlockDesign(x_bar=x_opt, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau),
                       scenario=scenario, case_index=case)


def golden_tau(params: SystemParams, link: LinkStats, g1, g2, relay: bool = True):
    """Per-trial tau maximizing the exact throughput of fixed beam gains.

    relay=False maximizes the direct-link baseline instead.
    """
    m = len(link)
    tau, _ = golden_max(
        lambda t: link_throughput(link_snr(params, link, g1, g2, t, relay), t, relay),
        np.full(m, _TAU_BRACKET[0]), np.full(m, _TAU_BRACKET[1]), _SEARCH_TOL)
    return tau


def _exact_grid(params: SystemParams, link: LinkStats, xs: np.ndarray,
                taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best (x_bar, tau) of each trial on the grid xs x taus.

    Ties resolve to the earliest tau row, then the smallest x_bar.
    """
    nx = xs.size
    m = len(link)
    group = max(1, _GRID_CELLS // (_GRID_ROWS * nx))  # trials per grid block
    rows = max(1, _GRID_CELLS // (group * nx))  # tau rows per grid block
    best_val = np.full(m, -1.0)
    best_x = np.zeros(m)
    best_tau = np.full(m, taus[0])
    for i in range(0, m, group):
        sl = slice(i, i + group)
        blk = link[sl, None, None]
        g1, g2 = beam_gains(blk.a, blk.b, blk.c, xs)
        k = g1.shape[0]
        for j in range(0, taus.size, rows):
            t = taus[j:j + rows, None]
            vals = link_throughput(link_snr(params, blk, g1, g2, t), t).reshape(k, -1)
            idx = np.argmax(vals, axis=1)  # first max, row-major
            top = vals[np.arange(k), idx]
            better = top > best_val[sl]
            best_val[sl] = np.where(better, top, best_val[sl])
            best_x[sl] = np.where(better, xs[idx % nx], best_x[sl])
            best_tau[sl] = np.where(better, taus[j + idx // nx], best_tau[sl])
    return best_x, best_tau


def exact_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Joint (x_bar, tau) maximization of the exact throughput.

    Grid search over the full rectangle, then alternating golden-section
    refinement in each coordinate.
    """
    x = np.ones(len(link))
    tau = np.empty(len(link))
    flat = link.c == 0.0
    if np.any(flat):
        # no perpendicular direction: beam is fixed, only tau matters
        sub = link[flat]
        tau[flat] = golden_tau(params, sub, *beam_gains(sub.a, sub.b, sub.c, 1.0))
    rest = ~flat
    if np.any(rest):
        sub = link[rest]
        xs = np.linspace(0.0, 1.0, _GRID_POINTS)
        taus = np.linspace(1e-4, 1.0 - 1e-4, _GRID_POINTS)
        bx, bt = _exact_grid(params, sub, xs, taus)
        dx = 1.0 / (_GRID_POINTS - 1)
        dt = (taus[-1] - taus[0]) / (_GRID_POINTS - 1)
        for _ in range(6):
            bx, _ = golden_max(
                lambda v: link_throughput(link_snr(
                    params, sub, *beam_gains(sub.a, sub.b, sub.c, v), bt), bt),
                np.maximum(0.0, bx - dx), np.minimum(1.0, bx + dx), _SEARCH_TOL)
            g1, g2 = beam_gains(sub.a, sub.b, sub.c, bx)
            bt, _ = golden_max(
                lambda t: link_throughput(link_snr(params, sub, g1, g2, t), t),
                np.maximum(1e-7, bt - dt), np.minimum(1.0 - 1e-7, bt + dt), _SEARCH_TOL)
            dx /= 4.0
            dt /= 4.0
        x[rest], tau[rest] = bx, bt
    g1, g2 = beam_gains(link.a, link.b, link.c, x)
    return BlockDesign(x_bar=x, tau=tau, g1=g1, g2=g2)


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
    tau = _lambert_tau(np.maximum(kappa, 1e-300))
    return BlockDesign(x_bar=x_bar, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau))


def mrt_user_block(params: SystemParams, link: LinkStats,
                   tau: float | None = None) -> BlockDesign:
    """Beam all energy toward the user: w = h1*/||h1||.

    With tau omitted, the harvest time maximizes the exact throughput of
    this beam by golden-section search.
    """
    g1 = link.n1_sq
    g2 = np.abs(link.inner) ** 2 / np.maximum(g1, 1e-300)
    if tau is None:
        tau = golden_tau(params, link, g1, g2)
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
