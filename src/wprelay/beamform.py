"""Energy-beam and harvest-time optimization strategies.

Every strategy solves a whole lane array at once (solve_lanes) from the
per-lane SNR coefficients (channel.ChannelDecomposition, built once per
block) and channel statistics (channel.LinkStats), and returns a
BlockDesign: per lane, the mixing coefficient x_bar of the two-direction
beam, the harvest fraction tau, and the beam gains that the SNR needs. A
lane is one trial under one cell's constants, so one call solves a block
for a stack of cells (montecarlo); solve_block is the one cell's call:

- "exact":      joint (x_bar, tau) maximum of the exact throughput: a
                branch-and-bound over x_bar bounds each interval at its
                largest beam gains, in closed form first (the Lambert-W
                maximum of gamma <= gd + xu xr/(xu + xr)) and by the tau
                profile only where that fails, certifies every trial to 1e-3
                (BlockDesign.rate_bound), then climbs the profile's rate in
                x_bar by Newton steps in each basin that could still win,
                each lane until its own step falls to rounding level.
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
threshold and, above both thresholds, the root of the rate's stationarity
condition, by bracketed Newton steps on the SNR's analytic derivatives from
the Lambert-W start or from a start the caller gives.

direct_tau is the same closed form for the direct-link baseline. solve
is the one single-channel entry point: it runs solve_block on a block of
one and returns that trial's BeamformerDesign with the beam vector itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams,
                      _check_tau, _draws, build_beamformer)
from .sysmodel import (coefficient_snr, harvest_threshold, link_snr, link_throughput,
                       relay_threshold)
from .timesplit import _BELOW_ONE, optimal_tau, rate_upper

__all__ = [
    "BeamformerDesign",
    "BlockDesign",
    "direct_tau",
    "solve",
    "solve_block",
    "solve_lanes",
    "solve_suboptimal_xbar",
    "tau_profile",
    "STRATEGIES",
]

STRATEGIES = ("exact", "suboptimal", "large-n", "mrt-user")
SCENARIOS = ("mixed-slope-negative", "mixed-slope-zero", "mixed-slope-positive")

_SLOPE_ZERO_BAND = 1e-9
_SLICE = 8192  # x_bar points per slice of bound_min over one channel
_K_MAX = 2.0 ** 53  # k = tau/(1 - tau) past which tau rounds to 1
_TOL = 1e-10  # a profile lane stops once its step in k is at most this times 1 + k
_MAX_STEPS = 100  # profile steps at most
_CERT = 1e-3  # relative certificate of exact
_INTERVALS = 32  # starting x_bar intervals of exact
_SPLIT = 4  # parts of each interval that exact splits
_PARTS = np.arange(_SPLIT + 1) / _SPLIT
_MAX_ROUNDS = 20  # splits at most; 32 * 4**20 intervals span 1e-14
_GROUP = 256  # trials per branch-and-bound pass, which bounds its lane arrays
_NEWTON_STEPS = 6  # refine profiles per lane at most
_THETA_TOL = 1e-8  # a refine lane stops once its next step in theta is at most this
_FD_STEP = 1e-5
_TRUST = 0.1  # first trust radius of _refine
_STENCIL = np.array([-1.0, 0.0, 1.0]) * _FD_STEP  # theta offsets of _refine's differences


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
    """Designs for the lanes of a ChannelDecomposition, one array entry per
    lane; g1 and g2 may hold one entry per trial, which broadcasts against
    the lanes, where the beam does not depend on the cell.

    g1 = |h1^T w|^2 and g2 = |h2^T w|^2 are the gains of the beam w.
    gamma_bound is the SNR upper bound that the suboptimal and large-n
    designs maximize; scenario (an index into SCENARIOS) and case_index
    are filled by the suboptimal design only. rate_bound, filled by the
    exact design only, is each trial's certificate: no (x_bar, tau) rates
    above it, up to rounding, and it is at most 1e-3 above the trial's own
    rate.
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
    fields of dec are arrays and as plain scalars otherwise; scenario is a
    name of SCENARIOS for a scalar and an index into it in an array. With
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
    if np.ndim(x_opt) == 0:
        return float(x_opt), float(gamma), SCENARIOS[int(scenario)], int(case)
    return x_opt, gamma, scenario, case


def _lambert_tau(dec: ChannelDecomposition, kappa: np.ndarray, g1: np.ndarray,
                 relay: bool = True) -> np.ndarray:
    """tau maximizing log(1 + kappa (k - k_u))/(1 + k), k = tau/(1-tau), above
    the user's harvest threshold t_u = k_u/(1 + k_u) for beam gain g1; NaN
    where kappa <= 0. In s = (k - k_u)/(1 + k_u) that is the pc-free rate of
    kappa/(1 - t_u), so tau = t_u + (1 - t_u) optimal_tau(kappa/(1 - t_u)),
    or the double below 1 where t_u rounds to 1."""
    t_u = np.broadcast_to(harvest_threshold(dec, g1, relay), np.shape(kappa))
    tau = np.full(np.shape(kappa), np.nan)
    good = kappa > 0.0
    if np.any(good):
        span = np.maximum(1.0 - t_u[good], 1.0 - _BELOW_ONE)
        tau[good] = np.minimum(t_u[good] + span * optimal_tau(kappa[good] / span), _BELOW_ONE)
    return tau


def suboptimal_block(dec: ChannelDecomposition, link: LinkStats) -> BlockDesign:
    """Closed-form beam plus Lambert-W harvest time on the SNR upper bound.

    The beam maximizing the bound does not depend on tau (every branch
    scales by the same tau factor), so it is computed once from the
    coefficients at k = 1 and the harvest time follows from the resulting
    SNR coefficient and the user's harvest threshold under that beam.
    """
    x_opt, kappa, scenario, case = solve_suboptimal_xbar(dec)
    g1, g2 = beam_gains(dec.a, dec.b, dec.c, x_opt)
    tau = _lambert_tau(dec, kappa, g1)
    return BlockDesign(x_bar=x_opt, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau),
                       scenario=scenario, case_index=case)


def direct_tau(dec: ChannelDecomposition, link: LinkStats) -> np.ndarray:
    """Per-lane tau maximizing the direct-link baseline's exact throughput:
    above the user's harvest threshold its SNR is kappa_d (k - k_u), with
    kappa_d = a0 ||h1||^2 / 2 (half the relay case's harvest scale)."""
    return _lambert_tau(dec, 0.5 * dec.a0 * link.n1_sq, link.n1_sq, relay=False)


def tau_profile(dec: ChannelDecomposition, g1: np.ndarray, g2: np.ndarray,
                start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Best harvest fraction for the beam gains (g1, g2) of each lane of dec,
    and its rate; g1, g2 and the fields of dec are arrays of one shape.

    Below the relay's threshold only the direct link carries data, so the
    Lambert-W tau capped there is best. Above k0 = max(k_u, k_r), gamma(k) =
    a (k - k_u) + xu xr/(xu + xr + 1) with xu = c (k - k_u), xr = d (k - k_r),
    and the rate log(1 + gamma)/(1 + k) has one hump (observed and pinned by
    the tests; gamma is not concave in k) where phi = gamma' (1 + k) -
    (1 + gamma) ln(1 + gamma) changes sign. Lanes with phi(k0) <= 0, NaN
    lanes and lanes past _K_MAX take k0. The others take Newton steps on phi
    within the bracket its signs give, from the lane's start k where one is
    given (k0 where it is NaN or lower), else from k0 + (1 + k0) k_LW
    (optimal_tau's k for the large-k slope a + c d/(c + d)). A step that
    would leave the bracket bisects it instead, or doubles 1 + k while it
    has no upper end. A lane stops once its step is at most _TOL (1 + k).
    The higher rate wins.
    """
    with np.errstate(all="ignore"):
        k_u, k_r = (np.divide(need, g) if _draws(need) else np.zeros(np.shape(g))
                    for need, g in ((dec.need_u, g1), (dec.need_r, g2)))
        a, c, d = dec.a0 * g1, dec.c0 * g1, dec.d0 * g2
        u = c * d * (k_u - k_r)  # c xr - d xu
        w = 2.0 * (c * d + (d - c) * u - u * u)  # gamma'' (xu + xr + 1)^3, the same at every k
        k = np.maximum(k_u, k_r)
        # without a circuit power k0 = 0, where phi = a
        draw = _draws(dec.need_u) or _draws(dec.need_r)
        phi = _phi(a, c, d, k_u, k_r, w, k)[0] if draw else a + 0.0 * (a + c + d)
        live = np.flatnonzero((phi > 0.0) & (k < _K_MAX))
        lane = np.array((a, c, d, k_u, k_r, w, k))[:, live]  # the last row is lo
        if start is None:
            kappa = lane[0] + lane[1] * lane[2] / (lane[1] + lane[2])
            t = optimal_tau(np.where(kappa > 0.0, kappa, 1.0))
            x = lane[6] + (1.0 + lane[6]) * t / (1.0 - t)
        else:
            x = np.fmax(start[live], lane[6])
        hi = np.full(live.size, np.inf)
        for _ in range(_MAX_STEPS):
            if not live.size:
                break
            phi, dphi = _phi(*lane[:6], x)
            up = phi > 0.0
            lo, hi = np.where(up, x, lane[6]), np.where(up, hi, x)
            step = x - phi / dphi
            k[live] = step = np.where((step >= lo) & (step <= hi), step,
                                      np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * x + 1.0))
            going = np.abs(step - x) > _TOL * (1.0 + x)
            lane[6], x = lo, step
            if not going.all():
                live, lane, hi, x = live[going], lane[:, going], hi[going], x[going]
        k = np.minimum(k, _K_MAX)
    tau_up = np.minimum(k / (1.0 + k), _BELOW_ONE)
    top = link_throughput(coefficient_snr(dec, g1, g2, tau_up), tau_up)
    if not _draws(dec.need_r):  # no tau lies below the relay's threshold
        return tau_up, top
    low = np.minimum(_lambert_tau(dec, a, g1), relay_threshold(dec, g2))
    r_low = link_throughput(coefficient_snr(dec, g1, g2, low), low)
    better = r_low > top
    return np.where(better, low, tau_up), np.where(better, r_low, top)


def _phi(a, c, d, k_u, k_r, w, k):
    """phi of tau_profile and its slope at k, from the analytic gamma' and
    gamma'' = w/(xu + xr + 1)^3."""
    t = k - k_u
    xu, xr = c * t, d * (k - k_r)
    s = xu + xr + 1.0
    gamma = a * t + xu * xr / s
    s2 = s * s
    d1 = a + (c * xr * (xr + 1.0) + d * xu * (xu + 1.0)) / s2
    log = np.log1p(gamma)
    k1 = 1.0 + k
    return d1 * k1 - (1.0 + gamma) * log, w / (s2 * s) * k1 - d1 * log


def _g2_max(b, c, lo, hi):
    """|h2^T w|^2 = (b x + c sqrt(1 - x^2))^2 at x_bar = hi, and its largest value
    over x_bar in [lo, hi]: at an end, or at x = b/sqrt(b^2 + c^2), where it is
    b^2 + c^2."""
    at_hi = beam_gains(0.0, b, c, hi)[1]
    g2 = np.maximum(beam_gains(0.0, b, c, lo)[1], at_hi)
    with np.errstate(invalid="ignore"):
        peak = b / np.hypot(b, c)
    return at_hi, np.where((lo <= peak) & (peak <= hi), np.maximum(g2, b * b + c * c), g2)


def _lambert_bound(dec: ChannelDecomposition, g1: np.ndarray, g2: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form bound on the rate of the beam gains (g1, g2) at every tau,
    and the tau attaining it; NaN where kappa below is not positive.

    With a = a0 g1, c = c0 g1, d = d0 g2: gamma <= a pu + xu xr/(xu + xr) <=
    kappa (k - k_m)+ with kappa = a + c d/(c + d) and k_m = min(k_u, k_r), as
    the user harvests nothing below k_u, xu xr/(xu + xr) (at most min(xu, xr))
    rises in both, and above k_m each power is at most its gain times k - k_m.
    In s = (k - k_m)/(1 + k_m) that is the pc-free bound rate_upper of
    kappa/(1 - t_m), scaled by 1 - t_m, whose maximum is the Lambert-W one.
    Without a circuit power its tau is tau_profile's Lambert-W start."""
    c, d = dec.c0 * g1, dec.d0 * g2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = dec.a0 * g1 + np.where(c + d > 0.0, c * d / (c + d), 0.0)
    bound, tau = np.full((2, kappa.size), np.nan)
    good = kappa > 0.0
    span = 1.0 - np.minimum(harvest_threshold(dec, g1), relay_threshold(dec, g2))[good]
    span = np.maximum(span, 1.0 - _BELOW_ONE)
    kappa = kappa[good] / span
    t = optimal_tau(kappa) if kappa.size else kappa
    tau[good] = np.minimum(1.0 - span * (1.0 - t), _BELOW_ONE)
    bound[good] = span * rate_upper(kappa, t)
    return bound, tau


def _refine(dec: ChannelDecomposition, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent of the tau profile's rate in theta, x_bar = cos(theta),
    lane by lane; returns the best theta found and its harvest fraction.

    Each step fits a parabola to central differences of spacing _FD_STEP
    (theta continues through 0 by a signed sin(theta)) and moves to its top,
    or up the slope where it is not concave, within [0, pi/2] and a trust
    radius that doubles after a step that raises the rate and otherwise
    shrinks to a quarter of the step, which is then dropped. After the first,
    each profile starts from the parabola through the lane's last three k =
    tau/(1 - tau). A lane stops once its next step is at most _THETA_TOL, or
    after _NEWTON_STEPS profiles.
    """
    n, m = theta.size, _STENCIL.size
    lanes = dec[np.repeat(np.arange(n), m)]
    out, out_tau = theta.copy(), np.zeros(n)
    live, best, th, tb = np.arange(n), theta, theta, out_tau  # tb: the tau at best
    fb, radius = np.full((n, m), -np.inf), np.full(n, _TRUST)
    guess = None  # the first profiles start from the Lambert-W k
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            point = (th[:, None] + _STENCIL).ravel()
            cos, sin = np.cos(point), np.sin(point)
            t, f = (v.reshape(-1, m) for v in tau_profile(
                lanes, np.square(lanes.a * cos), np.square(lanes.b * cos + lanes.c * sin), guess))
            up = f[:, 1] > fb[:, 1]
            radius = np.where(up, 2.0 * radius, 0.25 * np.abs(th - best))
            best, tb = np.where(up, th, best), np.where(up, t[:, 1], tb)
            fb = np.where(up[:, None], f, fb)
            slope = (fb[:, 2] - fb[:, 0]) / (2 * _FD_STEP)
            curve = (fb[:, 2] - 2 * fb[:, 1] + fb[:, 0]) / _FD_STEP ** 2
            step = np.where(curve < 0.0, -slope / curve, np.sign(slope) * radius)
            step = np.minimum(np.maximum(np.where(np.isfinite(step), step, 0.0), -radius), radius)
            at, th = th, np.minimum(np.maximum(best + step, 0.0), 0.5 * math.pi)
            going = np.abs(th - best) > _THETA_TOL
            if not going.all():
                out[live], out_tau[live] = best, tb
                live, best, th, at, tb, fb, radius, t = (
                    v[going] for v in (live, best, th, at, tb, fb, radius, t))
                lanes = lanes[np.repeat(going, m)]
                if not live.size:
                    break
            k = t / (1.0 - t)
            z = (th - at)[:, None] / _FD_STEP + _STENCIL / _FD_STEP  # in stencil spacings
            guess = (k[:, 1:2] + z * (0.5 * (k[:, 2:] - k[:, :1])
                                      + z * (0.5 * (k[:, 2:] + k[:, :1]) - k[:, 1:2]))).ravel()
    out[live], out_tau[live] = best, tb
    return out, out_tau


def _exact_group(dec: ChannelDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_bar, tau and rate bound of each trial of dec; see exact_block."""
    m = dec.a.size
    t = np.repeat(np.arange(m), _INTERVALS)
    hi = np.tile(np.arange(1, _INTERVALS + 1) / _INTERVALS, m)
    lo = hi - 1.0 / _INTERVALS
    node = np.arange(t.size)  # the intervals that end at new nodes: all (x_bar = 0 rates 0)
    best = np.zeros(m)
    nodes, leaves = [], []
    for rnd in range(_MAX_ROUNDS):
        # every interval's largest gains, bounded in closed form; the new nodes,
        # each the right end of an interval, rated at that bound's tau
        lanes = dec[t]
        g1, (g2_hi, g2) = np.square(lanes.a * hi), _g2_max(lanes.b, lanes.c, lo, hi)
        cap, tau = _lambert_bound(lanes, g1, g2)
        nt, nx, n1, n2, ntau = t[node], hi[node], g1[node], g2_hi[node], tau[node]
        val = link_throughput(coefficient_snr(lanes[node], n1, n2, ntau), ntau)
        np.fmax.at(best, nt, val)
        keep = np.flatnonzero(cap > best[t] * (1.0 + _CERT))  # a NaN cap: nothing rates above 0
        if rnd and keep.size:
            # past the first round the profile bounds the intervals left open,
            # and rates the new nodes that end or start one (the part after
            # a new node is of the same split interval)
            on = np.flatnonzero(np.isin(node, keep) | np.isin(node + 1, keep))
            ptau, rate = tau_profile(lanes[np.concatenate([node[on], keep])],
                                     np.concatenate([n1[on], g1[keep]]),
                                     np.concatenate([n2[on], g2[keep]]))
            ntau[on], val[on], cap[keep] = ptau[:on.size], rate[:on.size], rate[on.size:]
            np.fmax.at(best, nt, val)
            keep = keep[cap[keep] > best[t[keep]] * (1.0 + _CERT)]  # a NaN bound never splits
        nodes.append((nt, nx, ntau, val))
        if rnd == _MAX_ROUNDS - 1:
            keep = keep[:0]
        leaf = np.ones(t.size, dtype=bool)
        leaf[keep] = False
        leaves.append((t[leaf], hi[leaf], cap[leaf]))
        if not keep.size:
            break
        edges = lo[keep, None] + (hi[keep] - lo[keep])[:, None] * _PARTS
        edges[:, -1] = hi[keep]
        t, lo, hi = np.repeat(t[keep], _SPLIT), edges[:, :-1].ravel(), edges[:, 1:].ravel()
        # each part but the last ends at a new node
        node = (np.arange(keep.size)[:, None] * _SPLIT + np.arange(_SPLIT - 1)).ravel()
    # every leaf ends at a node, so sorted by trial and x_bar the two line up
    nt, nx, ntau, nval = map(np.concatenate, zip(*nodes))
    order = np.lexsort((nx, nt))
    nt, nx, ntau, nval = nt[order], nx[order], ntau[order], nval[order]
    lt, lhi, lbound = (np.concatenate(v) for v in zip(*leaves))
    lorder = np.lexsort((lhi, lt))
    same = nt[1:] == nt[:-1]  # node i + 1 is of node i's trial
    left = np.concatenate([[0.0], np.where(same, nval[:-1], 0.0)])
    right = np.concatenate([np.where(same, nval[1:], -np.inf), [-np.inf]])
    adj = lbound[lorder]
    adj = np.fmax(adj, np.concatenate([np.where(same, adj[1:], -np.inf), [-np.inf]]))
    near = adj > best[nt] * (1.0 - _CERT)
    # With a circuit power, at x_bar = 1 the direct link's closed form can win
    # below the relay's threshold, whose k_r = t_r/(1 - t_r) falls as 1/g2 while
    # the beam turns towards the relay: the relay starts to harvest at the
    # direct link's k = tau/(1 - tau) where (b cos(theta) + c sin(theta))^2 =
    # b^2 k_r/k: climb from x_bar = 1 and from there too.
    end = nx == 1.0
    one = end & _draws(dec.need_r)
    start = ((nval >= left) & (nval >= right) & near) | one
    ends = dec[nt[one]]
    b, c, k = ends.b, ends.c, ntau[one] / (1.0 - ntau[one])
    t_r = relay_threshold(ends, b * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        on = np.sqrt(t_r / ((1.0 - t_r) * k)) * b / np.hypot(b, c)
        theta_on = np.arctan2(c, b) - np.arccos(np.minimum(on, 1.0))
    # each local maximum but x_bar = 1 starts at the top of the parabola through
    # it and its neighbours (x_bar = 0 rates 0), which lies between them
    th = np.arccos(nx[start])
    d0 = th - np.arccos(np.concatenate([[0.0], np.where(same, nx[:-1], 0.0)])[start])
    d2 = th - np.arccos(np.concatenate([np.where(same, nx[1:], 1.0), [1.0]])[start])
    e0, e2 = nval[start] - left[start], nval[start] - right[start]
    with np.errstate(divide="ignore", invalid="ignore"):
        top = th - 0.5 * (d0 * d0 * e2 - d2 * d2 * e0) / (d0 * e2 - d2 * e0)
    st = np.concatenate([nt[start], nt[one]])
    lanes = dec[st]
    theta, tau = _refine(lanes, np.concatenate([np.where(np.isfinite(top), top, th),
                                                np.maximum(theta_on, 0.0) + 4.0 * _FD_STEP]))
    x = np.cos(np.clip(theta, 0.0, 0.5 * math.pi))
    g1, g2 = beam_gains(lanes.a, lanes.b, lanes.c, x)
    val = link_throughput(coefficient_snr(lanes, g1, g2, tau), tau)
    # the starts and x_bar = 1 compete too, so no trial ends below its best node
    start |= end
    st, x = np.concatenate([st, nt[start]]), np.concatenate([x, nx[start]])
    tau, val = np.concatenate([tau, ntau[start]]), np.concatenate([val, nval[start]])
    order = np.lexsort((-x, -val, st))  # per trial the best rate, ties to the larger x_bar
    first = order[np.diff(st[order], prepend=-1) != 0]
    bound = val[first]
    np.fmax.at(bound, lt, lbound)
    return x[first], tau[first], bound


def exact_block(dec: ChannelDecomposition, link: LinkStats) -> BlockDesign:
    """Joint (x_bar, tau) maximization of the exact throughput, with a certificate.

    A branch-and-bound over x_bar: link_snr rises in g1 and in g2 at every
    tau, so on an interval [lo, hi] of x_bar a bound at g1 = a^2 hi^2 and at
    the interval's largest g2 (_g2_max) bounds the rate. It starts from
    _INTERVALS intervals. Each round bounds every interval in closed form
    (_lambert_bound) and rates each new node, the right end of an interval,
    at that bound's tau. In the first round that alone decides; past it the
    tau profile bounds the intervals that the closed form leaves open and
    rates the new nodes that end or start one. Every interval whose bound
    exceeds the best rate so far by more than _CERT relative is split into
    _SPLIT parts, until none is. Each bound holds up to rounding.

    _refine then climbs from each local maximum of the rated nodes next to
    an interval whose bound comes within _CERT of the best (a basin that
    could still win), from the top of the parabola through it and its
    neighbours (x_bar = 1 from itself), and, with a circuit power, from
    x_bar = 1 and from the beam near x_bar = 1 at which the relay starts to
    harvest at the direct link's tau. The best of starts, x_bar = 1 and
    refined points wins, ties to the larger x_bar (a collinear trial, c = 0,
    keeps x_bar = 1). rate_bound, the larger of its rate and the largest
    interval bound, is within (1 + _CERT) of the rate. Trials run in groups
    of _GROUP lanes, each on its own channel only: every start and stop
    depends on its own lane, so a block equals each of its lanes solved alone.
    """
    shape, dec = np.shape(dec.a0), dec.flat()
    x, tau, bound = (np.concatenate(v) for v in zip(*(
        _exact_group(dec[i:i + _GROUP]) for i in range(0, max(dec.a0.size, 1), _GROUP))))
    g1, g2 = beam_gains(dec.a, dec.b, dec.c, x)
    x, tau, g1, g2, bound = (v.reshape(shape) for v in (x, tau, g1, g2, bound))
    return BlockDesign(x_bar=x, tau=tau, g1=g1, g2=g2, rate_bound=bound)


def large_n_block(dec: ChannelDecomposition, link: LinkStats) -> BlockDesign:
    """Many-antenna beam: mix raw h1*/||h1|| and h2*/||h2|| directions.

    In the limit the two channel vectors become orthogonal; the mixing
    weight then depends only on the channel norms. For finite N the two
    directions are not exactly orthogonal, so the combined vector is
    renormalized before use.
    """
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
    tau = _lambert_tau(dec, np.maximum(kappa, 1e-300), g1)
    return BlockDesign(x_bar=x_bar, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau))


def mrt_user_block(dec: ChannelDecomposition, link: LinkStats,
                   tau: float | None = None) -> BlockDesign:
    """Beam all energy toward the user: w = h1*/||h1||.

    With tau omitted, the harvest time maximizes the exact throughput of
    this beam: tau_profile at x_bar = 1.
    """
    g1 = link.n1_sq
    g2 = np.abs(link.inner) ** 2 / np.maximum(g1, 1e-300)
    shape = np.shape(dec.a0)
    if tau is None:  # the profile runs on the lanes laid flat
        lanes = (np.broadcast_to(g, shape).ravel() for g in (g1, g2))
        tau = tau_profile(dec.flat(), *lanes)[0].reshape(shape)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), shape)
    return BlockDesign(x_bar=np.ones(g1.shape), tau=tau, g1=g1, g2=g2)


_BLOCK_SOLVERS = {"exact": exact_block, "suboptimal": suboptimal_block,
                  "large-n": large_n_block}


def solve_lanes(strategy: str, dec: ChannelDecomposition, link: LinkStats,
                tau: float | None = None) -> BlockDesign:
    """Solve every lane of dec, whose trials are those of link (a stack's
    lanes are each of them under every cell); tau fixes the harvest time of
    mrt-user."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "mrt-user":
        if tau is not None:
            _check_tau(tau)
        return mrt_user_block(dec, link, tau=tau)
    if tau is not None:
        raise ValueError(f"{strategy} optimizes tau; only mrt-user takes a fixed tau")
    return _BLOCK_SOLVERS[strategy](dec, link)


def solve_block(strategy: str, params: SystemParams, link: LinkStats,
                tau: float | None = None) -> BlockDesign:
    """Solve every trial of link under params: solve_lanes of one cell."""
    return solve_lanes(strategy, ChannelDecomposition.of(params, link), link, tau=tau)


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
        scenario=None if design.scenario is None else SCENARIOS[int(design.scenario[0])],
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
