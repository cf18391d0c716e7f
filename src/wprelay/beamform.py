"""Energy-beam and harvest-time optimization strategies.

Every strategy solves a whole block of trials at once from the per-trial
channel statistics (channel.LinkStats), read through their SNR coefficients
(channel.ChannelDecomposition, built once per block), and returns a
BlockDesign: per trial, the mixing coefficient x_bar of the two-direction
beam, the harvest fraction tau, and the beam gains that the SNR needs:

- "exact":      joint (x_bar, tau) maximum of the exact throughput: a
                branch-and-bound over x_bar bounds each interval by the tau
                profile at the interval's largest beam gains, certifies
                every trial to 1e-3 (BlockDesign.rate_bound), then climbs
                the profile's rate in x_bar by Newton steps in each basin
                that could still win.
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
condition, by bracketed Newton steps on the SNR's analytic derivatives.

direct_tau is the same closed form for the direct-link baseline. solve
is the one single-channel entry point: it runs solve_block on a block of
one and returns that trial's BeamformerDesign with the beam vector itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelDecomposition, ChannelState, LinkStats, SystemParams,
                      build_beamformer)
from .sysmodel import (coefficient_snr, harvest_threshold, link_snr, link_throughput,
                       relay_threshold)
from .timesplit import _BELOW_ONE, optimal_tau

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
_SLICE = 8192  # x_bar points per slice of bound_min over one channel
_K_MAX = 2.0 ** 53  # k = tau/(1 - tau) past which tau rounds to 1
_TOL = 1e-10  # a profile lane stops once its step in k is at most this times 1 + k
_MAX_STEPS = 100  # profile steps at most
_CERT = 1e-3  # relative certificate of exact
_INTERVALS = 32  # starting x_bar intervals of exact
_MAX_ROUNDS = 40  # interval halvings at most; 32 * 2**40 intervals span 1e-14
_GROUP = 256  # trials per branch-and-bound pass, which bounds its lane arrays
_NEWTON_STEPS = 6
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
    """Designs for a block of trials, one array entry per trial.

    g1 = |h1^T w|^2 and g2 = |h2^T w|^2 are the gains of the beam w.
    gamma_bound is the SNR upper bound that the suboptimal and large-n
    designs maximize; scenario and case_index are filled by the suboptimal
    design only. rate_bound, filled by the exact design only, is each
    trial's certificate: no (x_bar, tau) rates above it, up to rounding,
    and it is at most 1e-3 above the trial's own rate.
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


def _lambert_tau(dec: ChannelDecomposition, kappa: np.ndarray, g1: np.ndarray,
                 relay: bool = True) -> np.ndarray:
    """tau maximizing log(1 + kappa (k - k_u))/(1 + k), k = tau/(1-tau), above
    the user's harvest threshold t_u = k_u/(1 + k_u) for beam gain g1; NaN
    where kappa <= 0. In s = (k - k_u)/(1 + k_u) that is the pc-free rate of
    kappa/(1 - t_u), so tau = t_u + (1 - t_u) optimal_tau(kappa/(1 - t_u)),
    or the double below 1 where t_u rounds to 1."""
    t_u = harvest_threshold(dec, g1, relay)
    tau = np.full(np.shape(kappa), np.nan)
    good = kappa > 0.0
    if np.any(good):
        span = np.maximum(1.0 - t_u[good], 1.0 - _BELOW_ONE)
        tau[good] = np.minimum(t_u[good] + span * optimal_tau(kappa[good] / span), _BELOW_ONE)
    return tau


def suboptimal_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Closed-form beam plus Lambert-W harvest time on the SNR upper bound.

    The beam maximizing the bound does not depend on tau (every branch
    scales by the same tau factor), so it is computed once from the
    coefficients at k = 1 and the harvest time follows from the resulting
    SNR coefficient and the user's harvest threshold under that beam.
    """
    dec = ChannelDecomposition.of(params, link)
    x_opt, kappa, scenario, case = solve_suboptimal_xbar(dec)
    g1, g2 = beam_gains(link.a, link.b, link.c, x_opt)
    tau = _lambert_tau(dec, kappa, g1)
    return BlockDesign(x_bar=x_opt, tau=tau, g1=g1, g2=g2,
                       gamma_bound=kappa * tau / (1.0 - tau),
                       scenario=scenario, case_index=case)


def direct_tau(params: SystemParams, link: LinkStats) -> np.ndarray:
    """Per-trial tau maximizing the direct-link baseline's exact throughput:
    above the user's harvest threshold its SNR is kappa_d (k - k_u), with
    kappa_d = a0 ||h1||^2 / 2 (half the relay case's harvest scale)."""
    dec = ChannelDecomposition.of(params, link)
    return _lambert_tau(dec, 0.5 * dec.a0 * link.n1_sq, link.n1_sq, relay=False)


def tau_profile(dec: ChannelDecomposition, g1: np.ndarray, g2: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Best harvest fraction for the beam gains (g1, g2) of each lane of dec,
    and its rate.

    Below the relay's threshold only the direct link carries data, so the
    Lambert-W tau capped there is best. Above k0 = max(k_u, k_r), gamma(k) =
    a (k - k_u) + xu xr/(xu + xr + 1) with xu = c (k - k_u), xr = d (k - k_r),
    and the rate log(1 + gamma)/(1 + k) has one hump (observed and pinned by
    the tests; gamma is not concave in k) where phi = gamma' (1 + k) -
    (1 + gamma) ln(1 + gamma) changes sign. Lanes with phi(k0) <= 0, NaN
    lanes and lanes past _K_MAX take k0; the others start at k0 + (1 + k0) k_LW
    (optimal_tau's k for the large-k slope a + c d/(c + d)) and take Newton
    steps on phi within the bracket its signs give. A step that would leave
    the bracket bisects it instead, or doubles 1 + k while it has no upper
    end. A lane stops once its step is at most _TOL (1 + k). The higher
    rate wins.
    """
    with np.errstate(all="ignore"):
        coef = np.broadcast_arrays(dec.a0 * g1, dec.c0 * g1, dec.d0 * g2, *(
            np.divide(need, g) if need else np.zeros(np.shape(g))
            for need, g in ((dec.need_u, g1), (dec.need_r, g2))))  # a, c, d, k_u, k_r
        k = np.maximum(coef[3], coef[4])
        live = np.flatnonzero((_phi(*coef, k)[0] > 0.0) & (k < _K_MAX))
        a, c, d, k_u, k_r, lo = (v[live] for v in (*coef, k))
        kappa = a + c * d / (c + d)
        t = optimal_tau(np.where(kappa > 0.0, kappa, 1.0))
        x, hi = lo + (1.0 + lo) * t / (1.0 - t), np.full(live.size, np.inf)
        for _ in range(_MAX_STEPS):
            if not live.size:
                break
            phi, dphi = _phi(a, c, d, k_u, k_r, x)
            lo, hi = np.where(phi > 0.0, x, lo), np.where(phi > 0.0, hi, x)
            step = x - phi / dphi
            k[live] = step = np.where((step >= lo) & (step <= hi), step,
                                      np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * x + 1.0))
            going = np.abs(step - x) > _TOL * (1.0 + x)
            live, a, c, d, k_u, k_r, lo, hi, x = (
                v[going] for v in (live, a, c, d, k_u, k_r, lo, hi, step))
        k = np.minimum(k, _K_MAX)
    tau_up = np.minimum(k / (1.0 + k), _BELOW_ONE)
    top = link_throughput(coefficient_snr(dec, g1, g2, tau_up), tau_up)
    if dec.need_r == 0.0:  # no tau lies below the relay's threshold
        return tau_up, top
    low = np.minimum(_lambert_tau(dec, coef[0], g1), relay_threshold(dec, g2))
    r_low = link_throughput(coefficient_snr(dec, g1, g2, low), low)
    better = r_low > top
    return np.where(better, low, tau_up), np.where(better, r_low, top)


def _phi(a, c, d, k_u, k_r, k):
    """phi of tau_profile and its slope at k, from the analytic gamma' and gamma''."""
    xu, xr = c * (k - k_u), d * (k - k_r)
    s = xu + xr + 1.0
    gamma = a * (k - k_u) + xu * xr / s
    d1 = a + (c * xr * (xr + 1.0) + d * xu * (xu + 1.0)) / (s * s)
    u = c * d * (k_u - k_r)  # c xr - d xu
    d2 = 2.0 * (c * d + (d - c) * u - u * u) / (s * s * s)
    log = np.log1p(gamma)
    return d1 * (1.0 + k) - (1.0 + gamma) * log, d2 * (1.0 + k) - d1 * log


def _g2_max(b, c, lo, hi):
    """Largest |h2^T w|^2 = (b x + c sqrt(1 - x^2))^2 over x_bar in [lo, hi]: at an
    end, or at x = b/sqrt(b^2 + c^2), where it is b^2 + c^2."""
    g2 = np.maximum(beam_gains(0.0, b, c, lo)[1], beam_gains(0.0, b, c, hi)[1])
    with np.errstate(invalid="ignore"):
        peak = b / np.hypot(b, c)
    return np.where((lo <= peak) & (peak <= hi), np.maximum(g2, b * b + c * c), g2)


def _refine(dec: ChannelDecomposition, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton ascent of the tau profile's rate in theta, x_bar = cos(theta),
    lane by lane; returns the best theta found and its harvest fraction.

    theta continues through 0 by a signed sin(theta). Each step fits a
    parabola to central differences of spacing _FD_STEP and moves to its top,
    or up the slope where it is not concave, within a trust radius that
    doubles after a step that raises the rate and otherwise shrinks to a
    quarter of the step, which is then dropped.
    """
    lanes = dec[np.repeat(np.arange(theta.size), _STENCIL.size)]

    def profile(th):  # rates around each th, and the tau at th
        th = (th[:, None] + _STENCIL).ravel()
        cos, sin = np.cos(th), np.sin(th)
        tau, rate = tau_profile(lanes, np.square(lanes.a * cos),
                                np.square(lanes.b * cos + lanes.c * sin))
        return rate.reshape(-1, _STENCIL.size), tau.reshape(-1, _STENCIL.size)[:, 1]

    th = best = theta  # the point proposed and the best one
    fb, tau = np.full((theta.size, _STENCIL.size), -np.inf), np.zeros_like(theta)
    radius = np.full_like(theta, _TRUST)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            f, t = profile(th)
            up = f[:, 1] > fb[:, 1]
            radius = np.where(up, 2.0 * radius, 0.25 * np.abs(th - best))
            best, tau = np.where(up, th, best), np.where(up, t, tau)
            fb = np.where(up[:, None], f, fb)
            slope = (fb[:, 2] - fb[:, 0]) / (2 * _FD_STEP)
            curve = (fb[:, 2] - 2 * fb[:, 1] + fb[:, 0]) / _FD_STEP ** 2
            step = np.where(curve < 0.0, -slope / curve, np.sign(slope) * radius)
            th = best + np.clip(np.where(np.isfinite(step), step, 0.0), -radius, radius)
    return best, tau


def _exact_group(dec: ChannelDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x_bar, tau and rate bound of each trial of dec; see exact_block."""
    m = dec.a.size
    t = np.repeat(np.arange(m), _INTERVALS)
    hi = np.tile(np.arange(1, _INTERVALS + 1) / _INTERVALS, m)
    lo = hi - 1.0 / _INTERVALS
    nt, nx = t, hi  # nodes still to rate: every right end (x_bar = 0 rates 0)
    best = np.zeros(m)
    nodes, leaves = [], []
    for rnd in range(_MAX_ROUNDS):
        g1, g2 = beam_gains(dec.a[nt], dec.b[nt], dec.c[nt], nx)
        tau, val = tau_profile(
            dec[np.concatenate([nt, t])], np.concatenate([g1, np.square(dec.a[t] * hi)]),
            np.concatenate([g2, _g2_max(dec.b[t], dec.c[t], lo, hi)]))
        n = nt.size
        nodes.append((nt, nx, tau[:n], val[:n]))
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
    start = ((nval >= left) & (nval >= right) & near) | (nx == 1.0)
    # At x_bar = 1 the direct link's closed form can win below the relay's
    # threshold, whose k_r = t_r/(1 - t_r) falls as 1/g2 while the beam turns
    # towards the relay: the relay starts to harvest at the direct link's
    # k = tau/(1 - tau) where (b cos(theta) + c sin(theta))^2 = b^2 k_r/k: climb
    # from there too.
    one = nx == 1.0
    b, c, k = dec.b[nt[one]], dec.c[nt[one]], ntau[one] / (1.0 - ntau[one])
    t_r = relay_threshold(dec, b * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        on = np.sqrt(t_r / ((1.0 - t_r) * k)) * b / np.hypot(b, c)
        theta_on = np.arctan2(c, b) - np.arccos(np.minimum(on, 1.0))
    st = np.concatenate([nt[start], nt[one]])
    lanes = dec[st]
    theta, tau = _refine(lanes, np.concatenate([np.arccos(nx[start]),
                                                np.maximum(theta_on, 0.0) + 4.0 * _FD_STEP]))
    x = np.cos(np.clip(theta, 0.0, 0.5 * math.pi))
    g1, g2 = beam_gains(lanes.a, lanes.b, lanes.c, x)
    val = link_throughput(coefficient_snr(lanes, g1, g2, tau), tau)
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
    so far by more than _CERT relative is halved, until none is. Each
    profile is converged, so each bound holds up to rounding.

    _refine then climbs from each local maximum of the rated ends next to
    an interval whose bound comes within _CERT of the best (a basin that
    could still win), from x_bar = 1, and from the beam near x_bar = 1 at
    which the relay starts to harvest at the direct link's tau. The best of
    starts and refined points wins, ties to the larger x_bar (a collinear
    trial, c = 0, keeps x_bar = 1). rate_bound, the larger of its rate and
    the largest interval bound, is within (1 + _CERT) of the rate. Trials
    run in groups of _GROUP, each on its own channel only.
    """
    dec = ChannelDecomposition.of(params, link)
    x, tau, bound = (np.concatenate(v) for v in zip(*(
        _exact_group(dec[i:i + _GROUP]) for i in range(0, max(len(link), 1), _GROUP))))
    g1, g2 = beam_gains(link.a, link.b, link.c, x)
    return BlockDesign(x_bar=x, tau=tau, g1=g1, g2=g2, rate_bound=bound)


def large_n_block(params: SystemParams, link: LinkStats) -> BlockDesign:
    """Many-antenna beam: mix raw h1*/||h1|| and h2*/||h2|| directions.

    In the limit the two channel vectors become orthogonal; the mixing
    weight then depends only on the channel norms. For finite N the two
    directions are not exactly orthogonal, so the combined vector is
    renormalized before use.
    """
    dec = ChannelDecomposition.of(params, link)
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


def mrt_user_block(params: SystemParams, link: LinkStats,
                   tau: float | None = None) -> BlockDesign:
    """Beam all energy toward the user: w = h1*/||h1||.

    With tau omitted, the harvest time maximizes the exact throughput of
    this beam: tau_profile at x_bar = 1.
    """
    g1 = link.n1_sq
    g2 = np.abs(link.inner) ** 2 / np.maximum(g1, 1e-300)
    if tau is None:
        tau = tau_profile(ChannelDecomposition.of(params, link), g1, g2)[0]
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
