"""Analytic outage and throughput of the user-directed beam.

All results here assume the beam points entirely at the user
(w = h1*/||h1||), for which the end-to-end SNR splits into three
tractable branches:

  direct:      gamma_us = a1 * ||h1||^4
  user->relay: gamma_ur = b1 * ||h1||^2 * |h3|^2
  relay->AP:   gamma_rs = c1 * (|h1^H h2|^2 / ||h1||^2) * ||h2||^2

with coefficients a1, b1, c1 collecting the harvest efficiency, time
split, transmit SNR and path losses.

The relay->AP branch is c1 times z = |u|^2 * ||h2||^2, where u is the
component of h2 along h1. Splitting h2 into u and its part h2_perp
orthogonal to h1 gives two independent variates, e = |u|^2 ~ Exp(1) and
s = ||h2_perp||^2 ~ Gamma(N-1), with z = e (e + s). For a given s,
z <= x exactly when e is below the positive root of e^2 + s e - x, so

  P(z <= x) = E_s[1 - exp(-2x / (s + sqrt(s^2 + 4x)))],

an average of terms in [0, 1] that cannot cancel at any N. The average
over s is a fixed Gauss-Legendre rule on panels equally spaced in ln s,
which resolves both the sqrt(x) scale near s = 0 and the bulk of the
Gamma density. outage_exact integrates that CDF over |h3|^2 and ||h1||^2
with the same kind of rule, all nodes of both layers as numpy arrays.

As F depends on x and N only, outage_exact reads it from one table per N
(_mix_table, cached like the s rule) rather than summing the rule at each
of its about 28 000 arguments. The table's nodes are equally spaced in
u = ln x, at most 0.02 apart (about 5 000 nodes), from x = 1e-40 to the
point where F saturates; it holds ln F and its slope x F'/F, with F' from
the same s-sum, and a cubic Hermite in u joins them using numpy alone.
Against the direct sum it is within 2.8e-10 of F relative for N from 2 to
300, and a build takes about 6 ms. Below x = 1e-40 the read is the direct
sum. relay_mix_cdf itself stays the direct sum, so a test that checks it
against an independent quadrature also checks the table's source.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammainccinv, gammaincinv, gammaln, kve, psi

from .channel import BranchConstants, SystemParams, _is_int, branch_constants
from .sysmodel import link_throughput

__all__ = [
    "BranchConstants",
    "branch_constants",
    "relay_mix_cdf",
    "branch_cdfs",
    "branch_moments",
    "outage_exact",
    "outage_high_snr",
    "throughput_lower_bound",
]

_OUTAGE_SLOP = 1e-9

# Rules of _PANELS (_OUTER_PANELS per end of outage_exact's y range) Gauss-Legendre
# panels of _PANEL_NODES nodes, equally spaced in the log of the variable (_log_rule).
_PANELS = 8
_OUTER_PANELS = 12
_PANEL_NODES = 12
_NEGLIGIBLE_EXP = 40.0  # exp(-40) ~ 4e-18: below the resolution of 1.0
_GAMMA_TAIL = 1e-17  # Gamma(N-1) mass the s rule leaves off at each end
_S_FLOOR = 1e-6  # s in [0, _S_FLOOR] is lumped into one node
_T_FLOOR = 1e-15  # the t rule lumps at least [0, _T_FLOOR] into one node, so its
# panels stay narrow as t* -> 0 at the edge of the outage region
_MAX_ELEMENTS = 65536  # elements of the largest (x, s) temporary
_TABLE_X_LO = 1e-40  # lowest node of the mix-CDF table; below it the direct sum
_TABLE_STEP = 0.02  # largest step of the table's grid in ln x: F within 2.8e-10
# relative for about 6 ms a build; 0.05 builds in 2.5 ms but reaches 1.1e-8, the
# size of the 1e-8 tolerance that outage_exact is held to
_TOP_FLOOR = 1e-12  # outage_exact leaves off [(1 - _TOP_FLOOR) y_max, y_max]


@functools.cache
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The composite rule on [0, 1]; built on first use, as leggauss starts
    LAPACK (about 1 MB of resident memory) and most callers never need it."""
    x, w = leggauss(_PANEL_NODES)
    nodes = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    weights = np.tile(w / (2 * panels), panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _log_rule(lo, hi, panels: int = _PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes p and weights w with sum(w f(p)) ~ integral of f over [lo, hi],
    on equal panels in ln p; array ends give one row of nodes per entry."""
    nodes, weights = _unit_rule(panels)
    lo = np.asarray(lo, dtype=float)[..., None]
    span = np.log(np.asarray(hi, dtype=float)[..., None] / lo)
    p = lo * np.exp(span * nodes)
    return p, span * weights * p


@functools.lru_cache(maxsize=64)
def _mix_rule(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """s nodes and Gamma(N-1)-weighted weights of relay_mix_cdf's rule, and
    the x from which its CDF is 1 to double precision."""
    k = n - 1
    lo = max(float(gammaincinv(k, _GAMMA_TAIL)), _S_FLOOR)
    hi = float(gammainccinv(k, _GAMMA_TAIL))
    s, w = _log_rule(lo, hi)
    w *= np.exp((k - 1) * np.log(s) - s - gammaln(k))
    s = np.concatenate(([0.5 * lo], s))
    w = np.concatenate(([gammainc(k, lo)], w))
    s.setflags(write=False)
    w.setflags(write=False)
    # For s <= hi the root exceeds x / (hi + sqrt x), which reaches
    # _NEGLIGIBLE_EXP at sqrt x = r / 2 + sqrt(r^2 / 4 + r hi), r = _NEGLIGIBLE_EXP.
    r = _NEGLIGIBLE_EXP
    saturation = (0.5 * r + math.sqrt(0.25 * r * r + r * hi)) ** 2
    return s, w, saturation


def _mix_sum(x: np.ndarray, s: np.ndarray, w: np.ndarray, slope: bool = False):
    """F(x) = sum of w (1 - exp(-r)) over the s nodes, r^2 + s r = x, at each x
    of a flat array; with slope=True also dF/dx = sum of w exp(-r) / (2r + s).
    Rows of x go in chunks that keep every (x, s) temporary within _MAX_ELEMENTS."""
    f = np.empty(x.size)
    df = np.empty(x.size) if slope else None
    rows = _MAX_ELEMENTS // s.size
    for i in range(0, x.size, rows):
        xc = x[i:i + rows, None]
        root = 2.0 * xc / (s + np.sqrt(s * s + 4.0 * xc))
        f[i:i + rows] = (-np.expm1(-root) * w).sum(axis=1)
        if slope:
            df[i:i + rows] = (np.exp(-root) * w / (2.0 * root + s)).sum(axis=1)
    return (f, df) if slope else f


def relay_mix_cdf(x, n_antennas: int):
    """CDF of z = v * ||h2||^4, v ~ Beta(1, N-1) independent of ||h2||^2.

    Evaluated as E_s[1 - exp(-2x / (s + sqrt(s^2 + 4x)))] with
    s ~ Gamma(N-1) (see the module docstring) by a fixed positive rule, so
    it holds at any N. x may be a float, giving a float, or an array,
    giving an array of the same shape. 0 at x <= 0, and exactly 1 from an
    x at which 1 - CDF is below 2e-17.
    """
    if not _is_int(n_antennas):
        raise ValueError(f"n_antennas must be an integer, got {n_antennas!r}")
    if n_antennas < 2:
        raise ValueError("relay mix needs at least 2 antennas")
    s, w, saturation = _mix_rule(n_antennas)
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    out = np.where(flat >= saturation, 1.0, 0.0)
    inside = ~(flat <= 0.0) & ~(flat >= saturation)
    out[inside] = np.minimum(_mix_sum(flat[inside], s, w), 1.0)
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


@functools.lru_cache(maxsize=64)
def _mix_table(n: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """relay_mix_cdf's table for N antennas: ln x of its lowest node, its step
    in ln x, F at its nodes, and rows c1, c2, c3 of Hermite coefficients with
    one column per interval.

    The nodes are equally spaced in u = ln x, at most _TABLE_STEP apart, from
    x = _TABLE_X_LO to the saturation point. Over each interval, ln F is the
    cubic in t = (u - u_k) / step that matches ln F and its slope x F'/F at
    both ends, written as ln F_k + t (c1 + t (c2 + t c3)).
    """
    s, w, saturation = _mix_rule(n)
    u_lo, u_hi = float(np.log(_TABLE_X_LO)), float(np.log(saturation))
    intervals = math.ceil((u_hi - u_lo) / _TABLE_STEP)
    step = (u_hi - u_lo) / intervals
    x = np.exp(u_lo + step * np.arange(intervals + 1))
    x[0], x[-1] = _TABLE_X_LO, saturation
    f, df = _mix_sum(x, s, w, slope=True)
    f = np.minimum(f, 1.0)
    m = step * x * df / f  # d ln F / dt at the nodes
    d = np.log(f[1:] / f[:-1])
    # Slopes cut to 3 d keep each cubic monotone (Fritsch and Carlson 1980); the
    # cut acts only near saturation, where 1 - F, and so d, is a few ulps of 1.
    a, b = np.minimum(m[:-1], 3.0 * d), np.minimum(m[1:], 3.0 * d)
    coef = np.stack((a, 3.0 * d - 2.0 * a - b, a + b - 2.0 * d))
    f.setflags(write=False)
    coef.setflags(write=False)
    return u_lo, step, f, coef


def _mix_cdf_interp(x: np.ndarray, n: int) -> np.ndarray:
    """relay_mix_cdf(x, n) for an array x, read from _mix_table(n) between its
    lowest node and saturation and summed directly elsewhere (0 at x <= 0, 1
    from saturation). Each interval's values are held within the F of its
    ends, so the result never falls in x where the table's nodes do not."""
    u_lo, step, f, (c1, c2, c3) = _mix_table(n)
    flat = x.ravel()
    grid = (flat >= _TABLE_X_LO) & (flat < _mix_rule(n)[2])
    out = np.empty(flat.size)
    out[~grid] = relay_mix_cdf(flat[~grid], n)
    u = (np.log(flat[grid]) - u_lo) / step
    k = np.minimum(u.astype(np.intp), c1.size - 1)
    t = u - k
    lo, hi = f[k], f[k + 1]
    out[grid] = np.minimum(np.maximum(lo * np.exp(t * (c1[k] + t * (c2[k] + t * c3[k]))), lo), hi)
    return out.reshape(x.shape)


def branch_cdfs(params: SystemParams, tau: float) -> dict[str, Callable[[float], float]]:
    """CDF callables of the three SNR branches, keyed by branch name."""
    bc = branch_constants(params, tau)
    n = bc.n_antennas

    def cdf_direct(x: float) -> float:
        return float(gammainc(n, math.sqrt(x / bc.a1))) if x > 0.0 else 0.0

    def cdf_user_relay(x: float) -> float:
        # product of a Gamma(N) and an exponential variate: 1 - sum over m < N of
        # T_m = 2 t^((m+1)/2) K_{m-1}(2 sqrt t) / m!, t = x / b1, K_{-1} = K_1. ln T_m
        # and r_m = K_m / K_{m-1} run upward (the stable direction for K): 1/m!
        # underflows from m = 171 and K_m(2 sqrt t) overflows at large m and small t.
        if x <= 0.0:
            return 0.0
        rt = math.sqrt(x / bc.b1)
        k0, k1 = kve(0, 2.0 * rt), kve(1, 2.0 * rt)  # K_v(2 rt) e^(2 rt)
        log_term, ratio, acc = math.log(2.0 * rt * k1) - 2.0 * rt, k0 / k1, 0.0
        for m in range(n):
            acc += math.exp(log_term)
            log_term += math.log(rt * ratio / (m + 1))
            ratio = 1.0 / ratio + m / rt
        return min(1.0, max(0.0, 1.0 - acc))

    def cdf_relay_ap(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return relay_mix_cdf(x / bc.c1, n)

    return {"direct": cdf_direct, "user-relay": cdf_user_relay,
            "relay-ap": cdf_relay_ap}


def branch_moments(params: SystemParams, tau: float, order: int = 1) -> dict[str, float]:
    """n-th raw moment of each SNR branch, in closed form."""
    if order < 1:
        raise ValueError("order must be >= 1")
    bc = branch_constants(params, tau)
    n_ant = bc.n_antennas
    n = order
    # ||h1||^2 ~ Gamma(N) and |h3|^2 ~ Exp(1): E[y^k] = Gamma(N+k) / Gamma(N), E[mu^n] = n!
    direct = bc.a1 ** n * math.exp(math.lgamma(n_ant + 2 * n) - math.lgamma(n_ant))
    user_relay = bc.b1 ** n * math.exp(math.lgamma(n + 1) + math.lgamma(n_ant + n)
                                       - math.lgamma(n_ant))
    if n_ant >= 2:
        # z = v r^2 with v ~ Beta(1, N-1) and r = ||h2||^2 ~ Gamma(N)
        # independent: E[z^n] = E[v^n] E[r^2n] = n! Gamma(N+2n) / Gamma(N+n).
        relay_ap = bc.c1 ** n * math.exp(math.lgamma(n + 1) + math.lgamma(n_ant + 2 * n)
                                         - math.lgamma(n_ant + n))
    else:
        relay_ap = float("nan")

    return {"direct": direct, "user-relay": user_relay, "relay-ap": relay_ap}


def outage_exact(params: SystemParams, tau: float) -> float:
    """Outage probability of the user-directed beam at threshold gamma_th.

    The direct branch alone clears the threshold unless y = ||h1||^2 falls
    below y_max = sqrt(gamma_th / a1); inside that region the relayed term
    must make up the deficit G. Conditioned on y and |h3|^2 = mu, the
    relayed term misses G whenever its first hop b1*y*mu already falls
    short (mu < mu0), or otherwise when the relay->AP mix falls below
    chi = G/c1 + t*/t, with t = mu - mu0 and t* = G(G+1)/(b1 c1 y).
    Below the y_lo where mu0 = _NEGLIGIBLE_EXP outage is certain: [0, y_lo]
    adds its Gamma(N) mass. Over [y_lo, y_max] y runs on panels equally
    spaced in ln y (as in ln u, u = (y/y_max)^N, which flattens the y^(N-1)
    weight) up to the middle and in ln(y_max - y) above it, as the integrand
    has a kink at y_max; each y has its own t rule in ln t, from where the
    mix CDF leaves 1 to where exp(-t) becomes negligible.
    """
    bc = branch_constants(params, tau)
    n = bc.n_antennas
    if n < 2:
        raise ValueError("outage analysis needs at least 2 antennas")
    gth = params.gamma_th
    y_max = math.sqrt(gth / bc.a1)
    r = _NEGLIGIBLE_EXP * bc.b1  # G = r y at y_lo, the root of a1 y^2 + r y = gamma_th
    y_lo = 2.0 * gth / (r + math.sqrt(r * r + 4.0 * bc.a1 * gth))
    y_mid = 0.5 * (y_lo + y_max)
    yb, wy = _log_rule(y_lo, y_mid, _OUTER_PANELS)
    d_top, wd = _log_rule(_TOP_FLOOR * y_max, y_max - y_mid, _OUTER_PANELS)
    y, d = np.concatenate((yb, y_max - d_top)), np.concatenate((y_max - yb, d_top))
    weight = np.concatenate((wy, wd)) * np.exp((n - 1) * np.log(y) - y - math.lgamma(n))
    g = bc.a1 * d * (y_max + y)
    mu0 = g / (bc.b1 * y)
    # F(chi) = 1 for t <= t*/(saturation - a); [0, t_lo] is one node at its middle.
    a = g / bc.c1
    t_star = g * (g + 1.0) / (bc.b1 * bc.c1 * y)
    gap = _mix_rule(n)[2] - a
    t_lo = np.maximum(np.divide(t_star, gap, out=np.full(y.size, _NEGLIGIBLE_EXP),
                                where=gap * _NEGLIGIBLE_EXP > t_star), _T_FLOOR)
    t, w = _log_rule(t_lo, _NEGLIGIBLE_EXP)
    t = np.concatenate((0.5 * t_lo[:, None], t), axis=1)
    w = np.concatenate((-np.expm1(-t_lo)[:, None], w * np.exp(-t[:, 1:])), axis=1)
    second = (_mix_cdf_interp(a[:, None] + t_star[:, None] / t, n) * w).sum(axis=1)
    val = gammainc(n, y_lo) + weight @ (-np.expm1(-mu0) + np.exp(-mu0) * second)
    if val < -_OUTAGE_SLOP or val > 1.0 + _OUTAGE_SLOP:
        raise ValueError(f"outage estimate {val} escapes [0, 1]")
    return min(1.0, max(0.0, float(val)))


def outage_high_snr(params: SystemParams, tau: float) -> float:
    """High-SNR outage approximation; decays with exponent (N + 1) / 2.

    Independent of the relay->AP distance: with many antennas the second
    hop stops being the bottleneck. Clipped to 1 where the approximation
    exceeds a probability.
    """
    bc = branch_constants(params, tau)
    n = bc.n_antennas
    if n < 2:
        raise ValueError("high-SNR outage needs at least 2 antennas")
    # 2 (d3/d1)^alpha / (Gamma(N) (N+1) (N-1)) * (gamma_th / a1)^((N+1)/2), d3^a/d1^a = a1/b1
    log_val = (math.log(2.0 * bc.a1 / (bc.b1 * (n + 1) * (n - 1))) - math.lgamma(n)
               + 0.5 * (n + 1) * math.log(params.gamma_th / bc.a1))
    return 1.0 if log_val >= 0.0 else math.exp(log_val)


def throughput_lower_bound(params: SystemParams, tau: float) -> float:
    """Jensen-type lower bound on the mean throughput of the user beam.

    Built from the log-moments of the three branches plus the first
    moments of the two relay hops. The user->relay one is exact:
    ||h1||^2 ~ Gamma(N) and |h3|^2 ~ Exp(1) are independent, so
    E[gamma_ur] = b1 * N.
    """
    bc = branch_constants(params, tau)
    n = bc.n_antennas
    if n < 2:
        raise ValueError("throughput bound needs at least 2 antennas")
    psi1, psi_n = float(psi(1.0)), float(psi(n))
    m1 = math.log(bc.a1) + 2.0 * psi_n
    m2 = math.log(bc.b1) + psi1 + psi_n
    # E[ln z] = E[ln v] + 2 E[ln r] = psi(1) + psi(N), z = v r^2 as in branch_moments
    m3 = math.log(bc.c1) + psi1 + psi_n
    m4 = bc.b1 * n
    m5 = branch_moments(params, tau, order=1)["relay-ap"]
    relayed = math.exp(m2 + m3 - math.log1p(m4 + m5))
    return float(link_throughput(math.exp(m1) + relayed, tau))
