"""Harvest-time optimization: Lambert-W closed form and golden-section search.

optimal_tau maximizes the rate bound rate_upper(kappa, tau) in closed form,
for every coefficient of an array at once; beamform shifts it onto the
circuit-power threshold wherever the SNR is affine in tau/(1-tau), and
starts its tau profile's Newton steps from it. golden_max, one lockstep
search per array entry, is the independent search `wprelay verify` checks
optimal_tau against.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw

__all__ = [
    "optimal_tau",
    "golden_max",
    "rate_upper",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1
# Below _SERIES_KAPPA, W0 + 1 is the branch-point series sum c_j p^j, p = sqrt(2 kappa)
# (Corless et al. 1996); truncated after p^8 it is good to 1e-17 there.
_SERIES_KAPPA = 1e-4
_W_SERIES = (0.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280, -221 / 8505,
             680863 / 43545600, -1963 / 204120)


def _scalar_or_array(x):
    """Plain float for 0-d input, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def rate_upper(kappa, tau):
    """Rate bound (1-tau)/2 * log2(1 + kappa*tau/(1-tau)); log1p keeps its
    relative accuracy where kappa*tau/(1-tau) is small."""
    return 0.5 * (1.0 - tau) * np.log1p(kappa * tau / (1.0 - tau)) / _LN2


def optimal_tau(kappa):
    """Closed-form maximizer of rate_upper(kappa, .) on (0, 1).

    tau = (z - 1)/(kappa - 1 + z) with z = exp(W0((kappa - 1)/e) + 1); a
    float for a float kappa, an array for an array. As kappa -> 0,
    x = (kappa - 1)/e nears W0's branch point -1/e, where 1 + e x = kappa
    cancels; below _SERIES_KAPPA, W0 + 1 comes instead from the branch-point
    series in sqrt(2 kappa), and tau = 1 - kappa/(kappa + z - 1) keeps
    1 - tau ~ sqrt(kappa/2) to full relative accuracy. tau is capped at the
    largest double below 1.
    """
    k = np.asarray(kappa, dtype=float)
    if not np.all(k > 0):
        raise ValueError(f"optimal_tau requires kappa > 0, got {kappa}")
    z = np.exp(lambertw((k - 1.0) / math.e).real + 1.0)  # NaN below -1/e, replaced there
    tau = np.asarray((z - 1.0) / (k - 1.0 + z))
    small = k < _SERIES_KAPPA
    if small.any():
        ks = k[small]
        z1 = np.expm1(np.polynomial.polynomial.polyval(np.sqrt(2.0 * ks), _W_SERIES))
        tau[small] = np.minimum(1.0 - ks / (ks + z1), _BELOW_ONE)
    return _scalar_or_array(tau)


def golden_max(f, lo, hi, tol: float):
    """Golden-section maximum of a unimodal f on [lo, hi]; returns (x, f(x)).

    lo and hi may be arrays: f then maps an array of abscissae to the
    array of values, one independent search per entry. The searches run
    in lockstep, one call of f per step; each entry stops where the scalar
    search would, once its own bracket is no wider than tol, so the count
    of steps is fixed by the widest bracket and tol.
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.asarray(f(c)), np.asarray(f(d))
    active = (b - a) > tol
    while active.any():
        left = fc >= fd  # the maximum lies in [a, d]
        a1 = np.where(left, a, c)
        b1 = np.where(left, d, b)
        step = _GOLDEN * (b1 - a1)
        probe = np.where(left, b1 - step, a1 + step)
        fp = np.asarray(f(probe))
        c1 = np.where(left, probe, d)
        fc1 = np.where(left, fp, fd)
        d1 = np.where(left, c, probe)
        fd1 = np.where(left, fc, fp)
        if active.all():
            a, b, c, fc, d, fd = a1, b1, c1, fc1, d1, fd1
        else:
            a, b = np.where(active, a1, a), np.where(active, b1, b)
            c, fc = np.where(active, c1, c), np.where(active, fc1, fc)
            d, fd = np.where(active, d1, d), np.where(active, fd1, fd)
        active = (b - a) > tol
    x = 0.5 * (a + b)
    return _scalar_or_array(x), _scalar_or_array(np.asarray(f(x)))
