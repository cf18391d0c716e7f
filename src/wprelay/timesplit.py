"""Harvest-time optimization: Lambert-W closed form and a bounded scalar search.

optimal_tau maximizes the rate bound rate_upper(kappa, tau) in closed form,
for every coefficient of an array at once; beamform shifts it onto the
circuit-power threshold wherever the SNR is affine in tau/(1-tau), and
starts its tau profile's Newton steps from it. golden_max, scipy's
bounded scalar search on one interval, is the independent search
`wprelay verify` checks optimal_tau against.
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

_LN2 = math.log(2.0)
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1
# Below _SERIES_KAPPA, W0 + 1 is the branch-point series sum c_j p^j, p = sqrt(2 kappa)
# (Corless et al. 1996); truncated after p^8 it is good to 1e-17 there.
_SERIES_KAPPA = 1e-4
_W_SERIES = (0.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280, -221 / 8505,
             680863 / 43545600, -1963 / 204120)


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
    return float(tau) if tau.ndim == 0 else tau


def golden_max(f, lo: float, hi: float, tol: float):
    """Maximum of a unimodal f on [lo, hi] by scipy's bounded scalar search
    (Brent's golden-section and parabolic steps, to xatol = tol plus
    sqrt(eps) relative to x); returns (x, f(x))."""
    from scipy.optimize import minimize_scalar  # not on import: only verify and tests search

    x = float(minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                              options={"xatol": tol}).x)
    return x, float(f(x))
