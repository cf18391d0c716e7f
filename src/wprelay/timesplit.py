"""Harvest-time optimization: Lambert-W closed form and golden-section search.

Both accept arrays: optimal_tau solves every coefficient at once, and
golden_max runs one search per array entry in lockstep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lambertw

__all__ = [
    "TimeSplitResult",
    "lambert_w0",
    "optimal_tau",
    "search_tau",
    "golden_max",
    "rate_upper",
]

_INV_E = math.exp(-1.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TimeSplitResult:
    tau: float
    kappa: float
    method: str  # "lambert-w" | "search"
    objective: float


def _scalar_or_array(x):
    """Plain float for 0-d input, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def rate_upper(kappa, tau):
    """Rate bound (1-tau)/2 * log2(1 + kappa*tau/(1-tau))."""
    return 0.5 * (1.0 - tau) * np.log2(1.0 + kappa * tau / (1.0 - tau))


def lambert_w0(x):
    """Principal branch of the Lambert W function for x >= -1/e.

    Values within rounding slop below the branch point are clamped to it;
    there W = -1 (scipy returns NaN at the float nearest -1/e).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < -_INV_E - 1e-15):
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x.min()}")
    w = np.where(x <= -_INV_E + 1e-16, -1.0,
                 lambertw(np.maximum(x, -_INV_E)).real)
    return _scalar_or_array(w)


def optimal_tau(kappa) -> TimeSplitResult:
    """Closed-form maximizer of rate_upper(kappa, .) on (0, 1).

    kappa may be an array; the result's fields then are arrays too.
    """
    k = np.asarray(kappa, dtype=float)
    if not np.all(k > 0):
        raise ValueError(f"optimal_tau requires kappa > 0, got {kappa}")
    z = np.exp(lambert_w0((k - 1.0) / math.e) + 1.0)
    tau = _scalar_or_array((z - 1.0) / (k - 1.0 + z))
    return TimeSplitResult(tau=tau, kappa=kappa, method="lambert-w",
                           objective=_scalar_or_array(rate_upper(k, tau)))


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
        probe = np.where(left, b1 - _GOLDEN * (b1 - a1), a1 + _GOLDEN * (b1 - a1))
        fp = np.asarray(f(probe))
        c1 = np.where(left, probe, d)
        fc1 = np.where(left, fp, fd)
        d1 = np.where(left, c, probe)
        fd1 = np.where(left, fc, fp)
        a, b = np.where(active, a1, a), np.where(active, b1, b)
        c, fc = np.where(active, c1, c), np.where(active, fc1, fc)
        d, fd = np.where(active, d1, d), np.where(active, fd1, fd)
        active = (b - a) > tol
    x = 0.5 * (a + b)
    return _scalar_or_array(x), _scalar_or_array(np.asarray(f(x)))


def search_tau(objective, tol: float = 1e-9, kappa: float = float("nan")) -> TimeSplitResult:
    """Golden-section maximization of objective(tau) on (0, 1).

    Non-unimodal objectives yield a local maximum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eps = 1e-9
    tau, val = golden_max(objective, eps, 1.0 - eps, tol)
    return TimeSplitResult(tau=tau, kappa=kappa, method="search", objective=val)
