"""Upper incomplete gamma and adaptive quadrature, called by nothing in the package.

analysis.outage_exact integrates with fixed rules of its own, and every
special function comes straight from scipy.special. This module stays
only because the benchmark under perfbench/ binds its names:
perfbench/run.py imports the module; perfbench/layers.py traces
integrate_adaptive and upper_incomplete_gamma_table (which calls
upper_incomplete_gamma); perfbench/workloads.py catches IntegrationError;
perfbench/test_perfbench.py calls integrate_adaptive (whose tolerances
are a QuadratureSpec). Once those bindings go, so can this file.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from scipy import special

__all__ = [
    "QuadratureSpec",
    "IntegrationError",
    "upper_incomplete_gamma",
    "upper_incomplete_gamma_table",
    "integrate_adaptive",
]


class IntegrationError(RuntimeError):
    """Quadrature failed to converge; carries the best available estimate."""

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for x > 0 and any real s.

    Positive s is Gamma(s) times the regularized gammaincc. gammaincc
    rejects s <= 0, so integer s <= 0 uses Gamma(s, x) = x^s E_{1-s}(x)
    and other s <= 0 Tricomi's Gamma(s, x) = x^s e^{-x} U(1, 1+s, x).
    """
    if x <= 0:
        raise ValueError(f"upper_incomplete_gamma requires x > 0, got {x}")
    if s > 0:
        return float(special.gamma(s) * special.gammaincc(s, x))
    if s == math.floor(s):
        return float(x ** s * special.expn(int(1 - s), x))
    return float(math.exp(s * math.log(x) - x) * special.hyperu(1.0, 1.0 + s, x))


def upper_incomplete_gamma_table(s_min: int, s_max: int, x: float) -> dict[int, float]:
    """Gamma(s, x) for every integer s in [s_min, s_max]."""
    if x <= 0:
        raise ValueError(f"upper_incomplete_gamma_table requires x > 0, got {x}")
    if s_min > s_max:
        raise ValueError("empty order range")
    return {s: upper_incomplete_gamma(float(s), x) for s in range(s_min, s_max + 1)}


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive integrator."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# 15-point Kronrod nodes/weights with embedded 7-point Gauss rule.
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    ik = _WGK[7] * fc
    ig = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        fa = f(mid - dx)
        fb = f(mid + dx)
        ik += _WGK[j] * (fa + fb)
        if j % 2 == 1:
            ig += _WG[j // 2] * (fa + fb)
    ik *= half
    ig *= half
    return ik, abs(ik - ig)


def integrate_adaptive(f, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive Gauss-Kronrod integral of f over [lo, hi].

    A semi-infinite upper limit is handled with the substitution
    t = u / (1 - u), mapping [lo, inf) onto (0, 1).
    """
    spec = spec or QuadratureSpec()
    if math.isinf(hi):
        base = lo

        def g(u: float) -> float:
            r = 1.0 - u
            return f(base + u / r) / (r * r)

        return integrate_adaptive(g, 0.0, 1.0, spec)
    if not (lo < hi):
        if lo == hi:
            return 0.0
        raise ValueError("integration bounds must satisfy lo <= hi")

    val, err = _gk15(f, lo, hi)
    segs = [(-err, 0, lo, hi, val, err)]
    total = val
    total_err = err
    count = 0
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        neg_err, _, a, b, v, e = heapq.heappop(segs)
        m = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        count += 1
        heapq.heappush(segs, (-e1, 2 * count, a, m, v1, e1))
        heapq.heappush(segs, (-e2, 2 * count + 1, m, b, v2, e2))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total
    raise IntegrationError(
        f"quadrature did not converge after {spec.max_subdivisions} subdivisions "
        f"(estimate {total:.6e}, error bound {total_err:.3e})",
        estimate=total,
        error_bound=total_err,
    )
