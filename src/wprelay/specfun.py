"""Thin wrappers over scipy.integrate.quad and scipy.special, called by nothing in the package.

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


def integrate_adaptive(f, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Integral of f over [lo, hi] by QUADPACK's adaptive qags (scipy.integrate.quad).

    lo must be finite, hi finite or +inf, and lo <= hi. An infinite upper
    limit is mapped onto [0, 1] by t = lo + u / (1 - u), and the mapped
    integrand is integrated by a second call. At most
    spec.max_subdivisions splits are made; if QUADPACK stops short of the
    tolerances, IntegrationError carries its estimate and error bound.
    """
    if not (math.isfinite(lo) and lo <= hi):
        raise ValueError(f"integration bounds need finite lo <= hi, hi finite or +inf; "
                         f"got lo={lo}, hi={hi}")
    spec = spec or QuadratureSpec()
    if hi == math.inf:
        def g(u: float) -> float:
            r = 1.0 - u
            return f(lo + u / r) / (r * r)

        return integrate_adaptive(g, 0.0, 1.0, spec)
    # scipy.integrate is imported here so that importing this module loads
    # only scipy.special
    from scipy.integrate import quad

    # n splits make n + 1 pieces, and QUADPACK's limit counts pieces
    val, err, _, *failed = quad(f, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                                limit=spec.max_subdivisions + 1, full_output=1)
    if failed:
        reason = failed[0].splitlines()[0].strip()
        raise IntegrationError(f"quadrature did not converge: {reason} "
                               f"(estimate {val:.6e}, error bound {err:.3e})",
                               estimate=val, error_bound=err)
    return val
