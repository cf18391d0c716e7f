import math

import mpmath as mp
import numpy as np
import pytest

from wprelay.specfun import (IntegrationError, QuadratureSpec, integrate_adaptive,
                             upper_incomplete_gamma, upper_incomplete_gamma_table)


def test_upper_gamma_positive_order_against_quadrature():
    for s, x in [(1.0, 0.5), (2.5, 1.0), (5.0, 3.0), (0.5, 2.0), (10.0, 12.0)]:
        oracle = integrate_adaptive(lambda t: t ** (s - 1) * math.exp(-t), x,
                                    math.inf)
        assert upper_incomplete_gamma(s, x) == pytest.approx(oracle, rel=1e-7)


def test_upper_gamma_negative_order_against_quadrature():
    for s, x in [(-1.0, 0.7), (-3.0, 1.5), (-6.0, 0.3), (-0.5, 2.0)]:
        oracle = integrate_adaptive(lambda t: t ** (s - 1) * math.exp(-t), x,
                                    math.inf)
        assert upper_incomplete_gamma(s, x) == pytest.approx(oracle, rel=1e-7)


def test_upper_gamma_recurrence():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}, valid for any s
    for s in (-7.0, -2.0, -0.3, 0.4, 3.0):
        for x in (0.2, 1.0, 4.0):
            lhs = upper_incomplete_gamma(s + 1.0, x)
            rhs = s * upper_incomplete_gamma(s, x) + x ** s * math.exp(-x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


def test_upper_gamma_table_matches_scalar():
    for x in (0.05, 0.8, 3.0, 20.0):
        table = upper_incomplete_gamma_table(-10, 6, x)
        assert sorted(table) == list(range(-10, 7))
        for s, v in table.items():
            assert v == pytest.approx(upper_incomplete_gamma(float(s), x),
                                      rel=1e-10, abs=1e-300)


def test_upper_gamma_table_deep_negative_order_against_mpmath():
    table = upper_incomplete_gamma_table(-18, 3, 40.0)
    assert sorted(table) == list(range(-18, 4))
    with mp.workdps(30):
        ref = {s: float(mp.gammainc(s, 40.0)) for s in table}
    for s, v in table.items():
        assert v == pytest.approx(ref[s], rel=1e-12, abs=0.0)


def test_upper_gamma_rejects_nonpositive_x_for_nonpositive_order():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(-1.0, 0.0)


def test_quadrature_polynomial_exact():
    assert integrate_adaptive(lambda t: 3 * t * t, 0.0, 2.0) == pytest.approx(8.0,
                                                                              rel=1e-12)


def test_quadrature_semi_infinite():
    assert integrate_adaptive(lambda t: math.exp(-t), 0.0, math.inf) == \
        pytest.approx(1.0, rel=1e-9)
    assert integrate_adaptive(lambda t: t * math.exp(-t * t), 1.0, math.inf) == \
        pytest.approx(0.5 * math.exp(-1.0), rel=1e-9)


def test_quadrature_integrable_singularity():
    assert integrate_adaptive(lambda t: 1.0 / math.sqrt(t), 1e-300, 1.0) == \
        pytest.approx(2.0, rel=1e-6)


def test_quadrature_reports_failure():
    cusp = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
    # sin(1/t) oscillates without end toward 0: no subdivision budget converges
    for f, lo, spec in [(lambda t: 1.0 / math.sqrt(abs(t - 0.377)), 0.0, cusp),
                        (lambda t: math.sin(1.0 / t), 1e-9, QuadratureSpec())]:
        with pytest.raises(IntegrationError) as exc:
            integrate_adaptive(f, lo, 1.0, spec)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error_bound > 0


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_quadrature_empty_and_reversed_interval():
    assert integrate_adaptive(lambda t: t, 1.0, 1.0) == 0.0
    # lo must be finite, hi finite or +inf, and lo <= hi
    for lo, hi in [(2.0, 1.0), (0.0, -math.inf), (math.inf, math.inf), (-math.inf, 0.0),
                   (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="bounds"):
            integrate_adaptive(lambda t: math.exp(-t), lo, hi)
