import math

import mpmath as mp
import numpy as np
import pytest

from wprelay.specfun import (IntegrationError, QuadratureSpec, bessel_k,
                             digamma, gamma_fn, integrate_adaptive, log_gamma,
                             upper_incomplete_gamma,
                             upper_incomplete_gamma_table)


def test_gamma_integer_factorials():
    for n in range(1, 15):
        assert gamma_fn(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)


def test_gamma_half():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_recurrence():
    for x in (0.3, 1.7, 4.2, 9.9, 21.5):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


def test_log_gamma_consistent_with_gamma():
    for x in (0.2, 1.0, 3.5, 20.0, 120.0):
        assert log_gamma(x) == pytest.approx(math.log(gamma_fn(x)), rel=1e-12)
    # large argument against Stirling series leading terms
    x = 300.0
    stirling = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2 * math.pi) + 1 / (12 * x)
    assert log_gamma(x) == pytest.approx(stirling, rel=1e-10)


def test_digamma_recurrence_and_psi_one():
    for x in (0.4, 1.0, 2.3, 7.7):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)
    euler = 0.5772156649015329
    assert digamma(1.0) == pytest.approx(-euler, abs=1e-13)
    # psi(N) = psi(1) + harmonic(N-1)
    assert digamma(6.0) == pytest.approx(-euler + sum(1 / m for m in range(1, 6)),
                                         rel=1e-13)


def test_digamma_matches_log_gamma_derivative():
    h = 1e-6
    for x in (0.8, 3.0, 12.0):
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
        assert digamma(x) == pytest.approx(fd, rel=1e-8)


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


def test_bessel_k_integral_representation():
    # K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt; the tail beyond t=30
    # is below 1e-300 for every x tested here.
    for n in range(0, 6):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            oracle = integrate_adaptive(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(n * t), 0.0, 30.0)
            assert bessel_k(n, x) == pytest.approx(oracle, rel=1e-8)


def test_bessel_k_recurrence():
    for x in (0.3, 1.0, 4.0, 15.0):
        for n in range(1, 8):
            lhs = bessel_k(n + 1, x)
            rhs = bessel_k(n - 1, x) + 2 * n / x * bessel_k(n, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_bessel_k_rejects_bad_args():
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(-1, 1.0)


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
    spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=3)
    with pytest.raises(IntegrationError) as exc:
        integrate_adaptive(lambda t: 1.0 / math.sqrt(abs(t - 0.377)), 0.0, 1.0, spec)
    assert exc.value.error_bound > 0


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def test_quadrature_empty_and_reversed_interval():
    assert integrate_adaptive(lambda t: t, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: t, 2.0, 1.0)
