import math

import numpy as np
import pytest

from wprelay.timesplit import (TimeSplitResult, golden_max, lambert_w0,
                               optimal_tau, rate_upper, search_tau)


def test_lambert_defining_identity():
    for x in np.concatenate([np.logspace(-8, 8, 60),
                             [-0.367, -0.3, -0.1, -1e-5]]):
        w = lambert_w0(float(x))
        assert w * math.exp(w) == pytest.approx(float(x), rel=1e-12, abs=1e-15)


def test_lambert_special_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_rejects_below_branch_point():
    with pytest.raises(ValueError):
        lambert_w0(-0.5)


def test_optimal_tau_unit_coefficient():
    # kappa = 1 collapses to tau = (e - 1) / e
    r = optimal_tau(1.0)
    assert r.tau == pytest.approx((math.e - 1.0) / math.e, rel=1e-12)
    assert r.method == "lambert-w"


def test_optimal_tau_matches_search():
    for kappa in np.logspace(-2, 6, 25):
        cf = optimal_tau(float(kappa))
        gs = search_tau(lambda t: rate_upper(float(kappa), t), tol=1e-12)
        assert cf.tau == pytest.approx(gs.tau, abs=1e-7)
        assert cf.objective == pytest.approx(gs.objective, rel=1e-9)


def test_optimal_tau_monotone_in_kappa():
    taus = [optimal_tau(float(k)).tau for k in np.logspace(-3, 8, 40)]
    assert all(0.0 < t < 1.0 for t in taus)
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_optimal_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        optimal_tau(0.0)


def test_rate_upper_values():
    assert rate_upper(3.0, 0.5) == pytest.approx(0.25 * math.log2(4.0))
    assert rate_upper(1.0, 0.0) == 0.0


def test_golden_max_quadratic():
    x, fx = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.37, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)


def test_search_tau_result_fields():
    r = search_tau(lambda t: rate_upper(2.0, t))
    assert isinstance(r, TimeSplitResult)
    assert r.method == "search"
    assert math.isnan(r.kappa)
    with pytest.raises(ValueError):
        search_tau(lambda t: t, tol=0.0)
