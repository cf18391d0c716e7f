import math

import mpmath as mp
import numpy as np
import pytest

from wprelay.timesplit import _w0, golden_max, optimal_tau, rate_upper


def test_optimal_tau_unit_coefficient():
    # kappa = 1 collapses to tau = (e - 1) / e
    assert optimal_tau(1.0) == pytest.approx((math.e - 1.0) / math.e, rel=1e-12)


def test_w0_matches_scipy_lambertw():
    from scipy.special import lambertw

    # every kappa optimal_tau takes W0 of, 1 and its neighbouring doubles among them
    kappa = np.concatenate([np.logspace(-4, 14, 20001),
                            1.0 + np.array([-4, -2, -1, 1, 2, 4]) * 2.0 ** -53])
    ref = lambertw((kappa - 1.0) / math.e).real
    np.testing.assert_allclose(_w0(kappa), ref, rtol=1e-13, atol=0.0)


def _mp_w0(kappa):
    # W0 at 40 digits of the very double x = (kappa - 1)/e that _w0 forms
    with mp.workdps(40):
        return [mp.lambertw(mp.mpf(float(x))) for x in (kappa - 1.0) / math.e]


def test_w0_near_the_branch_point_matches_mpmath():
    # near x = -1/e, W0 + 1 ~ sqrt(2 kappa) is what optimal_tau reads, and
    # the rounding of x alone moves it by about 1e-13 relative at kappa = 1e-4
    kappa = np.logspace(-4, math.log10(0.32), 200)
    w = _w0(kappa)
    for got, ref in zip(w, _mp_w0(kappa)):
        assert abs(got - ref) <= 2e-14 * abs(ref)
        assert abs((got + 1.0) - (ref + 1)) <= 1e-12 * (ref + 1)


def test_w0_at_large_kappa_matches_mpmath():
    kappa = np.logspace(6, 300, 200)
    for got, ref in zip(_w0(kappa), _mp_w0(kappa)):
        assert abs(got - ref) <= 1e-15 * ref


def test_w0_is_exact_at_unit_kappa():
    # x = 0: W0(0) = 0 with no 0/0 on the way, so tau is (e - 1)/e to the bit
    assert _w0(np.array([1.0, 1.0])).tolist() == [0.0, 0.0]
    assert _w0(np.float64(1.0)) == 0.0
    assert optimal_tau(1.0) == (math.e - 1.0) / math.e


def test_optimal_tau_matches_search():
    for kappa in np.logspace(-2, 6, 25):
        cf = optimal_tau(float(kappa))
        gs, top = golden_max(lambda t: rate_upper(float(kappa), t), 1e-9, 1.0 - 1e-9, 1e-12)
        assert cf == pytest.approx(gs, abs=1e-7)
        assert rate_upper(float(kappa), cf) == pytest.approx(top, rel=1e-9)


def test_optimal_tau_keeps_the_input_shape():
    assert isinstance(optimal_tau(2.0), float)
    kappa = np.array([0.5, 2.0, 1e4])
    taus = optimal_tau(kappa)
    assert isinstance(taus, np.ndarray) and taus.shape == (3,)
    assert list(taus) == [optimal_tau(float(k)) for k in kappa]


def test_optimal_tau_survives_the_branch_point_clamp():
    # kappa of 1e-16 and 2e-16 put (kappa - 1)/e within 1e-16 of -1/e, where
    # the double x keeps no digit of 1 + e x = kappa; the series takes over there
    kappa = np.array([1e-16, 2e-16])
    for tau in list(optimal_tau(kappa)) + [optimal_tau(float(k)) for k in kappa]:
        assert math.isfinite(tau) and 0.0 <= tau < 1.0


def test_optimal_tau_monotone_in_kappa():
    taus = [optimal_tau(float(k)) for k in np.logspace(-3, 8, 40)]
    assert all(0.0 < t < 1.0 for t in taus)
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_optimal_tau_near_the_branch_point_matches_mpmath():
    # 1 - tau = kappa / (kappa - 1 + z) at 60 digits; as a double below 1, tau
    # carries 1 - tau only to the spacing 2^-53 of the doubles just below 1
    kappa = np.logspace(-300, 8, 309)
    taus = optimal_tau(kappa)
    assert np.all((taus > 0.0) & (taus < 1.0))
    assert np.all(np.diff(taus) <= 0.0)
    with mp.workdps(60):
        for k, tau in zip(kappa, taus):
            km = mp.mpf(float(k))
            gap = float(km / (km - 1 + mp.exp(mp.lambertw((km - 1) / mp.e) + 1)))
            assert abs((1.0 - tau) - gap) <= 1e-9 * gap + 2.0 ** -53


def test_optimal_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        optimal_tau(0.0)


def test_rate_upper_values():
    assert rate_upper(3.0, 0.5) == pytest.approx(0.25 * math.log2(4.0))
    assert rate_upper(1.0, 0.0) == 0.0


def test_rate_upper_keeps_relative_accuracy_at_small_snr():
    # kappa tau/(1 - tau) = 1e-12 rounds off four digits in 1 + x; log1p keeps them
    with mp.workdps(50):
        ref = 0.25 * mp.log1p(mp.mpf(1e-12)) / mp.log(2)
    assert rate_upper(1e-12, 0.5) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_golden_max_quadratic():
    x, fx = golden_max(lambda t: -(t - 0.37) ** 2, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.37, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)
