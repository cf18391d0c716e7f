import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc

from wprelay.analysis import (_TABLE_X_LO, BranchConstants, _mix_cdf_interp, _mix_rule,
                              _mix_table, branch_cdfs, branch_constants, branch_moments,
                              outage_exact, outage_high_snr, relay_mix_cdf,
                              throughput_lower_bound)
from wprelay.channel import SystemParams, sample_channel_block
from wprelay.montecarlo import estimate

PARAMS = SystemParams(n_antennas=5, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
TAU = 0.4


def _branch_samples(params, tau, n_samples, seed=0):
    """Direct samples of the three branch SNRs from raw fading draws."""
    rng = np.random.default_rng(seed)
    n = params.n_antennas
    bc = branch_constants(params, tau)
    h1 = (rng.standard_normal((n_samples, n))
          + 1j * rng.standard_normal((n_samples, n))) / math.sqrt(2)
    h2 = (rng.standard_normal((n_samples, n))
          + 1j * rng.standard_normal((n_samples, n))) / math.sqrt(2)
    h3 = (rng.standard_normal(n_samples)
          + 1j * rng.standard_normal(n_samples)) / math.sqrt(2)
    y = np.sum(np.abs(h1) ** 2, axis=1)
    n2 = np.sum(np.abs(h2) ** 2, axis=1)
    mix = np.abs(np.einsum("ij,ij->i", np.conj(h1), h2)) ** 2 / y * n2
    return bc.a1 * y ** 2, bc.b1 * y * np.abs(h3) ** 2, bc.c1 * mix


def test_branch_constants_scaling():
    bc = branch_constants(PARAMS, TAU)
    scale = 2 * PARAMS.eta * TAU * PARAMS.rho / (1 - TAU)
    assert bc.a1 == pytest.approx(scale / PARAMS.d1 ** (2 * PARAMS.alpha))
    assert bc.b1 == pytest.approx(scale / (PARAMS.d1 ** PARAMS.alpha
                                           * PARAMS.d3 ** PARAMS.alpha))
    assert bc.c1 == pytest.approx(scale / PARAMS.d2 ** (2 * PARAMS.alpha))
    with pytest.raises(ValueError):
        branch_constants(PARAMS, 1.0)


def test_relay_mix_cdf_shape():
    for n in (2, 3, 5, 10):
        vals = [relay_mix_cdf(x, n) for x in np.logspace(-6, 4, 60)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert relay_mix_cdf(0.0, 4) == 0.0
    assert relay_mix_cdf(1e9, 4) == 1.0
    with pytest.raises(ValueError):
        relay_mix_cdf(1.0, 1)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "4", None])
def test_relay_mix_cdf_rejects_a_non_integer_antenna_count(n):
    with pytest.raises(ValueError, match="n_antennas must be an integer"):
        relay_mix_cdf(1.0, n)


def _mix_cdf_oracle(x, n):
    """P(v g^2 <= x), g ~ Gamma(N), v ~ Beta(1, N-1), by mpmath quadrature:
    P(g <= sqrt x) + E[1 - (1 - x/g^2)^(N-1); g > sqrt x]."""
    with mp.workdps(30):
        x = mp.mpf(x)
        r = mp.sqrt(x)
        head = mp.gammainc(n, 0, r, regularized=True)
        tail = mp.quad(lambda g: mp.exp((n - 1) * mp.log(g) - g - mp.loggamma(n))
                       * (1 - (1 - x / g ** 2) ** (n - 1)), [r, r + n, mp.inf])
        return float(head + tail)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 30, 40, 50, 64])
def test_relay_mix_cdf_matches_mpmath(n):
    for c in (1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
        x = c * (n + 1)
        assert abs(relay_mix_cdf(x, n) - _mix_cdf_oracle(x, n)) <= 1e-9, (n, x)


def test_relay_mix_cdf_array_matches_scalar():
    for n in (2, 7, 64):
        # long enough to span several internal chunks, with both limits
        x = np.concatenate([[-1.0, 0.0, 1e9], np.logspace(-8, 5, 1997)])
        got = relay_mix_cdf(x, n)
        assert got.shape == x.shape
        assert np.array_equal(got, [relay_mix_cdf(float(v), n) for v in x])
        assert np.array_equal(relay_mix_cdf(x.reshape(-1, 8), n), got.reshape(-1, 8))
    assert isinstance(relay_mix_cdf(2.0, 3), float)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 300),
       x=st.lists(st.floats(1e-12, 1e4) | st.floats(0.0, 1e300), min_size=1, max_size=40))
@example(n=2, x=[0.0, 1e-300, 1e-12, 1.0, 1e4, 1e300])
@example(n=300, x=[0.0, 1e-300, 1e-12, 1.0, 1e4, 1e300])
def test_relay_mix_cdf_is_a_cdf_over_the_whole_range(n, x):
    # in [0, 1], never falling in x, and the same whether x comes as an array or one by one
    x = np.sort(np.array(x))
    got = relay_mix_cdf(x, n)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.diff(got) >= 0.0)
    assert np.array_equal(got, [relay_mix_cdf(float(v), n) for v in x])


@pytest.mark.parametrize("n", [2, 3, 5, 10, 64, 300])
def test_mix_table_read_matches_the_direct_sum(n):
    # Across the grid within 1e-9 of F relative: the worst of 200 000 random x
    # per N was 2.8e-10 (N = 300), 3.6x inside the bound. Outside it the read
    # is the direct sum, bit for bit.
    saturation = _mix_rule(n)[2]
    x = np.exp(np.random.default_rng(n).uniform(math.log(_TABLE_X_LO), math.log(saturation),
                                                20_000))
    ref = relay_mix_cdf(x, n)
    assert np.all(np.abs(_mix_cdf_interp(x, n) - ref) <= 1e-9 * ref)
    outside = np.array([-1.0, 0.0, 1e-300, 1e-45, np.nextafter(_TABLE_X_LO, 0.0),
                        saturation, np.nextafter(saturation, np.inf), 2.0 * saturation, 1e300])
    assert np.array_equal(_mix_cdf_interp(outside, n), relay_mix_cdf(outside, n))
    # sorted x, the table's nodes and their neighbouring doubles among them, and
    # the last decade before saturation, where 1 - F is only some ulps of 1 (at
    # N = 5 cubics through the nodes' own slopes fall there by up to 4e-15)
    u_lo, step, f, _ = _mix_table(n)
    nodes = np.exp(u_lo + step * np.arange(f.size))
    xs = np.sort(np.concatenate((x, outside, nodes, np.nextafter(nodes, 0.0),
                                 np.nextafter(nodes, np.inf), [_TABLE_X_LO],
                                 np.geomspace(0.1 * saturation, saturation, 5000))))
    got = _mix_cdf_interp(xs, n)
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.diff(got) >= 0.0)


def test_branch_cdfs_match_simulation():
    gus, gur, grs = _branch_samples(PARAMS, TAU, 200_000)
    cdfs = branch_cdfs(PARAMS, TAU)
    for name, sample in [("direct", gus), ("user-relay", gur),
                         ("relay-ap", grs)]:
        f = cdfs[name]
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            x = float(np.quantile(sample, q))
            assert f(x) == pytest.approx(q, abs=0.005)


def test_branch_moments_match_simulation():
    gus, gur, grs = _branch_samples(PARAMS, TAU, 400_000, seed=1)
    for order in (1, 2):
        mom = branch_moments(PARAMS, TAU, order=order)
        for name, sample in [("direct", gus), ("user-relay", gur),
                             ("relay-ap", grs)]:
            mc = sample ** order
            se = float(np.std(mc) / math.sqrt(mc.size))
            assert abs(mom[name] - float(np.mean(mc))) <= 4 * se
    with pytest.raises(ValueError):
        branch_moments(PARAMS, TAU, order=0)


def test_outage_matches_simulation():
    params = SystemParams(n_antennas=2, d1=20.0, d2=15.0, d3=15.0, ps_dbm=-22.0)
    gus, gur, grs = _branch_samples(params, 0.5, 400_000, seed=2)
    gamma = gus + gur * grs / (gur + grs + 1.0)
    p_mc = float(np.mean(gamma < params.gamma_th))
    se = math.sqrt(p_mc * (1 - p_mc) / gamma.size)
    assert outage_exact(params, 0.5) == pytest.approx(p_mc, abs=3.5 * se)


@pytest.mark.parametrize("n, ps", [(40, -66.0), (50, -68.0)])
def test_outage_matches_simulation_at_large_n(n, ps):
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
    mc = estimate(params, "mrt-user", 200_000, 2, metric="outage", tau=0.5)
    assert 0.05 < mc.value < 0.12
    assert outage_exact(params, 0.5) == pytest.approx(mc.value, abs=3.5 * mc.std_err)


def _outage_by_nested_quad(params, tau, outer_epsabs=1e-14):
    """outage_exact's double integral with QUADPACK for both layers."""
    bc = branch_constants(params, tau)
    n, gth = bc.n_antennas, params.gamma_th

    def given_y(y):
        g = gth - bc.a1 * y * y
        mu0 = g / (bc.b1 * y)
        t_star = g * (g + 1.0) / (bc.b1 * bc.c1 * y)
        inner = integrate.quad(lambda t: relay_mix_cdf(g / bc.c1 + t_star / t, n) * math.exp(-t),
                               0.0, math.inf, epsabs=1e-13, epsrel=1e-10, limit=200)[0]
        return (-math.expm1(-mu0) + math.exp(-mu0) * inner) * math.exp(
            (n - 1) * math.log(y) - y - math.lgamma(n))

    return integrate.quad(given_y, 0.0, math.sqrt(gth / bc.a1), epsabs=outer_epsabs,
                          epsrel=1e-10, limit=200)[0]


@pytest.mark.parametrize("n, ps", [(2, -40.0), (40, -66.0)])
def test_outage_matches_nested_quadrature(n, ps):
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
    assert outage_exact(params, 0.5) == pytest.approx(_outage_by_nested_quad(params, 0.5),
                                                      rel=1e-8)


@pytest.mark.parametrize("n, ps", [(10, -35.0), (64, -60.0), (200, -76.0), (10, 30.0)])
def test_small_outage_matches_nested_quadrature(n, ps):
    # outages of 1e-44 to 4e-9, checked relative to their size (outer epsabs = 0)
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
    ref = _outage_by_nested_quad(params, 0.5, outer_epsabs=0.0)
    assert outage_exact(params, 0.5) == pytest.approx(ref, rel=1e-8, abs=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n=st.integers(2, 300), ps=st.floats(-300.0, 300.0) | st.floats(-100.0, 20.0))
@example(n=300, ps=-85.0)
@example(n=2, ps=-40.0)
def test_outage_below_direct_only_and_falls_with_power(n, ps):
    # ps over any finite power, and more often where the outage lies in (0, 1);
    # tiny is the smallest normal double: below it neither side keeps relative precision
    params = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
    direct = gammainc(n, math.sqrt(params.gamma_th / branch_constants(params, TAU).a1))
    out, tiny = outage_exact(params, TAU), np.finfo(float).tiny
    assert 0.0 <= out <= direct * (1.0 + 1e-8) + tiny
    assert outage_exact(replace(params, ps_dbm=ps + 1.0), TAU) <= out * (1.0 + 1e-8) + tiny


def test_outage_bounds_and_errors():
    assert 0.0 <= outage_exact(PARAMS, TAU) <= 1.0
    single = SystemParams(n_antennas=1, d1=20.0, d2=15.0, d3=15.0)
    with pytest.raises(ValueError):
        outage_exact(single, TAU)
    with pytest.raises(ValueError):
        outage_high_snr(single, TAU)


@pytest.mark.parametrize("closed_form", [branch_cdfs, branch_moments, outage_exact,
                                         outage_high_snr, throughput_lower_bound])
def test_closed_forms_reject_a_circuit_draw(closed_form):
    # -4000 dBm is 0 W in a float, so it draws nothing, as in Monte Carlo's stacks
    with pytest.raises(ValueError, match="pc_dbm=-45.0"):
        closed_form(replace(PARAMS, pc_dbm=-45.0), TAU)
    closed_form(replace(PARAMS, pc_dbm=-4000.0), TAU)


def test_high_snr_approximation_converges():
    # ratio exact/approx tends to 1 as transmit power grows
    ratios = []
    for ps in (-25.0, -15.0, -5.0):
        p = SystemParams(n_antennas=2, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
        ratios.append(outage_exact(p, 0.5) / outage_high_snr(p, 0.5))
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 30, 40])
def test_high_snr_outage_bounds_the_exact_one_and_shares_its_diversity(n):
    # the approximation lies above the exact outage by a gap that closes at
    # least 5x per 20 dB, and the exact outage falls by 10^(N + 1) per 20 dB:
    # the paper's diversity order (N + 1)/2
    exact, gap = [], []
    for ps in (0.0, 20.0, 40.0):
        p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=ps)
        exact.append(outage_exact(p, 0.5))
        gap.append(1.0 - exact[-1] / outage_high_snr(p, 0.5))
    assert all(g > 0.0 for g in gap)
    assert gap[1] <= gap[0] / 5.0 and gap[2] <= gap[1] / 5.0
    assert math.log10(exact[1] / exact[2]) == pytest.approx(n + 1, abs=0.01)


def test_high_snr_independent_of_relay_distance():
    near = SystemParams(n_antennas=3, d1=20.0, d2=5.0, d3=15.0, ps_dbm=-20.0)
    far = SystemParams(n_antennas=3, d1=20.0, d2=50.0, d3=15.0, ps_dbm=-20.0)
    assert outage_high_snr(near, 0.5) == outage_high_snr(far, 0.5)


def test_throughput_bound_below_simulation():
    gus, gur, grs = _branch_samples(PARAMS, TAU, 200_000, seed=3)
    gamma = gus + gur * grs / (gur + grs + 1.0)
    mc = float(np.mean((1 - TAU) / 2 * np.log2(1 + gamma)))
    low = throughput_lower_bound(PARAMS, TAU)
    assert low <= mc
    assert low >= 0.9 * mc  # and reasonably tight


def test_mean_relay_gain_candidates():
    # E[gamma_ur] = b1 E[||h1||^2] E[|h3|^2] = b1 N for unit-power
    # Rayleigh entries; the form b1 N (N - 1) / 2 printed alongside it
    # agrees only at N = 3.
    n = PARAMS.n_antennas
    h1, _, h3 = sample_channel_block(PARAMS, 20260823, 0, 100_000)
    assert h1.shape == (100_000, n)
    assert np.mean(np.sum(np.abs(h1) ** 2, axis=1)) == pytest.approx(n, rel=0.01)
    assert np.mean(np.abs(h3) ** 2) == pytest.approx(1.0, rel=0.02)
    bc = branch_constants(PARAMS, TAU)
    assert bc.b1 * n != pytest.approx(bc.b1 * n * (n - 1) / 2)


def test_arbitration_prefers_true_moment():
    # The bound's E[gamma_ur] = b1 N matches simulation; the printed
    # b1 N (N - 1) / 2 is many standard errors off.
    bc = branch_constants(PARAMS, TAU)
    n = PARAMS.n_antennas
    h1, _, h3 = sample_channel_block(PARAMS, 20260823, 0, 100_000)
    gains = bc.b1 * np.sum(np.abs(h1) ** 2, axis=1) * np.abs(h3) ** 2
    se = np.std(gains, ddof=1) / math.sqrt(gains.size)
    assert abs(np.mean(gains) - bc.b1 * n) / se <= 3.0
    assert abs(np.mean(gains) - bc.b1 * n * (n - 1) / 2) / se > 10.0


def test_relay_ap_mean_closed_form():
    # the double-sum first moment of the relay->AP branch collapses to
    # c1 * (N + 1)
    for n in (2, 3, 6, 10):
        p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
        bc = branch_constants(p, TAU)
        assert branch_moments(p, TAU)["relay-ap"] == \
            pytest.approx(bc.c1 * (n + 1), rel=1e-10)


def test_relay_ap_moments_closed_form_at_large_n():
    # E[z] = N + 1 and E[z^2] = 2 (N + 2)(N + 3) for z = e (e + s),
    # e ~ Exp(1), s ~ Gamma(N-1): E[e^4] + 2 E[e^3] E[s] + E[e^2] E[s^2]
    for n in (20, 40, 64):
        p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
        c1 = branch_constants(p, TAU).c1
        assert branch_moments(p, TAU)["relay-ap"] == pytest.approx(c1 * (n + 1), rel=1e-12)
        assert branch_moments(p, TAU, order=2)["relay-ap"] == \
            pytest.approx(2 * c1 ** 2 * (n + 2) * (n + 3), rel=1e-12)


def _gamma_oracle(n, f):
    """E[f(y)] for y ~ Gamma(N), by mpmath quadrature."""
    with mp.workdps(30):
        pdf = lambda y: mp.exp((n - 1) * mp.log(y) - y - mp.loggamma(n))
        return mp.quad(lambda y: pdf(y) * f(y), [0, n - 5 * mp.sqrt(n), n,
                                                 n + 5 * mp.sqrt(n), mp.inf])


@pytest.mark.parametrize("n", [172, 200])
def test_branch_moments_beyond_factorial_range(n):
    # Gamma(N) and 1/m! leave the double range from N = 172
    p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
    bc = branch_constants(p, TAU)
    for order in (1, 2):
        mom = branch_moments(p, TAU, order=order)
        ey2 = _gamma_oracle(n, lambda y: y ** (2 * order))
        ey = _gamma_oracle(n, lambda y: y ** order)
        assert mom["direct"] == pytest.approx(float(bc.a1 ** order * ey2), rel=1e-10)
        assert mom["user-relay"] == pytest.approx(
            float(bc.b1 ** order * math.factorial(order) * ey), rel=1e-10)


@pytest.mark.parametrize("n", [172, 200])
def test_branch_cdfs_beyond_factorial_range(n):
    p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
    bc = branch_constants(p, TAU)
    cdfs = branch_cdfs(p, TAU)
    for c in (0.01, 0.5, 1.0, 2.0, 5.0):
        # ||h1||^4 <= x / a1 and ||h1||^2 |h3|^2 <= x / b1, |h3|^2 ~ Exp(1)
        y = c * n
        with mp.workdps(30):
            direct = float(mp.gammainc(n, 0, mp.sqrt(c) * n, regularized=True))
        user_relay = float(1 - _gamma_oracle(n, lambda v: mp.exp(-y / v)))
        assert cdfs["direct"](bc.a1 * y * n) == pytest.approx(direct, abs=1e-12)
        assert cdfs["user-relay"](bc.b1 * y) == pytest.approx(user_relay, abs=1e-12)


@pytest.mark.parametrize("n", [172, 200])
def test_high_snr_outage_beyond_factorial_range(n):
    # gamma_th puts the approximation at 0.1, where Gamma(N) overflows a double
    p = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0)
    bc = branch_constants(p, TAU)
    with mp.workdps(30):
        lead = (2 * (mp.mpf(p.d3) / p.d1) ** p.alpha
                / (mp.gamma(n) * (n + 1) * (n - 1)))
        base = (mp.mpf("0.1") / lead) ** (mp.mpf(2) / (n + 1))
        gth_db = float(10 * mp.log10(base * bc.a1))
    q = SystemParams(n_antennas=n, d1=20.0, d2=15.0, d3=15.0, ps_dbm=35.0,
                     gamma_th_db=gth_db)
    assert outage_high_snr(q, TAU) == pytest.approx(0.1, rel=1e-9)
