"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts stay visible under pytest's capture.
"""
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from wprelay.analysis import (branch_cdfs, branch_constants, branch_moments,
                              outage_exact, outage_high_snr, throughput_lower_bound)
from wprelay.beamform import bound_min, solve_suboptimal_xbar
from wprelay.channel import ChannelDecomposition, SystemParams, sample_channel_block
from wprelay.cli import main as cli_main
from wprelay.montecarlo import estimate
from wprelay.timesplit import golden_max, optimal_tau, rate_upper

BASE = SystemParams(n_antennas=10, d1=20.0, d2=15.0, d3=15.0, ps_dbm=40.0)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line, file=sys.__stdout__, flush=True)
    print(line)


def _dec(a, b, c, cap_a, cap_c, cap_d):
    return ChannelDecomposition(a=a, b=b, c=c, a0=cap_a, c0=cap_c, d0=cap_d)


def test_criterion_1_solver_vs_grid():
    """Closed-form beam mixing vs a 1e5-point grid over 1e4 instances."""
    t0 = time.time()
    rng = np.random.default_rng(2026)
    xs = np.linspace(0.0, 1.0, 100_001)
    n_inst = 10_000
    worst = 0.0
    scenarios = set()
    for k in range(n_inst):
        a = math.sqrt(rng.gamma(3.0))
        n2 = rng.gamma(3.0)
        frac = rng.beta(1.0, 2.0)
        b = math.sqrt(frac * n2)
        c = math.sqrt((1.0 - frac) * n2)
        cap_a, cap_c, cap_d = 10.0 ** rng.uniform(-2, 2, size=3)
        if k % 50 == 0 and c > b:
            # pin the mixed-branch slope to zero for scenario coverage
            cap_a = cap_d * (c * c - b * b) / (a * a)
        dec = _dec(a, b, c, cap_a, cap_c, cap_d)
        x_opt, val, scenario, _ = solve_suboptimal_xbar(dec)
        scenarios.add(scenario)
        coarse = bound_min(dec, xs)
        i = int(np.argmax(coarse))
        lo = xs[max(0, i - 1)]
        hi = xs[min(xs.size - 1, i + 1)]
        fine = float(np.max(bound_min(dec, np.linspace(lo, hi, 1001))))
        worst = max(worst, abs(val - fine) / fine)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and len(scenarios) == 3 and elapsed <= 60.0
    _verdict("criterion 1 (closed-form solver vs grid)", ok,
             f"worst rel dev {worst:.2e}, scenarios {sorted(scenarios)}, "
             f"{elapsed:.1f} s")
    assert ok


def test_criterion_2_lambert_time_split():
    """Closed-form harvest time vs scipy's bounded search, 100 coefficients."""
    t0 = time.time()
    worst = 0.0
    for kappa in np.logspace(-3, 8, 100):
        cf = optimal_tau(float(kappa))
        gs, _ = golden_max(lambda t: rate_upper(float(kappa), t), 1e-9, 1.0 - 1e-9, 1e-10)
        worst = max(worst, abs(cf - gs))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 1.0
    _verdict("criterion 2 (Lambert-W time split)", ok,
             f"worst |delta tau| {worst:.2e}, {elapsed:.2f} s")
    assert ok


def test_criterion_3_near_optimality():
    """Mean throughput of the closed-form design within 3% of the 2-D search."""
    t0 = time.time()
    geometry = replace(BASE, d1=20.0, d2=20.0, d3=2.0)
    trials = 1000
    ok = True
    details = []
    for n in (2, 10):
        for ps in (20.0, 35.0, 50.0):
            p = replace(geometry, n_antennas=n, ps_dbm=ps)
            e = estimate(p, "exact", trials, 404, workers=4)
            s = estimate(p, "suboptimal", trials, 404)
            m = estimate(p, "mrt-user", trials, 404)
            ratio = s.value / e.value
            ok &= ratio >= 0.97
            ok &= e.value >= s.value - 3 * math.hypot(e.std_err, s.std_err)
            ok &= s.value >= m.value - 3 * math.hypot(s.std_err, m.std_err)
            details.append(f"N={n},Ps={ps:g}:{ratio:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed <= 600.0
    _verdict("criterion 3 (suboptimal near-optimality)", ok,
             f"ratios {' '.join(details)}, {elapsed:.0f} s")
    assert ok


CRIT4_POINTS = {2: [(-30.0, 0.5), (-27.0, 0.3), (-24.0, 0.7)],
                3: [(-35.0, 0.5), (-32.0, 0.3), (-29.0, 0.7)],
                5: [(-42.0, 0.5), (-40.0, 0.3), (-37.0, 0.7)]}


def test_criterion_4_outage_vs_monte_carlo():
    """Analytic outage tracks 1e6-trial simulation at nine operating points."""
    t0 = time.time()
    ok = True
    details = []
    for n, points in CRIT4_POINTS.items():
        for ps, tau in points:
            p = replace(BASE, n_antennas=n, ps_dbm=ps)
            ana = outage_exact(p, tau)
            mc = estimate(p, "mrt-user", 10 ** 6, 811, metric="outage", tau=tau)
            dev = abs(ana - mc.value)
            ok &= 0.0 <= ana <= 1.0
            ok &= dev <= 3.0 * mc.std_err
            details.append(f"N={n},Ps={ps:g},tau={tau:g}:"
                           f"{dev / mc.std_err:.2f}se")
    elapsed = time.time() - t0
    ok &= elapsed <= 900.0
    _verdict("criterion 4 (analytic outage vs Monte Carlo)", ok,
             f"{' '.join(details)}, {elapsed:.0f} s")
    assert ok


def test_criterion_5_diversity_order():
    """Log-log outage slope approaches -(N+1)/2 over the top power decade."""
    ok = True
    details = []
    for n in (2, 3):
        ps_grid = np.array([-25.0, -22.5, -20.0, -17.5, -15.0])
        log_p = []
        for ps in ps_grid:
            p = replace(BASE, n_antennas=n, ps_dbm=ps)
            log_p.append(math.log(outage_exact(p, 0.5)))
        log_rho = ps_grid / 10.0 * math.log(10.0)
        slope = float(np.polyfit(log_rho, log_p, 1)[0])
        target = -(n + 1) / 2.0
        ok &= abs(slope - target) <= 0.1 * abs(target)
        details.append(f"N={n}:{slope:.3f} vs {target:g}")
    # the high-power form drops the relay->AP distance entirely
    near = replace(BASE, n_antennas=3, d2=5.0, ps_dbm=-20.0)
    far = replace(BASE, n_antennas=3, d2=50.0, ps_dbm=-20.0)
    ok &= outage_high_snr(near, 0.5) == outage_high_snr(far, 0.5)
    _verdict("criterion 5 (diversity order)", ok, " ".join(details))
    assert ok


def test_criterion_6_throughput_lower_bound():
    """Analytic bound sits below simulation and stays tight at high power."""
    t0 = time.time()
    tau = 0.5
    # the bound's relay-gain constant E[gamma_ur] = b1 N against simulation
    b1 = branch_constants(BASE, tau).b1
    h1, _, h3 = sample_channel_block(BASE, 20260823, 0, 400_000)
    gains = b1 * np.sum(np.abs(h1) ** 2, axis=1) * np.abs(h3) ** 2
    z = abs(np.mean(gains) - b1 * BASE.n_antennas) / (
        np.std(gains, ddof=1) / math.sqrt(gains.size))
    ok = z <= 3.0
    gap_at_top = None
    for n in (5, 10):
        for ps in (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0):
            p = replace(BASE, n_antennas=n, ps_dbm=ps)
            low = throughput_lower_bound(p, tau)
            mc = estimate(p, "mrt-user", 200_000, 606, tau=tau)
            ok &= low <= mc.value + 3 * mc.std_err
            if n == 10 and ps == 50.0:
                gap_at_top = (mc.value - low) / mc.value
    ok &= gap_at_top is not None and gap_at_top <= 0.15
    elapsed = time.time() - t0
    _verdict("criterion 6 (throughput lower bound)", ok,
             f"relay-gain z {z:.2f}, top-point gap {gap_at_top:.3%}, {elapsed:.0f} s")
    assert ok


def _ks_upper_bound(sample: np.ndarray, cdf, step: int = 100) -> float:
    """Upper bound on the exact KS statistic from a strided CDF evaluation."""
    xs = np.sort(sample)
    n = xs.size
    d = 0.0
    for i in range(step - 1, n, step):
        f = cdf(float(xs[i]))
        lo = (i + 1 - step) / n
        hi = (i + 1) / n
        d = max(d, f - lo, hi - f)
    return d


def test_criterion_7_branch_distributions():
    """Branch CDFs and first moments against 1e6-sample simulation."""
    t0 = time.time()
    params = replace(BASE, n_antennas=5, ps_dbm=35.0)
    tau = 0.4
    rng = np.random.default_rng(909)
    n = params.n_antennas
    m = 10 ** 6
    bc = branch_constants(params, tau)
    h1 = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
        / math.sqrt(2)
    h2 = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) \
        / math.sqrt(2)
    h3 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)
    y = np.sum(np.abs(h1) ** 2, axis=1)
    n2 = np.sum(np.abs(h2) ** 2, axis=1)
    mix = np.abs(np.einsum("ij,ij->i", np.conj(h1), h2)) ** 2 / y * n2
    samples = {"direct": bc.a1 * y ** 2,
               "user-relay": bc.b1 * y * np.abs(h3) ** 2,
               "relay-ap": bc.c1 * mix}
    cdfs = branch_cdfs(params, tau)
    moments = branch_moments(params, tau, order=1)
    ok = True
    details = []
    for name, sample in samples.items():
        ks = _ks_upper_bound(sample, cdfs[name])
        ok &= ks <= 0.005
        se = float(np.std(sample) / math.sqrt(m))
        dev = abs(moments[name] - float(np.mean(sample))) / se
        ok &= dev <= 3.0
        details.append(f"{name}:ks={ks:.4f},mom={dev:.2f}se")
    elapsed = time.time() - t0
    _verdict("criterion 7 (branch distributions)", ok,
             f"{' '.join(details)}, {elapsed:.0f} s")
    assert ok


def test_criterion_8_relay_benefit():
    """Relaying never hurts outage and throughput curves cross with power."""
    geometry = SystemParams(n_antennas=10, d1=30.0, d2=16.0, d3=16.0,
                            alpha=3.0)
    tau = 0.5
    ok = True
    for ps in (14.0, 17.0, 20.0, 23.0, 26.0, 29.0, 32.0):
        p = replace(geometry, ps_dbm=ps)
        relay = estimate(p, "mrt-user", 200_000, 505, metric="outage", tau=tau)
        direct = estimate(p, "no-relay", 200_000, 505, metric="outage", tau=tau)
        ok &= relay.value <= direct.value + 1e-12
    lo = replace(geometry, ps_dbm=-45.0)
    hi = replace(geometry, ps_dbm=35.0)
    r_lo = estimate(lo, "mrt-user", 100_000, 505, tau=tau)
    d_lo = estimate(lo, "no-relay", 100_000, 505, tau=tau)
    r_hi = estimate(hi, "mrt-user", 100_000, 505, tau=tau)
    d_hi = estimate(hi, "no-relay", 100_000, 505, tau=tau)
    crosses = (r_lo.value - d_lo.value >
               3 * math.hypot(r_lo.std_err, d_lo.std_err)) and \
              (d_hi.value - r_hi.value >
               3 * math.hypot(r_hi.std_err, d_hi.std_err))
    ok &= crosses
    _verdict("criterion 8 (relay benefit)", ok,
             f"low-power edge {r_lo.value - d_lo.value:+.4f}, "
             f"high-power edge {d_hi.value - r_hi.value:+.3f}")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    """Identical CSV bytes at 1, 4 and 8 workers."""
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}.csv"
        rc = cli_main(["run", "fig8b", "--trials", "20000", "--seed", "31415",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict("criterion 9 (reproducibility across workers)", ok,
             f"{len(outputs[0])} bytes per file")
    assert ok
