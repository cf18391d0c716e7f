import math

import numpy as np
import pytest

from wprelay.channel import ChannelState, SystemParams, sample_channel_block
from wprelay.montecarlo import (MC_STRATEGIES, METRICS, PerformanceEstimate,
                                SimulationError, _block_values, estimate)
from wprelay.sysmodel import snr_exact, throughput

PARAMS = SystemParams(n_antennas=4, d1=20.0, d2=15.0, d3=15.0, ps_dbm=30.0)


def test_estimate_returns_metadata():
    est = estimate(PARAMS, "mrt-user", 5000, 11, metric="throughput", tau=0.5)
    assert isinstance(est, PerformanceEstimate)
    assert est.n_trials == 5000
    assert est.master_seed == 11
    assert est.params_digest == PARAMS.digest()
    assert est.std_err > 0


def test_worker_and_chunk_invariance():
    ref = estimate(PARAMS, "mrt-user", 100_000, 3, metric="outage", tau=0.5)
    for workers, chunk in [(1, 7777), (2, 32768), (4, 11111)]:
        got = estimate(PARAMS, "mrt-user", 100_000, 3, metric="outage",
                       tau=0.5, workers=workers, chunk_size=chunk)
        assert got == ref
    # sums of non-integers too, on chunk sizes that do not line up with the
    # reduction blocks, and on a strategy that optimizes per trial
    cases = [("mrt-user", "throughput", 0.5, 100_000), ("mrt-user", "tau", None, 20_000),
             ("suboptimal", "throughput", None, 20_000), ("suboptimal", "tau", None, 20_000)]
    for strategy, metric, tau, n in cases:
        ref = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau)
        for workers, chunk in [(1, 7777), (2, 11111), (1, 1)]:
            got = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau,
                           workers=workers, chunk_size=chunk)
            assert got == ref, (strategy, metric, workers, chunk)


def test_failed_trials_are_masked_and_counted():
    # row 7: h1 is not a number (degenerate channel); row 9: h3 is not a
    # number, so the channel passes but its SNR does not (except without
    # the relay, which never uses h3)
    h1, h2, h3 = sample_channel_block(PARAMS, 5, 0, 64)
    bad_h1, bad_h3 = h1.copy(), h3.copy()
    bad_h1[7] = np.nan
    bad_h3[9] = np.nan
    for strategy in MC_STRATEGIES:
        bad = [7] if strategy == "no-relay" else [7, 9]
        for metric in METRICS:
            tau = 0.4 if strategy in ("mrt-user", "no-relay") else None
            clean, ok = _block_values(PARAMS, strategy, tau, metric, h1, h2, h3)
            assert ok.all()
            vals, ok = _block_values(PARAMS, strategy, tau, metric, bad_h1, h2, bad_h3)
            assert np.flatnonzero(~ok).tolist() == bad, (strategy, metric)
            # the other trials of the block do not see the bad ones
            np.testing.assert_array_equal(vals[ok], np.delete(clean, bad))
    # a vanishing user channel is degenerate, whatever the metric
    zero_h1 = h1.copy()
    zero_h1[3] = 0.0
    _, ok = _block_values(PARAMS, "mrt-user", 0.5, "outage", zero_h1, h2, h3)
    assert np.flatnonzero(~ok).tolist() == [3]
    est = estimate(PARAMS, "mrt-user", 500, 5, metric="outage", tau=0.5)
    assert est.n_failed == 0 and est.n_trials == 500


def test_fast_path_matches_per_trial_evaluation():
    n = 200
    tau = 0.45
    h1, h2, h3 = sample_channel_block(PARAMS, 21, 0, n)
    vals = []
    for t in range(n):
        ch = ChannelState(h1=h1[t], h2=h2[t], h3=complex(h3[t]))
        w = np.conj(ch.h1) / np.linalg.norm(ch.h1)
        vals.append(throughput(snr_exact(PARAMS, ch, w, tau).gamma_total, tau))
    est = estimate(PARAMS, "mrt-user", n, 21, metric="throughput", tau=tau)
    assert est.value == pytest.approx(float(np.mean(vals)), rel=1e-12)


def test_std_err_merges_blocks_exactly():
    # 10 000 trials span three reduction blocks; the merged variance must be
    # the sample variance of all trials, not of one block
    n = 10_000
    tau = 0.45
    h1, h2, h3 = sample_channel_block(PARAMS, 31, 0, n)
    vals = np.empty(n)
    for t in range(n):
        ch = ChannelState(h1=h1[t], h2=h2[t], h3=complex(h3[t]))
        w = np.conj(ch.h1) / np.linalg.norm(ch.h1)
        vals[t] = throughput(snr_exact(PARAMS, ch, w, tau).gamma_total, tau)
    est = estimate(PARAMS, "mrt-user", n, 31, metric="throughput", tau=tau)
    assert est.value == pytest.approx(float(np.mean(vals)), rel=1e-12)
    expected_se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert est.std_err == pytest.approx(expected_se, rel=1e-9)


def test_optimized_strategies_ordered():
    kw = dict(n_trials=300, master_seed=5, metric="throughput")
    t_exact = estimate(PARAMS, "exact", **kw).value
    t_sub = estimate(PARAMS, "suboptimal", **kw).value
    t_mrt = estimate(PARAMS, "mrt-user", **kw).value
    assert t_exact >= t_sub >= 0.9 * t_exact
    assert t_exact >= t_mrt


def test_tau_metric():
    est = estimate(PARAMS, "suboptimal", 500, 9, metric="tau")
    assert 0.0 < est.value < 1.0
    fixed = estimate(PARAMS, "mrt-user", 500, 9, metric="tau", tau=0.3)
    assert fixed.value == pytest.approx(0.3)
    assert fixed.std_err < 1e-9


def test_no_relay_baseline():
    # without the relay the direct-link SNR loses the relayed term but
    # gains the full data phase
    est_fix = estimate(PARAMS, "no-relay", 5000, 13, metric="throughput",
                       tau=0.5)
    est_opt = estimate(PARAMS, "no-relay", 500, 13, metric="throughput")
    assert est_fix.value > 0
    assert est_opt.value > 0


@pytest.mark.parametrize("strategy", ["suboptimal", "no-relay", "large-n", "mrt-user"])
def test_circuit_power_beyond_any_harvest_rates_zero(strategy):
    # at pc 140 dBm the user's harvest threshold rounds to tau = 1, where
    # link_snr divides by 1 - tau: no tau gives a rate, and no trial fails
    params = SystemParams(n_antennas=2, d1=20.0, d2=20.0, d3=2.0, ps_dbm=0.0, pc_dbm=140.0)
    est = estimate(params, strategy, 256, 1)
    assert est.value == 0.0 and est.n_failed == 0


def test_outage_standard_error():
    est = estimate(PARAMS, "mrt-user", 50_000,
                   17, metric="outage", tau=0.5)
    expected_se = math.sqrt(est.value * (1 - est.value) / est.n_trials)
    assert est.std_err == pytest.approx(expected_se, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate(PARAMS, "beam-hopping", 100, 1)
    with pytest.raises(ValueError):
        estimate(PARAMS, "exact", 100, 1, metric="latency")
    with pytest.raises(ValueError):
        estimate(PARAMS, "exact", 1, 1)
    with pytest.raises(ValueError):
        estimate(PARAMS, "mrt-user", 100, 1, tau=1.5)
    with pytest.raises(ValueError, match="tau"):
        estimate(PARAMS, "suboptimal", 100, 1, tau=0.3)
    for chunk_size in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match="chunk_size"):
            estimate(PARAMS, "mrt-user", 100, 1, tau=0.5, chunk_size=chunk_size)
    for workers in (0, -1, 1.5):
        with pytest.raises(ValueError, match="workers"):
            estimate(PARAMS, "mrt-user", 100, 1, tau=0.5, workers=workers)
    for n_trials in (100.5, 100.0, True, 1):
        with pytest.raises(ValueError, match="n_trials"):
            estimate(PARAMS, "mrt-user", n_trials, 1, tau=0.5)
    for seed in (1.9, True, -1):
        with pytest.raises(ValueError, match="master_seed"):
            estimate(PARAMS, "mrt-user", 100, seed, tau=0.5)
    assert "no-relay" in MC_STRATEGIES and "tau" in METRICS


def test_fixed_tau_error_names_both_strategies_that_take_one():
    for strategy in ("exact", "suboptimal", "large-n"):
        with pytest.raises(ValueError, match="only mrt-user and no-relay take a fixed tau"):
            estimate(PARAMS, strategy, 100, 1, tau=0.5)
    est = estimate(PARAMS, "no-relay", 100, 1, tau=0.5)
    assert est.n_trials + est.n_failed == 100
