import gc
import math
import sys
import threading
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wprelay import montecarlo
from wprelay.cli import default_params, run_recipe
from wprelay.channel import (ChannelState, LinkStats, SystemParams, sample_channel_block,
                             sample_link_block)
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


@st.composite
def _cells(draw):
    """(strategy, tau, n_trials): a fixed tau only where the strategy takes
    one; exact, the costly strategy, kept to a few trials; the others
    often over more than one 4096-trial block, so that a pool runs."""
    strategy = draw(st.sampled_from(MC_STRATEGIES))
    fixed = strategy in ("mrt-user", "no-relay") and draw(st.booleans())
    tau = draw(st.floats(0.05, 0.95)) if fixed else None
    if strategy == "exact":
        return strategy, tau, draw(st.integers(2, 8))
    return strategy, tau, draw(st.integers(2, 4096) | st.integers(4097, 3 * 4096 + 7))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cell=_cells(), metric=st.sampled_from(METRICS), workers=st.sampled_from([1, 2, 3, 8]),
       chunk_size=st.integers(1, 3 * 4096))
def test_estimate_independent_of_workers_and_chunk_size(cell, metric, workers, chunk_size):
    strategy, tau, n = cell
    ref = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau)
    got = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau,
                   workers=workers, chunk_size=chunk_size)
    assert repr(got) == repr(ref)  # repr tells every float apart, -0.0 from 0.0 too


def test_pool_never_has_more_workers_than_chunks(monkeypatch):
    pools = []

    class Recording(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    kw = dict(metric="outage", tau=0.5, chunk_size=4096)
    ref = estimate(PARAMS, "mrt-user", 4096 + 10, 3, **kw)
    assert estimate(PARAMS, "mrt-user", 4096 + 10, 3, workers=8, **kw) == ref
    assert pools == [2]
    estimate(PARAMS, "mrt-user", 4096, 3, workers=8, **kw)  # one chunk: no pool
    assert pools == [2]


def test_failed_trials_are_masked_and_counted():
    # row 7: h1 is not a number (degenerate channel); row 9: h3 is not a
    # number, so the channel passes but its SNR does not (except without
    # the relay, which never uses h3)
    h1, h2, h3 = sample_channel_block(PARAMS, 5, 0, 64)
    bad_h1, bad_h3 = h1.copy(), h3.copy()
    bad_h1[7] = np.nan
    bad_h3[9] = np.nan
    # mrt-user also with tau optimized, so that the bad lanes go through
    # tau_profile's Newton loop, with and without a circuit power
    cells = [(PARAMS, s, 0.4 if s in ("mrt-user", "no-relay") else None) for s in MC_STRATEGIES]
    cells += [(PARAMS, "mrt-user", None), (replace(PARAMS, pc_dbm=-30.0), "mrt-user", None)]
    for params, strategy, tau in cells:
        bad = [7] if strategy == "no-relay" else [7, 9]
        for metric in METRICS:
            clean, ok = _block_values(params, strategy, tau, metric,
                                      LinkStats.from_block(h1, h2, h3))
            assert ok.all()
            vals, ok = _block_values(params, strategy, tau, metric,
                                     LinkStats.from_block(bad_h1, h2, bad_h3))
            assert np.flatnonzero(~ok).tolist() == bad, (strategy, tau, metric)
            # the other trials of the block do not see the bad ones
            np.testing.assert_array_equal(vals[ok], np.delete(clean, bad))
    # a vanishing user channel is degenerate, whatever the metric
    zero_h1 = h1.copy()
    zero_h1[3] = 0.0
    _, ok = _block_values(PARAMS, "mrt-user", 0.5, "outage",
                          LinkStats.from_block(zero_h1, h2, h3))
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


@pytest.fixture
def cold():
    """An empty block cache, so that a test sees its own cells' blocks only."""
    montecarlo._stream_blocks.cache_clear()
    yield
    montecarlo._stream_blocks.cache_clear()


def _kept_blocks(n_antennas: int, seed: int, n_trials: int) -> list[LinkStats]:
    """The kept blocks of trials [0, n_trials) of one stream, read back from
    the cache; fails unless that stream and every one of those blocks is kept."""
    streams = montecarlo._stream_blocks.cache_info()
    block = montecarlo._stream_blocks(n_antennas, seed)
    assert montecarlo._stream_blocks.cache_info().misses == streams.misses, "stream not kept"
    misses = block.cache_info().misses
    links = [block(lo, min(lo + montecarlo._BLOCK, n_trials))
             for lo in range(0, n_trials, montecarlo._BLOCK)]
    assert block.cache_info().misses == misses, "block not kept"
    return links


def _kept_count(n_antennas: int, seed: int) -> int:
    """How many blocks of a stream are kept; fails unless that stream is."""
    streams = montecarlo._stream_blocks.cache_info()
    count = montecarlo._stream_blocks(n_antennas, seed).cache_info().currsize
    assert montecarlo._stream_blocks.cache_info().misses == streams.misses, "stream not kept"
    return count


def _tracking(monkeypatch) -> list:
    """Patch the sampler to record (stream, trials, weak reference) of every
    block it draws, so a test can see which blocks are still alive."""
    drawn = []
    real = montecarlo.sample_link_block

    def tracked(n_antennas, master_seed, start, stop):
        link = real(n_antennas, master_seed, start, stop)
        drawn.append(((n_antennas, master_seed), stop - start, weakref.ref(link)))
        return link

    monkeypatch.setattr(montecarlo, "sample_link_block", tracked)
    return drawn


def _alive(drawn) -> list[tuple[tuple[int, int], int]]:
    gc.collect()
    return [(stream, n) for stream, n, ref in drawn if ref() is not None]


def test_warm_estimates_equal_cold_ones(cold):
    # a cache hit must give the bits of a fresh sample, for every strategy and metric
    n_antennas = PARAMS.n_antennas
    for strategy in MC_STRATEGIES:
        n = 6 if strategy == "exact" else 4096 + 300
        tau = 0.4 if strategy in ("mrt-user", "no-relay") else None
        for metric in METRICS:
            montecarlo._stream_blocks.cache_clear()
            cold_est = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau)
            assert _kept_count(n_antennas, 3) == len(_kept_blocks(n_antennas, 3, n))
            warm = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau, workers=2,
                            chunk_size=4096)
            assert repr(warm) == repr(cold_est), (strategy, metric)


@pytest.mark.parametrize("n", [1, 10])
def test_stored_block_equals_one_call(cold, n):
    # at N = 1 no part of h2 is perpendicular to h1, so c is 0
    lo, hi = 8192, 8192 + 4096
    whole = sample_link_block(n, 7, lo, hi)
    if n == 1:
        assert np.all(whole.c == 0.0)
    kept = montecarlo._stream_blocks(n, 7)(lo, hi)
    for f in fields(LinkStats):
        a, b = getattr(kept, f.name), getattr(whole, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def test_only_cells_within_the_cap_store_their_blocks(cold, monkeypatch):
    cap = montecarlo._CACHE_TRIALS
    n_antennas = PARAMS.n_antennas
    kw = dict(metric="outage", tau=0.5)
    drawn = _tracking(monkeypatch)
    estimate(PARAMS, "mrt-user", cap + 1, 3, **kw)
    assert _kept_count(n_antennas, 3) == 0 and _alive(drawn) == []
    estimate(PARAMS, "mrt-user", 100, 3, **kw)  # dropped once the cache is full
    estimate(PARAMS, "mrt-user", cap, 3, **kw)
    assert _kept_count(n_antennas, 3) == cap // montecarlo._BLOCK
    links = _kept_blocks(n_antennas, 3, cap)
    assert sum(map(len, links)) == cap
    assert sum(n for _, n in _alive(drawn)) == cap  # at most cap trials are held
    assert not any(getattr(link, f.name).flags.writeable
                   for link in links for f in fields(LinkStats))
    with pytest.raises(ValueError, match="read-only"):
        links[0].a[0] = 1.0
    del links
    # a cell on another stream, even one over the cap, frees the kept blocks
    estimate(replace(PARAMS, n_antennas=2), "mrt-user", cap + 1, 3, **kw)
    assert _kept_count(2, 3) == 0 and _alive(drawn) == []


def test_cells_on_two_streams_in_two_threads_give_the_serial_results(cold, monkeypatch):
    # three streams, each cell pooled over four threads: twelve threads on
    # a cache that every cell on another stream empties
    cells = [(PARAMS, 3), (PARAMS, 4), (replace(PARAMS, n_antennas=2), 3)]
    kw = dict(metric="throughput", tau=0.5, workers=4, chunk_size=4096)
    serial = [estimate(p, "mrt-user", 4 * 4096, seed, **kw) for p, seed in cells]
    montecarlo._stream_blocks.cache_clear()
    drawn = _tracking(monkeypatch)
    barrier = threading.Barrier(3)
    got: dict[int, list] = {i: [] for i in range(3)}

    def run(i):
        barrier.wait()
        for k in range(4):
            j = (i + k) % len(cells)
            p, seed = cells[j]
            got[i].append((j, estimate(p, "mrt-user", 4 * 4096, seed, **kw)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results in got.values():
        assert len(results) == 4
        assert all(est == serial[j] for j, est in results)
    # once the cells are done, one stream's blocks at most are alive
    alive = _alive(drawn)
    assert len({stream for stream, _ in alive}) <= 1
    assert sum(n for _, n in alive) <= montecarlo._CACHE_TRIALS
    for (p, seed), want in zip(cells, serial):
        assert estimate(p, "mrt-user", 4 * 4096, seed, **kw) == want


def test_channels_depend_on_the_antenna_count_only():
    # the cache keys a block by (n_antennas, master_seed, lo, hi) alone
    other = SystemParams(n_antennas=PARAMS.n_antennas, d1=3.0, d2=7.0, d3=9.0, alpha=3.5,
                         eta=0.25, ps_dbm=-10.0, noise_dbm=-90.0, gamma_th_db=3.0,
                         pc_dbm=-30.0)
    assert all(getattr(other, f.name) != getattr(PARAMS, f.name)
               for f in fields(SystemParams)[1:])
    for a, b in zip(sample_channel_block(PARAMS, 9, 5, 300),
                    sample_channel_block(other, 9, 5, 300)):
        assert a.tobytes() == b.tobytes()


def test_seed_is_checked_before_the_memo(cold):
    estimate(PARAMS, "mrt-user", 100, 1, tau=0.5)
    for seed in (True, 1.0, -1, 2 ** 128):
        with pytest.raises(ValueError, match="master_seed"):
            estimate(PARAMS, "mrt-user", 100, seed, tau=0.5)


def test_a_sweep_samples_each_trial_once(cold, monkeypatch, tmp_path):
    sampled = []
    real = montecarlo.sample_link_block

    def counting(n_antennas, master_seed, start, stop):
        sampled.append(stop - start)
        return real(n_antennas, master_seed, start, stop)

    monkeypatch.setattr(montecarlo, "sample_link_block", counting)
    base = default_params()
    for _ in range(2):
        # a cell at another N first, so that no run finds the last run's blocks
        estimate(replace(base, n_antennas=3), "mrt-user", 100, 5, tau=0.5)
        sampled.clear()
        run_recipe("fig8b", base, 2000, 5, tmp_path / "fig8b.csv", 1)
        assert len((tmp_path / "fig8b.csv").read_text().splitlines()) == 1 + 14
        assert sum(sampled) == 2000
