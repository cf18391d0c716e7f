import gc
import hashlib
import math
import sys
import threading
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wprelay import channel, montecarlo
from wprelay.cli import default_params, run_recipe
from wprelay.channel import (ChannelState, LinkStats, SystemParams, sample_channel_block,
                             sample_link_block)
from wprelay.montecarlo import (MC_STRATEGIES, METRICS, PerformanceEstimate,
                                SimulationError, estimate, estimate_cells)
from wprelay.sysmodel import snr_exact, throughput

PARAMS = SystemParams(n_antennas=4, d1=20.0, d2=15.0, d3=15.0, ps_dbm=30.0)


def _block_values(params, strategy, tau, metric, link):
    """Per-trial values of one cell on one block and the mask of trials that
    count: the one row of its stack of one."""
    stack, = montecarlo._stacks([(params, strategy, metric, tau)], 1)
    vals, ok = montecarlo._stack_values(stack, link)
    return vals[0], ok[0]


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


def test_trial_counts_beyond_the_stream_are_rejected_before_sampling(monkeypatch):
    # a stream has 2**64 trials; a larger cell must not sample any of them
    def never(*args, **kwargs):
        raise AssertionError("a block was sampled")

    monkeypatch.setattr(montecarlo, "sample_link_blocks", never)
    with pytest.raises(ValueError, match=r"n_trials must be <= 2\*\*64, got 18446744073709551617"):
        estimate(PARAMS, "mrt-user", 2 ** 64 + 1, 1, tau=0.5)


def test_fixed_tau_error_names_both_strategies_that_take_one():
    for strategy in ("exact", "suboptimal", "large-n"):
        with pytest.raises(ValueError, match="only mrt-user and no-relay take a fixed tau"):
            estimate(PARAMS, strategy, 100, 1, tau=0.5)
    est = estimate(PARAMS, "no-relay", 100, 1, tau=0.5)
    assert est.n_trials + est.n_failed == 100


def _each_block(monkeypatch, record) -> None:
    """Patch the chunk sampler so that record(n_antennas, master_seed, start,
    link) sees every block it yields, start being the block's first trial."""
    real = montecarlo.sample_link_blocks

    def wrapped(n_antennas, master_seed, start, stop, size):
        for link in real(n_antennas, master_seed, start, stop, size):
            record(n_antennas, master_seed, start, link)
            start += len(link)
            yield link

    monkeypatch.setattr(montecarlo, "sample_link_blocks", wrapped)


def _tracking(monkeypatch) -> list:
    """Patch the sampler to record (stream, trials, weak reference) of every
    block it draws, so a test can see which blocks are still alive."""
    drawn = []
    _each_block(monkeypatch, lambda n_antennas, master_seed, start, link: drawn.append(
        ((n_antennas, master_seed), len(link), weakref.ref(link))))
    return drawn


def _alive(drawn) -> list[tuple[tuple[int, int], int]]:
    gc.collect()
    return [(stream, n) for stream, n, ref in drawn if ref() is not None]


def test_repeated_estimates_give_the_same_repr():
    # for every strategy and metric, a second call and a pooled third give the first one's bits
    for strategy in MC_STRATEGIES:
        n = 6 if strategy == "exact" else 4096 + 300
        tau = 0.4 if strategy in ("mrt-user", "no-relay") else None
        for metric in METRICS:
            first = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau)
            again = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau)
            pooled = estimate(PARAMS, strategy, n, 3, metric=metric, tau=tau, workers=2,
                              chunk_size=4096)
            assert repr(again) == repr(first) == repr(pooled), (strategy, metric)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_sampled_block_outlives_its_call(monkeypatch, workers):
    # one block, and several in chunks of one block each, so that two workers pool
    drawn = _tracking(monkeypatch)
    for n in (100, 4 * 4096 + 5):
        estimate(PARAMS, "mrt-user", n, 3, metric="outage", tau=0.5, workers=workers,
                 chunk_size=4096)
        assert drawn and _alive(drawn) == [], n
        drawn.clear()
    cells = [(replace(PARAMS, ps_dbm=ps), s, "throughput", None)
             for ps in (10.0, 30.0) for s in ("suboptimal", "no-relay")]
    estimate_cells(cells, 2 * 4096 + 7, 3, workers=workers, chunk_size=4096)
    assert drawn and _alive(drawn) == []


def test_cells_on_two_streams_in_two_threads_give_the_serial_results(monkeypatch):
    # three streams, each cell pooled over four threads: twelve threads that
    # sample the same blocks at once
    cells = [(PARAMS, 3), (PARAMS, 4), (replace(PARAMS, n_antennas=2), 3)]
    kw = dict(metric="throughput", tau=0.5, workers=4, chunk_size=4096)
    serial = [estimate(p, "mrt-user", 4 * 4096, seed, **kw) for p, seed in cells]
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
    # once the cells are done, none of the blocks that they sampled is alive
    assert drawn and _alive(drawn) == []


def test_channels_depend_on_the_antenna_count_only():
    # so cells of any scenario at one n_antennas share a stream
    other = SystemParams(n_antennas=PARAMS.n_antennas, d1=3.0, d2=7.0, d3=9.0, alpha=3.5,
                         eta=0.25, ps_dbm=-10.0, noise_dbm=-90.0, gamma_th_db=3.0,
                         pc_dbm=-30.0)
    assert all(getattr(other, f.name) != getattr(PARAMS, f.name)
               for f in fields(SystemParams)[1:])
    for a, b in zip(sample_channel_block(PARAMS, 9, 5, 300),
                    sample_channel_block(other, 9, 5, 300)):
        assert a.tobytes() == b.tobytes()


def test_seed_is_checked_before_the_memo(monkeypatch):
    # before any block is sampled: True and 1.0 equal seed 1
    def never(*args, **kwargs):
        raise AssertionError("a block was sampled")

    monkeypatch.setattr(montecarlo, "sample_link_blocks", never)
    for seed in (True, 1.0, -1, 2 ** 128):
        with pytest.raises(ValueError, match="master_seed"):
            estimate(PARAMS, "mrt-user", 100, seed, tau=0.5)


def test_a_sweep_samples_each_trial_once(monkeypatch, tmp_path):
    sampled = []
    _each_block(monkeypatch, lambda n_antennas, master_seed, start, link: sampled.append(len(link)))
    base = default_params()
    # a run twice, so that the second would show any block kept from the first
    for name, trials, workers in [("fig8b", 2000, 1), ("fig8b", 2000, 1),
                                  ("fig8a", 70_000, 1), ("fig8a", 70_000, 2)]:
        sampled.clear()
        run_recipe(name, base, trials, 5, tmp_path / f"{name}.csv", workers)
        assert len((tmp_path / f"{name}.csv").read_text().splitlines()) == 1 + 14
        assert sum(sampled) == trials, (name, workers)


def _every_cell(params: SystemParams, exact: bool = True) -> list:
    """(params, strategy, metric, tau) of every strategy and metric, with tau
    optimized and, where the strategy takes one, fixed."""
    return [(params, s, m, tau) for s in MC_STRATEGIES if exact or s != "exact"
            for tau in ((None, 0.4) if s in ("mrt-user", "no-relay") else (None,))
            for m in METRICS]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_size", [4096, montecarlo._DEFAULT_CHUNK])
def test_each_cell_of_a_group_equals_its_own_estimate(workers, chunk_size):
    # exact, the costly strategy, on one short block; the others over two
    # blocks, so that at chunk 4096 and two workers a pool runs
    for n, cells in [(6, _every_cell(PARAMS)), (4096 + 300, _every_cell(PARAMS, exact=False))]:
        got = estimate_cells(cells, n, 3, workers=workers, chunk_size=chunk_size)
        assert len(got) == len(cells)
        for (params, strategy, metric, tau), est in zip(cells, got):
            want = estimate(params, strategy, n, 3, metric=metric, tau=tau)
            assert repr(est) == repr(want), (strategy, metric, tau, n)


@st.composite
def _stacked_group(draw):
    """(cells, n_trials): every strategy with one tau, fixed or optimized,
    taken by one to three cells of random scenarios on one stream, so that
    cells share stacks; the circuit power is none, finite, or so low that
    pc_watt underflows to 0. exact, the costly strategy, only on a short
    block; the others also over two blocks and an odd partial one."""
    n_trials = draw(st.sampled_from([5, 2 * 4096 + 7]))
    n = draw(st.integers(1, 6))
    cells = []
    for strategy in MC_STRATEGIES:
        if strategy == "exact" and n_trials > 4096:
            continue
        fixed = strategy in ("mrt-user", "no-relay") and draw(st.booleans())
        tau = draw(st.floats(0.05, 0.95)) if fixed else None
        for _ in range(draw(st.integers(1, 3))):
            params = SystemParams(
                n_antennas=n, d1=draw(st.floats(2.0, 40.0)), d2=draw(st.floats(2.0, 40.0)),
                d3=draw(st.floats(2.0, 40.0)), ps_dbm=draw(st.floats(-20.0, 50.0)),
                gamma_th_db=draw(st.floats(20.0, 90.0)),  # where these SNRs lie
                pc_dbm=draw(st.sampled_from([None, -4000.0]) | st.floats(-60.0, 0.0)))
            cells.append((params, strategy, draw(st.sampled_from(METRICS)), tau))
    return cells, n_trials


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(group=_stacked_group(), workers=st.sampled_from([1, 2]))
def test_each_cell_of_a_stacked_group_equals_its_own_estimate(group, workers):
    cells, n = group
    got = estimate_cells(cells, n, 3, workers=workers, chunk_size=4096)
    for (params, strategy, metric, tau), est in zip(cells, got):
        want = estimate(params, strategy, n, 3, metric=metric, tau=tau)
        assert repr(est) == repr(want), (params, strategy, metric, tau)


def test_a_dbm_this_low_leaves_no_circuit_need():
    # the stacked test above relies on it to stack a pc_dbm with pc_dbm None
    assert replace(PARAMS, pc_dbm=-4000.0).pc_watt == 0.0


@pytest.mark.parametrize("name, trials, curves, relayed", [
    ("fig4", 4, 8, 8),  # four strategies at each of two N
    ("fig8a", 2 * 4096 + 7, 2, 1),  # mrt-user and no-relay, at tau 0.5
])
def test_a_sweep_solves_and_evaluates_each_stack_once_per_block(monkeypatch, tmp_path, name,
                                                                 trials, curves, relayed):
    # one solver call per relayed stack and one SNR call per stack, per block,
    # whatever the number of cells in the stack; each curve has 7 cells
    calls = {"solve": 0, "snr": 0}
    real_solve, real_snr = montecarlo.beamform.solve_lanes, montecarlo.coefficient_snr

    def solve_lanes(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    def coefficient_snr(*args, **kwargs):
        calls["snr"] += 1
        return real_snr(*args, **kwargs)

    monkeypatch.setattr(montecarlo.beamform, "solve_lanes", solve_lanes)
    monkeypatch.setattr(montecarlo, "coefficient_snr", coefficient_snr)
    run_recipe(name, default_params(), trials, 5, tmp_path / f"{name}.csv", 2)
    blocks = -(-trials // montecarlo._BLOCK)
    per_curve = -(-7 // (montecarlo._STACK_LANES // min(trials, montecarlo._BLOCK)))
    assert per_curve < 7
    assert calls == {"solve": relayed * per_curve * blocks, "snr": curves * per_curve * blocks}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_trials", [3 * 4096 + 5, 70_000])
def test_a_group_samples_each_trial_once(monkeypatch, workers, n_trials):
    sampled = []
    _each_block(monkeypatch, lambda n_antennas, master_seed, start, link: sampled.append(
        (start, start + len(link))))
    cells = [(replace(PARAMS, ps_dbm=ps), s, "outage", 0.5)
             for ps in (10.0, 20.0, 30.0) for s in ("mrt-user", "no-relay")]
    estimate_cells(cells, n_trials, 3, workers=workers, chunk_size=4096)
    blocks = [(lo, min(lo + montecarlo._BLOCK, n_trials))
              for lo in range(0, n_trials, montecarlo._BLOCK)]
    assert sorted(sampled) == blocks


def test_cells_are_checked_before_any_block_is_sampled(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a block was sampled")

    monkeypatch.setattr(montecarlo, "sample_link_blocks", never)
    with pytest.raises(ValueError, match="at least one"):
        estimate_cells([], 100, 1)
    with pytest.raises(ValueError, match="unknown strategy"):
        estimate_cells([(PARAMS, "beam-hopping", "outage", None)], 100, 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_size", [4096, montecarlo._DEFAULT_CHUNK])
def test_one_call_on_two_antenna_counts_equals_each_cells_own_estimate(monkeypatch, workers,
                                                                       chunk_size):
    # cells of N = 2 and N = 10 in mixed order, over two blocks and a partial
    # one: each gets the bits of its own estimate, and each stream's block of
    # each trial range is sampled once
    n = 2 * 4096 + 7
    cells = [cell for n_antennas in (2, 10)
             for cell in _every_cell(replace(PARAMS, n_antennas=n_antennas), exact=False)]
    cells = cells[0::2] + cells[1::2]
    want = [estimate(params, strategy, n, 3, metric=metric, tau=tau)
            for params, strategy, metric, tau in cells]
    sampled = []
    _each_block(monkeypatch, lambda n_antennas, master_seed, start, link: sampled.append(
        (n_antennas, start, start + len(link))))
    got = estimate_cells(cells, n, 3, workers=workers, chunk_size=chunk_size)
    assert [repr(est) for est in got] == [repr(est) for est in want]
    assert sorted(sampled) == [(n_antennas, lo, min(lo + montecarlo._BLOCK, n))
                               for n_antennas in (2, 10)
                               for lo in range(0, n, montecarlo._BLOCK)]


def test_a_failing_cell_of_a_group_raises_what_its_own_estimate_does(monkeypatch):
    # |h3|^2 not a number on one trial in 50: the relayed cells fail, the
    # direct cell never reads h3 and passes
    def broken(n_antennas, master_seed, start, link):
        link.h3_sq[::50] = np.nan

    _each_block(monkeypatch, broken)
    direct = (PARAMS, "no-relay", "outage", 0.5)
    relayed = (PARAMS, "mrt-user", "outage", 0.5)
    n = 4000  # one block, of which 80 trials fail
    with pytest.raises(SimulationError) as alone:
        estimate(PARAMS, "mrt-user", n, 3, metric="outage", tau=0.5)
    assert str(alone.value) == "80 of 4000 trials failed"
    with pytest.raises(SimulationError) as grouped:
        estimate_cells([direct, relayed], n, 3)
    assert str(grouped.value) == str(alone.value)
    est, = estimate_cells([direct], n, 3)
    assert est.n_failed == 0 and est.n_trials == n


# value and std_err, as float.hex, of fixed-tau cells at tau = 0.3, seed 7 and
# 2 * 4096 + 7 trials (two blocks and a partial one), ps 0 dBm, without and
# with a -35 dBm circuit power, and an outage threshold per N that puts the
# outage between 0 and 1: keyed by (N, pc_dbm, strategy, metric). Metric tau
# reads the same literals in every cell.
_PINNED_THRESHOLD_DB = {1: 20.0, 2: 30.0, 3: 35.0, 10: 50.0}
_PINNED = {
    (1, None, "mrt-user", "outage"): ("0x1.1ec145b8bf961p-4", "0x1.715afc4730be6p-9"),
    (1, None, "mrt-user", "throughput"): ("0x1.da3d504401cdcp+1", "0x1.3e7d2a3acdfb3p-7"),
    (1, None, "no-relay", "outage"): ("0x1.1ec145b8bf961p-2", "0x1.44fbb4291dc16p-8"),
    (1, None, "no-relay", "throughput"): ("0x1.73c18aec6d371p+2", "0x1.9ace586732896p-6"),
    (1, -35.0, "mrt-user", "outage"): ("0x1.770df4f26af8ap-1", "0x1.405e7b6249fd0p-8"),
    (1, -35.0, "mrt-user", "throughput"): ("0x1.17c512117c42ep+0", "0x1.4975e95a5bae8p-6"),
    (1, -35.0, "no-relay", "outage"): ("0x1.db87fa4141b9ap-1", "0x1.74508466d88f0p-9"),
    (1, -35.0, "no-relay", "throughput"): ("0x1.1a380f6b01b2ep-1", "0x1.674c9c0fb975ep-6"),
    (2, None, "mrt-user", "outage"): ("0x1.3d3a9b2e0decfp-4", "0x1.82edcf59c480dp-9"),
    (2, None, "mrt-user", "throughput"): ("0x1.1c611499fe78fp+2", "0x1.d3d5d02351ef1p-8"),
    (2, None, "no-relay", "outage"): ("0x1.301d798d69110p-2", "0x1.4ab64b6d61317p-8"),
    (2, None, "no-relay", "throughput"): ("0x1.ea254db7942cdp+2", "0x1.26127ba97d0ddp-6"),
    (2, -35.0, "mrt-user", "outage"): ("0x1.e8153b5b04172p-2", "0x1.697d31cca51f0p-8"),
    (2, -35.0, "mrt-user", "throughput"): ("0x1.5117be802efeep+1", "0x1.859b50d02e1ddp-6"),
    (2, -35.0, "no-relay", "outage"): ("0x1.9c05deb747e84p-1", "0x1.1ee811e6fd3ebp-8"),
    (2, -35.0, "no-relay", "throughput"): ("0x1.0a263fab6e190p+1", "0x1.40af0237b265ep-5"),
    (3, None, "mrt-user", "outage"): ("0x1.37bbceeabca6cp-4", "0x1.7fd77ce55d139p-9"),
    (3, None, "mrt-user", "throughput"): ("0x1.3719c0989449fp+2", "0x1.8415cdf606d57p-8"),
    (3, None, "no-relay", "outage"): ("0x1.39fb510646a09p-2", "0x1.4db9274e7e018p-8"),
    (3, None, "no-relay", "throughput"): ("0x1.15beadf941ecap+3", "0x1.c7ae03c5dcedcp-7"),
    (3, -35.0, "mrt-user", "outage"): ("0x1.56950f64a1fc9p-2", "0x1.557f97c7c9531p-8"),
    (3, -35.0, "mrt-user", "throughput"): ("0x1.f14b80305936cp+1", "0x1.3de07734b3dd3p-6"),
    (3, -35.0, "no-relay", "outage"): ("0x1.68c115c33d4a9p-1", "0x1.4a33287fe5360p-8"),
    (3, -35.0, "no-relay", "throughput"): ("0x1.0e09dc501f9e4p+2", "0x1.80b88ec0fd8cdp-5"),
    (10, None, "mrt-user", "outage"): ("0x1.832b4e86d281fp-3", "0x1.1b638596fd511p-8"),
    (10, None, "mrt-user", "throughput"): ("0x1.850fdfa37f6ecp+2", "0x1.bca03d1467d11p-9"),
    (10, None, "no-relay", "outage"): ("0x1.49d7d8c8941fap-1", "0x1.5a809119f622cp-8"),
    (10, None, "no-relay", "throughput"): ("0x1.6b83570c58b54p+3", "0x1.d620deb9b28b9p-8"),
    (10, -35.0, "mrt-user", "outage"): ("0x1.315d339cb5b84p-2", "0x1.4b1a56806de91p-8"),
    (10, -35.0, "mrt-user", "throughput"): ("0x1.7e88bea393a6cp+2", "0x1.f41ce3d3b0a90p-9"),
    (10, -35.0, "no-relay", "outage"): ("0x1.92180abda6839p-1", "0x1.292b607dca951p-8"),
    (10, -35.0, "no-relay", "throughput"): ("0x1.5fdda41d33098p+3", "0x1.2f932bed22e37p-7"),
}
_PINNED_TAU = ("0x1.3333333333332p-2", "0x1.69e7f19a98324p-61")


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_tau_estimates_are_pinned_by_literals(workers):
    # these change if a refactor of the sampler, the SNR, the rate or the
    # reduction moves a bit; at chunk 4096 two workers pool
    base = default_params()
    for n, threshold in _PINNED_THRESHOLD_DB.items():
        for pc in (None, -35.0):
            params = replace(base, n_antennas=n, ps_dbm=0.0, pc_dbm=pc, gamma_th_db=threshold)
            for strategy in ("mrt-user", "no-relay"):
                for metric in METRICS:
                    est = estimate(params, strategy, 2 * 4096 + 7, 7, metric=metric, tau=0.3,
                                   workers=workers, chunk_size=4096)
                    want = _PINNED_TAU if metric == "tau" else _PINNED[n, pc, strategy, metric]
                    assert (est.value.hex(), est.std_err.hex()) == want, (n, pc, strategy, metric)
                    assert (est.n_trials, est.n_failed) == (2 * 4096 + 7, 0)


def test_fixed_tau_trial_values_are_pinned_by_a_digest():
    # the estimates above average away most last-bit changes of single
    # trials (an SNR reassociated as xu / (xu + xr + 1) * xr keeps them);
    # this sha256 of every trial's value and mask, in the same cells, does not
    digest = hashlib.sha256()
    for n, threshold in _PINNED_THRESHOLD_DB.items():
        link = sample_link_block(n, 7, 0, 2 * 4096 + 7)
        for pc in (None, -35.0):
            params = replace(default_params(), n_antennas=n, ps_dbm=0.0, pc_dbm=pc,
                             gamma_th_db=threshold)
            for strategy in ("mrt-user", "no-relay"):
                for metric in METRICS:
                    vals, ok = _block_values(params, strategy, 0.3, metric, link)
                    digest.update(vals.tobytes() + ok.tobytes())
    assert digest.hexdigest() == "a5468b659f16151422f2a23bc910937bd66a886f7de7f9b40f4e46450bebee4f"


@pytest.mark.parametrize("workers", [1, 2])
def test_a_call_seeds_one_generator_per_chunk_and_stream(monkeypatch, workers):
    # 70 000 trials are three default chunks of 32768 and 18 blocks of 4096,
    # on two streams: 6 seedings, not one per block (36)
    seeded = []
    real = channel.SeedSequence

    def counting(*args, **kwargs):
        seeded.append(kwargs["spawn_key"])
        return real(*args, **kwargs)

    monkeypatch.setattr(channel, "SeedSequence", counting)
    cells = [(replace(PARAMS, n_antennas=n), strategy, "outage", 0.5)
             for n in (2, 10) for strategy in ("mrt-user", "no-relay")]
    estimate_cells(cells, 70_000, 3, workers=workers)
    assert seeded == [(0,)] * 6
