"""Reproducible Monte Carlo estimation of throughput, outage and time split.

Trial t always consumes the same counter-addressed block of the random
keystream, from which channel.sample_link_block draws its channel
statistics directly (no channel vector is built), so any thread can sample
any range of trials by itself. Trials are sampled, evaluated and reduced
in fixed blocks of _BLOCK consecutive trials: chunks handed to workers
hold whole blocks only, each block yields (n, sum, M2), and the blocks
are merged in trial order with the pairwise update of Chan, Golub and
LeVeque (1983). Estimates are therefore bit-identical for any worker
count or chunk size.

A channel depends only on (n_antennas, master_seed, trial), so the
LinkStats of a block are kept for the next cells of a sweep, in a
functools.lru_cache of _CACHE_TRIALS // _BLOCK blocks (at most
_CACHE_TRIALS trials, about 4.3 MB at 65 B per trial) keyed by the block's
trial range, one per stream (_stream_blocks): each estimate asks for its
stream's cache, which drops the last stream's blocks when the stream
changes. Cells of at most _CACHE_TRIALS trials read and keep blocks there;
larger cells sample every block and keep none. Kept arrays are read-only,
and an estimate has the same bits whether its blocks were kept or
sampled.

Workers are threads of the calling process. They overlap where the Philox
fill, log1p, ndtri and the numpy kernels release the interpreter lock, not in
Python-level loops such as the Newton steps of exact and of mrt-user with
tau optimized. A pool runs only when a cell spans more than one
chunk (by default more than _DEFAULT_CHUNK trials), with no more threads
than chunks.

Every strategy solves a whole block at once (see beamform); tau fixed or
optimized, there is one evaluation path. A trial fails, and is counted
rather than averaged, when its channel is degenerate or its SNR or tau is
not a finite number.

Strategies are the four beam designs plus "no-relay", a baseline where
the user transmits directly to the access point for the whole data phase.
"""
from __future__ import annotations

import math
# ProcessPoolExecutor is unused; perfbench/layers.py patches this binding
# to count pools, and its traced runs fail without it.
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache, partial

import numpy as np

from . import beamform
from .channel import (LinkStats, SystemParams, _check_seed, _check_tau, _is_int,
                      sample_link_block)
from .sysmodel import link_snr, link_throughput

__all__ = [
    "PerformanceEstimate",
    "SimulationError",
    "check_cell",
    "estimate",
    "MC_STRATEGIES",
    "METRICS",
]

MC_STRATEGIES = beamform.STRATEGIES + ("no-relay",)
METRICS = ("throughput", "outage", "tau")

_MAX_ERROR_FRACTION = 1e-3
_BLOCK = 4096  # trials per reduction block; divides _DEFAULT_CHUNK
_DEFAULT_CHUNK = 32768
_CACHE_TRIALS = 2 * _DEFAULT_CHUNK  # largest cell that stores, and most trials kept


class SimulationError(RuntimeError):
    """Raised when too many trials fail to produce a valid sample."""


@dataclass(frozen=True)
class PerformanceEstimate:
    """value averages n_trials trials; n_failed more failed and were left out."""

    metric: str
    value: float
    std_err: float
    n_trials: int
    master_seed: int
    strategy: str
    params_digest: str
    n_failed: int = 0


@lru_cache(maxsize=1)
def _stream_blocks(n_antennas: int, master_seed: int):
    """Block cache of the one stream asked for last; asking for another
    stream drops it. Its blocks hold read-only arrays."""

    @lru_cache(maxsize=_CACHE_TRIALS // _BLOCK)
    def block(lo: int, hi: int) -> LinkStats:
        link = sample_link_block(n_antennas, master_seed, lo, hi)
        for f in fields(link):
            getattr(link, f.name).flags.writeable = False
        return link

    return block


def _block_values(params: SystemParams, strategy: str, tau: float | None, metric: str,
                  link: LinkStats) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial metric values of one block and the mask of trials that count."""
    relay = strategy != "no-relay"
    with np.errstate(all="ignore"):  # failed trials are masked below
        if relay:
            design = beamform.solve_block(strategy, params, link, tau=tau)
            g1, g2, tau = design.g1, design.g2, design.tau
        else:
            g1, g2 = link.n1_sq, 0.0
            if tau is None:
                tau = beamform.direct_tau(params, link)
        tau = np.broadcast_to(tau, link.n1_sq.shape)
        gamma = link_snr(params, link, g1, g2, tau, relay)
        ok = link.ok & np.isfinite(gamma) & np.isfinite(tau)
        if metric == "tau":
            return tau, ok
        if metric == "outage":
            return (gamma < params.gamma_th).astype(float), ok
        return link_throughput(gamma, tau, relay), ok


def _run_chunk(params: SystemParams, strategy: str, tau: float | None, metric: str,
               link_of, start: int, stop: int) -> list[tuple[int, int, int, float, float]]:
    """Trials [start, stop), a whole number of blocks except at the end;
    link_of(lo, hi) gives the LinkStats of trials [lo, hi).

    Returns per block (first trial, ok, failed, sum, M2), where M2 is the
    sum of squared deviations from the block mean.
    """
    parts = []
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        vals, ok = _block_values(params, strategy, tau, metric, link_of(lo, hi))
        v = vals[ok]
        total = float(np.sum(v))
        m2 = float(np.sum(np.square(v - total / v.size))) if v.size else 0.0
        parts.append((lo, v.size, hi - lo - v.size, total, m2))
    return parts


def _merge(parts) -> tuple[int, float, float]:
    """(n, sum, M2) of the union of blocks, merged in the given order."""
    n, total, m2 = 0, 0.0, 0.0
    for _, nb, _, sb, m2b in parts:
        if nb == 0:
            continue
        if n:
            delta = sb / nb - total / n
            m2 += m2b + delta * delta * n * nb / (n + nb)
        else:
            m2 = m2b
        n += nb
        total += sb
    return n, total, m2


def check_cell(strategy: str, metric: str, tau: float | None) -> None:
    """Raise ValueError unless estimate takes this strategy, metric and tau."""
    if strategy not in MC_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {MC_STRATEGIES}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if tau is not None and strategy not in ("mrt-user", "no-relay"):
        raise ValueError(f"{strategy} optimizes tau; only mrt-user and no-relay take a fixed tau")
    if tau is not None:
        _check_tau(tau)


def estimate(params: SystemParams, strategy: str, n_trials: int,
             master_seed: int, metric: str = "throughput",
             tau: float | None = None, workers: int = 1,
             chunk_size: int = _DEFAULT_CHUNK) -> PerformanceEstimate:
    """Monte Carlo estimate of one metric for one strategy.

    tau fixes the harvest fraction of mrt-user and no-relay, and is
    rejected by the strategies that optimize it; None lets each strategy
    optimize it per channel draw. The result is independent of workers and
    chunk_size down to the last bit.
    """
    check_cell(strategy, metric, tau)
    if not _is_int(n_trials) or n_trials < 2:
        raise ValueError(f"n_trials must be an int >= 2, got {n_trials!r}")
    if not _is_int(chunk_size) or chunk_size < 1:
        raise ValueError(f"chunk_size must be an int >= 1, got {chunk_size!r}")
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    _check_seed(master_seed)  # before the cache: True and 1.0 would find seed 1's blocks
    link_of = _stream_blocks(params.n_antennas, master_seed)  # drops any other stream's
    if n_trials > _CACHE_TRIALS:  # sampled block by block, none kept
        link_of = partial(sample_link_block, params.n_antennas, master_seed)
    chunk = -(-chunk_size // _BLOCK) * _BLOCK  # whole blocks only
    starts = range(0, n_trials, chunk)
    stops = [min(s + chunk, n_trials) for s in starts]
    run = partial(_run_chunk, params, strategy, tau, metric, link_of)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            chunks = list(pool.map(run, starts, stops))
    else:
        chunks = list(map(run, starts, stops))
    parts = sorted(p for c in chunks for p in c)
    n_err = sum(p[2] for p in parts)
    if n_err > _MAX_ERROR_FRACTION * n_trials:
        raise SimulationError(f"{n_err} of {n_trials} trials failed")
    n_ok, total, m2 = _merge(parts)
    mean = total / n_ok
    if metric == "outage":
        se = math.sqrt(max(mean * (1.0 - mean), 0.0) / n_ok)
    else:
        se = math.sqrt(m2 / (n_ok - 1) / n_ok)
    return PerformanceEstimate(metric=metric, value=mean, std_err=se,
                               n_trials=n_ok, master_seed=master_seed,
                               strategy=strategy, params_digest=params.digest(),
                               n_failed=n_err)

