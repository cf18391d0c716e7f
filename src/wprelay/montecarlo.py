"""Reproducible Monte Carlo estimation of throughput, outage and time split.

Trial t always consumes the same counter-addressed block of the random
keystream (see channel.sample_channel_block). Trials are evaluated and
reduced in fixed blocks of _BLOCK consecutive trials: chunks handed to
workers hold whole blocks only, each block yields (n, sum, M2), and the
blocks are merged in trial order with the pairwise update of Chan, Golub
and LeVeque (1983). Estimates are therefore bit-identical for any worker
count or chunk size.

Every strategy solves a whole block at once (see beamform); tau fixed or
optimized, there is one evaluation path. A trial fails, and is counted
rather than averaged, when its channel is degenerate or its SNR or tau is
not a finite number.

Strategies are the four beam designs plus "no-relay", a baseline where
the user transmits directly to the access point for the whole data phase.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import beamform
from .channel import LinkStats, SystemParams, _is_int, sample_channel_block
from .sysmodel import link_snr, link_throughput

__all__ = [
    "PerformanceEstimate",
    "SimulationError",
    "estimate",
    "MC_STRATEGIES",
    "METRICS",
]

MC_STRATEGIES = beamform.STRATEGIES + ("no-relay",)
METRICS = ("throughput", "outage", "tau")

_MAX_ERROR_FRACTION = 1e-3
_BLOCK = 4096  # trials per reduction block; divides _DEFAULT_CHUNK
_DEFAULT_CHUNK = 32768


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


def _block_values(params: SystemParams, strategy: str, tau: float | None, metric: str,
                  h1: np.ndarray, h2: np.ndarray, h3: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial metric values of one block and the mask of trials that count."""
    link = LinkStats.from_block(h1, h2, h3)
    relay = strategy != "no-relay"
    with np.errstate(all="ignore"):  # failed trials are masked below
        if relay:
            design = beamform.solve_block(strategy, params, link, tau=tau)
            g1, g2, tau = design.g1, design.g2, design.tau
        else:
            g1, g2 = link.n1_sq, 0.0
            if tau is None:
                tau = beamform.golden_tau(params, link, g1, g2, relay=False)
        tau = np.broadcast_to(tau, link.n1_sq.shape)
        gamma = link_snr(params, link, g1, g2, tau, relay)
        ok = link.ok & np.isfinite(gamma) & np.isfinite(tau)
        if metric == "tau":
            return tau, ok
        if metric == "outage":
            return (gamma < params.gamma_th).astype(float), ok
        return link_throughput(gamma, tau, relay), ok


def _run_chunk(params: SystemParams, strategy: str, tau: float | None,
               metric: str, master_seed: int, start: int, stop: int
               ) -> list[tuple[int, int, int, float, float]]:
    """Trials [start, stop), a whole number of blocks except at the end.

    Returns per block (first trial, ok, failed, sum, M2), where M2 is the
    sum of squared deviations from the block mean.
    """
    h1, h2, h3 = sample_channel_block(params, master_seed, start, stop)
    parts = []
    for lo in range(0, stop - start, _BLOCK):
        hi = min(lo + _BLOCK, stop - start)
        vals, ok = _block_values(params, strategy, tau, metric,
                                 h1[lo:hi], h2[lo:hi], h3[lo:hi])
        v = vals[ok]
        total = float(np.sum(v))
        m2 = float(np.sum(np.square(v - total / v.size))) if v.size else 0.0
        parts.append((start + lo, v.size, hi - lo - v.size, total, m2))
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
    if strategy not in MC_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {MC_STRATEGIES}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if not _is_int(n_trials) or n_trials < 2:
        raise ValueError(f"n_trials must be an int >= 2, got {n_trials!r}")
    if tau is not None and not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if not _is_int(chunk_size) or chunk_size < 1:
        raise ValueError(f"chunk_size must be an int >= 1, got {chunk_size!r}")
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    chunk = -(-chunk_size // _BLOCK) * _BLOCK  # whole blocks only
    bounds = [(s, min(s + chunk, n_trials)) for s in range(0, n_trials, chunk)]
    args = [(params, strategy, tau, metric, master_seed, a, b) for a, b in bounds]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk_star, args))
    else:
        chunks = [_run_chunk(*a) for a in args]
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


def _run_chunk_star(a):
    return _run_chunk(*a)

