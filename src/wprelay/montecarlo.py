"""Reproducible Monte Carlo estimation of throughput, outage and time split.

Trial t always reads the same words of a seekable random stream, from
which channel.sample_link_blocks draws its channel statistics directly (no
channel vector is built), so any thread can sample any range of trials by
itself. Trials are sampled, evaluated and reduced in fixed blocks of
_BLOCK consecutive trials: chunks handed to workers hold whole blocks
only, each block yields (n, sum, M2), and the blocks are merged in trial
order with the pairwise update of Chan, Golub and LeVeque (1983).
Estimates are therefore bit-identical for any worker count or chunk size.
A chunk seeds one generator per stream and draws its blocks from it in
turn. A fixed tau stays a float; the SNR, the rate and the reduction work
in place, in the order of operations of their formulas.

A channel depends only on (n_antennas, master_seed, trial), so cells that
share n_antennas share a stream. estimate_cells takes any list of cells (a
sweep is one call): it samples each block of each stream once and
evaluates it for every cell on that stream, and each cell gets the bits
that estimate gives it alone. estimate is the one-cell list.

The cells of one stream that share a strategy, a tau and which circuit
needs are 0 form stacks. Each block is solved (beamform.solve_lanes) and
its SNR evaluated (sysmodel.coefficient_snr) once per stack, on lanes that
are the block's trials under every cell's constants
(channel.ChannelDecomposition.stack); each cell's row is then reduced on
its own. Every lane is computed as it is in a stack of one, so stacking
changes no bit. A stack holds at most _STACK_LANES lanes (four blocks),
except that one cell's block is never split: on 2 vCPUs longer lane
arrays made a lone thread slower, while four blocks already spare the
per-call cost of small cells (fig4 at a few trials a point) and the
calls that pooled threads wait on each other for.

A block, and a chunk's generator, lives only as long as the call that
samples it, and a thread holds one block of each stream at a time:
separate estimate calls on one stream sample their own blocks, and only
the cells of one call share them.

Workers are threads of the calling process; each evaluates every stack
on the blocks of its chunks. A pool runs only when the trials
span more than one chunk (by default more than _DEFAULT_CHUNK trials),
with no more threads than chunks.

Every strategy solves a whole lane array at once (see beamform); tau fixed
or optimized, there is one evaluation path. A trial fails, and is counted
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
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import beamform
from .channel import (ChannelDecomposition, LinkStats, SystemParams, _check_seed, _check_tau,
                      _is_int, cell_constants, sample_link_blocks)
from .sysmodel import coefficient_snr, link_throughput

__all__ = [
    "PerformanceEstimate",
    "SimulationError",
    "check_cell",
    "estimate",
    "estimate_cells",
    "MC_STRATEGIES",
    "METRICS",
]

MC_STRATEGIES = beamform.STRATEGIES + ("no-relay",)
METRICS = ("throughput", "outage", "tau")

_MAX_ERROR_FRACTION = 1e-3
_BLOCK = 4096  # trials per reduction block; divides _DEFAULT_CHUNK
_DEFAULT_CHUNK = 32768
_STACK_LANES = 4 * _BLOCK  # lanes per stack at most, unless one cell's block is longer


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


@dataclass(frozen=True)
class _Stack:
    """Cells solved and evaluated as one lane array: they share a stream, a
    strategy, a tau and which of the circuit needs are 0. cells are their
    places in the call; consts holds one row of cell_constants and
    gamma_th one outage threshold per cell."""

    n_antennas: int
    strategy: str
    tau: float | None
    cells: tuple[int, ...]
    metrics: tuple[str, ...]
    consts: np.ndarray
    gamma_th: np.ndarray


def _stacks(cells, size: int) -> list[_Stack]:
    """The cells split into stacks of at most size cells, each keyed by
    n_antennas, strategy, tau and whether each need is 0, so that a stack's
    solver and SNR make one test of each need for all of its lanes."""
    keyed = {}
    for i, (params, strategy, metric, tau) in enumerate(cells):
        consts = cell_constants(params)
        key = (params.n_antennas, strategy, tau, consts[3] != 0.0, consts[4] != 0.0)
        keyed.setdefault(key, []).append((i, metric, consts, params.gamma_th))
    stacks = []
    for (n_antennas, strategy, tau, *_), members in keyed.items():
        for j in range(0, len(members), size):
            places, metrics, consts, gamma_th = zip(*members[j:j + size])
            stacks.append(_Stack(n_antennas, strategy, tau, places, metrics, np.array(consts),
                                 np.array(gamma_th)))
    return stacks


def _stack_values(stack: _Stack, link: LinkStats) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-trial metric values of one block for each cell of the stack, and
    the mask of trials that count, one row per cell: one solver and one SNR
    call on the block's trials under every cell's constants."""
    dec = ChannelDecomposition.stack(stack.consts, link)
    relay = stack.strategy != "no-relay"
    fixed = stack.tau is not None  # a fixed tau stays a float
    with np.errstate(all="ignore"):  # failed trials are masked below
        if relay:
            design = beamform.solve_lanes(stack.strategy, dec, link, tau=stack.tau)
            g1, g2, tau = design.g1, design.g2, design.tau
        else:
            g1, g2 = link.n1_sq, 0.0
            tau = stack.tau if fixed else beamform.direct_tau(dec, link)
        shape = (len(stack.cells), len(link))  # a stack of one has the block's shape
        gamma = coefficient_snr(dec, g1, g2, tau, relay).reshape(shape)
        ok = np.isfinite(gamma) & link.ok
        if not fixed:
            tau = np.broadcast_to(tau, np.shape(dec.a0)).reshape(shape)
            ok &= np.isfinite(tau)
        rate = link_throughput(gamma, tau, relay) if "throughput" in stack.metrics else None
        vals = [(np.full(len(link), tau) if fixed else tau[i]) if metric == "tau"
                else rate[i] if metric == "throughput"
                else (gamma[i] < stack.gamma_th[i]).astype(float)
                for i, metric in enumerate(stack.metrics)]
    return vals, ok


def _run_chunk(stacks, n_cells: int, master_seed: int, start: int, stop: int
               ) -> list[list[tuple[int, int, float, float]]]:
    """Trials [start, stop) of every cell of the stacks, a whole number of
    blocks except at the end; each block of each stream is sampled once,
    whatever the number of cells on it, by one sample_link_blocks call.

    Returns per cell, per block (ok, failed, sum, M2), where M2
    is the sum of squared deviations from the block mean.
    """
    parts = [[] for _ in range(n_cells)]
    streams = {n: sample_link_blocks(n, master_seed, start, stop, _BLOCK)
               for n in {stack.n_antennas for stack in stacks}}
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        links = {n: next(blocks) for n, blocks in streams.items()}
        for stack in stacks:
            vals, ok = _stack_values(stack, links[stack.n_antennas])
            for cell, row_vals, row_ok in zip(stack.cells, vals, ok):
                v = row_vals[row_ok]  # a copy, which the reduction overwrites
                total = float(v.sum())
                v -= total / max(v.size, 1)
                m2 = float(np.square(v, out=v).sum())
                parts[cell].append((v.size, hi - lo - v.size, total, m2))
    return parts


def _merge(parts) -> tuple[int, float, float]:
    """(n, sum, M2) of the union of blocks, merged in the given order."""
    n, total, m2 = 0, 0.0, 0.0
    for nb, _, sb, m2b in parts:
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
    chunk_size down to the last bit. This is estimate_cells of one cell.
    """
    return estimate_cells([(params, strategy, metric, tau)], n_trials, master_seed,
                          workers=workers, chunk_size=chunk_size)[0]


def estimate_cells(cells, n_trials: int, master_seed: int, workers: int = 1,
                   chunk_size: int = _DEFAULT_CHUNK) -> list[PerformanceEstimate]:
    """One estimate per (params, strategy, metric, tau) cell, in cell order,
    from one pass over the streams of the cells' antenna counts: each block
    of a stream is sampled once and evaluated for every cell on it. Each
    estimate has the bits that estimate gives for its cell alone.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("cells must hold at least one (params, strategy, metric, tau)")
    for _, strategy, metric, tau in cells:
        check_cell(strategy, metric, tau)
    if not _is_int(n_trials) or n_trials < 2:
        raise ValueError(f"n_trials must be an int >= 2, got {n_trials!r}")
    if n_trials > 2 ** 64:  # the sampler's trial range
        raise ValueError(f"n_trials must be <= 2**64, got {n_trials}")
    if not _is_int(chunk_size) or chunk_size < 1:
        raise ValueError(f"chunk_size must be an int >= 1, got {chunk_size!r}")
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    _check_seed(master_seed)  # before any block is sampled
    chunk = -(-chunk_size // _BLOCK) * _BLOCK  # whole blocks only
    starts = range(0, n_trials, chunk)
    stops = [min(s + chunk, n_trials) for s in starts]
    size = max(1, _STACK_LANES // min(n_trials, _BLOCK))  # cells per stack
    run = partial(_run_chunk, _stacks(cells, size), len(cells), master_seed)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            chunks = list(pool.map(run, starts, stops))
    else:
        chunks = list(map(run, starts, stops))
    return [_summary(cell, [p for c in chunks for p in c[i]], n_trials, master_seed)
            for i, cell in enumerate(cells)]


def _summary(cell, parts, n_trials: int, master_seed: int) -> PerformanceEstimate:
    """The estimate of one cell from its blocks' (ok, failed, sum, M2) in trial order."""
    params, strategy, metric, _ = cell
    n_err = sum(p[1] for p in parts)
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
