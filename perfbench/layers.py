"""Which package functions are traced, and the per-layer metrics built on them.

Span names are 'module.function' of the defining module. README.md maps
each metric below to the end-to-end metric and workload it should move.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from tracer import Tracer

PACKAGE = "wprelay"
STRATEGY_SOLVERS = {"exact": "solve_exact", "suboptimal": "solve_suboptimal",
                    "large-n": "solve_large_n", "mrt-user": "solve_mrt_user"}

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = [
    ("channel.sample_s", "s", "lower"),
    ("channel.sample_us_per_trial", "us", "lower"),
    ("channel.bytes_computed", "bytes", "lower"),
    ("montecarlo.estimate_self_s", "s", "lower"),
    ("montecarlo.cells", "count", "lower"),
    ("montecarlo.trials", "count", "lower"),
    ("montecarlo.trials_failed", "count", "lower"),
    ("montecarlo.pooled_trial_share", "ratio", "higher"),
    *[(f"beamform.solve_us.{s}", "us", "lower") for s in STRATEGY_SOLVERS],
    *[(f"beamform.solve_calls.{s}", "count", "lower") for s in STRATEGY_SOLVERS],
    *[(f"beamform.suboptimal_case.{c}", "count", "higher") for c in (1, 2, 3)],
    ("timesplit.golden_calls", "count", "lower"),
    ("timesplit.golden_evals", "count", "lower"),
    ("timesplit.golden_self_s", "s", "lower"),
    ("timesplit.optimal_tau_us", "us", "lower"),
    ("sysmodel.snr_exact_calls", "count", "lower"),
    ("sysmodel.snr_exact_us", "us", "lower"),
    ("analysis.outage_exact_s", "s", "lower"),
    ("analysis.relay_mix_cdf_calls", "count", "lower"),
    ("analysis.relay_mix_cdf_self_s", "s", "lower"),
    ("analysis.cdf_max_abs_err", "abs", "lower"),
    ("specfun.quad_calls", "count", "lower"),
    ("specfun.quad_evals", "count", "lower"),
    ("specfun.quad_self_s", "s", "lower"),
    ("specfun.incgamma_table_self_s", "s", "lower"),
    ("cli.run_recipe_self_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_first(tracer: Tracer, args, kwargs, name: str, key: str):
    """Arguments with the callable in first position counted under key."""
    if args:
        return (tracer.counting(args[0], key), *args[1:]), kwargs
    return args, {**kwargs, name: tracer.counting(kwargs[name], key)}


def install(tracer: Tracer) -> None:
    """Patch every traced function of the package into tracer."""
    counts = tracer.counts

    def sampled(args, kwargs, result, idx):
        counts["channel.trials"] += _arg(args, kwargs, 3, "stop") - _arg(args, kwargs, 2, "start")
        counts["channel.bytes"] += sum(a.nbytes for a in result)

    pools_at_start = [0]

    def cell_start(args, kwargs):
        pools_at_start[0] = counts["montecarlo.pools"]
        return args, kwargs

    def cell_done(args, kwargs, est, idx):
        requested = _arg(args, kwargs, 2, "n_trials")
        pooled = counts["montecarlo.pools"] > pools_at_start[0]
        counts["montecarlo.trials_ok"] += est.n_trials
        counts["montecarlo.trials_failed"] += requested - est.n_trials
        counts["montecarlo.pooled_trials"] += est.n_trials if pooled else 0
        tracer.records.append({
            "cell": f"{est.strategy}/{est.metric}", "params": est.params_digest,
            "wall_s": tracer.end[idx] - tracer.start[idx], "n_ok": est.n_trials,
            "n_failed": requested - est.n_trials, "pooled": pooled})

    def suboptimal_done(args, kwargs, design, idx):
        counts[f"beamform.case.{design.case_index}"] += 1
        counts[f"beamform.scenario.{design.scenario}"] += 1

    def golden_start(args, kwargs):
        return _count_first(tracer, args, kwargs, "f", "timesplit.golden_evals")

    def quad_start(args, kwargs):
        # A semi-infinite call maps its integrand and recurses with finite
        # bounds; count evaluations only there so none is counted twice.
        if math.isinf(_arg(args, kwargs, 2, "hi")):
            return args, kwargs
        counts["specfun.quad_runs"] += 1
        return _count_first(tracer, args, kwargs, "f", "specfun.quad_evals")

    def recipe_done(args, kwargs, result, idx):
        counts["cli.csv_bytes"] += Path(_arg(args, kwargs, 4, "out")).stat().st_size

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["montecarlo.pools"] += 1
            super().__init__(*args, **kwargs)

    tracer.patch(PACKAGE, "montecarlo", "ProcessPoolExecutor", CountingPool)
    tracer.patch_function(PACKAGE, "channel", "sample_channel_block", after=sampled)
    tracer.patch_function(PACKAGE, "montecarlo", "estimate", before=cell_start, after=cell_done)
    for solver in STRATEGY_SOLVERS.values():
        done = suboptimal_done if solver == "solve_suboptimal" else None
        tracer.patch_function(PACKAGE, "beamform", solver, after=done)
    tracer.patch_function(PACKAGE, "timesplit", "golden_max", before=golden_start)
    tracer.patch_function(PACKAGE, "timesplit", "optimal_tau")
    tracer.patch_function(PACKAGE, "sysmodel", "snr_exact")
    for fn in ("outage_exact", "outage_high_snr", "throughput_lower_bound", "relay_mix_cdf"):
        tracer.patch_function(PACKAGE, "analysis", fn)
    tracer.patch_function(PACKAGE, "specfun", "integrate_adaptive", before=quad_start)
    tracer.patch_function(PACKAGE, "specfun", "upper_incomplete_gamma_table")
    tracer.patch_function(PACKAGE, "cli", "run_recipe", after=recipe_done)


def metrics(tracer: Tracer, overhead: float, cdf_max_abs_err: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, keyed as in PER_LAYER."""
    spans = tracer.by_name()
    counts = tracer.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    def us_per_call(name: str) -> float:
        s = span(name)
        return 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0

    sample = span("channel.sample_channel_block")
    trials_ok = counts["montecarlo.trials_ok"]
    out = {
        "channel.sample_s": sample["total_s"],
        "channel.sample_us_per_trial": (1e6 * sample["total_s"] / counts["channel.trials"]
                                        if counts["channel.trials"] else 0.0),
        "channel.bytes_computed": counts["channel.bytes"],
        "montecarlo.estimate_self_s": span("montecarlo.estimate")["self_s"],
        "montecarlo.cells": span("montecarlo.estimate")["calls"],
        "montecarlo.trials": trials_ok,
        "montecarlo.trials_failed": counts["montecarlo.trials_failed"],
        "montecarlo.pooled_trial_share": (counts["montecarlo.pooled_trials"] / trials_ok
                                          if trials_ok else 0.0),
    }
    for strategy, solver in STRATEGY_SOLVERS.items():
        out[f"beamform.solve_us.{strategy}"] = us_per_call(f"beamform.{solver}")
        out[f"beamform.solve_calls.{strategy}"] = span(f"beamform.{solver}")["calls"]
    for case in (1, 2, 3):
        out[f"beamform.suboptimal_case.{case}"] = counts[f"beamform.case.{case}"]
    golden = span("timesplit.golden_max")
    out.update({
        "timesplit.golden_calls": golden["calls"],
        "timesplit.golden_evals": counts["timesplit.golden_evals"],
        "timesplit.golden_self_s": golden["self_s"],
        "timesplit.optimal_tau_us": us_per_call("timesplit.optimal_tau"),
        "sysmodel.snr_exact_calls": span("sysmodel.snr_exact")["calls"],
        "sysmodel.snr_exact_us": us_per_call("sysmodel.snr_exact"),
        "analysis.outage_exact_s": span("analysis.outage_exact")["total_s"],
        "analysis.relay_mix_cdf_calls": span("analysis.relay_mix_cdf")["calls"],
        "analysis.relay_mix_cdf_self_s": span("analysis.relay_mix_cdf")["self_s"],
        "analysis.cdf_max_abs_err": cdf_max_abs_err,
        "specfun.quad_calls": counts["specfun.quad_runs"],
        "specfun.quad_evals": counts["specfun.quad_evals"],
        "specfun.quad_self_s": span("specfun.integrate_adaptive")["self_s"],
        "specfun.incgamma_table_self_s": span("specfun.upper_incomplete_gamma_table")["self_s"],
        "cli.run_recipe_self_s": span("cli.run_recipe")["self_s"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "trace.overhead": overhead,
    })
    return out


def layer_shares(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Self time of each traced function, and of the time outside every
    span, as shares of the traced sweep's wall time."""
    spans = tracer.by_name()
    shares = {name: s["self_s"] / wall_s for name, s in spans.items()}
    shares["(outside spans)"] = 1.0 - tracer.top_level_s() / wall_s
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
