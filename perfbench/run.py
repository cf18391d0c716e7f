"""Benchmark of the wprelay package, one workload per run.

    python3 perfbench/run.py --workload mc-fixed-tau --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ./src. The run
repeats the workload's sweep for about --seconds (at least once), checks
the results, prints a manifest and one line per metric, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off. Times
are scaled to a fixed host speed by a reference loop (see hostspeed.py);
the raw times are in the manifest.
--trace 1 runs untraced sweeps for half the time, then one traced sweep,
reports the per-layer metrics of that sweep and the tracing overhead, and
writes its spans to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import hostspeed
import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("channel", "sysmodel", "timesplit", "specfun", "beamform", "montecarlo",
           "analysis", "cli")
SETUP_RUNS = 5
SETUP_CODE = ("import time, hostspeed; [hostspeed.reference_s() for _ in "
              "range(hostspeed.WARMUP_RUNS)]; before = hostspeed.reference_s(); "
              "t0 = time.perf_counter(); import wprelay, wprelay.cli; "
              "wprelay.cli.default_params(); t = time.perf_counter() - t0; "
              "print(t, hostspeed.scale(t, before, hostspeed.reference_s()), wprelay.__file__)")

# (name, unit); BENCHMARK.json's end_to_end list mirrors this.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("trials_per_s", "1/s"),
              ("points_per_s", "1/s"), ("peak_rss_mb", "MB")]


def _require_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: wprelay imported from {path}, not from {SRC}")


def load_package() -> types.SimpleNamespace:
    """Import wprelay from the checkout's src/ and return its modules."""
    if not (SRC / "wprelay" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"wprelay.{m}") for m in MODULES}
    package = sys.modules["wprelay"]
    _require_source(package.__file__)
    return types.SimpleNamespace(package=package, **mods)


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled seconds (see hostspeed) for import wprelay +
    cli.default_params() in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE),
                                                      env.get("PYTHONPATH")]))
    raw, scaled = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, seconds_scaled, path = proc.stdout.split()
        _require_source(path)
        raw.append(float(seconds))
        scaled.append(float(seconds_scaled))
    return raw, scaled


def timed_sweeps(workload, seconds: float):
    """Repeat the sweep until less than half a sweep's time is left; at least once.

    Returns each sweep's raw and speed-scaled wall time (see hostspeed),
    the reference loop's times, and the sweeps.
    """
    walls, scaled, sweeps = [], [], []
    clock = hostspeed.HostClock()
    workload.before_cell = clock.tick
    deadline = time.perf_counter() + seconds
    while True:
        clock.start()
        sweeps.append(workload.sweep())
        raw, at_nominal = clock.stop()
        walls.append(raw)
        scaled.append(at_nominal)
        if time.perf_counter() + statistics.median(walls) / 2 > deadline:
            workload.before_cell = lambda: None
            return walls, scaled, clock.refs, sweeps


def peak_rss_mb(pool_workers: int) -> float:
    """Peak resident set of this process; with a pool, plus pool_workers times
    the largest child's peak (an upper bound on the concurrent total)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool_workers:
        kib += pool_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def merge_cells(sweeps) -> list[dict]:
    """Per cell: median wall time over the sweeps, counts from the last sweep."""
    walls: dict[str, list[float]] = {}
    for sw in sweeps:
        for c in sw.cells:
            walls.setdefault(c["cell"], []).append(c["wall_s"])
    return [dict(c, wall_s=statistics.median(walls[c["cell"]])) for c in sweeps[-1].cells]


def operation_counts(sweeps, checks) -> tuple[int, int]:
    """(attempted, failed) operations of a run.

    Every sweep repeats the same operations on the same inputs, and the
    `repeatable` check fails unless the repeats match the first sweep, so
    operations are counted once: one sweep's worth plus the checks. The
    counts then depend on the seed only, not on how many sweeps fit.
    """
    return (sweeps[0].attempted + len(checks),
            sweeps[0].failed + sum(not c.ok for c in checks))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wprelay").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(wp, workload, args, walls, sweeps) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name, "seed": args.seed, "master_seed": workload.master_seed,
        "trace": args.trace, "params_digest": workload.base.digest(),
        "package_version": wp.package.__version__, "git_commit": git_commit(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "sweeps": len(walls), "sweep_walls_s": walls,
        "cells": merge_cells(sweeps),
        "errors": [e for sw in sweeps for e in sw.errors],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wp = load_package()
    setup_raw, setup = ([], []) if args.trace else measure_setup(SETUP_RUNS)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](wp, args.seed, Path(tmp))
        if args.trace:
            walls, scaled, refs, sweeps = timed_sweeps(workload, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed(layers.install):
                t0 = time.perf_counter()
                sweeps.append(workload.sweep())
                traced_wall = time.perf_counter() - t0
        else:
            walls, scaled, refs, sweeps = timed_sweeps(workload, args.seconds)
        checks = workload.checks(sweeps)

    info = manifest(wp, workload, args, walls, sweeps)
    info["sweep_scaled_s"] = scaled
    info["reference_s"] = {"nominal": hostspeed.NOMINAL_S, "samples": refs}
    if args.trace:
        base_wall = statistics.median(walls)
        info["traced_wall_s"] = traced_wall
        info["traced_cells"] = tracer.records
        info["suboptimal_histogram"] = {k[len("beamform."):]: v for k, v in
                                        sorted(tracer.counts.items())
                                        if k.startswith(("beamform.case.", "beamform.scenario."))}
        info["self_time_shares"] = layers.layer_shares(tracer, traced_wall)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        info["spans_file"] = str(trace_path.relative_to(ROOT))
        info["spans"] = len(tracer.name_id)
        values = layers.metrics(tracer, traced_wall / base_wall, workload.cdf_max_abs_err)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        info["suboptimal_histogram"] = workload.histogram
        info["setup_runs_s"] = setup_raw
        info["setup_runs_scaled_s"] = setup
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(scaled),
            "trials_per_s": statistics.median(sw.trials / w for sw, w in zip(sweeps, scaled)),
            "points_per_s": statistics.median(sw.points / w for sw, w in zip(sweeps, scaled)),
            "peak_rss_mb": peak_rss_mb(workload.pool_workers),
        }
        units = dict(END_TO_END)

    unexpected = [c for c in checks if not c.ok and c.defect is None]
    defects = sorted({c.defect for c in checks if not c.ok and c.defect})
    attempted, failed = operation_counts(sweeps, checks)
    info["known_defects_seen"] = {d: workloads.KNOWN_DEFECTS[d] for d in defects}
    print("manifest " + json.dumps(info, default=str))
    for c in checks:
        if not c.ok:
            print(f"FAIL {c.name}: {c.detail}"
                  + (f" [known defect: {c.defect}]" if c.defect else " [unexpected]"))
    print(f"checks: {len(checks)} run, {sum(not c.ok for c in checks)} failed "
          f"({len(unexpected)} unexpected); known defects seen: {', '.join(defects) or 'none'}")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(f"metric failed_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
