"""Experiment command line: figure-style sweeps to CSV, plus a verify suite.

Verbs:
  run <recipe>   execute a registered sweep (or a custom one) and write CSV
  verify         run the analytic-vs-numeric cross-check suite

CSV schema (stable): axis,strategy,metric,value,std_err,n_trials,seed.
The strategy column carries variant tags such as "exact/N=2"; analytic
curves appear as strategies ("analytic-exact", "analytic-high-snr",
"lower-bound") with n_trials = 0. Re-running a recipe with the same seed
writes byte-identical data rows regardless of worker count.

Parameters are SystemParams' defaults, which a --config file overrides
key by key. Recipes are data: RECIPES maps each figure to a Recipe value.
_recipe lists and checks a recipe's cells once, in row order (an analytic
one by analysis.check_scope, as verify checks its scenario), and one loop
(_sweep) runs them all: every Monte Carlo cell in one
montecarlo.estimate_cells call, which evaluates each channel block for
every cell on its stream, a curve's cells stacked into one solver call.
"""
from __future__ import annotations

import argparse
import re
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import beamform, montecarlo, timesplit
from .channel import ChannelDecomposition, LinkStats, SystemParams, sample_channel

__all__ = ["main", "RECIPES", "Recipe", "default_params", "run_recipe", "run_verify"]

CSV_HEADER = "axis,strategy,metric,value,std_err,n_trials,seed"


def default_params(config: str | None = None) -> SystemParams:
    """The default scenario, overridden key by key by a key=value file if given."""
    return SystemParams() if config is None else SystemParams.from_config(config)


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path: Path, rows: list[dict]) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r["axis"]), str(r["strategy"]), str(r["metric"]),
            repr(float(r["value"])), repr(float(r["std_err"])),
            str(r["n_trials"]), str(r["seed"]),
        ]))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Recipes: sweeps as data, all run by _sweep.

# Analytic curve tags and the analysis function each calls as fn(params, tau).
ANALYTIC = {"analytic-exact": "outage_exact", "analytic-high-snr": "outage_high_snr",
            "lower-bound": "throughput_lower_bound"}


@dataclass(frozen=True)
class Recipe:
    """One sweep: the points it visits, the curves it writes, its trend checks.

    Each point is a dict of parameter overrides; its value under axis fills
    the CSV axis column. Each curve is (tag, overrides, metric, tau); the
    tag before the first "/" names a Monte Carlo strategy or an ANALYTIC
    curve. A cell's parameters are the caller's with base, the curve's and
    the point's overrides applied in that order. check(values, std_errs,
    n_trials) gets each tag's columns in point order, gives (name, ok) pairs.
    """

    trials: int
    axis: str
    points: tuple
    curves: tuple
    check: Callable[[dict, dict, dict], list[tuple[str, bool]]]
    base: dict = field(default_factory=dict)


def _sweep(cells, trials: int, seed: int, workers: int) -> list[dict]:
    """One row per (tag, axis value, params, metric, tau) cell, in cell
    order. Every Monte Carlo cell runs in one estimate_cells call, which
    samples each block of each n_antennas stream once for all of its cells.
    Only a recipe with an analytic curve imports analysis, and with it scipy."""
    kinds = [tag.split("/")[0] for tag, *_ in cells]
    estimates = iter(montecarlo.estimate_cells(
        [(p, kind, metric, tau) for kind, (_, _, p, metric, tau) in zip(kinds, cells)
         if kind not in ANALYTIC], trials, seed, workers=workers))
    rows = []
    for kind, (tag, x, p, metric, tau) in zip(kinds, cells):
        if kind in ANALYTIC:
            from . import analysis

            value, std_err, n = getattr(analysis, ANALYTIC[kind])(p, tau), 0.0, 0
        else:
            est = next(estimates)
            value, std_err, n = est.value, est.std_err, est.n_trials
        rows.append({"axis": x, "strategy": tag, "metric": metric,
                     "value": value, "std_err": std_err, "n_trials": n, "seed": seed})
    return rows


def _points(axis: str, values) -> tuple:
    return tuple({axis: v} for v in values)


def _check_fig4(v, se, nt):
    out = []
    for n in (2, 10):
        pairs = list(zip(v[f"exact/N={n}"], v[f"suboptimal/N={n}"]))
        out += [(f"N={n}: exact dominates suboptimal", all(e >= s - 1e-12 for e, s in pairs)),
                (f"N={n}: suboptimal within 3% of exact", all(s >= 0.97 * e for e, s in pairs))]
    return out


def _check_placement(v, se, nt):
    return [(f"{tag.split('/', 1)[1]}: relay placement has an optimum",
             max(vals) >= max(vals[0], vals[-1])) for tag, vals in v.items()]


def _check_circuit_power(v, se, nt):
    free, costly = v["suboptimal/pc=none"], v["suboptimal/pc=-20dBm"]
    return [(f"pc={pc:g} dBm never beats free circuitry",
             all(c <= f + 1e-12 for c, f in zip(v[f"suboptimal/pc={pc:g}dBm"], free)))
            for pc in (-30.0, -20.0)] + [("circuit-power gap shrinks at high power",
                                          free[-1] - costly[-1] <= free[0] - costly[0])]


def _check_harvest_fraction(v, se, nt):
    return [(f"{tag.split('/', 1)[1]}: harvest fraction falls with power",
             all(a >= b for a, b in zip(vals, vals[1:]))) for tag, vals in v.items()]


def _check_relay_outage(v, se, nt):
    return [("relay outage never exceeds direct transmission",
             all(a <= b + 1e-12 for a, b in zip(v["mrt-user"], v["no-relay"])))]


def _check_relay_throughput(v, se, nt):
    relay, direct = v["mrt-user"], v["no-relay"]
    return [("relay wins at low power", relay[0] >= direct[0]),
            ("direct transmission wins at high power", direct[-1] >= relay[-1])]


def _binomial_agrees(rate: float, n: int, p: float, z: float) -> bool:
    """Whether k = rate * n events in n trials lie within Binomial(n, p)'s
    two tails of Phi(-z) each, so the check fails at the 2 Phi(-z) rate
    that a normal bound at z sigma promises but exceeds at small n p."""
    from scipy import special  # not on import: only the outage checks call this

    k, tail = round(rate * n), special.ndtr(-z)  # k an int: bdtr floors others silently
    return bool(special.bdtr(k, n, p) >= tail and special.bdtrc(k - 1, n, p) >= tail)


def _check_fig9a(v, se, nt):
    out = []
    for n in (2, 3):
        mc, ana = f"mrt-user/N={n}", v[f"analytic-exact/N={n}"]
        close = all(_binomial_agrees(m, k, a, 3.5) for m, k, a in zip(v[mc], nt[mc], ana))
        out += [(f"N={n}: analytic outage tracks simulation", close),
                (f"N={n}: outage falls with power", all(a >= b for a, b in zip(ana, ana[1:])))]
    return out


def _check_fig9b(v, se, nt):
    return [(f"N={n}: lower bound stays below simulation",
             all(b <= m + 3 * s for b, m, s in
                 zip(v[f"lower-bound/N={n}"], v[f"mrt-user/N={n}"], se[f"mrt-user/N={n}"])))
            for n in (5, 10)]


def _check_custom(axis: str, v, se, nt):
    return [(f"custom sweep over {axis} completed", True)]


def _variants(axis: str, values, metric: str) -> tuple:
    return tuple((f"suboptimal/{axis}={x}", {axis: x}, metric, None) for x in values)


def _fig5(base: dict, axis: str, values) -> Recipe:
    """Suboptimal throughput vs relay->AP distance with d2 + d3 = 12 m."""
    d2s = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    return Recipe(2000, "d2", tuple({"d2": d2, "d3": 12.0 - d2} for d2 in d2s),
                  _variants(axis, values, "throughput"), _check_placement,
                  base={"n_antennas": 20, **base})


def _fig7(axis: str, values) -> Recipe:
    """Mean optimized harvest fraction vs transmit power."""
    return Recipe(2000, "ps_dbm", _points("ps_dbm", (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)),
                  _variants(axis, values, "tau"), _check_harvest_fraction)


def _fig8(metric: str, trials: int, ps, check) -> Recipe:
    """Relay vs direct transmission in the far geometry (alpha = 3)."""
    return Recipe(trials, "ps_dbm", _points("ps_dbm", ps),
                  tuple((s, {}, metric, 0.5) for s in ("mrt-user", "no-relay")), check,
                  base={"d1": 30.0, "d2": 16.0, "d3": 16.0, "alpha": 3.0})


RECIPES = {
    # Throughput of all four beam designs vs transmit power, N in {2, 10}.
    "fig4": Recipe(
        200, "ps_dbm", _points("ps_dbm", (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)),
        tuple((f"{s}/N={n}", {"n_antennas": n}, "throughput", None) for n in (2, 10)
              for s in ("exact", "suboptimal", "large-n", "mrt-user")),
        _check_fig4, base={"d1": 20.0, "d2": 20.0, "d3": 2.0}),
    "fig5a": _fig5({}, "d1", (6.0, 8.0, 10.0)),
    "fig5b": _fig5({"d1": 10.0}, "ps_dbm", (10.0, 20.0, 30.0)),
    # Circuit-power impact on the suboptimal throughput.
    "fig6": Recipe(
        2000, "ps_dbm", _points("ps_dbm", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
        tuple((f"suboptimal/pc={tag}", {"pc_dbm": pc}, "throughput", None)
              for tag, pc in (("none", None), ("-30dBm", -30.0), ("-20dBm", -20.0))),
        _check_circuit_power),
    "fig7a": _fig7("n_antennas", (2, 10, 50)),
    "fig7b": _fig7("d1", (10.0, 15.0, 20.0)),
    "fig8a": _fig8("outage", 200000, (14.0, 17.0, 20.0, 23.0, 26.0, 29.0, 32.0),
                   _check_relay_outage),
    "fig8b": _fig8("throughput", 20000, (-45.0, -35.0, -25.0, -10.0, 5.0, 20.0, 35.0),
                   _check_relay_throughput),
    # Outage vs transmit power with exact and high-power analytic curves.
    "fig9a": Recipe(
        400000, "ps_dbm", _points("ps_dbm", (-40.0, -35.0, -30.0, -25.0, -20.0)),
        tuple((f"{kind}/N={n}", {"n_antennas": n}, "outage", 0.5) for n in (2, 3)
              for kind in ("mrt-user", "analytic-exact", "analytic-high-snr")),
        _check_fig9a),
    # Mean throughput vs transmit power with the analytic lower bound.
    "fig9b": Recipe(
        50000, "ps_dbm", _points("ps_dbm", (20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)),
        tuple((f"{kind}/N={n}", {"n_antennas": n}, "throughput", 0.5) for n in (5, 10)
              for kind in ("mrt-user", "lower-bound")),
        _check_fig9b),
}


def _custom_recipe(axis: str, values, strategies, metric: str, tau: float | None) -> Recipe:
    if not values:
        raise ValueError("custom recipe needs a non-empty --values list")
    if not strategies:
        raise ValueError("custom recipe needs a non-empty --strategies list")
    if axis == "n_antennas":  # SystemParams rejects the fractional ones
        values = [int(v) if float(v).is_integer() else v for v in values]
    return Recipe(1000, axis, _points(axis, values),
                  tuple((s, {}, metric, tau) for s in strategies), partial(_check_custom, axis))


def _recipe(name: str, custom: dict | None, params: SystemParams) -> tuple[Recipe, list]:
    """Recipe name (custom built from custom) and its cells, each (tag, axis
    value, params, metric, tau), in row order: curve-major, but custom's
    axis-major. Every cell's parameters, strategy, metric and tau pass
    before it returns, so a bad cell raises before any cell runs."""
    if name == "custom":
        recipe = _custom_recipe(**(custom or {}))
        order = [(curve, point) for point in recipe.points for curve in recipe.curves]
    elif name in RECIPES:
        recipe = RECIPES[name]
        order = [(curve, point) for curve in recipe.curves for point in recipe.points]
    else:
        raise ValueError(f"unknown recipe {name!r}")
    cells = [(tag, point[recipe.axis], replace(params, **{**recipe.base, **overrides, **point}),
              metric, tau) for (tag, overrides, metric, tau), point in order]
    for tag, _, p, metric, tau in cells:
        kind = tag.split("/")[0]
        if name != "custom" and kind in ANALYTIC:  # an analytic curve, not a strategy
            from . import analysis

            analysis.check_scope(p)
        else:
            montecarlo.check_cell(kind, metric, tau)
    return recipe, cells


def run_recipe(name: str, params: SystemParams, trials: int | None, seed: int,
               out: Path, workers: int, custom: dict | None = None
               ) -> tuple[list[str], bool]:
    """Run a recipe (custom takes its axis, values, strategies, metric and
    tau from custom), write its CSV to out and return the check lines and
    whether every check passed. trials None takes the recipe's default."""
    return _run(*_recipe(name, custom, params), trials, seed, out, workers)


def _run(recipe: Recipe, cells, trials: int | None, seed: int, out: Path, workers: int
         ) -> tuple[list[str], bool]:
    """run_recipe of the recipe and the cells that _recipe gave for it."""
    rows = _sweep(cells, recipe.trials if trials is None else trials, seed, workers)
    columns = {key: {} for key in ("value", "std_err", "n_trials")}
    for row in rows:
        for key, col in columns.items():
            col.setdefault(row["strategy"], []).append(row[key])
    checks = recipe.check(*columns.values())
    _write_csv(out, rows)
    return [f"[{'PASS' if ok else 'FAIL'}] {check}" for check, ok in checks], \
        all(ok for _, ok in checks)


# ---------------------------------------------------------------------------
# verify

def _verify_solver_vs_grid(params, count: int) -> tuple[str, bool, str]:
    xs = np.linspace(0.0, 1.0, 20001)
    worst = 0.0
    for trial in range(count):
        ch = sample_channel(params, 1, trial)
        dec = ChannelDecomposition.of(params, LinkStats.of(ch)[0])
        _, val, _, _ = beamform.solve_suboptimal_xbar(dec)
        grid = float(np.max(beamform.bound_min(dec, xs)))
        worst = max(worst, (grid - val) / grid)
    return ("closed-form beam vs grid search", worst <= 1e-5,
            f"worst relative shortfall {worst:.3g}")


def _verify_lambert(count: int) -> tuple[str, bool, str]:
    kappa = np.logspace(-3, 8, count)
    t_gs = [timesplit.golden_max(lambda t: timesplit.rate_upper(k, t), 1e-9, 1.0 - 1e-9,
                                 1e-12)[0] for k in kappa]
    worst = float(np.max(np.abs(timesplit.optimal_tau(kappa) - t_gs)))
    return ("closed-form harvest time vs scipy bounded search", worst <= 1e-6,
            f"worst |delta tau| {worst:.3g}")


def _verify_analytic(params, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Analytic outage and the throughput lower bound vs simulation, or one
    line naming why params lie outside the closed forms' scope."""
    from . import analysis

    try:
        analysis.check_scope(params)
    except ValueError as exc:
        return [("analytic layer", True, f"skipped: {exc}")]
    tau = 0.5
    # drop to 2 antennas and low power so the outage level is measurable
    p = replace(params, n_antennas=2, ps_dbm=-25.0)
    ana = analysis.outage_exact(p, tau)
    est = montecarlo.estimate(p, "mrt-user", trials, seed, metric="outage", tau=tau)
    mean = montecarlo.estimate(params, "mrt-user", trials, seed, metric="throughput", tau=tau)
    low = analysis.throughput_lower_bound(params, tau)
    return [("analytic outage vs simulation", _binomial_agrees(est.value, est.n_trials, ana, 3.0),
             f"analytic {ana:.4g}, simulated {est.value:.4g} +/- {est.std_err:.2g}"),
            ("throughput lower bound vs simulation", low <= mean.value + 3 * mean.std_err,
             f"bound {low:.4g} vs mean {mean.value:.4g}")]


def run_verify(params: SystemParams, level: str) -> tuple[list[str], bool]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    big = level == "full"
    checks = [
        _verify_solver_vs_grid(params, 500 if big else 100),
        _verify_lambert(100),
        *_verify_analytic(params, 10 ** 6 if big else 2 * 10 ** 5, 99),
    ]
    lines = []
    ok = True
    for name, passed, detail in checks:
        lines.append(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok &= passed
    return lines, ok


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wprelay",
                                 description="wireless-powered relay experiments")
    sub = ap.add_subparsers(dest="verb", required=True)

    rp = sub.add_parser("run", help="execute a sweep recipe and write CSV")
    rp.add_argument("recipe", help=f"one of {sorted(RECIPES)} or 'custom'")
    rp.add_argument("--trials", type=int, default=None)
    rp.add_argument("--seed", type=int, default=20260823)
    rp.add_argument("--out", type=Path, default=None)
    rp.add_argument("--config", default=None, help="flat key=value parameter file")
    rp.add_argument("--workers", type=int, default=1,
                    help="threads for the sweep's Monte Carlo cells; used only at more "
                         "than 32768 trials, and the CSV is the same for any count. Each "
                         "thread evaluates every cell on its blocks, one solver call per "
                         "stack of cells that share n_antennas, a strategy and tau")
    # The sweep flags apply to the custom recipe only; None means not given.
    rp.add_argument("--axis", default=None, choices=[f.name for f in fields(SystemParams)],
                    help="custom recipe sweep field (default ps_dbm)")
    rp.add_argument("--values", default=None, help="custom recipe axis values (csv)")
    rp.add_argument("--strategies", default=None, help="custom recipe strategies (csv)")
    rp.add_argument("--metric", default=None, choices=montecarlo.METRICS,
                    help="custom recipe metric (default throughput)")
    rp.add_argument("--tau", type=float, default=None)

    vp = sub.add_parser("verify", help="run the cross-check suite")
    vp.add_argument("--level", default="quick", choices=("quick", "full"))
    vp.add_argument("--config", default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse takes a lone -40,-30 for an option
        if argv[i - 1] == "--values" and re.fullmatch(r"-?[\d.][\d.eE+,-]*", argv[i]):
            argv[i - 1:i + 1] = [f"--values={argv[i]}"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:  # a missing or bad config file is a usage error
        params = default_params(args.config)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if args.verb == "verify":
        lines, ok = run_verify(params, args.level)
        print("\n".join(lines))
        return 0 if ok else 1

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.trials is not None and args.trials < 2:
        parser.error(f"--trials must be >= 2, got {args.trials}")
    if args.trials is not None and args.trials > 2 ** 64:
        parser.error(f"--trials must be <= 2**64, got {args.trials}")
    if not 0 <= args.seed < 2 ** 128:
        parser.error(f"--seed must lie in [0, 2**128), got {args.seed}")
    given = [f"--{f}" for f in ("axis", "values", "strategies", "metric", "tau")
             if args.recipe != "custom" and getattr(args, f) is not None]
    if given:
        parser.error(f"{', '.join(given)} only apply to the custom recipe")
    custom = None
    try:  # and so is a bad sweep or cell, found before any cell runs
        if args.recipe == "custom":
            custom = dict(axis=args.axis or "ps_dbm",
                          values=[float(v) for v in (args.values or "").split(",") if v.strip()],
                          strategies=[s for s in (args.strategies or "").split(",") if s.strip()],
                          metric=args.metric or "throughput", tau=args.tau)
        recipe, cells = _recipe(args.recipe, custom, params)
    except ValueError as exc:
        parser.error(str(exc))
    out = args.out or Path(f"{args.recipe}.csv")
    t0 = time.time()
    lines, ok = _run(recipe, cells, args.trials, args.seed, out, args.workers)
    print(f"wrote {out} in {time.time() - t0:.1f} s")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
