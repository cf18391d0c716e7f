"""The benchmark's workloads and the checks that go with them.

Every workload is a closed loop: one caller in one process sends the next
call into the package when the previous one returns. Only `recipes` hands
work to a process pool. A sweep is the unit of work a user waits for; a
run repeats it. Checks run after the timed sweeps and outside any trace,
each against an oracle that does not share the code path it checks.

The workload seed only picks the Monte Carlo master seed; every other input
is fixed, so per-sweep work counts repeat from run to run.
"""
from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Seed defects that checks are expected to catch. A failing check that
# names one of these still counts as a failed operation; only a failure
# that names none makes the run incorrect.
KNOWN_DEFECTS = {
    "chunk-size-reduction": "estimate() promises bit-identical results for any chunk_size, "
                            "but throughput sums per chunk, so value and std_err change "
                            "with chunk_size (ROADMAP item 4)",
    "relay-mix-cdf-cancellation": "relay_mix_cdf's alternating sum cancels catastrophically "
                                  "for N >= 40 (ROADMAP item 3)",
}

# The README's stable CSV schema, written out here rather than read from cli.
CSV_SCHEMA = "axis,strategy,metric,value,std_err,n_trials,seed"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    defect: str | None = None  # key of KNOWN_DEFECTS this check probes


@dataclass
class Sweep:
    """What one sweep did: result points, trials and operations."""

    points: int = 0
    trials: int = 0  # Monte Carlo trials completed (n_ok)
    attempted: int = 0  # trials requested plus analytic evaluations
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    cells: list[dict] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def repeat_check(sweeps: list[Sweep]) -> Check:
    """Same seed, same inputs: every sweep of a run returns identical results
    and fails the same operations."""
    outcomes = [(s.values, s.attempted, s.failed, s.errors) for s in sweeps]
    same = all(o == outcomes[0] for o in outcomes[1:])
    return Check("repeatable", same, f"{len(sweeps)} sweeps, results identical: {same}")


class Workload:
    name = ""
    why = ""
    pool_workers = 0

    def __init__(self, wp, seed: int, out_dir: Path):
        self.wp = wp
        self.master_seed = random.Random(f"{self.name}/{seed}").getrandbits(32)
        self.base = wp.cli.default_params()
        self.out_dir = out_dir
        self.histogram: dict[str, int] | None = None
        self.cdf_max_abs_err = 0.0
        # Called before each cell, outside the cell's timing; the runner
        # points it at HostClock.tick to sample the host's speed there.
        self.before_cell = lambda: None

    def sweep(self) -> Sweep:
        raise NotImplementedError

    def checks(self, sweeps: list[Sweep]) -> list[Check]:
        raise NotImplementedError

    def mc_cell(self, sw: Sweep, label: str, params, strategy: str, n_trials: int,
                **kwargs):
        """One Monte Carlo cell, timed and counted into sw."""
        mc = self.wp.montecarlo
        self.before_cell()
        t0 = time.perf_counter()
        try:
            est = mc.estimate(params, strategy, n_trials, self.master_seed, **kwargs)
        except mc.SimulationError as exc:
            est = None
            sw.errors.append(f"{label}: SimulationError: {exc}")
        wall = time.perf_counter() - t0
        n_ok = 0 if est is None else est.n_trials
        sw.cells.append({"cell": label, "params": params.digest(), "wall_s": wall,
                         "n_ok": n_ok, "n_failed": n_trials - n_ok})
        sw.attempted += n_trials
        sw.failed += n_trials - n_ok
        sw.trials += n_ok
        if est is not None:
            sw.values[label] = (est.value, est.std_err, est.n_trials)
        return est


class McFixedTau(Workload):
    name = "mc-fixed-tau"
    why = ("vectorized fixed-tau Monte Carlo at large trial counts: channel sampling "
           "dominates, beam/time-split solvers and the analytic layer never run")
    TAU = 0.5
    TRIALS = 131072  # four chunks of estimate's default chunk size
    ORACLE_TRIALS = 512
    ALT_CHUNK = 4096
    # (strategy, metric, ps_dbm, N); fig8's geometry and power ranges
    CELLS = [(s, m, ps, n) for n in (2, 10) for s in ("mrt-user", "no-relay")
             for m, ps in (("outage", 14.0), ("throughput", 5.0))]

    def params(self, n: int, ps: float):
        return replace(self.base, d1=30.0, d2=16.0, d3=16.0, alpha=3.0,
                       n_antennas=n, ps_dbm=ps)

    @staticmethod
    def label(s, m, ps, n) -> str:
        return f"{s}/{m}/N={n}/ps={ps:g}"

    def sweep(self) -> Sweep:
        sw = Sweep()
        for cell in self.CELLS:
            s, m, ps, n = cell
            if self.mc_cell(sw, self.label(*cell), self.params(n, ps), s, self.TRIALS,
                            metric=m, tau=self.TAU) is not None:
                sw.points += 1
        return sw

    def _per_trial(self, params, strategy: str, metric: str, k: int) -> np.ndarray:
        """Per-trial values on the first k channels, one trial at a time.

        mrt-user goes through sysmodel.snr_exact with w = h1*/||h1||; the
        no-relay direct link (harvest tau*T, transmit (1-tau)*T) is written
        out here from the system model.
        """
        wp, tau = self.wp, self.TAU
        h1, h2, h3 = wp.channel.sample_channel_block(params, self.master_seed, 0, k)
        out = np.empty(k)
        d1a = params.d1 ** params.alpha
        for i in range(k):
            if strategy == "mrt-user":
                ch = wp.channel.ChannelState(h1=h1[i], h2=h2[i], h3=complex(h3[i]))
                w = np.conj(h1[i]) / np.linalg.norm(h1[i])
                gamma = wp.sysmodel.snr_exact(params, ch, w, tau).gamma_total
                rate = wp.sysmodel.throughput(gamma, tau)
            else:
                y = float(np.sum(np.abs(h1[i]) ** 2))
                pu = max(0.0, params.eta * tau * params.ps_watt * y / ((1.0 - tau) * d1a)
                         - params.pc_watt)
                gamma = pu * y / (d1a * params.noise_watt)
                rate = (1.0 - tau) * np.log2(1.0 + gamma)
            out[i] = float(gamma < params.gamma_th) if metric == "outage" else rate
        return out

    def checks(self, sweeps: list[Sweep]) -> list[Check]:
        mc = self.wp.montecarlo
        last = sweeps[-1].values
        out = [repeat_check(sweeps)]
        k = self.ORACLE_TRIALS
        for cell in self.CELLS:
            s, m, ps, n = cell
            label = self.label(*cell)
            p = self.params(n, ps)
            fast = mc.estimate(p, s, k, self.master_seed, metric=m, tau=self.TAU).value
            ref = float(np.mean(self._per_trial(p, s, m, k)))
            ok = fast == ref if m == "outage" else abs(fast - ref) <= 1e-12 * abs(ref)
            out.append(Check(f"per-trial-oracle/{label}", ok,
                             f"vectorized {fast!r} vs per-trial {ref!r} over {k} trials"))
            if label not in last:
                continue
            value, se, _ = last[label]
            alt = mc.estimate(p, s, self.TRIALS, self.master_seed, metric=m, tau=self.TAU,
                              chunk_size=self.ALT_CHUNK)
            same = (alt.value, alt.std_err) == (value, se)
            out.append(Check(
                f"chunk-invariance/{label}", same,
                f"chunk 32768 vs {self.ALT_CHUNK}: value {value!r} vs {alt.value!r}, "
                f"std_err {se!r} vs {alt.std_err!r}",
                defect="chunk-size-reduction" if m == "throughput" else None))
        return out


class McOptimized(Workload):
    name = "mc-optimized"
    why = ("per-trial beam and tau optimization for all five strategies on fig4's "
           "geometry: solvers, golden search and snr_exact dominate, sampling is negligible")
    PS = (20.0, 35.0, 50.0)
    NS = (2, 10)  # N = 2 is needed for suboptimal case 1, which N = 10 never hits
    # Trials per cell, sized so each strategy takes about a fifth of a sweep.
    TRIALS = {"exact": 4, "suboptimal": 512, "large-n": 768, "mrt-user": 80, "no-relay": 192}
    ALT_CHUNK = 64

    def params(self, n: int, ps: float):
        return replace(self.base, d1=20.0, d2=20.0, d3=2.0, n_antennas=n, ps_dbm=ps)

    @staticmethod
    def label(s, n, ps) -> str:
        return f"{s}/N={n}/ps={ps:g}"

    def sweep(self) -> Sweep:
        sw = Sweep()
        for n in self.NS:
            for ps in self.PS:
                p = self.params(n, ps)
                for s, trials in self.TRIALS.items():
                    if self.mc_cell(sw, self.label(s, n, ps), p, s, trials) is not None:
                        sw.points += 1
        return sw

    def checks(self, sweeps: list[Sweep]) -> list[Check]:
        wp = self.wp
        last = sweeps[-1].values
        out = [repeat_check(sweeps)]
        hist: Counter = Counter()
        for n in self.NS:
            for ps in self.PS:
                p = self.params(n, ps)
                key = self.label("exact", n, ps)
                if key in last:
                    # same channels as the exact cell; fig4's tolerances
                    exact = last[key][0]
                    sub = wp.montecarlo.estimate(p, "suboptimal", self.TRIALS["exact"],
                                                 self.master_seed).value
                    detail = f"exact {exact!r}, suboptimal {sub!r}"
                    out.append(Check(f"exact>=suboptimal/N={n}/ps={ps:g}",
                                     exact >= sub - 1e-12, detail))
                    out.append(Check(f"suboptimal-within-3%/N={n}/ps={ps:g}",
                                     sub >= 0.97 * exact, detail))
                k = self.TRIALS["suboptimal"]
                h1, h2, h3 = wp.channel.sample_channel_block(p, self.master_seed, 0, k)
                for i in range(k):
                    ch = wp.channel.ChannelState(h1=h1[i], h2=h2[i], h3=complex(h3[i]))
                    d = wp.beamform.solve("suboptimal", p, ch)
                    hist[f"case.{d.case_index}"] += 1
                    hist[f"scenario.{d.scenario}"] += 1
            key = self.label("suboptimal", n, self.PS[1])
            if key in last:
                value, se, _ = last[key]
                alt = wp.montecarlo.estimate(self.params(n, self.PS[1]), "suboptimal",
                                             self.TRIALS["suboptimal"], self.master_seed,
                                             chunk_size=self.ALT_CHUNK)
                out.append(Check(
                    f"chunk-invariance/{key}", (alt.value, alt.std_err) == (value, se),
                    f"one chunk vs chunks of {self.ALT_CHUNK}: value {value!r} vs "
                    f"{alt.value!r}, std_err {se!r} vs {alt.std_err!r}",
                    defect="chunk-size-reduction"))
        self.histogram = dict(sorted(hist.items()))
        return out


class Analytic(Workload):
    name = "analytic"
    why = ("nested-quadrature outage on fig9a's points with its simulated column; "
           "relay_mix_cdf dominates, plus a relay_mix_cdf accuracy probe up to N = 50")
    TAU = 0.5
    # The corners of fig9a's grid (N in {2, 3}, ps -40...-20 dBm). One point
    # costs about 2.5 s, so a 20 s run repeats this sweep three times and
    # reports a median; the full grid would fit once.
    POINTS = ((2, -40.0), (3, -20.0))
    MC_TRIALS = 200_000
    PROBE_NS = (2, 3, 5, 10, 20, 30, 40, 50)
    PROBE_X = (0.1, 0.5, 1.0, 2.0)  # multiples of the mean N + 1 of the mix
    # Absolute CDF error allowed: keeps fig9a's smallest outage (~4e-5) within 0.3 %.
    CDF_TOL = 1e-7
    BINOMIAL_P_MIN = 1e-6  # false-alarm rate per outage point

    def sweep(self) -> Sweep:
        wp = self.wp
        sw = Sweep()
        for n, ps in self.POINTS:
            p = replace(self.base, n_antennas=n, ps_dbm=ps)
            label = f"N={n}/ps={ps:g}"
            self.before_cell()
            t0 = time.perf_counter()
            try:
                exact = wp.analysis.outage_exact(p, self.TAU)
            except wp.specfun.IntegrationError as exc:
                exact = None
                sw.errors.append(f"outage_exact/{label}: IntegrationError: {exc}")
            high = wp.analysis.outage_high_snr(p, self.TAU)
            bound = wp.analysis.throughput_lower_bound(p, self.TAU)
            sw.attempted += 3
            sw.failed += exact is None
            sw.cells.append({"cell": f"analytic/{label}", "params": p.digest(),
                             "wall_s": time.perf_counter() - t0,
                             "n_ok": 0, "n_failed": 0})
            sw.values[f"analytic/{label}"] = (exact, high, bound)
            ok = exact is not None
            for m in ("outage", "throughput"):
                ok &= self.mc_cell(sw, f"mrt-user/{m}/{label}", p, "mrt-user",
                                   self.MC_TRIALS, metric=m, tau=self.TAU) is not None
            sw.points += ok
        return sw

    def _mix_cdf_oracle(self, x: float, n: int) -> float:
        """P(v g^2 <= x), g ~ Gamma(N), v ~ Beta(1, N-1), by mpmath quadrature:
        P(g <= sqrt x) + E[1 - (1 - x/g^2)^(N-1); g > sqrt x]."""
        import mpmath as mp

        with mp.workdps(30):
            x = mp.mpf(x)
            r = mp.sqrt(x)
            head = mp.gammainc(n, 0, r, regularized=True)
            tail = mp.quad(lambda g: mp.exp((n - 1) * mp.log(g) - g - mp.loggamma(n))
                           * (1 - (1 - x / g ** 2) ** (n - 1)), [r, r + n, mp.inf])
            return float(head + tail)

    def checks(self, sweeps: list[Sweep]) -> list[Check]:
        from scipy.stats import binomtest

        wp = self.wp
        last = sweeps[-1].values
        out = [repeat_check(sweeps)]
        for n, ps in self.POINTS:
            label = f"N={n}/ps={ps:g}"
            exact, _, bound = last[f"analytic/{label}"]
            sim = last.get(f"mrt-user/outage/{label}")
            if exact is not None and sim is not None:
                value, _, n_ok = sim
                k = round(value * n_ok)
                pval = binomtest(k, n_ok, min(max(exact, 0.0), 1.0)).pvalue
                out.append(Check(f"outage-vs-simulation/{label}", pval >= self.BINOMIAL_P_MIN,
                                 f"analytic {exact!r}, simulated {k}/{n_ok}, p={pval:.3g}"))
            sim = last.get(f"mrt-user/throughput/{label}")
            if sim is not None:
                value, se, _ = sim
                out.append(Check(f"lower-bound-below-simulation/{label}",
                                 bound <= value + 3.0 * se,
                                 f"bound {bound!r}, simulated {value!r} +/- {se!r}"))
        worst = 0.0
        for n in self.PROBE_NS:
            for c in self.PROBE_X:
                x = c * (n + 1)
                got = wp.analysis.relay_mix_cdf(x, n)
                ref = self._mix_cdf_oracle(x, n)
                err = abs(got - ref)
                worst = max(worst, err)
                out.append(Check(f"relay_mix_cdf/N={n}/x={x:g}", err <= self.CDF_TOL,
                                 f"got {got!r}, mpmath {ref!r}, |err| {err:.3g}",
                                 defect="relay-mix-cdf-cancellation" if n >= 40 else None))
        self.cdf_max_abs_err = worst
        return out


class Recipes(Workload):
    name = "recipes"
    why = ("cli.run_recipe on fig4, fig6, fig8a, fig9b at reduced trials with 2 workers: "
           "many small cells, a process pool per large cell, CSV output")
    pool_workers = 2
    RECIPES = (("fig4", 4), ("fig6", 200), ("fig8a", 65536), ("fig9b", 50000))
    ANALYTIC_TAGS = ("analytic-exact", "analytic-high-snr", "lower-bound")

    def sweep(self) -> Sweep:
        wp = self.wp
        sw = Sweep()
        for name, trials in self.RECIPES:
            out = self.out_dir / f"{name}.csv"
            self.before_cell()
            t0 = time.perf_counter()
            try:
                lines, _ = wp.cli.run_recipe(name, self.base, trials, self.master_seed, out,
                                             self.pool_workers)
            except (wp.montecarlo.SimulationError, wp.specfun.IntegrationError) as exc:
                sw.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                sw.attempted += 1
                sw.failed += 1
                continue
            wall = time.perf_counter() - t0
            text = out.read_text()
            header, *rows = text.splitlines()
            fields = [r.split(",") for r in rows]
            mc_rows = [f for f in fields if f[1].split("/")[0] not in self.ANALYTIC_TAGS]
            n_ok = sum(int(f[5]) for f in mc_rows)
            requested = trials * len(mc_rows)
            sw.points += len(rows)
            sw.trials += n_ok
            sw.attempted += requested + len(rows) - len(mc_rows)
            sw.failed += requested - n_ok
            sw.cells.append({"cell": name, "wall_s": wall, "rows": len(rows),
                             "n_ok": n_ok, "n_failed": requested - n_ok})
            sw.values[name] = (hashlib.sha256(text.encode()).hexdigest(), header, tuple(lines))
        return sw

    def checks(self, sweeps: list[Sweep]) -> list[Check]:
        out = [repeat_check(sweeps)]
        for name, (_, header, lines) in sweeps[-1].values.items():
            out.append(Check(f"{name}/csv-header", header == CSV_SCHEMA, header))
            out.extend(Check(f"{name}/{line[7:]}", line.startswith("[PASS]"), line)
                       for line in lines)
        return out


WORKLOADS = {w.name: w for w in (McFixedTau, McOptimized, Analytic, Recipes)}
