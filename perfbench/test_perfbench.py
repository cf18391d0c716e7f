"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

import hostspeed
import layers
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 8]; b holds c [6, 7]
    t = Tracer(clock=fake_clock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]))
    c = t.wrap(lambda: None, "c")
    a = t.wrap(lambda: None, "a")
    b = t.wrap(lambda: c(), "b")
    t.wrap(lambda: (a(), b()), "outer")()
    stats = t.by_name()
    assert list(t.parent) == [-1, 0, 0, 2]
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert stats["a"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert stats["b"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert stats["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert t.top_level_s() == 10.0


def test_self_times_of_recursive_spans_add_up_to_the_top_level_span():
    # f [0, 10] calls itself once, f [2, 5]; total_s counts the inner span twice
    t = Tracer(clock=fake_clock([0.0, 2.0, 5.0, 10.0]))

    def f(depth):
        return traced(depth - 1) if depth else None

    traced = t.wrap(f, "f")
    traced(1)
    stats = t.by_name()["f"]
    assert stats == {"calls": 2, "total_s": 13.0, "self_s": 10.0}
    assert sum(t.self_times()) == t.top_level_s()


def test_raising_call_closes_its_span():
    t = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0]))

    def boom():
        raise ZeroDivisionError

    inner = t.wrap(boom, "inner")
    with pytest.raises(ZeroDivisionError):
        t.wrap(inner, "outer")()
    assert t.counts["inner.raised"] == 1 and t.counts["outer.raised"] == 1
    assert t.by_name()["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert t._open == []


def package_bindings() -> dict[str, dict[str, object]]:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "wprelay" or name.startswith("wprelay.")}


class SmallFixedTau(workloads.McFixedTau):
    TRIALS = 64
    CELLS = workloads.McFixedTau.CELLS[:2]


class SmallOptimized(workloads.McOptimized):
    PS = (30.0,)
    NS = (2,)
    TRIALS = {"exact": 2, "suboptimal": 8, "large-n": 8, "mrt-user": 2, "no-relay": 2}


def test_traced_sweeps_restore_every_patched_attribute(tmp_path):
    wp = run.load_package()
    before = package_bindings()
    tracer = Tracer()
    evals = []

    def integrand(x):
        evals.append(x)
        return math.exp(-x)

    with tracer.installed(layers.install):
        assert wp.montecarlo.estimate is not before["wprelay.montecarlo"]["estimate"]
        assert wp.beamform.golden_max is not before["wprelay.beamform"]["golden_max"]
        fixed = SmallFixedTau(wp, 3, tmp_path).sweep()
        optimized = SmallOptimized(wp, 3, tmp_path).sweep()
        area = wp.specfun.integrate_adaptive(integrand, 0.0, math.inf)
        wp.analysis.relay_mix_cdf(1.0, 3)
    assert tracer._patches == []
    after = package_bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[name][attr] is obj, f"{name}.{attr} not restored"

    got = layers.metrics(tracer, overhead=1.0, cdf_max_abs_err=0.0)
    assert fixed.failed == optimized.failed == 0
    assert got["montecarlo.cells"] == len(fixed.cells) + len(optimized.cells)
    assert got["beamform.solve_calls.exact"] == 2
    assert got["beamform.solve_calls.suboptimal"] == 8
    assert sum(got[f"beamform.suboptimal_case.{c}"] for c in (1, 2, 3)) == 8
    assert got["timesplit.golden_evals"] > got["timesplit.golden_calls"] > 0
    assert abs(area - 1.0) < 1e-9
    assert got["specfun.quad_calls"] == 1
    assert got["specfun.quad_evals"] == len(evals)
    assert got["analysis.relay_mix_cdf_calls"] == 1
    trials = 2 * SmallFixedTau.TRIALS + sum(SmallOptimized.TRIALS.values())
    assert got["channel.bytes_computed"] > 0 and tracer.counts["channel.trials"] == trials


def test_operations_are_counted_once_however_many_sweeps_fit():
    def sweep():
        return workloads.Sweep(attempted=100, failed=2, values={"cell": (1.0,)})

    one, three = [sweep()], [sweep(), sweep(), sweep()]
    checks = [workloads.repeat_check(three), workloads.Check("probe", False, "")]
    assert checks[0].ok
    assert run.operation_counts(one, checks) == run.operation_counts(three, checks) == (102, 3)
    three[1].failed = 3
    assert not workloads.repeat_check(three).ok


def test_host_clock_scales_each_stretch_by_the_reference_around_it():
    nominal = hostspeed.NOMINAL_S
    refs = iter([0.0] * hostspeed.WARMUP_RUNS + [nominal, 2 * nominal, 2 * nominal, nominal])
    clock = hostspeed.HostClock(reference=lambda: next(refs), clock=fake_clock(
        # start; tick 0.25 s in: too soon; tick 2 s in: closes a stretch
        [0.0, 0.25, 2.0, 2.0, 2.0,
         # stop 1 s later; second sweep: start, stop 1 s later
         3.0, 3.0, 5.0, 6.0, 6.0]))
    clock.start()
    clock.tick()
    clock.tick()  # 2 s at a mean of 1.5x the nominal loop time
    raw, scaled = clock.stop()  # then 1 s at 2x
    assert raw == 3.0
    assert scaled == pytest.approx(2.0 / 1.5 + 1.0 / 2.0)
    clock.start()  # the loop time taken at the last stop bounds this stretch
    assert clock.stop() == pytest.approx((1.0, 1.0 / 1.5))
    assert clock.refs == [nominal, 2 * nominal, 2 * nominal, nominal]


def test_patches_are_restored_when_the_traced_code_raises():
    run.load_package()
    before = package_bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed(layers.install):
            raise RuntimeError
    after = package_bindings()
    assert all(after[n][a] is o for n, attrs in before.items() for a, o in attrs.items())


def test_benchmark_json_mirrors_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
