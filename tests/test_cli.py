import csv
import math
from dataclasses import replace

import pytest

from wprelay import analysis, cli, montecarlo
from wprelay.channel import SystemParams
from wprelay.cli import CSV_HEADER, RECIPES, default_params, main, run_recipe
from wprelay.montecarlo import estimate


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_default_params_from_packaged_config():
    p = default_params()
    assert p.n_antennas == 10
    assert p.alpha == 2.5
    assert p.eta == 0.5
    assert p.noise_dbm == pytest.approx(-100.9897, abs=1e-3)


def test_registered_recipes():
    assert set(RECIPES) == {"fig4", "fig5a", "fig5b", "fig6", "fig7a", "fig7b",
                            "fig8a", "fig8b", "fig9a", "fig9b"}


def test_run_fig4_reduced_trials(tmp_path):
    out = tmp_path / "fig4.csv"
    rc = main(["run", "fig4", "--trials", "20", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER
    rows = _read_rows(out)
    tags = {r["strategy"] for r in rows}
    assert tags == {f"{s}/N={n}" for s in ("exact", "suboptimal", "large-n",
                                           "mrt-user") for n in (2, 10)}
    assert all(r["metric"] == "throughput" for r in rows)


def test_run_fig9a_includes_analytic_curves(tmp_path):
    out = tmp_path / "fig9a.csv"
    rc = main(["run", "fig9a", "--trials", "50000", "--out", str(out)])
    rows = _read_rows(out)
    tags = {r["strategy"] for r in rows}
    for n in (2, 3):
        assert f"analytic-exact/N={n}" in tags
        assert f"analytic-high-snr/N={n}" in tags
    analytic = [r for r in rows if r["strategy"].startswith("analytic")]
    assert all(r["n_trials"] == "0" for r in analytic)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in analytic)


def test_fig4_more_antennas_give_more_throughput():
    # the paper's first finding: at fig4's geometry and default trials, every
    # design's N = 10 throughput beats its N = 2 one at every power, by more
    # than 3 standard errors of the difference
    recipe = RECIPES["fig4"]
    rows = {}
    for row in cli._sweep(cli._recipe("fig4", None, default_params())[1], recipe.trials, 1, 1):
        rows.setdefault(row["strategy"], []).append(row)
    for s in ("exact", "suboptimal", "large-n", "mrt-user"):
        for two, ten in zip(rows[f"{s}/N=2"], rows[f"{s}/N=10"], strict=True):
            se = math.hypot(two["std_err"], ten["std_err"])
            assert ten["value"] - two["value"] > 3.0 * se, (s, two["axis"])


def _fig9a_columns(n3_outages, trials=400000):
    """fig9a's check columns with each simulated outage at its analytic value
    but N = 3's last, which is n3_outages in trials."""
    ana = {2: [0.3, 0.1, 0.03, 0.01, 3e-3], 3: [0.1, 0.02, 3e-3, 4e-4, 3.652e-5]}
    v, se, n = {}, {}, {}
    for ant, col in ana.items():
        sim = col[:-1] + [n3_outages / trials if ant == 3 else col[-1]]
        v[f"mrt-user/N={ant}"], n[f"mrt-user/N={ant}"] = sim, [trials] * len(sim)
        se[f"mrt-user/N={ant}"] = [math.sqrt(p * (1.0 - p) / trials) for p in sim]
        v[f"analytic-exact/N={ant}"] = col
    return v, se, n


@pytest.mark.parametrize("outages, passed",
                         [(6, True), (15, True), (0, False), (2, False), (30, True)])
def test_fig9a_outage_check_takes_sigma_at_the_analytic_value(outages, passed):
    # at N = 3's last point an analytic 3.652e-5 expects 14.6 outages in 400 000
    # trials. The exact binomial test at 2 Phi(-3.5) accepts 3 to 30 of them:
    # 6 (z = -3.51 by their own std_err) pass, and none (a std_err of 0) fail.
    # A normal bound at 3.5 sigma would accept 2 and reject 30
    v, se, n = _fig9a_columns(outages)
    assert dict(cli._check_fig9a(v, se, n))["N=3: analytic outage tracks simulation"] is passed


def test_run_custom_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["run", "custom", "--axis", "ps_dbm", "--values", "10,20",
               "--strategies", "mrt-user,no-relay", "--tau", "0.5",
               "--trials", "2000", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 4


def test_run_custom_takes_a_negative_values_list(tmp_path):
    # argparse takes a lone -40,-30 for an option; main joins it to --values
    outs = tmp_path / "space.csv", tmp_path / "equals.csv"
    for values, out in zip((["--values", "-40,-30"], ["--values=-40,-30"]), outs):
        assert main(["run", "custom", *values, "--strategies", "mrt-user", "--metric",
                     "outage", "--tau", "0.5", "--trials", "200", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert [r["axis"] for r in _read_rows(outs[0])] == ["-40.0", "-30.0"]


def test_run_builds_each_cell_once_and_estimates_them_in_one_call(tmp_path, monkeypatch):
    # fig4's 56 cells span two antenna counts: the default parameters plus
    # one SystemParams per cell, and one Monte Carlo call for all of them
    built, calls = [], []
    init, estimate_cells = SystemParams.__init__, montecarlo.estimate_cells

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_cells(cells, *args, **kwargs):
        calls.append(len(cells))
        return estimate_cells(cells, *args, **kwargs)

    monkeypatch.setattr(SystemParams, "__init__", counting_init)
    monkeypatch.setattr(cli.montecarlo, "estimate_cells", counting_cells)
    assert main(["run", "fig4", "--trials", "4", "--out", str(tmp_path / "fig4.csv")]) == 0
    assert len(built) == 1 + 56
    assert calls == [56]


def test_run_custom_empty_axis_fails(tmp_path):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", "custom", "--values", "", "--strategies", "mrt-user",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_custom_rows_are_axis_major_and_repeatable(tmp_path):
    params = SystemParams(n_antennas=4, d1=20.0, d2=15.0, d3=15.0, ps_dbm=30.0)
    custom = dict(axis="ps_dbm", values=[10.0, 20.0], strategies=["mrt-user", "no-relay"],
                  metric="throughput", tau=0.5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_recipe("custom", params, 2000, 23, a, 1, custom=custom)
    run_recipe("custom", params, 2000, 23, b, 1, custom=custom)
    assert [(r["axis"], r["strategy"]) for r in _read_rows(a)] == [
        ("10.0", "mrt-user"), ("10.0", "no-relay"),
        ("20.0", "mrt-user"), ("20.0", "no-relay")]
    assert a.read_bytes() == b.read_bytes()


def _cell_by_cell(recipe, params, trials, seed):
    """Rows of a recipe, curve-major, with one estimate or analysis call per cell."""
    rows = []
    for tag, overrides, metric, tau in recipe.curves:
        kind = tag.split("/")[0]
        for point in recipe.points:
            p = replace(params, **{**recipe.base, **overrides, **point})
            if kind in cli.ANALYTIC:
                value, std_err, n = getattr(analysis, cli.ANALYTIC[kind])(p, tau), 0.0, 0
            else:
                est = estimate(p, kind, trials, seed, metric=metric, tau=tau)
                value, std_err, n = est.value, est.std_err, est.n_trials
            rows.append({"axis": point[recipe.axis], "strategy": tag, "metric": metric,
                         "value": value, "std_err": std_err, "n_trials": n, "seed": seed})
    return rows


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_sweep_rows_equal_cell_by_cell_rows(name):
    # a sweep runs all of its Monte Carlo cells in one call; every row must
    # keep the bits and the place that its own cell gives it
    params, recipe = default_params(), RECIPES[name]
    trials = 6 if name == "fig4" else 300  # fig4 runs exact
    want = _cell_by_cell(recipe, params, trials, 11)
    assert repr(cli._sweep(cli._recipe(name, None, params)[1], trials, 11, 2)) == repr(want)


def test_custom_rows_equal_cell_by_cell_rows(tmp_path):
    # one sweep over every value, its cells listed axis-major, writes the
    # bytes of one sweep per value
    params = default_params()
    custom = dict(axis="ps_dbm", values=[10.0, 20.0, 30.0],
                  strategies=["suboptimal", "mrt-user", "no-relay"], metric="tau", tau=None)
    recipe = cli._custom_recipe(**custom)
    rows = [row for point in recipe.points
            for row in _cell_by_cell(replace(recipe, points=(point,)), params, 300, 11)]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cli._write_csv(want, rows)
    run_recipe("custom", params, 300, 11, got, 1, custom=custom)
    assert got.read_bytes() == want.read_bytes()


def test_a_long_custom_sweep_splits_its_stacks(tmp_path, monkeypatch):
    # 40 values of one strategy make several stacks, none of more than
    # _STACK_LANES lanes, so a long sweep holds no longer lane arrays than a
    # short one; the rows keep their bits
    sizes = []
    real = montecarlo._stack_values

    def recording(stack, link):
        sizes.append((len(stack.cells), len(stack.cells) * len(link)))
        return real(stack, link)

    monkeypatch.setattr(montecarlo, "_stack_values", recording)
    params, trials = default_params(), 2000
    custom = dict(axis="ps_dbm", values=[float(v) for v in range(-20, 60, 2)],
                  strategies=["suboptimal", "no-relay"], metric="throughput", tau=None)
    recipe = cli._custom_recipe(**custom)
    rows = [row for point in recipe.points
            for row in _cell_by_cell(replace(recipe, points=(point,)), params, trials, 11)]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cli._write_csv(want, rows)
    sizes.clear()
    run_recipe("custom", params, trials, 11, got, 1, custom=custom)
    assert got.read_bytes() == want.read_bytes()
    cells = montecarlo._STACK_LANES // trials
    assert 1 < cells < 40 and sum(k for k, _ in sizes) == 2 * 40  # one block, every cell once
    assert max(k for k, _ in sizes) == cells
    assert max(lanes for _, lanes in sizes) <= montecarlo._STACK_LANES


@pytest.mark.parametrize("recipe", [
    ["custom", "--values", "10", "--strategies", "mrt-user", "--tau", "0.5"],
    ["fig8b"],
])
def test_zero_trials_fails(tmp_path, recipe, capsys):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", *recipe, "--trials", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "wprelay: error: --trials must be >= 2, got 0"
    assert not out.exists()


def _custom(axis, values, strategies, *flags):
    return ["custom", "--axis", axis, "--values", values, "--strategies", strategies, *flags]


@pytest.mark.parametrize("flag, message", [
    (["fig8b", "--workers", "0"], "--workers must be >= 1, got 0"),
    (["fig8b", "--workers", "-3"], "--workers must be >= 1, got -3"),
    (["fig8b", "--trials", "1"], "--trials must be >= 2, got 1"),
    (["fig8b", "--seed", "-1"], "--seed must lie in [0, 2**128), got -1"),
    (["fig8b", "--seed", str(2 ** 128)], f"--seed must lie in [0, 2**128), got {2 ** 128}"),
    (_custom("n_antennas", "2,0", "mrt-user"), "n_antennas must be >= 1"),
    (_custom("alpha", "1", "mrt-user"), "alpha must be >= 2"),
    (_custom("eta", "2", "mrt-user"), "eta must lie in (0, 1]"),
    (_custom("ps_dbm", "10", "mrt-user,exact", "--tau", "0.5"),
     "exact optimizes tau; only mrt-user and no-relay take a fixed tau"),
    (_custom("ps_dbm", "10", "mrt-user", "--tau", "1.5"), "tau must lie in (0, 1), got 1.5"),
    (_custom("ps_dbm", "10", "bogus"),
     "unknown strategy 'bogus'; expected one of "
     "('exact', 'suboptimal', 'large-n', 'mrt-user', 'no-relay')"),
    (["fig8b", "--config", "/missing"], "[Errno 2] No such file or directory: '/missing'"),
    (["fig8b", "--trials", str(2 ** 64 + 1)], f"--trials must be <= 2**64, got {2 ** 64 + 1}"),
    (_custom("ps_dbm", "3000", "suboptimal"),
     f"rho overflows a float at ps_dbm=3000.0, noise_dbm={default_params().noise_dbm!r}"),
])
def test_run_rejects_bad_numbers_before_any_cell(tmp_path, capsys, monkeypatch, flag, message):
    # a bad number, cell or config file is a usage error: exit status 2, one
    # error line, and no cell runs and no CSV is written
    def never(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli.montecarlo, "estimate", never)
    monkeypatch.setattr(cli.montecarlo, "estimate_cells", never)
    monkeypatch.setattr(analysis, "outage_exact", never)
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"wprelay: error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("sweep", [
    ["--axis", "n_antennas", "--values", "2.7", "--strategies", "mrt-user"],
    ["--values", "10", "--strategies", "mrt-user,analytic-exact"],
], ids=["fractional-antenna-count", "analytic-tag-as-strategy"])
def test_run_custom_bad_sweep_fails(tmp_path, sweep):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", "custom", *sweep, "--tau", "0.5", "--trials", "100",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_custom_unknown_axis_fails(tmp_path):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit):
        main(["run", "custom", "--axis", "foo", "--values", "1",
              "--strategies", "mrt-user", "--tau", "0.5", "--trials", "100",
              "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--axis", "d1"], ["--values", "1"],
                                  ["--strategies", "exact"], ["--metric", "outage"],
                                  ["--tau", "0.9"]])
def test_named_recipe_rejects_custom_flags(tmp_path, flag):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit):
        main(["run", "fig8b", "--trials", "4", *flag, "--out", str(out)])
    assert not out.exists()


def test_run_unknown_recipe(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig99", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["run", "custom", "--axis", "ps_dbm", "--values", "0,10",
            "--strategies", "mrt-user", "--tau", "0.4", "--trials", "3000",
            "--seed", "77"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b), "--workers", "2"])
    assert a.read_bytes() == b.read_bytes()


def test_config_file_override(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_antennas = 3\nd1 = 10\nd2 = 8\nd3 = 8\nps_dbm = 20\n")
    out = tmp_path / "c.csv"
    main(["run", "custom", "--config", str(cfg), "--axis", "ps_dbm",
          "--values", "20", "--strategies", "mrt-user", "--tau", "0.5",
          "--trials", "1000", "--out", str(out)])
    assert len(_read_rows(out)) == 1


def test_verify_quick_passes():
    from wprelay.cli import run_verify
    lines, ok = run_verify(default_params(n_antennas=4), "quick")
    assert ok
    assert all(line.startswith("[PASS]") for line in lines)


def test_verify_single_antenna_skips_analytic_layer():
    from wprelay.cli import run_verify
    lines, ok = run_verify(default_params(n_antennas=1), "quick")
    assert ok
    assert any("skipped" in line for line in lines)
