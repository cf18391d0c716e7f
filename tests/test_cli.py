import csv

import pytest

from wprelay.channel import SystemParams
from wprelay.cli import CSV_HEADER, RECIPES, default_params, main, run_recipe


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


def test_run_custom_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["run", "custom", "--axis", "ps_dbm", "--values", "10,20",
               "--strategies", "mrt-user,no-relay", "--tau", "0.5",
               "--trials", "2000", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 4


def test_run_custom_empty_axis_fails(tmp_path):
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        main(["run", "custom", "--values", "", "--strategies", "mrt-user",
              "--out", str(out)])
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


@pytest.mark.parametrize("recipe", [
    ["custom", "--values", "10", "--strategies", "mrt-user", "--tau", "0.5"],
    ["fig8b"],
])
def test_zero_trials_fails(tmp_path, recipe):
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError, match="n_trials"):
        main(["run", *recipe, "--trials", "0", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("sweep", [
    ["--axis", "n_antennas", "--values", "2.7", "--strategies", "mrt-user"],
    ["--values", "10", "--strategies", "mrt-user,analytic-exact"],
], ids=["fractional-antenna-count", "analytic-tag-as-strategy"])
def test_run_custom_bad_sweep_fails(tmp_path, sweep):
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError):
        main(["run", "custom", *sweep, "--tau", "0.5", "--trials", "100",
              "--out", str(out)])
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
    with pytest.raises(ValueError):
        main(["run", "fig99", "--out", str(tmp_path / "x.csv")])


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
