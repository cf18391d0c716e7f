import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wprelay

# Importing the package and its CLI loads no scipy at all (see
# test_monte_carlo_loads_no_scipy). The modules that do need it, analysis and
# specfun (which perfbench/run.py imports in every run), pull in scipy.special
# only; the other scipy subpackages (integrate, stats, optimize, ...) cost
# tenths of a second of start-up each, so they are imported where called.
PROBE = """
import sys
import scipy.special
before = set(sys.modules)
import wprelay, wprelay.cli, wprelay.analysis, wprelay.specfun
print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'scipy'))
"""

# The Monte Carlo path, the optimized tau's Lambert W included, and a
# fixed-tau recipe run on numpy alone: scipy.special takes longer to import
# than most recipes take to run.
MONTE_CARLO = """
import sys
import wprelay, wprelay.cli
from wprelay.cli import default_params, main
from wprelay.montecarlo import estimate
p = default_params()
estimate(p, "mrt-user", 300, 1, metric="outage", tau=0.5)
estimate(p, "suboptimal", 300, 1)
estimate(p, "exact", 8, 1)
assert main(["run", "fig8a", "--trials", "500", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""

# The analytic outage reads its mix-CDF table with numpy alone: building and
# interpolating it at two antenna counts loads no scipy subpackage but special
# (scipy.interpolate alone costs about 0.2 s to import).
OUTAGE = """
import sys
from dataclasses import replace
from wprelay.analysis import outage_exact
from wprelay.cli import default_params
p = default_params()
for n in (2, 10):
    outage_exact(replace(p, n_antennas=n, ps_dbm=-30.0), 0.5)
print(sorted(m for m, mod in sys.modules.items() if m.startswith("scipy.") and m.count(".") == 1
             and not m.startswith("scipy._") and hasattr(mod, "__path__")))
"""


def _run_probe(code: str, *args: str) -> str:
    # The probe imports the same wprelay as this process, installed or not.
    src = str(Path(wprelay.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_package_import_loads_no_scipy_beyond_special():
    assert _run_probe(PROBE) == "[]"


def test_monte_carlo_loads_no_scipy(tmp_path):
    assert _run_probe(MONTE_CARLO, str(tmp_path / "fig8a.csv")) == "[]"


def test_outage_loads_no_scipy_subpackage_but_special():
    assert _run_probe(OUTAGE) == "['scipy.special']"


@pytest.mark.parametrize("name", ["wprelay"] + [
    f"wprelay.{m.name}" for m in pkgutil.iter_modules(wprelay.__path__)])
def test_every_exported_name_resolves(name):
    # a stale export of a deleted name would break `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_benchmark_patches_resolves(monkeypatch):
    # perfbench/layers.py patches package attributes by name, some of which
    # nothing in the package uses (beamform's four solve_* forwards,
    # montecarlo.ProcessPoolExecutor); deleting one makes every traced
    # benchmark run raise AttributeError.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    run, layers, tracer = (importlib.import_module(m) for m in ("run", "layers", "tracer"))
    for m in run.MODULES:
        importlib.import_module(f"wprelay.{m}")
    with tracer.Tracer().installed(layers.install):
        pass
