import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wprelay

# Importing the package, its CLI and specfun (which perfbench/run.py imports
# in every run) pulls in scipy.special only; the other scipy subpackages
# (integrate, stats, optimize, ...) cost tenths of a second of start-up each.
PROBE = """
import sys
import scipy.special
before = set(sys.modules)
import wprelay, wprelay.cli, wprelay.analysis, wprelay.specfun
print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'scipy'))
"""


def test_package_import_loads_no_scipy_beyond_special():
    # The probe imports the same wprelay as this process, installed or not.
    src = str(Path(wprelay.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == "[]"


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
