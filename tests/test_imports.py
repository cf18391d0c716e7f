import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wprelay

# Importing the package and its CLI pulls in scipy.special only; the other
# scipy subpackages (integrate, stats, optimize, ...) cost tenths of a
# second of start-up each.
PROBE = """
import sys
import scipy.special
before = set(sys.modules)
import wprelay, wprelay.cli, wprelay.analysis
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
