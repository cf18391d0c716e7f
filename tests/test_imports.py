import subprocess
import sys

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
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
