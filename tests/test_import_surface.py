"""Importing the library and its CLI loads no scipy subpackage but
``scipy.special``.

Start-up time counts for every CLI command: ``import scipy.optimize`` alone
costs several hundred milliseconds, more than the rest of the start-up
together. The Brownian solvers start from closed-form brackets, so they need
no library root-finder.
"""

import os
import subprocess
import sys
from pathlib import Path

import rmtlkit

PROBE = """
import sys
import rmtlkit, rmtlkit.cli
print(" ".join(sorted(
    name for name, module in sys.modules.items()
    if name.startswith("scipy.") and hasattr(module, "__path__")
    and not name.split(".")[1].startswith("_")
)))
"""


def test_only_scipy_special_is_imported():
    env = dict(os.environ, PYTHONPATH=str(Path(rmtlkit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.split() == ["scipy.special"]
