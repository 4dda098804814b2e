"""Importing the library and its CLI loads no scipy module, and every
command runs where scipy cannot be imported at all.

Start-up time counts for every CLI command: ``import scipy.special`` alone
costs about 0.3 s, most of a cold start. The normal cdf, log-cdf and
quantile come from the standard library (``rmtlkit._normal``), and the
Brownian solvers start from closed-form brackets, so they need no library
root-finder. scipy stays a test-only dependency, as an oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import rmtlkit
from rmtlkit import shipped_scenario_path

from helpers import sample_with_events

PROBE = """
import sys
import rmtlkit, rmtlkit.cli
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""

# installed at interpreter start-up through PYTHONPATH, so worker processes
# refuse scipy too whatever their start method
BLOCKER = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
"""

COMMANDS = """
import sys
from rmtlkit.cli import main

data, scenario = sys.argv[1:]
try:
    import scipy.special
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("the blocker let scipy through")
for argv in (
    ["estimate", "--input", data, "--format", "json"],
    ["test", "--input", data, "--format", "json"],
    ["samplesize", "--pilot", data, "--format", "json"],
    ["samplesize", "--pilot", data, "--sweep", "0.5:2:0.5"],
    ["simulate", "--input", scenario, "--reps", "40", "--workers", "2"],
):
    assert main(argv) == 0, argv
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""


def _env(*paths):
    src = str(Path(rmtlkit.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, paths), src]))


def test_no_scipy_module_is_imported():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=_env(), capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.split() == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(BLOCKER, encoding="utf-8")
    sample = sample_with_events(7, n1=40, n2=40)
    rows = ["time,status,group"] + [
        f"{t!r},{c},{sample.groups[g]}"
        for t, c, g in zip(sample.times.tolist(), sample.codes.tolist(),
                           sample.group.tolist())
    ]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", COMMANDS, str(data), str(shipped_scenario_path("a_null"))],
        env=_env(tmp_path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
