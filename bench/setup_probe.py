"""Time one benchmark set-up in a fresh interpreter and print the seconds.

A set-up is what a user pays before the timed work: importing rmtlkit and
its CLI, then generating, writing and loading one workload's inputs. numpy
is imported before the clock starts: the speed probe needs it, and its
import time is not the program's. Prints the wall seconds and the seconds
scaled to the probe's nominal speed (see reference.py).

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR SIZES_JSON
"""

import json
import sys
import time
from pathlib import Path

from reference import SpeedProbe

if __name__ == "__main__":
    workload, seed, workdir, sizes = sys.argv[1:5]
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import inputs

        rmtlkit = inputs.load_program(Path(__file__).resolve().parent.parent)
        inputs.make(workload, rmtlkit, Path(workdir), int(seed), json.loads(sizes))
        seconds = time.perf_counter() - t0
        print(seconds, probe.scale_round(seconds))
