"""Print a SHA-256 digest of each of a fixed set of rmtlkit outputs.

    python3 tools/output_digests.py

imports rmtlkit from this checkout's ``src/`` and prints one
``<case> <sha256>`` line per case. Two checkouts whose printouts are equal
produce byte-identical outputs on every case, so a refactor claimed to
change no output is checked by running this before and after and
comparing. The cases:

- ``run_monte_carlo`` reports (JSON of ``to_dict``) on the six shipped
  scenarios, as shipped and at 45% calibrated censoring, 300 reps, seed 5,
  with 1 and 2 workers;
- ``run_monte_carlo`` on ``a_null`` resized to groups of 4 at 30% calibrated
  censoring, 300 reps, seed 5, with 1 and 2 workers: the only Monte Carlo
  cases with skipped replications and degenerate tests, so the only ones
  that see how those are counted;
- ``observed_power_at_n`` at n_total 2000 with 30% calibrated censoring on
  ``a_null`` and ``f_crossing``, 100 reps, seed 5, 2 workers;
- the CLI's ``estimate`` JSON and table, ``test`` JSON and
  ``samplesize --pilot --sweep 0.25:3.0:0.25`` JSON on the benchmark's
  seed-5 CSV of 10^5 rows, written by ``bench/inputs.py``;
- the CLI's ``estimate`` JSON on the same rows with the header's first
  field quoted (``"time",status,group``). A quote sends the file through
  the csv module's row reader rather than the bulk parser, so this digest
  equals ``cli/estimate.json``'s exactly when both readers agree;
- the CLI's ``estimate`` JSON on the same rows with each time moved up one
  float (``nextafter``) and written by ``repr``, 16-17 digits: every block of
  this file misses the exact decimal path and is read by ``float``;
- the CLI's ``simulate`` JSON on the shipped ``a_null`` scenario, 200 reps,
  seed 5. The Monte Carlo digests above hash ``json.dumps(...,
  sort_keys=True)``, so only this case sees the report's key order.
- the CLI's ``samplesize`` JSON for README's explicit design (delta 1,
  both variances 4, alpha 0.05, power 0.9): the only case that sees the
  design's float fields (``inflation``, ``drift``, ``drift_normal``), as the
  sweep records only each tau's ``n_total``;
- the same design in table form, and ``samplesize --pilot`` JSON on the
  10^5-row CSV with both methods: a single design's table, and a pilot's
  ``pilot`` block next to its designs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import rmtlkit  # noqa: E402
from inputs import CSV_GROUPS, csv_rows, write_csv  # noqa: E402
from rmtlkit.cli import main as cli_main  # noqa: E402

CSV_SEED, CSV_ROWS = 5, 100_000


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    return digest(json.dumps(report.to_dict(), sort_keys=True))


def monte_carlo_cases():
    for name in rmtlkit.SHIPPED_SCENARIOS:
        shipped = rmtlkit.load_shipped_scenario(name)
        censored = dataclasses.replace(shipped,
                                       censoring=rmtlkit.CensoringSpec(target=0.45))
        for label, scn in (("shipped", shipped), ("cens45", censored)):
            for workers in (1, 2):
                report = rmtlkit.run_monte_carlo(scn, reps=300, seed=5, workers=workers)
                yield f"mc/{name}/{label}/w{workers}", report_digest(report)
    null = rmtlkit.load_shipped_scenario("a_null")
    small = dataclasses.replace(
        null, groups=tuple(dataclasses.replace(g, n=4) for g in null.groups),
        censoring=rmtlkit.CensoringSpec(target=0.3))
    for workers in (1, 2):
        report = rmtlkit.run_monte_carlo(small, reps=300, seed=5, workers=workers)
        yield f"mc/a_null/n4/cens30/w{workers}", report_digest(report)
    for name in ("a_null", "f_crossing"):
        scn = dataclasses.replace(rmtlkit.load_shipped_scenario(name),
                                  censoring=rmtlkit.CensoringSpec(target=0.3))
        report = rmtlkit.observed_power_at_n(scn, 2000, reps=100, seed=5, workers=2)
        yield f"power/{name}/n2000/cens30/w2", report_digest(report)


def write_repr17(path: Path):
    times, status, group = csv_rows(CSV_SEED, CSV_ROWS)
    path.write_text("time,status,group\n" + "".join(
        f"{t!r},{s},{CSV_GROUPS[g]}\n" for t, s, g in
        zip(np.nextafter(times, np.inf).tolist(), status.tolist(), group.tolist())),
        encoding="utf-8")


def cli_cases(path: Path, quoted: Path, repr17: Path):
    commands = {
        "estimate.json": ["estimate", "--input", str(path), "--format", "json"],
        "estimate.table": ["estimate", "--input", str(path), "--format", "table"],
        "test.json": ["test", "--input", str(path), "--format", "json"],
        "sweep.json": ["samplesize", "--pilot", str(path), "--sweep", "0.25:3.0:0.25",
                       "--format", "json"],
        "estimate.rows.json": ["estimate", "--input", str(quoted), "--format", "json"],
        "estimate.repr17.json": ["estimate", "--input", str(repr17), "--format", "json"],
        "simulate.json": ["simulate", "--input", str(rmtlkit.shipped_scenario_path("a_null")),
                          "--reps", "200", "--seed", "5", "--format", "json"],
        "samplesize.json": ["samplesize", "--delta", "1.0", "--var1", "4.0", "--var2", "4.0",
                            "--alpha", "0.05", "--power", "0.9", "--format", "json"],
        "samplesize.table": ["samplesize", "--delta", "1.0", "--var1", "4.0", "--var2", "4.0",
                             "--alpha", "0.05", "--power", "0.9", "--format", "table"],
        "samplesize.pilot.json": ["samplesize", "--pilot", str(path), "--method", "both",
                                  "--format", "json"],
    }
    for label, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        if code:
            raise SystemExit(f"{label}: exit code {code}")
        yield f"cli/{label}", digest(out.getvalue())


def main() -> int:
    for case, sha in monte_carlo_cases():
        print(case, sha, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_csv(path, CSV_SEED, CSV_ROWS)
        quoted = Path(tmp) / "quoted.csv"
        quoted.write_text('"time"' + path.read_text(encoding="utf-8").removeprefix("time"),
                          encoding="utf-8")
        repr17 = Path(tmp) / "repr17.csv"
        write_repr17(repr17)
        for case, sha in cli_cases(path, quoted, repr17):
            print(case, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
