"""The three workloads: what one round runs, and the checks on its outputs.

A round is the unit the benchmark repeats until its time is up:

- mc_small: one study per shipped scenario, as shipped (n = 50/50, no
  censoring), both methods, one process;
- mc_large: one study each on a_null and f_crossing at n_total = 2000 with
  30% calibrated censoring, both methods, two worker processes;
- csv_100k: the CLI commands estimate, test and samplesize --sweep on one
  generated 10^5-row CSV, in-process, JSON output.

Functions are looked up on their module at call time, so a tracer that
patches the module attributes sees every call.

Checks test properties, not golden bytes: a different but valid sampler or
estimator implementation still passes them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

from scipy.stats import binom

import inputs

# True null size that a working test may have. It is wide on purpose: the
# sDiff test is conservative at n = 50, and the Diff test's plug-in variance
# inflates its size under censoring (~0.08 at 30%, ROADMAP item 4). A test
# that always rejects falls outside it, one that never rejects does once
# enough replications are pooled.
NULL_SIZE_WINDOW = (0.01, 0.125)
# Two-sided binomial tail below which the pooled a_null count is refused.
BAND_TAIL = 1e-5
DECOMPOSITION_TOL = 1e-9
SAME_DIFFERENCE_RTOL = 1e-9

SIZES = {
    "mc_small": {"reps": 16, "check_reps": 24},
    "mc_large": {"reps": 150, "check_reps": 8, "n_total": 2000, "workers": 2},
    "csv_100k": {"csv_rows": 100_000},
}
# For the checker self-test: same code paths, seconds instead of minutes.
TINY_SIZES = {
    "mc_small": {"reps": 8, "check_reps": 4},
    "mc_large": {"reps": 8, "check_reps": 4, "n_total": 200, "workers": 2},
    "csv_100k": {"csv_rows": 3000},
}
WORKLOADS = tuple(SIZES)


def simulate():
    return sys.modules["rmtlkit.simulate"]


def study_seed(seed: int, rnd: int, k: int) -> int:
    """Monte Carlo seed of study k in round rnd of a run with this seed."""
    return (seed << 20) + (rnd << 4) + k


class Tally:
    """Operations attempted and failed: studies, commands, check studies."""

    def __init__(self):
        self.labels: list[str] = []
        self.problems: list[list[str]] = []

    def add(self, label: str, problems: list[str]) -> int:
        self.labels.append(label)
        self.problems.append(list(problems))
        return len(self.labels) - 1

    def fail(self, idx: int, problem: str):
        self.problems[idx].append(problem)

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def failures(self) -> list[str]:
        return [f"{lab}: {'; '.join(p)}" for lab, p in zip(self.labels, self.problems) if p]


def _raised(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Checks


def check_study(report: dict, reps: int) -> list[str]:
    """Counts of a SimulationReport.to_dict(): rejections <= valid <= reps."""
    problems = []
    skipped = report["degenerate_reps"]
    if report["reps"] != reps:
        problems.append(f"reps {report['reps']} != requested {reps}")
    if not 0 <= skipped <= reps:
        problems.append(f"degenerate_reps {skipped} outside [0, {reps}]")
    for name, m in report["methods"].items():
        rej, valid, degen = m["rejections"], m["valid_reps"], m["degenerate_reps"]
        if not 0 <= rej <= valid <= reps:
            problems.append(f"{name}: not 0 <= rejections {rej} <= valid {valid} <= {reps}")
        if valid + degen + skipped != reps:
            problems.append(f"{name}: valid + degenerate + skipped != reps")
        if valid and not math.isclose(m["rate"], rej / valid, rel_tol=1e-12):
            problems.append(f"{name}: rate {m['rate']} != rejections / valid")
    return problems


def check_null_size(method: str, rejections: int, valid: int) -> list[str]:
    """Pooled a_null rejections must be binomially consistent with a true
    size inside NULL_SIZE_WINDOW."""
    lo, hi = NULL_SIZE_WINDOW
    if valid == 0:
        return [f"{method}: no valid a_null replications"]
    if binom.cdf(rejections, valid, lo) < BAND_TAIL:
        return [f"{method}: null size {rejections}/{valid} below the window {lo}"]
    if binom.sf(rejections - 1, valid, hi) < BAND_TAIL:
        return [f"{method}: null size {rejections}/{valid} above the window {hi}"]
    return []


def check_same_report(one_worker: str, two_workers: str) -> list[str]:
    if one_worker != two_workers:
        return ["report JSON differs between workers=1 and workers=2"]
    return []


def check_estimate(payload: dict, rows: int) -> list[str]:
    """RMTL + RMTL(competing) + RMSTc = tau per group; all rows counted."""
    problems = []
    tau = payload["tau"]
    groups = payload["groups"]
    if sorted(g["label"] for g in groups) != sorted(inputs.CSV_GROUPS):
        problems.append(f"group labels {[g['label'] for g in groups]}")
    if sum(g["n"] for g in groups) != rows:
        problems.append(f"group sizes {[g['n'] for g in groups]} do not sum to {rows}")
    for g in groups:
        residual = g["rmtl"] + g["rmtl_competing"] + g["rmstc"] - tau
        if not abs(residual) <= DECOMPOSITION_TOL * max(1.0, tau):
            problems.append(f"group {g['label']}: decomposition residual {residual:g}")
        lo, hi = g["ci"]
        if not 0.0 <= lo <= g["rmtl"] <= hi <= tau:
            problems.append(f"group {g['label']}: CI {g['ci']} does not bracket RMTL")
    return problems


def check_test(payload: dict) -> list[str]:
    problems = []
    results = payload["results"]
    if sorted(results) != ["diff", "sdiff"]:
        problems.append(f"methods {sorted(results)}")
    for name, r in results.items():
        if not 0.0 <= r["p_value"] <= 1.0:
            problems.append(f"{name}: p-value {r['p_value']} outside [0, 1]")
        if not math.isfinite(r["statistic"]):
            problems.append(f"{name}: statistic {r['statistic']}")
        if r["reject"] != (r["p_value"] < payload["alpha"]):
            problems.append(f"{name}: reject flag disagrees with p < alpha")
    return problems


def check_sweep(payload: dict, n_taus: int) -> list[str]:
    """Every sweep row has an n_total per method, or a stated error."""
    rows = payload["sweep"]
    problems = [] if len(rows) == n_taus else [f"{len(rows)} sweep rows, expected {n_taus}"]
    for row in rows:
        if row.get("error"):
            continue
        for method in ("diff", "sdiff"):
            n = row.get(method)
            if not (isinstance(n, int) and n >= 2):
                problems.append(f"tau {row['tau']}: {method} n_total {n!r}")
    return problems


def check_same_difference(estimate: dict, test: dict) -> list[str]:
    a, b = estimate["difference"], test["difference"]
    if a["groups"] != b["groups"]:
        return [f"group order {a['groups']} vs {b['groups']}"]
    for key in ("delta", "se"):
        if not math.isclose(a[key], b[key], rel_tol=SAME_DIFFERENCE_RTOL):
            return [f"{key} {a[key]!r} (estimate) vs {b[key]!r} (test)"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo workloads


class MonteCarlo:
    """mc_small and mc_large: a round is one study per scenario."""

    ops_per_unit = 1  # per-layer figures are per replication

    def __init__(self, name: str, scenarios: dict, sizes: dict, seed: int):
        self.name = name
        self.scenarios = scenarios
        self.sizes = sizes
        self.seed = seed
        self.reports: list[dict] = []
        # a_null reports by study seed (a traced run repeats seeds), and the
        # tally entries a failed size check marks
        self._null_reports: dict[int, dict] = {}
        self._null_ops: list[int] = []

    def study(self, scn, seed: int, workers: int, reps: int):
        if self.name == "mc_small":
            return simulate().run_monte_carlo(scn, reps=reps, seed=seed, workers=workers)
        return simulate().observed_power_at_n(
            scn, self.sizes["n_total"], reps=reps, seed=seed, workers=workers)

    def run_round(self, rnd: int, tally: Tally, workers: int) -> tuple[int, float]:
        """Run one round; return (replications attempted, seconds in studies)."""
        reps = self.sizes["reps"]
        busy = 0.0
        for k, (label, scn) in enumerate(self.scenarios.items()):
            op = f"{label} round {rnd} workers {workers}"
            seed = study_seed(self.seed, rnd, k)
            t0 = time.perf_counter()
            try:
                report = self.study(scn, seed, workers, reps)
            except Exception as exc:  # a failed study is counted, the run goes on
                tally.add(op, _raised(exc))
                continue
            finally:
                busy += time.perf_counter() - t0
            d = report.to_dict()
            idx = tally.add(op, check_study(d, reps))
            self.reports.append(d)
            if label == "a_null":
                self._null_reports[seed] = d
                self._null_ops.append(idx)
        return reps * len(self.scenarios), busy

    def finish(self, tally: Tally):
        """Run-level checks: pooled a_null size, and one short study run at
        one and at two workers whose reports must match byte for byte."""
        pooled = self._null_reports.values()
        for method in ("diff", "sdiff"):
            rej = sum(d["methods"][method]["rejections"] for d in pooled)
            valid = sum(d["methods"][method]["valid_reps"] for d in pooled)
            for problem in check_null_size(method, rej, valid):
                for idx in self._null_ops:
                    tally.fail(idx, problem)
        op = "a_null determinism check"
        reps = self.sizes["check_reps"]
        seed = study_seed(self.seed, 0xFFFF, 0)
        try:
            texts = [
                json.dumps(self.study(self.scenarios["a_null"], seed, w, reps).to_dict(),
                           sort_keys=True)
                for w in (1, 2)
            ]
        except Exception as exc:  # counted as a failed check study
            tally.add(op, _raised(exc))
            return
        tally.add(op, check_same_report(*texts))

    def degenerate_fracs(self) -> dict:
        reps = sum(d["reps"] for d in self.reports)
        skipped = sum(d["degenerate_reps"] for d in self.reports)
        out = {"simulate.degenerate_rep_frac": skipped / reps if reps else 0.0}
        for method in ("diff", "sdiff"):
            degen = sum(d["methods"][method]["degenerate_reps"] for d in self.reports)
            out[f"inference.{method}.degenerate_frac"] = (
                degen / (reps - skipped) if reps > skipped else 0.0)
        return out


# ---------------------------------------------------------------------------
# CSV workload


def csv_commands(path) -> dict[str, list[str]]:
    start, stop, step = inputs.CSV_SWEEP
    return {
        "estimate": ["estimate", "--input", str(path), "--format", "json"],
        "test": ["test", "--input", str(path), "--format", "json"],
        "sweep": ["samplesize", "--pilot", str(path), "--sweep",
                  f"{start}:{stop}:{step}", "--format", "json"],
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run rmtlkit.cli.main in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["rmtlkit.cli"].main(argv)
    return code, buf.getvalue()


def n_sweep_taus() -> int:
    start, stop, step = inputs.CSV_SWEEP
    return round((stop - start) / step) + 1


class CsvSession:
    """csv_100k: a round runs estimate, test and the tau sweep once each."""

    ops_per_unit = 3  # per-layer figures are per command

    def __init__(self, path, sizes: dict):
        self.commands = csv_commands(path)
        self.rows = sizes["csv_rows"]
        self.seconds: dict[str, list[float]] = {c: [] for c in self.commands}

    def check(self, command: str, payload: dict) -> list[str]:
        if command == "estimate":
            return check_estimate(payload, self.rows)
        if command == "test":
            return check_test(payload)
        return check_sweep(payload, n_sweep_taus())

    def run_round(self, rnd: int, tally: Tally, workers: int) -> tuple[int, float]:
        """Run one round; return (1 repeat of the commands, seconds in them)."""
        payloads = {}
        busy = 0.0
        for command, argv in self.commands.items():
            op = f"{command} round {rnd}"
            t0 = time.perf_counter()
            try:
                code, text = run_cli(argv)
            except (Exception, SystemExit) as exc:  # counted, the run goes on
                tally.add(op, _raised(exc))
                continue
            finally:
                elapsed = time.perf_counter() - t0
                busy += elapsed
                self.seconds[command].append(elapsed)
            if code != 0:
                tally.add(op, [f"exit code {code}"])
                continue
            try:
                payload = json.loads(text)
                problems = self.check(command, payload)
                difference = payload["difference"] if command != "sweep" else None
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                tally.add(op, _raised(exc))
                continue
            idx = tally.add(op, problems)
            if difference is not None:
                payloads[command] = (idx, {"difference": difference})
        if len(payloads) == 2:
            problems = check_same_difference(payloads["estimate"][1], payloads["test"][1])
            for problem in problems:
                for idx, _ in payloads.values():
                    tally.fail(idx, problem)
        return 1, busy

    def finish(self, tally: Tally):
        pass

    def degenerate_fracs(self) -> dict:
        return {"simulate.degenerate_rep_frac": 0.0, "inference.diff.degenerate_frac": 0.0,
                "inference.sdiff.degenerate_frac": 0.0}


def build(name: str, program_inputs, sizes: dict, seed: int):
    if name == "csv_100k":
        return CsvSession(program_inputs, sizes)
    return MonteCarlo(name, program_inputs, sizes, seed)
