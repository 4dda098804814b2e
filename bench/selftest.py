"""Self-test of the benchmark's checker.

    python3 bench/selftest.py

Runs each workload at a tiny size and expects no failed operation. Then it
corrupts one kind of program output at a time, at the same module attribute
the workload calls, and expects failed_ops_frac > 0: a checker that cannot
fail proves nothing. It also checks that BENCHMARK.json names exactly the
metrics run.py reports, and that run.py refuses to run, without a result,
in a directory that holds only BENCHMARK.json and bench/. Exits 0 when
every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import run
import workloads

SEED = 11


def run_tiny(rmtlkit, name: str) -> workloads.Tally:
    """One round and the run-level checks of a workload at its tiny size."""
    sizes = workloads.TINY_SIZES[name]
    workdir = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.OUT))
    try:
        program_inputs, _ = inputs.make(name, rmtlkit, workdir, SEED, sizes)
        wl = workloads.build(name, program_inputs, sizes, SEED)
        tally = workloads.Tally()
        wl.run_round(0, tally, sizes.get("workers", 1))
        wl.finish(tally)
        return tally
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def corrupt_report(change):
    """Wrap run_monte_carlo so that ``change(report, workers)`` edits it."""
    def make(original):
        def wrapper(scn, *args, **kwargs):
            return change(original(scn, *args, **kwargs), kwargs.get("workers", 1))
        return wrapper
    return make


def too_many_rejections(report, workers):
    m = report.methods[0]
    bad = dataclasses.replace(m, rejections=m.valid_reps + 1)
    return dataclasses.replace(report, methods=(bad,) + report.methods[1:])


def always_rejects(report, workers):
    methods = tuple(dataclasses.replace(m, rejections=m.valid_reps, rate=1.0)
                    for m in report.methods)
    return dataclasses.replace(report, methods=methods)


def differs_with_pool(report, workers):
    return dataclasses.replace(report, rho=report.rho + 1e-12) if workers > 1 else report


def corrupt_cli(command: str, change):
    """Wrap cli.main so that ``change(payload)`` edits one command's JSON."""
    def make(original):
        def wrapper(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = original(argv)
            payload = json.loads(buf.getvalue())
            if payload["command"] == command:
                change(payload)
            print(json.dumps(payload))
            return code
        return wrapper
    return make


def shift_rmtl(payload):
    payload["groups"][0]["rmtl"] += 1e-6


def bad_p_value(payload):
    payload["results"]["sdiff"]["p_value"] = 1.5


def shift_delta(payload):
    payload["difference"]["delta"] *= 1.0 + 1e-6


def drop_sweep_size(payload):
    del payload["sweep"][3]["sdiff"]


def check_metric_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def check_refuses_without_program() -> list[str]:
    """run.py in a copy holding only BENCHMARK.json and bench/ must fail."""
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc_small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"exit code {done.returncode}, stdout {done.stdout.strip()[:80]!r}"]
    return []


def main() -> int:
    rmtlkit = inputs.load_program(run.ROOT)
    run.OUT.mkdir(parents=True, exist_ok=True)
    simulate = sys.modules["rmtlkit.simulate"]
    cli = sys.modules["rmtlkit.cli"]
    ok = True

    def expect(label: str, tally: workloads.Tally, should_fail: bool):
        nonlocal ok
        good = (tally.failed > 0) == should_fail
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed_ops_frac "
              f"{tally.failed_frac:.3g} ({tally.failed} of {tally.attempted})")
        for failure in tally.failures()[:2]:
            print(f"       {failure}")

    for name in workloads.WORKLOADS:
        expect(f"{name} as shipped", run_tiny(rmtlkit, name), should_fail=False)

    for name in ("mc_small", "mc_large"):
        for change in (too_many_rejections, always_rejects, differs_with_pool):
            with patched(simulate, "run_monte_carlo", corrupt_report(change)):
                tally = run_tiny(rmtlkit, name)
            expect(f"{name} with {change.__name__}", tally, should_fail=True)

    for command, change in (("estimate", shift_rmtl), ("test", bad_p_value),
                            ("test", shift_delta), ("samplesize", drop_sweep_size)):
        with patched(cli, "main", corrupt_cli(command, change)):
            tally = run_tiny(rmtlkit, "csv_100k")
        expect(f"csv_100k with {change.__name__}", tally, should_fail=True)

    for label, problems in (("metric names match BENCHMARK.json", check_metric_names()),
                            ("refuses to run without src/", check_refuses_without_program())):
        ok = ok and not problems
        print(f"{'ok  ' if not problems else 'FAIL'} {label}" +
              "".join(f"\n       {p}" for p in problems))
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
