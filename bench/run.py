"""rmtlkit benchmark: one workload per run, one JSON result on the last line.

    python3 bench/run.py --workload {mc_small,mc_large,csv_100k} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; rmtlkit is imported from its ``src/``.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split
from a separate traced run. Outputs are checked; failed_ops_frac counts
studies or commands that raised or failed a check. Details, provenance and
spans go to bench/out/. See bench/README.md for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import workloads
from reference import SpeedProbe
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "reps_per_ref_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit. The name is "<span>.<field>"; the field says how
# it is derived from the trace summary (see layer_metrics), except for the
# pool, degenerate-count and trace metrics set in traced_run.
PER_LAYER_UNITS = {
    "simulate.sample_events.self_ms_per_op": "ms",
    "simulate.apply_censoring.self_ms_per_op": "ms",
    "simulate.calibrate_censoring.s_per_study": "s",
    "simulate.engine.self_ms_per_op": "ms",
    "simulate.pool.scaling_eff": "ratio",
    "simulate.degenerate_rep_frac": "frac",
    "inference.diff.degenerate_frac": "frac",
    "inference.sdiff.degenerate_frac": "frac",
    "data_model.from_records.self_ms_per_op": "ms",
    "data_model.parse_dataset.s": "s",
    "data_model.build_risk_table.calls_per_op": "count",
    "data_model.build_risk_table.self_ms_per_op": "ms",
    "cif.cif_estimate.calls_per_op": "count",
    "cif.cif_estimate.self_ms_per_op": "ms",
    "cif.km_overall.calls_per_op": "count",
    "rmtl.default_tau.self_ms_per_op": "ms",
    "rmtl.rmtl_difference.calls_per_op": "count",
    "rmtl.rmtl_difference.self_ms_per_op": "ms",
    "rmtl.rmtl_estimate.self_ms_per_op": "ms",
    "inference.diff_test.incl_ms_per_op": "ms",
    "inference.sdiff_test.incl_ms_per_op": "ms",
    "inference.partial_process.self_ms_per_op": "ms",
    "brownian.sup_abs_bm_sf.self_ms_per_op": "ms",
    "brownian.sup_abs_bm_quantile.self_ms_per_op": "ms",
    "design.pilot_parameters.calls_per_op": "count",
    "design.pilot_parameters.self_ms_per_op": "ms",
    "design.sample_size_sdiff.self_ms_per_op": "ms",
    "cli.self_s_per_op": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}
_SCALE = {"ms": 1e3, "s": 1.0}


def paced(seconds: float):
    """Yield round indices while the next round is expected to end within
    ``seconds`` of the first one's start; always at least one."""
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or (time.perf_counter() - start) * (1 + 1 / rnd) <= seconds:
        yield rnd
        rnd += 1


def layer_metrics(summary: dict, ops: int, studies: int) -> dict:
    """Per-op figures from the trace summary, for every traced layer."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        span, _, field = name.rpartition(".")
        s = summary.get(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        if field == "calls_per_op":
            out[name] = s["calls"] / ops
        elif field in ("self_ms_per_op", "incl_ms_per_op", "self_s_per_op"):
            kind = "self_s" if field.startswith("self") else "incl_s"
            out[name] = s[kind] * _SCALE[unit] / ops
        elif field == "s_per_study":
            out[name] = s["incl_s"] / studies if studies else 0.0
        elif field == "s":
            out[name] = s["incl_s"] / s["calls"] if s["calls"] else 0.0
    return out


def traced_run(wl, tally, seconds: float, workers: int, name: str, seed: int) -> dict:
    """Each round runs untraced and then traced at one worker, in alternating
    order, on identical inputs. With a pool, the round also runs untraced at
    the pool's size, which gives the pool's scaling efficiency."""
    phases = ("pool", "plain", "traced") if workers > 1 else ("plain", "traced")
    busy = dict.fromkeys(phases, 0.0)
    units = 0
    tracer = Tracer()
    for rnd in paced(seconds):
        for phase in phases if rnd % 2 == 0 else phases[::-1]:
            if phase == "traced":
                with tracer:
                    done, seconds_in = wl.run_round(rnd, tally, 1)
            else:
                done, seconds_in = wl.run_round(rnd, tally, workers if phase == "pool" else 1)
            busy[phase] += seconds_in
        units += done
    traced_s = busy["traced"]
    summary = tracer.summary()
    ops = units * wl.ops_per_unit
    studies = summary.get("simulate.engine", {"calls": 0})["calls"]
    metrics = layer_metrics(summary, ops, studies)
    metrics.update(wl.degenerate_fracs())
    metrics["simulate.pool.scaling_eff"] = (
        busy["plain"] / (workers * busy["pool"]) if workers > 1 else 0.0)
    metrics["trace.overhead_frac"] = traced_s / busy["plain"] - 1.0
    metrics["trace.coverage_frac"] = tracer.root_seconds() / traced_s
    tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    self_total = sum(s["self_s"] for s in summary.values())
    if abs(self_total - tracer.root_seconds()) > 1e-6 * max(1.0, traced_s):
        raise RuntimeError("span self times do not add up to the root spans")
    return {"metrics": metrics, "rounds": rnd + 1, "ops": ops, "studies": studies,
            "busy_s": busy, "summary": summary}


def setup_seconds(name: str, seed: int, sizes: dict) -> list[tuple[float, float]]:
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter; return the
    wall and the scaled seconds of each."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            done = subprocess.run(
                [sys.executable, str(probe), name, str(seed), workdir, json.dumps(sizes)],
                capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wall, scaled = map(float, done.stdout.split())
        times.append((wall, scaled))
    return times


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident MB of this process, and of its largest ended child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0, child_kb / 1024.0


def provenance(rmtlkit, args, sizes: dict, facts: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "rmtlkit"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "rmtlkit": rmtlkit.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "study_seed_rule": "(seed << 20) + (round << 4) + scenario index",
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "inputs": facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        rmtlkit = inputs.load_program(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    sizes = workloads.SIZES[name]
    workers = sizes.get("workers", 1)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        program_inputs, facts = inputs.make(name, rmtlkit, workdir, args.seed, sizes)
        wl = workloads.build(name, program_inputs, sizes, args.seed)
        tally = workloads.Tally()
        if args.trace:
            detail = traced_run(wl, tally, args.seconds, workers, name, args.seed)
            wl.finish(tally)
            metrics = detail.pop("metrics")
        else:
            done = []
            with SpeedProbe() as probe:
                for rnd in paced(args.seconds):
                    units, busy = wl.run_round(rnd, tally, workers)
                    done.append((units, busy, probe.scale_round(busy)))
            wl.finish(tally)
            rss_self, rss_child = peak_rss_mb()
            setups = setup_seconds(name, args.seed, sizes)
            detail = {"rounds": len(done), "reps_per_round": done[0][0],
                      "round_busy_s": [busy for _, busy, _ in done],
                      "round_scaled_s": [scaled for _, _, scaled in done],
                      "probe_kernel_s": probe.samples,
                      "reps_per_s": statistics.median(u / busy for u, busy, _ in done),
                      "setup_runs_s": [wall for wall, _ in setups],
                      "setup_runs_scaled_s": [scaled for _, scaled in setups],
                      "peak_rss_self_mb": rss_self, "peak_rss_largest_child_mb": rss_child}
            metrics = {
                "setup_s": statistics.median(scaled for _, scaled in setups),
                "reps_per_ref_s": statistics.median(u / scaled for u, _, scaled in done),
                "peak_rss_mb": max(rss_self, rss_child),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END
    commands = {c: (statistics.median(t), len(t)) for c, t in getattr(wl, "seconds", {}).items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"result": result, "failed_ops_frac": tally.failed_frac,
              "failures": tally.failures(), "command_median_s": commands,
              "command_s": getattr(wl, "seconds", {}),
              "detail": detail, "provenance": provenance(rmtlkit, args, sizes, facts)}
    path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    notes = {} if args.trace else {
        "setup_s": f"median of {SETUP_REPEATS} fresh-interpreter set-ups, scaled to the "
                   f"reference speed; wall median "
                   f"{statistics.median(detail['setup_runs_s']):.6g} s",
        "reps_per_ref_s": f"median of {detail['rounds']} rounds of "
                          f"{detail['reps_per_round']} "
                          + ("replications" if wl.ops_per_unit == 1 else "session")
                          + ", scaled to the reference speed",
        "peak_rss_mb": f"this process {detail['peak_rss_self_mb']:.1f} MB, "
                       f"largest child process {detail['peak_rss_largest_child_mb']:.1f} MB",
    }
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  ({path.relative_to(ROOT)})")
    for k, u in units.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<46} {metrics[k]:>14.6g} {u}{note}")
    if not args.trace:
        print(f"  {'reps_per_s':<46} {detail['reps_per_s']:>14.6g} 1/s"
              f"  (median wall rate of the same rounds)")
        for c in ("estimate", "test", "sweep"):
            median, count = commands.get(c, (None, 0))
            shown = f"{median:>14.6g} s  (median of {count})" if count else f"{'n/a':>14}"
            print(f"  {c + '_s':<46} {shown}")
    print(f"  {'failed_ops_frac':<46} {tally.failed_frac:>14.6g} frac"
          f"  ({tally.failed} of {tally.attempted} ops)")
    if args.trace:
        print(f"  self time by span, of {detail['busy_s']['traced']:.3f} s traced "
              f"over {detail['ops']} ops:")
        for span, v in sorted(detail["summary"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {span:<34} {v['self_s'] / detail['busy_s']['traced']:7.1%}"
                  f"  {v['calls'] / detail['ops']:9.3f} calls/op")
    for failure in tally.failures():
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
