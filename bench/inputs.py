"""Input generation for the benchmark workloads.

Every input is a pure function of the workload seed: the same seed writes
byte-identical files. The program under test only ever sees these files
and the objects it parses from them.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np

# mc_large: the two shipped scenarios re-run at a designed total size with
# calibrated censoring added. a_null keeps the null-size check meaningful;
# f_crossing has crossing CIFs, so the sDiff grid and statistic differ.
MC_LARGE_SCENARIOS = ("a_null", "f_crossing")
MC_LARGE_CENSORING = 0.3

# csv_100k: two string labels, statuses 0/1/2, times rounded to four
# decimals: ~60% of rows share their time with another row, and the two
# interest CIFs still have ~30k steps between them.
CSV_GROUPS = ("control", "treated")
CSV_INTEREST_P = (0.60, 0.55)
CSV_INTEREST_WEIBULL = ((1.5, 2.0), (1.5, 2.4))  # (shape, scale) per group
CSV_COMPETING_WEIBULL = (1.0, 2.5)
CSV_CENSOR_MAX = 6.5  # C ~ Uniform(0, 6.5) censors about 30% of rows
CSV_DECIMALS = 4
# Sweep over 12 taus well inside the observed range (times reach ~6.5).
CSV_SWEEP = (0.25, 3.0, 0.25)


def load_program(root: Path):
    """Import rmtlkit (and its CLI) from ``root/src``, never from elsewhere.

    Raises FileNotFoundError when the checkout holds no program source.
    """
    src = root / "src"
    if not (src / "rmtlkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rmtlkit source under {src}")
    sys.path.insert(0, str(src))
    rmtlkit = importlib.import_module("rmtlkit")
    importlib.import_module("rmtlkit.cli")
    if Path(rmtlkit.__file__).resolve().parent != (src / "rmtlkit").resolve():
        raise ImportError(f"rmtlkit imported from {rmtlkit.__file__}, not {src}")
    return rmtlkit


def csv_rows(seed: int, rows: int):
    """Return (times, status, group index) arrays for the generated CSV."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    group = (rng.random(rows) < 0.5).astype(np.int64)
    p = np.take(CSV_INTEREST_P, group)
    interest = rng.random(rows) < p
    shape = np.where(interest, np.take([s for s, _ in CSV_INTEREST_WEIBULL], group),
                     CSV_COMPETING_WEIBULL[0])
    scale = np.where(interest, np.take([c for _, c in CSV_INTEREST_WEIBULL], group),
                     CSV_COMPETING_WEIBULL[1])
    event = scale * rng.standard_exponential(rows) ** (1.0 / shape)
    censor = rng.uniform(0.0, CSV_CENSOR_MAX, rows)
    censored = censor < event
    times = np.round(np.where(censored, censor, event), CSV_DECIMALS)
    times = np.maximum(times, 10.0 ** -CSV_DECIMALS)
    status = np.where(censored, 0, np.where(interest, 1, 2))
    return times, status, group


def write_csv(path: Path, seed: int, rows: int) -> dict:
    """Write the CSV and return its input-size facts for provenance."""
    times, status, group = csv_rows(seed, rows)
    labels = np.array(CSV_GROUPS)[group]
    text = "time,status,group\n" + "\n".join(
        f"{t:.{CSV_DECIMALS}f},{s},{g}" for t, s, g in zip(times, status, labels)
    ) + "\n"
    path.write_text(text, encoding="utf-8")
    distinct = len(np.unique(times))
    return {
        "csv_rows": rows,
        "csv_bytes": len(text.encode("utf-8")),
        "n_per_group": [int((group == k).sum()) for k in (0, 1)],
        "status_counts": {str(k): int((status == k).sum()) for k in (0, 1, 2)},
        "censored_frac": float((status == 0).mean()),
        "distinct_times": int(distinct),
        "rows_sharing_a_time": int(rows - distinct),
        "max_time": float(times.max()),
    }


def write_mc_large_scenarios(rmtlkit, workdir: Path) -> dict[str, Path]:
    """Write each mc_large scenario, as shipped plus a censoring target."""
    paths = {}
    for name in MC_LARGE_SCENARIOS:
        data = json.loads(rmtlkit.shipped_scenario_path(name).read_text(encoding="utf-8"))
        data["censoring"] = {"target": MC_LARGE_CENSORING}
        path = workdir / f"{name}_censored.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        paths[name] = path
    return paths


def make(workload: str, rmtlkit, workdir: Path, seed: int, sizes: dict):
    """Generate and load one workload's inputs.

    Returns (inputs, facts): the objects the workload runs on, and the
    input-size facts recorded in the result's provenance.
    """
    if workload == "mc_small":
        scenarios = {n: rmtlkit.load_shipped_scenario(n) for n in rmtlkit.SHIPPED_SCENARIOS}
        facts = {"n_per_group": {n: [g.n for g in s.groups] for n, s in scenarios.items()}}
        return scenarios, facts
    if workload == "mc_large":
        paths = write_mc_large_scenarios(rmtlkit, workdir)
        scenarios = {n: rmtlkit.load_scenario(p) for n, p in paths.items()}
        n1 = sizes["n_total"] // 2
        facts = {
            "n_per_group": [n1, sizes["n_total"] - n1],
            "scenarios": list(scenarios),
            "censoring_target": MC_LARGE_CENSORING,
        }
        return scenarios, facts
    if workload == "csv_100k":
        path = workdir / "data.csv"
        facts = write_csv(path, seed, sizes["csv_rows"])
        return path, facts
    raise ValueError(f"unknown workload {workload!r}")
