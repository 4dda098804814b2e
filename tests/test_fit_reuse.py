"""One fit per sample: every statistic of a sample reads the same pooled
fit of both groups, which builds exactly one risk table per group, however
many statistics or truncation times it is asked for; ``estimate`` reads its
competing-cause CIF and Kaplan-Meier curve off those tables too. Each test
takes its own difference, so it integrates each group once (and checks tau
once per group). The Monte Carlo engine fits and tests a chunk of
replications at a time, with no per-replication risk table, fit, integral
or difference. Both fit paths tabulate through ``data_model._tabulate``:
a sample once per group, and a chunk of replications once for all its
groups."""

import json
import sys

import numpy as np
import pytest

import rmtlkit
from rmtlkit import (
    EventCode,
    PooledFit,
    RiskTable,
    default_tau,
    diff_test,
    load_shipped_scenario,
    partial_process,
    rmtl_difference,
    run_monte_carlo,
    sdiff_test,
)
from rmtlkit import data_model
from rmtlkit.cli import main
from rmtlkit.simulate import _CHUNK_UNIFORMS

from helpers import engine_samples, sample_with_events


@pytest.fixture
def risk_table_calls(monkeypatch):
    """Count build_risk_table calls, patched wherever a module refers to it."""
    original = rmtlkit.build_risk_table
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rmtlkit.") and vars(module).get("build_risk_table") is original:
            monkeypatch.setattr(module, "build_risk_table", counted)
    return calls


@pytest.fixture
def tabulate_calls(monkeypatch):
    """Record the sizes of the samples each data_model._tabulate call
    tabulates, patched wherever a module refers to it."""
    original = data_model._tabulate
    calls = []

    def counted(t, c, bounds):
        calls.append(np.diff(bounds).tolist())
        return original(t, c, bounds)

    for name, module in list(sys.modules.items()):
        if name.startswith("rmtlkit.") and vars(module).get("_tabulate") is original:
            monkeypatch.setattr(module, "_tabulate", counted)
    return calls


@pytest.fixture
def tables_built(monkeypatch):
    """Collect every RiskTable constructed, however it is built."""
    original = RiskTable.__init__
    tables = []

    def counted(self, *args, **kwargs):
        tables.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(RiskTable, "__init__", counted)
    return tables


def test_one_replication_fits_each_group_once(risk_table_calls, tables_built):
    sample = next(engine_samples(load_shipped_scenario("a_null"), 0, 1, 5, None))
    tau = default_tau(sample)
    diff_test(sample, tau)
    sdiff_test(sample, tau)
    rmtl_difference(sample, tau / 2)
    partial_process(sample, tau / 3)
    assert len(risk_table_calls) == 2
    assert list(map(id, tables_built)) == list(map(id, sample.pooled.tables))
    assert [table.n_total for table in tables_built] == sample.pooled.n_total.tolist()


@pytest.fixture
def pooled_fits(monkeypatch):
    """Collect the pooled fits (every group of a sample) as they are made."""
    original = PooledFit.from_arrays.__func__
    calls = []

    def counted(cls, *args):
        fit = original(cls, *args)
        calls.append(fit)
        return fit

    monkeypatch.setattr(PooledFit, "from_arrays", classmethod(counted))
    return calls


def test_one_replication_runs_one_pooled_fit(block_fit_shapes, pooled_fits,
                                             risk_table_calls, monkeypatch):
    per_sample = []
    for name in ("_areas", "rmtl_difference"):
        original = getattr(sys.modules["rmtlkit.rmtl"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            per_sample.append(_name)
            return _original(*args, **kwargs)

        # patched wherever a module refers to it
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("rmtlkit.") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    # a_null is 50/50 uncensored: 2 * 100 uniforms per replication
    step = _CHUNK_UNIFORMS // 200
    report = run_monte_carlo(load_shipped_scenario("a_null"), reps=step + 5, seed=5)
    assert all(m.valid_reps for m in report.methods)
    # one block fit per chunk, and no replication fits, integrates or
    # takes a difference on its own
    assert block_fit_shapes == [(step, 100), (5, 100)]
    assert len(pooled_fits) == 0
    assert len(risk_table_calls) == 0
    assert per_sample == []


def write_csv(sample, path):
    path.write_text("time,status,group\n" + "".join(
        f"{t!r},{c},{sample.groups[g]}\n" for t, c, g in zip(
            sample.times.tolist(), sample.codes.tolist(), sample.group.tolist())),
        encoding="utf-8")


def test_sweep_runs_one_pooled_fit(pooled_fits, capsys, tmp_path):
    path = tmp_path / "pilot.csv"
    write_csv(sample_with_events(809, n1=40, n2=40), path)
    assert main(["samplesize", "--pilot", str(path), "--sweep", "0.25:3.0:0.25",
                 "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["sweep"]) == 12
    assert len(pooled_fits) == 1


def test_one_replication_integrates_each_group_once_per_test(monkeypatch):
    rmtl_module = sys.modules["rmtlkit.rmtl"]
    calls = {"_areas": 0, "_check_tau": 0}
    for name in calls:
        original = getattr(rmtl_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rmtl_module, name, counted)
    sample = next(engine_samples(load_shipped_scenario("a_null"), 0, 1, 5, None))
    tau = default_tau(sample)
    diff_test(sample, tau)
    sdiff_test(sample, tau)
    assert calls == {"_areas": 4, "_check_tau": 4}


def test_both_fit_paths_tabulate_through_one_function(tabulate_calls, risk_table_calls,
                                                      block_fit_shapes):
    # a per-sample fit: one call of one sample per group, through
    # build_risk_table
    sample = next(engine_samples(load_shipped_scenario("a_null"), 0, 1, 5, None))
    assert sample.pooled.n_total.tolist() == [50, 50]
    assert tabulate_calls == [[50], [50]]
    assert len(risk_table_calls) == 2
    # one Monte Carlo chunk: one call from the block fit itself, a sample
    # per group of each replication
    tabulate_calls.clear()
    risk_table_calls.clear()
    run_monte_carlo(load_shipped_scenario("a_null"), reps=5, seed=5)
    assert block_fit_shapes == [(5, 100)]
    assert tabulate_calls == [[50] * 10]
    assert len(risk_table_calls) == 0


def test_one_replication_builds_no_risk_table(risk_table_calls, tables_built):
    run_monte_carlo(load_shipped_scenario("a_null"), reps=5, seed=5)
    assert len(risk_table_calls) == 0
    assert len(tables_built) == 0


def test_sweep_fits_the_pilot_once(risk_table_calls, pooled_fits, capsys, tmp_path):
    path = tmp_path / "pilot.csv"
    write_csv(sample_with_events(808, n1=60, n2=60), path)
    assert main(["samplesize", "--pilot", str(path), "--sweep", "0.25:3.0:0.25",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["sweep"]
    assert len(rows) == 12
    assert all("diff" in row for row in rows)
    assert len(pooled_fits) == 1
    assert len(risk_table_calls) == 2


def test_estimate_reads_the_pooled_tables(risk_table_calls, pooled_fits, monkeypatch,
                                          capsys, tmp_path):
    cli_module = sys.modules["rmtlkit.cli"]
    handed = []
    for name in ("cif_estimate", "km_overall"):
        original = getattr(cli_module, name)

        def recorded(table, *args, _name=name, _original=original):
            handed.append((_name, table, args))
            return _original(table, *args)

        monkeypatch.setattr(cli_module, name, recorded)
    path = tmp_path / "data.csv"
    write_csv(sample_with_events(810, n1=40, n2=40), path)
    assert main(["estimate", "--input", str(path), "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["groups"]) == 2
    [fit] = pooled_fits
    assert [(name, args) for name, _, args in handed] == [
        ("cif_estimate", (EventCode.COMPETING,)), ("km_overall", ())] * 2
    assert all(table is fit.tables[k // 2] for k, (_, table, _) in enumerate(handed))
    assert len(risk_table_calls) == 2
