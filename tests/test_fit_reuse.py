"""One fit per group: every statistic of a sample reads the same two risk
tables, however many statistics or truncation times it is asked for; and
each test checks tau and integrates once per group."""

import json
import sys

import pytest

import rmtlkit
from rmtlkit import default_tau, diff_test, load_shipped_scenario, sdiff_test
from rmtlkit.cli import main
from rmtlkit.simulate import _replicate

from helpers import sample_with_events


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


def test_one_replication_fits_each_group_once(risk_table_calls):
    sample = _replicate(load_shipped_scenario("a_null"), 0, 5, None)
    tau = default_tau(sample)
    diff_test(sample, tau)
    sdiff_test(sample, tau)
    assert len(risk_table_calls) == 2


def test_one_replication_integrates_each_group_once_per_test(monkeypatch):
    rmtl_module = sys.modules["rmtlkit.rmtl"]
    calls = {"_areas": 0, "_check_tau": 0}
    for name in calls:
        original = getattr(rmtl_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(rmtl_module, name, counted)
    sample = _replicate(load_shipped_scenario("a_null"), 0, 5, None)
    tau = default_tau(sample)
    diff_test(sample, tau)
    sdiff_test(sample, tau)
    assert calls == {"_areas": 4, "_check_tau": 4}


def test_sweep_fits_the_pilot_once(risk_table_calls, capsys, tmp_path):
    sample = sample_with_events(808, n1=60, n2=60)
    path = tmp_path / "pilot.csv"
    path.write_text("time,status,group\n" + "".join(
        f"{t!r},{c},{sample.groups[g]}\n" for t, c, g in zip(
            sample.times.tolist(), sample.codes.tolist(), sample.group.tolist())),
        encoding="utf-8")
    risk_table_calls.clear()
    assert main(["samplesize", "--pilot", str(path), "--sweep", "0.25:3.0:0.25",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["sweep"]
    assert len(rows) == 12
    assert all("diff" in row for row in rows)
    assert len(risk_table_calls) == 2
