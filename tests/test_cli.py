import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlkit import (
    DesignInput,
    load_shipped_scenario,
    pilot_parameters,
    rmtl_estimate,
    sample_size_sdiff,
    shipped_scenario_path,
)
from rmtlkit import cli, design
from rmtlkit.cli import main

from helpers import engine_samples, sample_with_events


def to_csv(sample) -> str:
    lines = ["time,status,group"]
    for t, c, g in zip(sample.times.tolist(), sample.codes.tolist(),
                       sample.group.tolist()):
        lines.append(f"{t!r},{c},{sample.groups[g]}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def dataset(tmp_path):
    sample = sample_with_events(424, n1=40, n2=40)
    path = tmp_path / "data.csv"
    path.write_text(to_csv(sample), encoding="utf-8")
    return path, sample


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEstimate:
    def test_json_payload(self, capsys, dataset):
        path, sample = dataset
        rc, out, _ = run(capsys, ["estimate", "--input", str(path),
                                  "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "estimate"
        assert [g["label"] for g in payload["groups"]] == list(sample.groups)
        g = payload["groups"][0]
        est = rmtl_estimate(sample.pooled.cifs[0], g["n"], payload["tau"])
        assert g["rmtl"] == pytest.approx(est.value, rel=1e-12)
        assert g["ci"][0] <= g["rmtl"] <= g["ci"][1]
        assert len(g["cif"]["times"]) == len(g["cif"]["values"])
        d = payload["difference"]
        assert d["ci"][0] <= d["delta"] <= d["ci"][1]

    def test_single_cause_note_and_decomposition(self, capsys, tmp_path):
        rows = ["time,status,group"]
        for i, t in enumerate([1.0, 2.0, 3.0, 4.0]):
            rows.append(f"{t},{1 if i % 2 == 0 else 0},a")
            rows.append(f"{t + 0.5},1,b")
        path = tmp_path / "single.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc, out, _ = run(capsys, ["estimate", "--input", str(path),
                                  "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["notes"] and "no competing events" in payload["notes"][0]
        for g in payload["groups"]:
            assert g["rmtl"] + g["rmstc"] == pytest.approx(payload["tau"], abs=1e-12)
            assert g["rmtl_competing"] == 0.0

    def test_table_output(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["estimate", "--input", str(path)])
        assert rc == 0
        assert "RMTL estimates" in out
        assert "difference" in out
        assert "CIF of the event of interest" in out

    def test_strict_tau_beyond_data_is_a_data_error(self, capsys, dataset):
        path, _ = dataset
        rc, _, err = run(capsys, ["estimate", "--input", str(path),
                                  "--tau", "1e6", "--strict-tau"])
        assert rc == 3
        assert "error:" in err

    def test_byte_order_mark_in_header(self, capsys, dataset, tmp_path):
        path, sample = dataset
        bom_path = tmp_path / "bom.csv"
        bom_path.write_text(to_csv(sample), encoding="utf-8-sig")
        assert bom_path.read_bytes().startswith(b"\xef\xbb\xbf")
        _, plain, _ = run(capsys, ["estimate", "--input", str(path),
                                   "--format", "json"])
        rc, out, _ = run(capsys, ["estimate", "--input", str(bom_path),
                                  "--format", "json"])
        assert rc == 0
        assert out == plain

    def test_missing_input_file(self, capsys):
        rc, _, err = run(capsys, ["estimate", "--input", "no-such-file.csv"])
        assert rc == 3
        assert "cannot read" in err

    def test_non_utf8_input_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("time,status,group\n1,1,café\n2,1,b\n".encode("latin-1"))
        rc, out, err = run(capsys, ["estimate", "--input", str(path)])
        assert rc == 3
        assert out == ""
        assert str(path) in err and "byte offset 25" in err

    def test_field_over_the_csv_limit_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("time,status,group\n1,1,a\n2,1," + "b" * 131073 + "\n",
                        encoding="utf-8")
        rc, out, err = run(capsys, ["estimate", "--input", str(path)])
        assert rc == 3
        assert out == ""
        assert err == "error: row 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("header, missing, end", [
        ("time;status;group", "time, status, group", "\n"),
        ("Time,Status,Group", "time, status, group", "\n"),
        ("time\tgroup", "status", "\r\n"),  # read by the csv module
    ])
    def test_a_header_without_the_columns_is_quoted(self, capsys, tmp_path, header,
                                                    missing, end):
        path = tmp_path / "data.csv"
        path.write_text(end.join([header, "1,1,a", "2,1,b", ""]), encoding="utf-8")
        rc, out, err = run(capsys, ["estimate", "--input", str(path)])
        assert rc == 3
        assert out == ""
        assert err == (f"error: missing required column(s): {missing} (header line read: "
                       f"{header!r}; only comma and tab are accepted as delimiters)\n")

    def test_reference_group_reorders(self, capsys, dataset):
        path, sample = dataset
        other = sample.groups[1]
        rc, out, _ = run(capsys, ["estimate", "--input", str(path),
                                  "--format", "json",
                                  "--reference-group", other])
        assert rc == 0
        payload = json.loads(out)
        assert payload["groups"][0]["label"] == other


class TestHypothesisTests:
    def test_identical_groups_give_p_one(self, capsys, tmp_path):
        rows = ["time,status,group"]
        for t, s in [(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 0)]:
            rows.append(f"{t},{s},a")
            rows.append(f"{t},{s},b")
        path = tmp_path / "same.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc, out, _ = run(capsys, ["test", "--input", str(path), "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert set(payload["results"]) == {"diff", "sdiff"}
        for res in payload["results"].values():
            assert res["p_value"] == pytest.approx(1.0)
            assert res["reject"] is False

    def test_method_flag_restricts(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["test", "--input", str(path),
                                  "--format", "json", "--method", "diff"])
        assert rc == 0
        assert list(json.loads(out)["results"]) == ["diff"]

    def test_reference_swap_negates_diff_statistic(self, capsys, dataset):
        path, sample = dataset
        rc1, out1, _ = run(capsys, ["test", "--input", str(path),
                                    "--format", "json"])
        rc2, out2, _ = run(capsys, ["test", "--input", str(path),
                                    "--format", "json",
                                    "--reference-group", sample.groups[1]])
        assert rc1 == rc2 == 0
        r1 = json.loads(out1)["results"]
        r2 = json.loads(out2)["results"]
        assert r2["diff"]["statistic"] == pytest.approx(-r1["diff"]["statistic"])
        assert r2["sdiff"]["statistic"] == pytest.approx(r1["sdiff"]["statistic"])
        assert r2["diff"]["p_value"] == pytest.approx(r1["diff"]["p_value"])

    def test_table_output(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["test", "--input", str(path)])
        assert rc == 0
        assert "p-value" in out and "reject H0" in out


def extrapolation_message(tau_text, cif):
    return (f"tau={tau_text} exceeds the last observed time {cif.last_observed:g}; "
            "the step function is constant-extrapolated beyond the data")


class TestTauBeyondData:
    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_one_warning_line_per_group(self, capsys, dataset, command):
        path, sample = dataset
        argv = [command, "--input", str(path), "--tau", "1e6", "--format", "json"]
        rc, out, err = run(capsys, argv)
        assert rc == 0
        assert err.splitlines() == [
            f"warning: {extrapolation_message('1e+06', cif)}" for cif in sample.pooled.cifs
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(capsys, argv) == (0, out, "")
        assert json.loads(out)["tau"] == 1e6

    @pytest.mark.parametrize("command", ["estimate", "test"])
    def test_strict_tau_error_names_the_first_group(self, capsys, dataset, command):
        path, sample = dataset
        rc, out, err = run(capsys, [command, "--input", str(path), "--tau", "1e6",
                                    "--strict-tau"])
        assert (rc, out) == (3, "")
        assert err == f"error: {extrapolation_message('1e+06', sample.pooled.cifs[0])}\n"

    def test_strict_tau_sweep_rows_report_their_own_errors(self, capsys, dataset):
        path, sample = dataset
        rc, out, err = run(capsys, ["samplesize", "--pilot", str(path), "--sweep",
                                    "1:1001:1000", "--strict-tau", "--format", "json"])
        assert (rc, err) == (0, "")
        first, last = json.loads(out)["sweep"]
        assert "diff" in first and "error" not in first
        assert last["error"] == extrapolation_message("1001", sample.pooled.cifs[0])


class TestSampleSize:
    def test_explicit_inputs(self, capsys):
        rc, out, _ = run(capsys, ["samplesize", "--delta", "1", "--var1", "4",
                                  "--var2", "4", "--alpha", "0.05",
                                  "--power", "0.9", "--format", "json"])
        assert rc == 0
        results = json.loads(out)["results"]
        assert results["diff"]["n_total"] == 170
        assert results["diff"]["n1"] == results["diff"]["n2"] == 85
        assert results["sdiff"]["n_total"] == 178
        assert results["sdiff"]["inflation"] > 1.0
        assert results["sdiff"]["drift"] > results["sdiff"]["drift_normal"]

    def test_sweep_solves_the_sdiff_drift_once(self, capsys, dataset, monkeypatch):
        # the critical value and drift depend on (alpha, power) alone
        path, sample = dataset
        calls = []
        quantile = design.sup_abs_bm_quantile
        monkeypatch.setattr(design, "sup_abs_bm_quantile",
                            lambda p: calls.append(p) or quantile(p))
        design._sdiff_drifts.cache_clear()
        rc, out, _ = run(capsys, ["samplesize", "--pilot", str(path), "--sweep",
                                  "2:4:1", "--alpha", "0.03", "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["sweep"]
        assert [row["tau"] for row in rows] == [2.0, 3.0, 4.0]
        assert calls == [0.03]
        for row in rows:
            pp = pilot_parameters(sample, row["tau"])
            inp = DesignInput(delta=pp.delta, var1=pp.var1, var2=pp.var2, alpha=0.03)
            assert row["sdiff"] == sample_size_sdiff(inp).n_total

    @pytest.mark.parametrize("delta, ratio", [("1e-200", "1"), ("1", "1e-320")])
    def test_a_size_that_is_not_finite_exits_4(self, capsys, delta, ratio):
        rc, out, err = run(capsys, ["samplesize", "--delta", delta, "--var1", "1",
                                    "--var2", "1", "--ratio", ratio])
        assert rc == 4 and out == ""
        assert err.splitlines() == [
            f"error: design size is not finite at delta={float(delta)!r}, var1=1.0, "
            f"var2=1.0, ratio={float(ratio)!r}"]

    def test_missing_variances_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--delta", "1"])
        assert exc.value.code == 2

    def test_sweep_without_pilot_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--delta", "1", "--var1", "4", "--var2", "4",
                  "--sweep", "1:5:1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--delta", "1", "--var1", "4", "--var2", "4"],
        ["--pilot", "pilot.csv", "--sweep", "1:5:1"],
    ])
    def test_tau_without_a_pilot_tau_is_usage_error(self, capsys, extra):
        # only a single pilot design reads --tau: the explicit inputs hold
        # no tau, and the sweep sets its own
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--tau", "2"] + extra)
        assert exc.value.code == 2
        assert "--tau needs --pilot and no --sweep" in capsys.readouterr().err

    def test_pilot_inputs(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["samplesize", "--pilot", str(path),
                                  "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert set(payload["pilot"]) == {"delta", "var1", "var2", "tau"}
        assert payload["results"]["sdiff"]["n_total"] >= \
            payload["results"]["diff"]["n_total"]

    @pytest.mark.parametrize("method", ["both", "diff", "sdiff"])
    @pytest.mark.parametrize("inputs", [
        ["--delta", "0.3", "--var1", "4", "--var2", "5", "--ratio", "2"],
        ["--pilot", None, "--tau", "1.5"],
    ], ids=["explicit", "pilot"])
    def test_design_table_rows_match_the_json(self, capsys, dataset, method, inputs):
        argv = ["samplesize", "--method", method, "--power", "0.85"] + [
            str(dataset[0]) if arg is None else arg for arg in inputs]
        rc, out, _ = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        rc, table, _ = run(capsys, argv)
        assert rc == 0
        lines = table.splitlines()
        assert lines[0] == "designed sample sizes (alpha 0.05, power 0.85, ratio " + (
            "2)" if "--ratio" in inputs else "1)")
        assert lines[2].split() == ["method", "n_total", "n1", "n2", "inflation", "drift",
                                    "drift_normal"]
        results = payload["results"]
        for name, e in results.items():  # a design's fields in order, drifts for sdiff
            assert list(e) == ["n_total", "n1", "n2", "inflation"] + (
                ["drift", "drift_normal"] if name == "sdiff" else [])
        rows = lines[3:3 + len(results)]
        assert [row.split()[0] for row in rows] == list(results)
        for row, e in zip(rows, results.values()):
            assert row.split()[1:] == [
                str(e["n_total"]), str(e["n1"]), str(e["n2"]), f"{e['inflation']:.6g}",
                *(f"{e[k]:.6g}" if k in e else "-" for k in ("drift", "drift_normal"))]
        if "pilot" in payload:
            p = payload["pilot"]
            assert list(p) == ["delta", "var1", "var2", "tau"]
            assert lines[3 + len(results):] == [
                "", f"pilot: delta {p['delta']:.6g}, var1 {p['var1']:.6g}, "
                    f"var2 {p['var2']:.6g}, tau {p['tau']:.6g}"]
        else:
            assert len(lines) == 3 + len(results)

    def test_sweep_table_prints_a_failing_taus_error(self, capsys, dataset):
        path, _ = dataset
        argv = ["samplesize", "--pilot", str(path), "--sweep", "1:1001:1000", "--strict-tau"]
        rc, out, _ = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        first, last = json.loads(out)["sweep"]
        rc, table, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        assert table.splitlines()[3:] == [
            f"{1:>10}  {first['diff']:>10}  {first['sdiff']:>10}",
            f"{1001:>10}  {last['error']}"]

    @pytest.mark.parametrize("sweep, message", [
        ("1:2", "sweep must be start:stop:step"),
        ("1:2:3:4", "sweep must be start:stop:step"),
        ("1:x:0.5", "unparseable sweep range '1:x:0.5'"),
    ])
    def test_malformed_sweep_is_usage_error(self, capsys, dataset, sweep, message):
        path, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--pilot", str(path), "--sweep", sweep])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_non_utf8_pilot_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("time,status,group\n1,1,café\n2,1,b\n".encode("latin-1"))
        rc, _, err = run(capsys, ["samplesize", "--pilot", str(path)])
        assert rc == 3
        assert str(path) in err and "byte offset 25" in err

    def test_sweep_tracks_tau(self, capsys, tmp_path):
        scn = load_shipped_scenario("e_late")
        scn = dataclasses.replace(
            scn,
            groups=tuple(dataclasses.replace(g, n=300) for g in scn.groups),
        )
        sample = next(engine_samples(scn, 0, 1, 4242, None))
        path = tmp_path / "pilot.csv"
        path.write_text(to_csv(sample), encoding="utf-8")
        rc, out, _ = run(capsys, ["samplesize", "--pilot", str(path),
                                  "--sweep", "1:6:1", "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["sweep"]
        assert [row["tau"] for row in rows] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        sizes = {row["diff"] for row in rows if "diff" in row}
        assert len(sizes) > 1  # a late difference makes n depend strongly on tau

    def test_sweep_table_output(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["samplesize", "--pilot", str(path),
                                  "--sweep", "2:4:1"])
        assert rc == 0
        assert "sample size by tau" in out
        assert "n_diff" in out and "n_sdiff" in out

    def test_bad_sweep_range_is_usage_error(self, capsys, dataset):
        path, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--pilot", str(path), "--sweep", "5:1:1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sweep, name, value", [
        ("inf:3.0:0.25", "start", "inf"),
        ("0.25:inf:0.25", "stop", "inf"),
        ("0.25:3.0:inf", "step", "inf"),
        ("0.25:-inf:0.25", "stop", "-inf"),
    ])
    def test_non_finite_sweep_is_usage_error(self, capsys, dataset, sweep, name, value):
        path, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--pilot", str(path), "--sweep", sweep])
        assert exc.value.code == 2
        assert f"sweep {name} must be finite, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, taus", [
        ("1e-9:1e9:1e-9", "1e+18"),
        ("1:10001:1", "10001"),
        ("1e-300:1e300:1e-300", "inf"),
    ])
    def test_huge_sweep_is_usage_error(self, capsys, dataset, sweep, taus):
        path, _ = dataset
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--pilot", str(path), "--sweep", sweep])
        assert exc.value.code == 2
        assert (f"sweep '{sweep}' gives {taus} taus; at most 10000 are allowed"
                in capsys.readouterr().err)

    def test_largest_sweep_runs(self, capsys, dataset):
        path, _ = dataset
        rc, out, _ = run(capsys, ["samplesize", "--pilot", str(path), "--method", "diff",
                                  "--sweep", "0.0003:3:0.0003", "--format", "json"])
        assert rc == 0
        rows = json.loads(out)["sweep"]
        assert len(rows) == 10_000 and rows[-1]["tau"] == pytest.approx(3.0)


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["simulate", "--input", str(shipped_scenario_path("a_null")),
                "--reps", "20", "--seed", "7", "--format", "json"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_worker_count_does_not_change_output(self, capsys):
        base = ["simulate", "--input", str(shipped_scenario_path("a_null")),
                "--reps", "20", "--seed", "7", "--format", "json"]
        rc1, out1, _ = run(capsys, base + ["--workers", "1"])
        rc2, out2, _ = run(capsys, base + ["--workers", "2"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_json_payload_shape(self, capsys):
        rc, out, _ = run(capsys, ["simulate",
                                  "--input", str(shipped_scenario_path("a_null")),
                                  "--reps", "5", "--seed", "1",
                                  "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "simulate"
        assert payload["scenario"]["groups"][0]["n"] == 50
        report = payload["report"]
        assert report["reps"] == 5
        assert set(report["methods"]) == {"diff", "sdiff"}

    def test_n_total_override_is_applied(self, capsys):
        base = ["simulate", "--input", str(shipped_scenario_path("a_null")),
                "--reps", "5", "--seed", "1", "--format", "json",
                "--method", "diff"]
        rc, _, _ = run(capsys, base + ["--n-total", "30"])
        assert rc == 0
        # too small to split into two groups of >= 2
        rc_bad, _, err = run(capsys, base + ["--n-total", "3"])
        assert rc_bad == 3
        assert "n_total" in err

    def test_table_output(self, capsys):
        rc, out, _ = run(capsys, ["simulate",
                                  "--input", str(shipped_scenario_path("a_null")),
                                  "--reps", "5", "--seed", "1"])
        assert rc == 0
        assert "simulation: scenario" in out
        assert "tau rule:" in out

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"groups": []}), encoding="utf-8")
        rc, _, err = run(capsys, ["simulate", "--input", str(path), "--reps", "2"])
        assert rc == 3
        assert "groups" in err

    def test_missing_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        rc, out, err = run(capsys, ["simulate", "--input", str(path), "--reps", "2"])
        assert rc == 3
        assert out == ""
        assert str(path) in err

    def test_non_utf8_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"label": "café"}'.encode("latin-1"))
        rc, _, err = run(capsys, ["simulate", "--input", str(path), "--reps", "2"])
        assert rc == 3
        assert str(path) in err and "byte offset 14" in err

    @pytest.mark.parametrize("bound", ["Infinity", "1e999", "NaN"])
    def test_non_finite_censoring_bound_is_a_data_error(self, capsys, tmp_path, bound):
        scenario = json.loads(shipped_scenario_path("a_null").read_text(encoding="utf-8"))
        text = json.dumps(scenario)[:-1] + f', "censoring": {{"c": {bound}}}}}'
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        rc, out, err = run(capsys, ["simulate", "--input", str(path), "--reps", "2",
                                    "--format", "json"])
        assert (rc, out) == (3, "")
        assert "'censoring'" in err and "finite" in err

    def test_invalid_json_scenario(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        rc, _, err = run(capsys, ["simulate", "--input", str(path), "--reps", "2"])
        assert rc == 3
        assert "JSON" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "x.csv", "--alpha", "1.5"],
            ["estimate", "--input", "x.csv", "--tau", "-2"],
            ["test", "--input", "x.csv", "--rho", "1.5"],
            ["test", "--input", "x.csv", "--method", "bogus"],
            ["simulate", "--input", "x.json", "--reps", "0"],
            ["simulate", "--input", "x.json", "--workers", "0"],
            ["simulate", "--input", "x.json", "--seed", "-1"],
            ["estimate"],
            ["nonsense"],
        ],
    )
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, option, value, message", [
        ("test", "--alpha", "abc", "invalid _probability value: 'abc'"),
        ("test", "--alpha", "1", "'1' is not in (0, 1)"),
        ("test", "--rho", "nan", "'nan' is not in [0, 1]"),
        ("test", "--tau", "inf", "'inf' is not a positive number"),
        ("samplesize", "--ratio", "x", "invalid _positive_float value: 'x'"),
        ("samplesize", "--power", "0", "'0' is not in (0, 1)"),
        ("simulate", "--reps", "1.5", "invalid _positive_int value: '1.5'"),
        ("simulate", "--workers", "0", "'0' is not a positive integer"),
        ("simulate", "--seed", "-1", "'-1' is not a nonnegative integer"),
    ])
    def test_bad_numbers_are_worded(self, capsys, command, option, value, message):
        with pytest.raises(SystemExit) as exc:
            main([command, option, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"rmtlkit {command}: error: argument {option}: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--input", "x.csv"],
            ["samplesize", "--delta", "1", "--var1", "4", "--var2", "4"],
            ["simulate", "--input", "x.json"],
        ],
    )
    def test_eps_is_not_an_option(self, capsys, argv):
        # the Brownian series are exact to double precision: there is no
        # truncation error left to set
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--eps", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err


def listed(obj):
    """The payload with every numpy array as its list, as json reads it."""
    if isinstance(obj, dict):
        return {k: listed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


SPECIAL = np.array([1.5, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308,
                    -1e308, 0.1, 1e-7, 1e16, 123456789.125])


class TestDumps:
    @pytest.mark.parametrize("payload", [
        SPECIAL,
        {"finite": SPECIAL, "nan": np.array([1.0, np.nan]), "inf": np.array([np.inf]),
         "neginf": np.array([-np.inf, 2.0]), "all_nan": np.full(3, np.nan)},
        {"empty": np.array([]), "one": np.array([3.0]), "int64": np.arange(4),
         "bool": np.array([True, False]), "float32": np.array([0.1], np.float32),
         "matrix": np.ones((2, 2)), "scalars": [np.float64(0.1), 2, None, "x"]},
        {"a": [{"b": (np.array([1.0, 2.0]), [np.array([0.5]), []])}],
         "c": [[[np.array([7.0, -8.0])], np.array([], dtype=np.int64)]],
         "d": {"e": {"f": {"g": SPECIAL[::-1]}}}, "h": {}},
        [np.array([1.0]), [np.array([2.0, 3.0])], {"k": np.array([4.0])}],
        # a payload string that reads as the stand-in
        {"label": cli._ARRAY, "values": np.array([1.0, 2.0])},
        {"values": np.array([1.0]), "labels": [cli._ARRAY, cli._ARRAY]},
    ])
    def test_equals_json_dumps_of_the_listed_payload(self, payload):
        assert cli._dumps(payload) == json.dumps(listed(payload), indent=2)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.lists(st.floats(width=64), max_size=6).map(np.array),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.sampled_from("pqr"), inner, max_size=3)),
        max_leaves=6))
    def test_arrays_at_any_depth(self, payload):
        assert cli._dumps(payload) == json.dumps(listed(payload), indent=2)

    def test_estimate_hands_the_cif_arrays_over_unlisted(self, capsys, dataset, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_dumps", lambda payload: payloads.append(payload) or "")
        run(capsys, ["estimate", "--input", str(dataset[0]), "--format", "json"])
        (payload,) = payloads
        for group in payload["groups"]:
            for values in group["cif"].values():
                assert isinstance(values, np.ndarray) and values.dtype == np.float64

    SMALL = {
        "mixed": "time,status,group\n1,1,a\n2,2,b\n3,0,a\n1.5,1,b\n4,1,b\n2.5,2,a\n0.5,1,a\n",
        "single_cause": "time,status,group\n1,1,a\n2,0,a\n3,1,a\n1,1,b\n2,2,b\n4,1,b\n5,0,b\n",
        "no_interest": "time,status,group\n1,1,a\n2,0,a\n3,1,a\n1,0,b\n2,2,b\n4,2,b\n5,0,b\n",
    }

    @pytest.mark.parametrize("name", sorted(SMALL))
    @pytest.mark.parametrize("argv", [
        ["estimate", "--tau", "3"],
        ["estimate"],
        ["test", "--tau", "3"],
        ["test", "--reference-group", "b", "--method", "sdiff"],
        ["samplesize", "--tau", "3"],
        ["samplesize", "--sweep", "0.5:4:0.5"],
    ])
    def test_every_data_command_writes_what_json_dumps_writes(
            self, capsys, tmp_path, monkeypatch, name, argv):
        path = tmp_path / f"{name}.csv"
        path.write_text(self.SMALL[name], encoding="utf-8")
        option = "--pilot" if argv[0] == "samplesize" else "--input"
        argv = argv + [option, str(path), "--format", "json"]
        spliced = run(capsys, argv)
        monkeypatch.setattr(cli, "_dumps",
                            lambda payload: json.dumps(listed(payload), indent=2))
        assert run(capsys, argv) == spliced

    @pytest.mark.parametrize("argv", [
        ["samplesize", "--delta", "0.3", "--var1", "4", "--var2", "5"],
        ["simulate", "--input", str(shipped_scenario_path("f_crossing")), "--reps", "10"],
        ["simulate", "--input", str(shipped_scenario_path("a_null")), "--reps", "10",
         "--n-total", "40", "--method", "sdiff"],
    ])
    def test_design_and_simulate_write_what_json_dumps_writes(self, capsys, monkeypatch,
                                                               argv):
        argv = argv + ["--format", "json"]
        spliced = run(capsys, argv)
        assert spliced[0] == 0
        monkeypatch.setattr(cli, "_dumps",
                            lambda payload: json.dumps(listed(payload), indent=2))
        assert run(capsys, argv) == spliced
