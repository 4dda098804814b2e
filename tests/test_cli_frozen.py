"""The data commands write frozen bytes: the SHA-256 of each command's exit
code, stdout and stderr on two small CSVs. A refactor of the fit or of
the output path must leave every byte of them as it is."""

import contextlib
import hashlib
import io
import math
import random

import pytest

from rmtlkit.cli import main


def tied_csv() -> str:
    """60 subjects a group from a fixed seed: times on a 0.1 grid, so with
    ties, about 30% censored and the rest split between both causes."""
    rng = random.Random(2020)
    rows = ["time,status,group"]
    for label, scale in (("a", 1.0), ("b", 1.5)):
        for _ in range(60):
            u = rng.random()
            code = 0 if u < 0.3 else 1 if u < 0.65 else 2
            time = round(0.1 - scale * math.log(1.0 - rng.random()), 1)
            rows.append(f"{time},{code},{label}")
    return "\n".join(rows) + "\n"


def single_cause_csv() -> str:
    """Eight rows, no competing event; group a holds two censorings."""
    rows = ["time,status,group"]
    for i, t in enumerate([1.0, 2.0, 3.0, 4.0]):
        rows.append(f"{t},{1 if i % 2 == 0 else 0},a")
        rows.append(f"{t + 0.5},1,b")
    return "\n".join(rows) + "\n"


COMMANDS = {
    "estimate_json": ["estimate", "--input", "{}", "--format", "json"],
    "estimate_table": ["estimate", "--input", "{}"],
    "test_json": ["test", "--input", "{}", "--format", "json"],
    "sweep_json": ["samplesize", "--pilot", "{}", "--sweep", "0.25:3.0:0.25",
                   "--format", "json"],
}

DIGESTS = {
    ("tied", "estimate_json"):
        "faf7b6ef754471412f58ca15d1fe023bdb821a6c298a5a349820ad12cc0b183f",
    ("tied", "estimate_table"):
        "c3e569c626a15a7ac040313304606e3775d864ef3f9c784120d3be4e847f9f59",
    ("tied", "test_json"):
        "b70c6aa04b1ebef61bec7b958df0a495d051a6d68f2af923aedfedd34cb2585d",
    ("tied", "sweep_json"):
        "9205ac9ccef112509be02ac51088f14504ed708c18ca3ea8c5708e456e94910f",
    ("single_cause", "estimate_json"):
        "85a7507b594ab10bcf94a227fd2e17bd44ec9ab6daf68317f6ccb42c5e20da2e",
    ("single_cause", "estimate_table"):
        "7ec633126db50aaaadc0aaa77d6fcdaa60c60c1f648224b6ee32945b8e37c3f4",
    ("single_cause", "test_json"):
        "080db1331d71f20157fa6287cea01623cf1dac85c1781895612790ea97f3c669",
    ("single_cause", "sweep_json"):
        "a6d87d9df272c4b4772ffe509dea19fce6d653ce68aaafba6345d86f0c52db55",
}

CSVS = {"tied": tied_csv, "single_cause": single_cause_csv}


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("csv_name, command", sorted(DIGESTS))
def test_frozen_cli_output(tmp_path, csv_name, command):
    path = tmp_path / f"{csv_name}.csv"
    path.write_text(CSVS[csv_name](), encoding="utf-8")
    argv = [arg.format(path) for arg in COMMANDS[command]]
    assert digest(argv) == DIGESTS[csv_name, command]
