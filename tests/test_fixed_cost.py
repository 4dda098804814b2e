"""A guard on the Monte Carlo engine's fixed cost per study that needs no
timer: the calls made from inside rmtlkit while the block of one
replication is fitted, given its tau and tested, and while a chunk of
replications is drawn.

At the few replications of a study's chunk the kernel's cost is numpy
dispatch, paid per call whatever the block's size, so a change that adds
passes per study adds calls here. The count is that of the profile hook:
calls of Python functions whose caller is an rmtlkit frame, and calls of
built-in functions and methods made from one. ufuncs and operators are not
calls to the hook. ``CALLS`` and ``SAMPLING_CALLS`` are the counts with
Python 3.11 and numpy 2.4; another numpy may move them a little, as numpy
functions move between Python and C.

The CLI's fixed cost on a large CSV is counted in its kernels' calls: the
blocks the bulk parser reads, and the Aalen variances ``estimate`` fits.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import rmtlkit
from rmtlkit import TestMethod as Method, cif, data_model, load_shipped_scenario
from rmtlkit.cif import _block_fits
from rmtlkit.cli import main
from rmtlkit.inference import _block_tests
from rmtlkit.rmtl import _block_taus
from rmtlkit.simulate import _samples

PACKAGE = os.path.dirname(rmtlkit.__file__) + os.sep
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
CALLS = 141
# one 16-replication chunk of a_null drawn, sampled and checked, without
# and with a censoring bound
SAMPLING_CALLS = {None: 73, (2.0, 2.0): 90}


def calls_from_the_package(fn) -> int:
    """Calls made from rmtlkit frames while ``fn()`` runs in this thread."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            caller = frame.f_back
            count += caller is not None and caller.f_code.co_filename.startswith(PACKAGE)
        elif event == "c_call":
            count += frame.f_code.co_filename.startswith(PACKAGE)

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_one_replication_is_fitted_and_tested_in_few_calls():
    times, codes = next(_samples(load_shipped_scenario("a_null"), 0, 1, 5, None))
    assert (_block_taus(times, codes, (50, 50)) > 0).all()
    methods = (Method.DIFF, Method.SDIFF)
    count = calls_from_the_package(
        lambda: _block_tests(_block_fits(times, codes, (50, 50)),
                             _block_taus(times, codes, (50, 50)), methods, 0.5))
    # the lower bound shows that the hook saw the kernel at all
    assert 100 < count <= 1.1 * CALLS, count


@pytest.mark.parametrize("bounds", list(SAMPLING_CALLS))
def test_a_chunk_is_drawn_in_few_calls(bounds):
    scn = load_shipped_scenario("a_null")
    # a first draw makes this thread's generator and the cached law table
    times, codes = next(_samples(scn, 0, 16, 5, bounds))
    assert times.shape == (16, 100) and (_block_taus(times, codes, (50, 50)) > 0).all()
    count = calls_from_the_package(lambda: next(_samples(scn, 0, 16, 5, bounds)))
    # the lower bound: at least a call per replication's stream
    assert 16 < count <= 1.1 * SAMPLING_CALLS[bounds], count


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """The benchmark's seed-5 CSV of 10^5 rows, about 1.7 MB."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    inputs.write_csv(path, 5, 100_000)
    return path


def calls_of(monkeypatch, module, name) -> list:
    """A list that grows by one on each call of ``module.name``."""
    original, calls = getattr(module, name), []

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_large_file_is_parsed_in_few_blocks(large_csv, monkeypatch):
    calls = calls_of(monkeypatch, data_model, "_times")  # once per block
    assert len(data_model.parse_dataset(data_model.read_text(large_csv)).times) == 100_000
    assert 1 <= len(calls) <= 7, len(calls)


def test_estimate_fits_no_unused_variance(large_csv, monkeypatch, capsys):
    calls = calls_of(monkeypatch, cif, "_aalen_variance")
    assert main(["estimate", "--input", str(large_csv), "--format", "json"]) == 0
    capsys.readouterr()
    # the interest CIFs' variances, one per group; the competing CIFs need none
    assert len(calls) == 2
