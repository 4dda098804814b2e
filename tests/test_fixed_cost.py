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
"""

import os
import sys

import pytest

import rmtlkit
from rmtlkit import TestMethod as Method, load_shipped_scenario
from rmtlkit.cif import _block_fits
from rmtlkit.inference import _block_tests
from rmtlkit.rmtl import _block_taus
from rmtlkit.simulate import _samples

PACKAGE = os.path.dirname(rmtlkit.__file__) + os.sep
CALLS = 143
# one 16-replication chunk of a_null drawn, sampled and checked, without
# and with a censoring bound
SAMPLING_CALLS = {None: 79, (2.0, 2.0): 90}


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
    times, codes, keep = next(_samples(load_shipped_scenario("a_null"), 0, 1, 5, None))
    assert keep.all()
    methods = (Method.DIFF, Method.SDIFF)
    count = calls_from_the_package(
        lambda: _block_tests(_block_fits(times, codes, (50, 50)),
                             _block_taus(times, codes, (50, 50), ("1", "2")), methods, 0.5))
    # the lower bound shows that the hook saw the kernel at all
    assert 100 < count <= 1.1 * CALLS, count


@pytest.mark.parametrize("bounds", list(SAMPLING_CALLS))
def test_a_chunk_is_drawn_in_few_calls(bounds):
    scn = load_shipped_scenario("a_null")
    # a first draw makes this thread's generator and the cached law table
    times, codes, keep = next(_samples(scn, 0, 16, 5, bounds))
    assert times.shape == (16, 100) and keep.all()
    count = calls_from_the_package(lambda: next(_samples(scn, 0, 16, 5, bounds)))
    # the lower bound: at least a call per replication's stream
    assert 16 < count <= 1.1 * SAMPLING_CALLS[bounds], count
