"""The Monte Carlo engine's block kernel against the per-sample API: tau
from ``_block_taus`` and Diff and sDiff on every row of a block fit,
compared with ``default_tau``, ``diff_test`` and ``sdiff_test`` on that
row's sample. tau and every rejection and degenerate flag agree exactly;
the statistics and p-values agree to rounding, as the kernel sums along
padded rows in another order. Diff's z is compared in absolute terms:
near 0 it is cancellation noise of about 1e-15."""

import dataclasses
import math

import numpy as np
import pytest

from rmtlkit import (
    SHIPPED_SCENARIOS,
    CensoringSpec,
    DegenerateDataError,
    TwoGroupSample,
    TestMethod as Method,
    default_tau,
    diff_test,
    load_shipped_scenario,
    sdiff_test,
)
from rmtlkit.cif import _block_fits
from rmtlkit.inference import _block_tests
from rmtlkit.rmtl import _block_taus
from rmtlkit.simulate import _samples, calibrate_censoring

GROUPS = ("1", "2")
METHODS = (Method.DIFF, Method.SDIFF)
ALPHA, RHO = 0.05, 0.5


def per_sample(sample, method, tau):
    if method == Method.DIFF:
        return diff_test(sample, tau, alpha=ALPHA)
    return sdiff_test(sample, tau, alpha=ALPHA, rho=RHO)


def assert_kernel_matches(times, codes, sizes) -> dict:
    """The kernel on an (R, N) block against the per-sample API row by
    row; return each method's count of degenerate rows."""
    group = np.repeat([0, 1], sizes)
    tau = _block_taus(times, codes, sizes, GROUPS)
    results = _block_tests(_block_fits(times, codes, sizes), tau, METHODS, RHO)
    assert tau.shape == (len(times),) and set(results) == set(METHODS)
    degenerate = dict.fromkeys(METHODS, 0)
    for r, (t, c) in enumerate(zip(times, codes)):
        sample = TwoGroupSample(t, c, group, GROUPS)
        want_tau = default_tau(sample)
        assert tau[r] == want_tau, r
        for method in METHODS:
            statistic, p, flag = (a[r] for a in results[method])
            try:
                want = per_sample(sample, method, want_tau)
            except DegenerateDataError:
                assert flag, (r, method)
                assert math.isnan(statistic) and math.isnan(p)
                degenerate[method] += 1
                continue
            assert not flag, (r, method)
            if method == Method.DIFF:
                assert abs(statistic - want.statistic) <= 1e-12, r
            else:
                assert statistic == pytest.approx(want.statistic, rel=1e-12, abs=0.0), r
            assert abs(p - want.p_value) <= 1e-12, (r, method)
            assert (p < ALPHA) == want.reject, (r, method)
    return degenerate


def engine_block(scn, reps, seed, transform=None):
    """The kept rows of the engine's draws of the first ``reps``
    replications, as one block."""
    kept = [(t[keep], c[keep])
            for t, c, keep in _samples(scn, 0, reps, seed, calibrate_censoring(scn))]
    times, codes = (np.concatenate(x) for x in zip(*kept))
    return (times if transform is None else transform(times)), codes


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
@pytest.mark.parametrize("target", [None, 0.45])
def test_shipped_scenarios(name, target):
    scn = load_shipped_scenario(name)
    scn = dataclasses.replace(scn, censoring=CensoringSpec(target=target))
    assert_kernel_matches(*engine_block(scn, 60, 17), [g.n for g in scn.groups])


def test_a_tied_block():
    scn = load_shipped_scenario("c_nonproportional")
    scn = dataclasses.replace(scn, censoring=CensoringSpec(target=0.3))
    times, codes = engine_block(scn, 60, 19, lambda t: np.round(t, 2))
    assert len(np.unique(times[0])) < times.shape[1]
    assert_kernel_matches(times, codes, [g.n for g in scn.groups])


@pytest.mark.parametrize("target, decimals, sizes", [
    (None, None, (30, 70)), (0.45, None, (30, 70)), (0.3, 2, (40, 60))])
def test_unequal_splits(target, decimals, sizes):
    # each group's last event of interest is taken over its own subjects,
    # so the row splits at sizes[0], not at its middle
    scn = load_shipped_scenario("c_nonproportional")
    groups = tuple(dataclasses.replace(g, n=n) for g, n in zip(scn.groups, sizes))
    scn = dataclasses.replace(scn, groups=groups, censoring=CensoringSpec(target=target))
    transform = None if decimals is None else (lambda t: np.round(t, decimals))
    assert_kernel_matches(*engine_block(scn, 40, 31, transform), sizes)


def test_constructed_degenerate_rows():
    times = np.array([
        # both groups' only event of interest at time 2, after competing
        # events: zero standard error, and a zero normalizer on the grid
        [1.0, 2.0, 3.0, 2.0, 1.5, 3.0],
        # both groups' only event of interest at time 2, the first event of
        # either: no grid time below tau
        [2.0, 2.0, 3.0, 3.0, 1.0, 3.0],
        # the same data in both groups: sDiff's statistic and Diff's z are
        # 0, and both p-values 1
        [0.5, 1.0, 2.0, 0.5, 1.0, 2.0],
        # an ordinary row
        [3.0, 3.0, 3.0, 2.0, 3.0, 1.0],
    ])
    codes = np.array([
        [2, 1, 0, 1, 2, 0],
        [1, 2, 0, 1, 0, 0],
        [1, 2, 1, 1, 2, 1],
        [1, 2, 2, 1, 1, 0],
    ])
    group = np.repeat([0, 1], [3, 3])
    reasons = []
    for t, c in zip(times[:2], codes[:2]):
        sample = TwoGroupSample(t, c, group, GROUPS)
        for method in METHODS:
            with pytest.raises(DegenerateDataError) as err:
                per_sample(sample, method, default_tau(sample))
            reasons.append(str(err.value).split(":")[0])
    assert reasons == ["zero standard error", "zero normalizer",
                       "zero standard error", "no event times before tau=2"]
    assert assert_kernel_matches(times, codes, (3, 3)) == {
        Method.DIFF: 2, Method.SDIFF: 2}
    results = _block_tests(_block_fits(times, codes, (3, 3)),
                           _block_taus(times, codes, (3, 3), GROUPS), METHODS, RHO)
    for method in METHODS:
        statistic, p, _ = (a[2] for a in results[method])
        assert abs(statistic) < 1e-15 and p == 1.0
    # a block of one row whose only event time is tau: one knot per group
    # and one grid time, so no interval at all
    only = np.array([[2.0, 3.0, 3.0, 2.0, 3.0, 3.0]]), np.array([[1, 0, 0, 1, 0, 0]])
    assert assert_kernel_matches(*only, (3, 3)) == {Method.DIFF: 1, Method.SDIFF: 1}


def test_a_one_row_chunk():
    scn = load_shipped_scenario("f_crossing")
    times, codes = engine_block(scn, 1, 23)
    assert times.shape == (1, 100)
    assert_kernel_matches(times, codes, (50, 50))


def test_tau_at_zero_raises_as_default_tau_does():
    # in the second row, group `label` has its only event of interest at 0
    for label, row in (("1", [0.0, 2.0, 3.0, 1.0, 2.0, 3.0]),
                       ("2", [1.0, 2.0, 3.0, 0.0, 2.0, 3.0])):
        times = np.array([[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], row])
        codes = np.array([[1, 1, 0, 1, 0, 1],
                          [1, 2, 0, 1, 2, 0]])
        sample = TwoGroupSample(times[1], codes[1], np.repeat([0, 1], 3), GROUPS)
        with pytest.raises(DegenerateDataError) as want:
            default_tau(sample)
        with pytest.raises(DegenerateDataError) as got:
            _block_taus(times, codes, (3, 3), GROUPS)
        assert str(got.value) == str(want.value)
        assert f"group {label!r}" in str(got.value)


def test_only_the_selected_methods_run():
    times, codes = engine_block(load_shipped_scenario("a_null"), 10, 29)
    for method in METHODS:
        results = _block_tests(_block_fits(times, codes, (50, 50)),
                               _block_taus(times, codes, (50, 50), GROUPS), (method,), RHO)
        assert set(results) == {method}
