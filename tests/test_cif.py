import numpy as np
import pytest

from rmtlkit import (
    DataValidationError,
    EventCode,
    StepFunction,
    build_risk_table,
    cif_estimate,
    km_overall,
)
from helpers import random_arrays, value_at, variance_at


def table(spec):
    times, codes = zip(*spec)
    return build_risk_table(times, codes)


def events(rt, cause):
    """The table's event counts of one cause."""
    return rt.events_interest if cause == EventCode.INTEREST else rt.events_competing


def aalen_reference(rt, cause):
    """Literal quadratic-time transcription of the pointwise variance, used
    as an oracle for the cumulative-sum implementation."""
    n = rt.at_risk.astype(float)
    dj = events(rt, cause).astype(float)
    d = (rt.events_interest + rt.events_competing).astype(float)
    surv = np.cumprod(1.0 - d / n)
    s_prev = np.concatenate(([1.0], surv[:-1]))
    inc = np.cumsum((dj / n) * s_prev)
    out = np.zeros(len(n))
    for i in range(len(n)):
        acc = 0.0
        for k in range(i + 1):
            den_a = (n[k] - 1.0) * (n[k] - d[k])
            if den_a > 0:
                acc += (inc[i] - inc[k]) ** 2 * d[k] / den_a
            den_b = (n[k] - 1.0) * n[k] ** 2
            if den_b > 0:
                acc += (n[k] - dj[k]) * dj[k] * s_prev[k] ** 2 / den_b
            den_c = n[k] * (n[k] - d[k]) * (n[k] - 1.0)
            if den_c > 0:
                acc -= 2.0 * (inc[i] - inc[k]) * dj[k] * (n[k] - dj[k]) * s_prev[k] / den_c
        out[i] = max(acc, 0.0)
    return out


class TestStepFunction:
    """The tests' evaluator of a step function, the oracle of other tests."""

    def setup_method(self):
        self.fn = StepFunction(
            times=np.array([1.0, 3.0]),
            values=np.array([0.25, 0.5]),
            variances=np.array([0.01, 0.02]),
            value_before_first=0.0,
            last_observed=4.0,
        )

    def test_right_continuity(self):
        assert value_at(self.fn, 1.0) == 0.25
        assert value_at(self.fn, 0.999) == 0.0
        assert value_at(self.fn, 2.0) == 0.25
        assert value_at(self.fn, 3.0) == 0.5
        assert value_at(self.fn, 100.0) == 0.5

    def test_vectorized(self):
        got = value_at(self.fn, np.array([0.5, 1.0, 2.0, 3.5]))
        assert np.array_equal(got, [0.0, 0.25, 0.25, 0.5])

    def test_variance_at(self):
        assert variance_at(self.fn, 0.5) == 0.0
        assert variance_at(self.fn, 2.0) == 0.01

    def test_empty_function(self):
        empty = StepFunction(
            times=np.array([]), values=np.array([]), variances=np.array([]),
            value_before_first=0.0, last_observed=2.0,
        )
        assert value_at(empty, 1.0) == 0.0
        assert np.array_equal(value_at(empty, np.array([0.0, 5.0])), [0.0, 0.0])


class TestKaplanMeier:
    def test_three_subject_example(self):
        km = km_overall(table([(1.0, 1), (2.0, 2), (3.0, 0)]))
        assert np.allclose(km.values, [2 / 3, 1 / 3], rtol=0, atol=1e-15)
        assert km.variances is None

    def test_all_events_reaches_zero(self):
        km = km_overall(table([(1.0, 1), (2.0, 1)]))
        assert km.values[-1] == 0.0

    def test_monotone_decreasing_in_unit_interval(self):
        rng = np.random.default_rng(21)
        km = km_overall(build_risk_table(*random_arrays(rng, 150, tie_grid=3)))
        assert np.all(np.diff(km.values) <= 0)
        assert np.all((km.values >= 0) & (km.values <= 1))


class TestCifEstimate:
    def test_three_subject_example(self):
        rt = table([(1.0, 1), (2.0, 2), (3.0, 0)])
        c1 = cif_estimate(rt, EventCode.INTEREST)
        c2 = cif_estimate(rt, EventCode.COMPETING)
        assert c1.times.tolist() == [1.0]
        assert np.allclose(c1.values, [1 / 3], rtol=0, atol=1e-15)
        assert c2.times.tolist() == [2.0]
        assert np.allclose(c2.values, [1 / 3], rtol=0, atol=1e-15)

    def test_causes_complement_survival(self):
        rng = np.random.default_rng(22)
        rt = build_risk_table(*random_arrays(rng, 200, tie_grid=2))
        km = km_overall(rt)
        c1 = cif_estimate(rt, EventCode.INTEREST)
        c2 = cif_estimate(rt, EventCode.COMPETING)
        total = value_at(c1, rt.times) + value_at(c2, rt.times)
        assert np.allclose(total, 1.0 - km.values, rtol=0, atol=1e-12)

    def test_single_cause_is_km_complement_bitwise(self):
        rng = np.random.default_rng(23)
        rt = build_risk_table(*random_arrays(rng, 120, p_interest=0.7, p_competing=0.0))
        c1 = cif_estimate(rt, EventCode.INTEREST)
        km = km_overall(rt)
        assert np.array_equal(c1.values, 1.0 - km.values)

    def test_monotone_bounded(self):
        rng = np.random.default_rng(24)
        rt = build_risk_table(*random_arrays(rng, 180, tie_grid=4))
        for cause in (EventCode.INTEREST, EventCode.COMPETING):
            fn = cif_estimate(rt, cause)
            assert np.all(np.diff(fn.values) >= 0)
            assert np.all((fn.values >= 0) & (fn.values <= 1))

    def test_cause_without_events_is_empty(self):
        rt = table([(1.0, 1), (2.0, 1)])
        fn = cif_estimate(rt, EventCode.COMPETING)
        assert len(fn.times) == 0
        assert value_at(fn, 5.0) == 0.0

    def test_censoring_code_rejected(self):
        rt = table([(1.0, 1)])
        with pytest.raises(DataValidationError):
            cif_estimate(rt, EventCode.CENSORED)


class TestAalenVariance:
    @pytest.mark.parametrize("seed", [31, 32, 33, 34])
    def test_matches_quadratic_reference(self, seed):
        rng = np.random.default_rng(seed)
        rt = build_risk_table(*random_arrays(rng, 150, tie_grid=3))
        for cause in (EventCode.INTEREST, EventCode.COMPETING):
            ref = aalen_reference(rt, cause)
            fn = cif_estimate(rt, cause)
            got = variance_at(fn, rt.times)
            # the reference is defined at every risk-table row
            assert np.allclose(got[events(rt, cause) > 0],
                               ref[events(rt, cause) > 0], rtol=1e-12, atol=1e-15)

    def test_constant_between_own_jumps(self):
        # Rows where the cause has no events must not move its variance:
        # storing variances only at jump knots is then exact.
        rng = np.random.default_rng(35)
        rt = build_risk_table(*random_arrays(rng, 150, tie_grid=3))
        for cause in (EventCode.INTEREST, EventCode.COMPETING):
            ref = aalen_reference(rt, cause)
            jumps = events(rt, cause) > 0
            last = 0.0
            for i in range(len(rt.times)):
                if jumps[i]:
                    last = ref[i]
                else:
                    assert ref[i] == pytest.approx(last, rel=1e-12, abs=1e-15)

    def test_last_subject_event_is_guarded(self):
        rt = table([(1.0, 1), (2.0, 2), (3.0, 1)])
        var = cif_estimate(rt, EventCode.INTEREST).variances
        assert np.isfinite(var).all()
        assert (var >= 0).all()

    def test_nonnegative(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            rt = build_risk_table(*random_arrays(rng, 60, tie_grid=2))
            assert (cif_estimate(rt, EventCode.INTEREST).variances >= 0).all()
