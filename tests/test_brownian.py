import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri

from rmtlkit import (
    DataValidationError,
    NumericError,
    _normal,
    brownian,
    drift_crossing_prob,
    drift_crossing_prob_deriv,
    series_term_count,
    solve_crossing_drift,
    sup_abs_bm_quantile,
    sup_abs_bm_sf,
)


class TestSupSurvival:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.5, 0.26721521438306095),
            (2.0, 0.09100052384636614),
            (2.5, 0.024838661302977183),
        ],
    )
    def test_frozen_values(self, x, expected):
        assert sup_abs_bm_sf(x) == pytest.approx(expected, abs=1e-14)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.3, 5.0, 60)
        vals = [sup_abs_bm_sf(float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @staticmethod
    def reflection_sf(x):
        """4 sum_k (-1)^k Phibar((2k+1) x), each term through log_ndtr."""
        terms = [math.exp(math.log(4.0) + float(log_ndtr(-k * x))) for k in (1, 3, 5, 7)]
        return terms[0] - terms[1] + terms[2] - terms[3]

    def test_tail_matches_reflection_series(self):
        # below the smallest normal double a value cannot hold 1e-12
        # relative precision, so the comparison is absolute there
        for x in np.linspace(6.0, 40.0, 341):
            got, want = sup_abs_bm_sf(float(x)), self.reflection_sf(float(x))
            assert got == pytest.approx(want, rel=1e-12, abs=np.finfo(float).tiny), x

    def test_tail_monotone(self):
        vals = np.array([sup_abs_bm_sf(float(x)) for x in np.linspace(6.0, 40.0, 3401)])
        steps = np.diff(vals)
        assert (steps <= 0).all()
        assert (steps[vals[1:] > np.finfo(float).tiny] < 0).all()

    def test_tail_joins_the_series(self):
        # the series cut off at eps just below x = 6 is within its error
        # bound 4 eps / pi of the reflection series from x = 6 on
        eps = 1e-10
        below, at = sup_abs_bm_sf(6.0 - 1e-9, eps), sup_abs_bm_sf(6.0, eps)
        assert abs(below - at) < 4.0 * eps / math.pi

    def test_limits(self):
        assert sup_abs_bm_sf(0.01) == pytest.approx(1.0, abs=1e-12)
        assert sup_abs_bm_sf(10.0) < 1e-9

    def test_bounded(self):
        for x in (0.05, 0.5, 1.0, 3.0, 8.0):
            assert 0.0 <= sup_abs_bm_sf(x) <= 1.0

    def test_nonpositive_level_rejected(self):
        for x in (0.0, float("nan"), float("inf")):
            with pytest.raises(DataValidationError):
                sup_abs_bm_sf(x)
            with pytest.raises(DataValidationError):
                series_term_count(x, 1e-10)

    @pytest.mark.parametrize("eps", [0.0, -1e-10, float("nan")])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(DataValidationError, match="eps must be positive"):
            sup_abs_bm_sf(1.0, eps=eps)

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(brownian, "_MAX_TERMS", 2)
        with pytest.raises(NumericError):
            sup_abs_bm_sf(2.0, eps=1e-300)

    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_reflection_series(self, x):
        # the dual series from repeated reflection, 4 * sum_k (-1)^k Phibar((2k+1)x),
        # summed independently of the library's series
        k = np.arange(60)
        reference = 4.0 * float(np.sum((-1.0) ** k * ndtr(-(2 * k + 1) * x)))
        assert sup_abs_bm_sf(x) == pytest.approx(reference, abs=1e-12)

    def test_reflection_bound(self):
        # one-sided reflection: P[sup |M|> x] <= 4 * Phibar(x), >= 2 * Phibar(x)
        for x in (1.0, 1.5, 2.0, 3.0):
            tail = 1.0 - float(ndtr(x))
            assert 2 * tail <= sup_abs_bm_sf(x) <= 4 * tail


class TestTermCount:
    def test_frozen_count(self):
        assert series_term_count(2.0, 1e-10) == 5

    def test_grows_with_level(self):
        assert series_term_count(4.0, 1e-10) >= series_term_count(1.0, 1e-10)

    def test_grows_as_eps_shrinks(self):
        assert series_term_count(2.0, 1e-14) >= series_term_count(2.0, 1e-6)

    def test_out_of_range_eps_warns(self):
        with pytest.warns(UserWarning, match="1/pi"):
            assert series_term_count(2.0, 0.9) == 1

    def test_at_least_one(self):
        assert series_term_count(1e-6, 1e-10) == 1


class TestQuantile:
    def test_frozen_value(self):
        assert sup_abs_bm_quantile(0.05) == pytest.approx(
            2.241402727332055, abs=1e-12
        )

    @pytest.mark.parametrize("p", [0.9, 0.5, 0.1, 0.05, 0.01, 0.001])
    def test_round_trip(self, p):
        x = sup_abs_bm_quantile(p)
        assert sup_abs_bm_sf(x) == pytest.approx(p, abs=1e-9)

    def test_monotone(self):
        assert sup_abs_bm_quantile(0.01) > sup_abs_bm_quantile(0.05)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
    def test_domain(self, p):
        with pytest.raises(DataValidationError):
            sup_abs_bm_quantile(p)


class TestDriftCrossing:
    def test_zero_drift_reduces_to_one_sided_reflection(self):
        from scipy.special import ndtr

        for u in (0.5, 1.0, 2.0):
            assert drift_crossing_prob(u, 0.0) == pytest.approx(
                2.0 * (1.0 - float(ndtr(u))), rel=1e-12
            )

    def test_increasing_in_drift(self):
        vals = [drift_crossing_prob(2.0, x) for x in (-1.0, 0.0, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_no_overflow_at_large_arguments(self):
        val = drift_crossing_prob(50.0, 49.0)
        assert 0.0 <= val <= 1.0 and math.isfinite(val)

    def test_derivative_matches_finite_differences(self):
        for u, x in [(2.0, 1.0), (2.2414, 2.8016), (1.5, -0.5), (3.0, 3.5)]:
            h = 1e-6
            fd = (drift_crossing_prob(u, x + h) - drift_crossing_prob(u, x - h)) / (
                2 * h
            )
            got = drift_crossing_prob_deriv(u, x)
            assert got == pytest.approx(fd, rel=1e-6)

    def test_derivative_positive(self):
        assert drift_crossing_prob_deriv(2.0, 1.0) > 0


class TestDriftSolve:
    @pytest.mark.parametrize("target", [0.8, 0.9, 0.5, 0.05])
    def test_residual(self, target):
        level = 2.241402727332055
        x = solve_crossing_drift(level, target)
        assert abs(drift_crossing_prob(level, x) - target) < 1e-10

    def test_frozen_solution(self):
        x = solve_crossing_drift(2.241402727332055, 0.8)
        assert drift_crossing_prob(2.241402727332055, x) == pytest.approx(
            0.8, abs=1e-10
        )
        assert x == pytest.approx(2.8807327286293107, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DataValidationError):
            solve_crossing_drift(-1.0, 0.8)
        with pytest.raises(DataValidationError):
            solve_crossing_drift(2.0, 1.0)
        for level in (float("nan"), float("inf")):
            with pytest.raises(DataValidationError):
                solve_crossing_drift(level, 0.8)


LEVELS = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.241402727332055, 5.0, 20.0, 200.0]
# the root is negative wherever target < 2 Phibar(level), the crossing
# probability at drift 0: e.g. every target below 0.999 at level 1e-3
TARGETS = [1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.8, 0.999, 1 - 1e-9]


class TestClosedFormBrackets:
    """The reflection brackets both solvers start from hold, far roots included."""

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("level", LEVELS)
    def test_drift_bracket_and_residual(self, level, target):
        # the solver's own upper end: scipy's ndtri can differ from it by an
        # ulp, enough to put a root that sits on the bracket just outside
        lo = math.log(target / 2) / (2 * level)
        hi = level + _normal.ndtri(target)
        assert drift_crossing_prob(level, lo) < target <= drift_crossing_prob(level, hi)
        x = solve_crossing_drift(level, target)
        assert lo <= x <= hi
        assert abs(drift_crossing_prob(level, x) - target) < 1e-10

    @pytest.mark.parametrize("coarse", [False, True])
    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.05, 0.5, 0.999])
    def test_quantile_bracket_and_residual(self, p, coarse):
        # the bracket holds for the series cut off at eps, whose error bound
        # d = 4 eps / pi is min(p, 1 - p) / 2 in the coarse case
        eps = math.pi * min(p, 1 - p) / 8 if coarse else 1e-10
        d = 4 * eps / math.pi
        lo, hi = -float(ndtri((p + d) / 2)), -float(ndtri((p - d) / 8))
        assert sup_abs_bm_sf(lo, eps) >= p > sup_abs_bm_sf(hi, eps)
        x = sup_abs_bm_quantile(p, eps)
        assert lo <= x <= hi
        assert abs(sup_abs_bm_sf(x, eps) - p) < 1e-9

    @pytest.mark.parametrize("p,expected", [(0.9, 0.6963595876490836),
                                            (0.999, 0.41540576416874764)])
    def test_quantile_lower_end_floored_for_coarse_eps(self, p, expected):
        # p + 4 eps / pi >= 1 leaves no positive closed-form lower end; the
        # bisection starts from 1e-8, where the series is 1 for every eps
        with pytest.warns(UserWarning, match="outside"):
            x = sup_abs_bm_quantile(p, 0.5)
            assert abs(sup_abs_bm_sf(x, 0.5) - p) < 1e-9
        assert x == pytest.approx(expected, abs=1e-12)
