import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from rmtlkit import (
    DataValidationError,
    _normal,
    drift_crossing_prob,
    drift_crossing_prob_deriv,
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
        for x in np.linspace(1.2, 40.0, 389):
            got, want = sup_abs_bm_sf(float(x)), self.reflection_sf(float(x))
            assert got == pytest.approx(want, rel=1e-12, abs=np.finfo(float).tiny), x

    def test_tail_monotone(self):
        vals = np.array([sup_abs_bm_sf(float(x)) for x in np.linspace(6.0, 40.0, 3401)])
        steps = np.diff(vals)
        assert (steps <= 0).all()
        assert (steps[vals[1:] > np.finfo(float).tiny] < 0).all()

    @pytest.mark.parametrize("x0", [1.2, 6.0])
    def test_no_rise_across_a_series_switch(self, x0):
        # 1.2 is where the theta series hands over to the reflection series;
        # at 6 a series cut off at a tolerance once stepped up
        xs = np.concatenate([np.linspace(x0 - 1e-6, x0, 1001),
                             np.linspace(x0, x0 + 1e-6, 1001)[1:]])
        vals = np.array([sup_abs_bm_sf(float(x)) for x in xs])
        assert (np.diff(vals) <= 0).all()

    @staticmethod
    def theta_sf(x):
        """1 - (4/pi) sum_a (-1)^a exp(-pi^2 (2a+1)^2 / (8x^2)) / (2a+1),
        summed until the terms vanish."""
        total, a = 0.0, 0
        while True:
            term = math.exp(-math.pi**2 * (2 * a + 1) ** 2 / (8 * x * x)) / (2 * a + 1)
            if total + term == total:
                return 1.0 - 4.0 / math.pi * total
            total += (-1) ** a * term
            a += 1

    def test_theta_and_reflection_series_agree(self):
        # on the overlap of the two series around the switch at x = 1.2,
        # each summed to convergence independently of the library
        k = np.arange(60)
        for x in np.linspace(0.8, 2.0, 121):
            theta = self.theta_sf(float(x))
            reflection = 4.0 * float(np.sum((-1.0) ** k * ndtr(-(2 * k + 1) * x)))
            assert theta == pytest.approx(reflection, rel=1e-14, abs=0), x
            assert sup_abs_bm_sf(float(x)) == pytest.approx(theta, rel=1e-14, abs=0), x

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

    @pytest.mark.parametrize("p", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 0.01, 0.3, 0.7, 0.999])
    def test_relative_residual(self, p):
        assert sup_abs_bm_sf(sup_abs_bm_quantile(p)) == pytest.approx(p, rel=1e-11, abs=0)

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

    @pytest.mark.parametrize("power", [0.8, 0.9, 0.95])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_settled_to_machine_precision(self, alpha, power):
        # the design's drift: the crossing probability is met to rounding,
        # and an ulp of change in the critical value (its own rounding)
        # moves the drift by rounding only
        level = sup_abs_bm_quantile(alpha)
        x = solve_crossing_drift(level, power)
        assert abs(drift_crossing_prob(level, x) - power) <= 4 * math.ulp(power)
        for nearby in (math.nextafter(level, 0.0), math.nextafter(level, math.inf)):
            assert abs(solve_crossing_drift(nearby, power) - x) <= 1e-14 * x

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

    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.05, 0.5, 0.9, 0.999, 1 - 1e-9])
    def test_quantile_bracket_and_residual(self, p):
        # 2 Phibar(x) <= sf(x) <= 4 Phibar(x) puts the root between
        # Phibar^-1(p/2) and Phibar^-1(p/4), with the solver's own ndtri
        lo, hi = -_normal.ndtri(p / 2), -_normal.ndtri(p / 4)
        assert sup_abs_bm_sf(lo) >= p >= sup_abs_bm_sf(hi)
        x = sup_abs_bm_quantile(p)
        assert lo <= x <= hi
        assert abs(sup_abs_bm_sf(x) - p) < 1e-9
