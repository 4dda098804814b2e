"""The standard-library normal cdf, log-cdf and quantile against scipy.

``scipy.special`` serves only as an oracle here. In the far lower tail both
implementations are limited by the conditioning of erfc (its relative error
grows like x^2 times the rounding of x), not by either code, so the bounds
widen there.
"""

import math

import numpy as np
import pytest
from scipy import special

from rmtlkit import DataValidationError, drift_crossing_prob
from rmtlkit._normal import log_ndtr, ndtr, ndtri


def _max_rel(ours, xs, oracle):
    got = np.array([ours(float(x)) for x in xs])
    want = oracle(xs)
    keep = want != 0.0
    return float(np.max(np.abs(got[keep] - want[keep]) / np.abs(want[keep])))


@pytest.mark.parametrize("lo,hi,bound", [(-5.0, 8.3, 4e-15), (-37.0, -5.0, 5e-13)])
def test_ndtr_matches_scipy(lo, hi, bound):
    xs = np.linspace(lo, hi, 20_001)
    assert _max_rel(ndtr, xs, special.ndtr) <= bound


@pytest.mark.parametrize("lo,hi,bound", [
    (-1000.0, -20.5, 1e-14),  # the asymptotic series
    (-20.5, -19.5, 1e-14),  # both sides of the switch at -20
    (-19.5, -0.5, 1e-14),
    (-0.5, 0.5, 1e-14),  # both sides of the switch at 0
    (0.5, 8.3, 1e-14),
    # log Phi(x) is -Phibar(x) to rounding here and inherits the lower
    # tail's conditioning, and the bound of ndtr there
    (8.3, 40.0, 5e-13),
])
def test_log_ndtr_matches_scipy(lo, hi, bound):
    xs = np.linspace(lo, hi, 20_001)
    assert _max_rel(log_ndtr, xs, special.log_ndtr) <= bound


def test_ndtri_within_8_ulp_of_scipy():
    rng = np.random.default_rng(15)
    ps = np.concatenate([
        rng.uniform(1e-15, 1.0 - 1e-15, 20_000),
        10.0 ** rng.uniform(-300.0, 0.0, 20_000),
        1.0 - 10.0 ** rng.uniform(-15.0, 0.0, 5_000),
    ])
    ps = ps[(ps >= 1e-300) & (ps <= 1.0 - 1e-15)]
    got = np.array([ndtri(float(p)) for p in ps])
    want = special.ndtri(ps)
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 8


def test_monotone_on_dense_grids():
    xs = np.linspace(-40.0, 40.0, 200_001)
    assert np.all(np.diff([ndtr(float(x)) for x in xs]) >= 0)
    xs = np.linspace(-1000.0, 40.0, 200_001)
    assert np.all(np.diff([log_ndtr(float(x)) for x in xs]) >= 0)
    ps = np.concatenate([np.logspace(-300, -1, 50_000),
                         np.linspace(0.1, 0.999, 50_000)[1:]])
    assert np.all(np.diff([ndtri(float(p)) for p in ps]) > 0)


@pytest.mark.parametrize("p", [0.0, 1.0, math.nan, -0.5, 1.5, math.inf])
def test_ndtri_outside_the_open_unit_interval_raises(p):
    with pytest.raises(DataValidationError):
        ndtri(p)


def test_exact_points_and_edges():
    assert ndtr(0.0) == 0.5 and ndtri(0.5) == 0.0
    assert log_ndtr(0.0) == math.log(0.5)
    assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0
    assert log_ndtr(-math.inf) == -math.inf and log_ndtr(math.inf) == 0.0
    assert math.isnan(ndtr(math.nan)) and math.isnan(log_ndtr(math.nan))
    assert all(type(v) is float for v in (ndtr(1.0), log_ndtr(-30.0), ndtri(0.3)))


def test_deep_lower_tail_stays_finite():
    # drift_crossing_prob(50, 49) needs log Phi(-99), far below where Phi underflows
    assert ndtr(-99.0) == 0.0
    assert math.isfinite(log_ndtr(-99.0))
    assert log_ndtr(-99.0) == pytest.approx(float(special.log_ndtr(-99.0)), rel=1e-14)
    expected = float(special.ndtr(-1.0)) + math.exp(
        2 * 50 * 49 + float(special.log_ndtr(-99.0))
    )
    assert drift_crossing_prob(50.0, 49.0) == pytest.approx(expected, rel=1e-12)
