"""Two-sample tests for the RMTL difference.

The basic test (Diff) refers the standardized difference to a normal law.
The supremum test (sDiff) tracks the partial difference process over the
pooled event-time grid and refers its normalized supremum to the
distribution of sup|M(t)| for standard Brownian motion M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._normal import ndtr
from .brownian import sup_abs_bm_sf
from .data_model import TwoGroupSample
from .errors import DataValidationError, DegenerateDataError
from .rmtl import RmtlDifference, rmtl_difference


class TestMethod(str, Enum):
    DIFF = "diff"
    SDIFF = "sdiff"


@dataclass(frozen=True)
class TestResult:
    method: TestMethod
    statistic: float
    p_value: float
    delta: RmtlDifference
    alpha: float
    reject: bool


@dataclass(frozen=True)
class PartialDifferenceProcess:
    """Partial RMTL-difference process on the pooled event-time grid.

    ``values[r]`` is the partial difference accumulated through the grid
    interval starting at ``times[r]``; ``widths[r]`` is that interval's
    length, with the final interval clipped at tau. Variances are the
    per-group CIF variances evaluated at the grid times. ``delta`` is the
    whole-window RMTL difference at the same tau.
    """

    times: np.ndarray
    widths: np.ndarray
    values: np.ndarray
    var_first: np.ndarray
    var_second: np.ndarray
    tau: float
    rho: float
    sigma_tau: float
    delta: RmtlDifference


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise DataValidationError(f"alpha must be in (0, 1), got {alpha!r}")
    return float(alpha)


def diff_test(
    sample: TwoGroupSample,
    tau: float,
    alpha: float = 0.05,
) -> TestResult:
    """Normal-approximation test of zero RMTL difference."""
    alpha = _check_alpha(alpha)
    delta = rmtl_difference(sample, tau, require_events=False)
    if delta.se == 0.0:
        raise DegenerateDataError(
            "zero standard error: no usable events of interest in either group"
        )
    z = delta.delta / delta.se
    p = min(2.0 * ndtr(-abs(z)), 1.0)
    return TestResult(
        method=TestMethod.DIFF,
        statistic=z,
        p_value=p,
        delta=delta,
        alpha=alpha,
        reject=p < alpha,
    )


def partial_process(
    sample: TwoGroupSample, tau: float, rho: float = 0.5
) -> PartialDifferenceProcess:
    """Partial difference process, its grid, and the pooled normalizer.

    The grid is the sample's pooled event times (both causes, both groups),
    restricted to strictly below tau (a knot at tau would start a
    zero-width interval). Each CIF and its variance are read from the
    pooled fit, which holds them by right-continuity at every grid time.
    """
    if not 0.0 <= rho <= 1.0:
        raise DataValidationError(f"rho must be in [0, 1], got {rho!r}")
    delta = rmtl_difference(sample, tau, require_events=False)
    tau = delta.tau
    pooled = sample.pooled
    k = int(np.count_nonzero(pooled.times < tau))
    if k == 0:
        raise DegenerateDataError(f"no event times before tau={tau:g}")
    grid = pooled.times[:k]
    widths = np.concatenate((grid[1:], [tau])) - grid
    values = np.cumsum((pooled.values[1, :k] - pooled.values[0, :k]) * widths)
    var_first, var_second = pooled.variances[:, :k]
    sigma = _sigma_tau(widths, var_first + var_second, rho)
    return PartialDifferenceProcess(
        times=grid,
        widths=widths,
        values=values,
        var_first=var_first,
        var_second=var_second,
        tau=tau,
        rho=float(rho),
        sigma_tau=sigma,
        delta=delta,
    )


def _sigma_tau(widths: np.ndarray, var_sum: np.ndarray, rho: float) -> float:
    """Normalizer combining interval lengths and summed CIF variances.

    With s_i = w_i * sqrt(v_i), the defining double sum
    sum(s_i^2) + 2*rho*sum_{i<i'} s_i*s_i' equals
    (1 - rho)*sum(s_i^2) + rho*(sum(s_i))^2, which costs O(K).
    """
    s = widths * np.sqrt(var_sum)
    sq = float(np.dot(s, s))
    total = float(s.sum())
    return math.sqrt(max((1.0 - rho) * sq + rho * total * total, 0.0))


def sdiff_test(
    sample: TwoGroupSample,
    tau: float,
    alpha: float = 0.05,
    rho: float = 0.5,
) -> TestResult:
    """Supremum test of zero RMTL difference over the whole window."""
    alpha = _check_alpha(alpha)
    process = partial_process(sample, tau, rho=rho)
    if process.sigma_tau == 0.0:
        raise DegenerateDataError(
            "zero normalizer: all CIF variances vanish on the grid"
        )
    statistic = float(np.max(np.abs(process.values))) / process.sigma_tau
    if statistic == 0.0:
        p = 1.0
    else:
        p = sup_abs_bm_sf(statistic)
    return TestResult(
        method=TestMethod.SDIFF,
        statistic=statistic,
        p_value=p,
        delta=process.delta,
        alpha=alpha,
        reject=p < alpha,
    )
