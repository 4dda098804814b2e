"""Two-sample tests for the RMTL difference.

The basic test (Diff) refers the standardized difference to a normal law.
The supremum test (sDiff) tracks the partial difference process over the
pooled event-time grid and refers its normalized supremum to the
distribution of sup|M(t)| for standard Brownian motion M.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._normal import ndtr
from .brownian import sup_abs_bm_sf
from .cif import BlockFit
from .data_model import TwoGroupSample
from .errors import DegenerateDataError, _check_number
from .rmtl import (
    RmtlDifference,
    _check_alpha,
    _plug_in_variance,
    _step_integrals,
    rmtl_difference,
)


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


def _check_rho(rho: float) -> float:
    return _check_number(rho, "rho", lambda r: 0.0 <= r <= 1.0, "in [0, 1]")


def _diff_p(z: float) -> float:
    """Two-sided normal p-value of Diff's statistic."""
    return min(2.0 * ndtr(-abs(z)), 1.0)


def _sdiff_p(statistic: float) -> float:
    """P[sup|M| > statistic], 1 at a statistic of 0."""
    return 1.0 if statistic == 0.0 else sup_abs_bm_sf(statistic)


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
    p = _diff_p(z)
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
    rho = _check_rho(rho)
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
    s = widths * np.sqrt(var_first + var_second)
    sigma = float(_sigma_tau(float(np.dot(s, s)), float(s.sum()), rho))
    return PartialDifferenceProcess(
        times=grid,
        widths=widths,
        values=values,
        var_first=var_first,
        var_second=var_second,
        tau=tau,
        rho=rho,
        sigma_tau=sigma,
        delta=delta,
    )


def _sigma_tau(sq, total, rho: float):
    """Normalizer combining interval lengths w_i and summed CIF variances
    v_i, from sq = sum(s_i^2) and total = sum(s_i), s_i = w_i * sqrt(v_i).

    The defining double sum sum(s_i^2) + 2*rho*sum_{i<i'} s_i*s_i' equals
    (1 - rho)*sum(s_i^2) + rho*(sum(s_i))^2, which costs O(K).
    """
    return np.sqrt(np.maximum((1.0 - rho) * sq + rho * total * total, 0.0))


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
    p = _sdiff_p(statistic)
    return TestResult(
        method=TestMethod.SDIFF,
        statistic=statistic,
        p_value=p,
        delta=process.delta,
        alpha=alpha,
        reject=p < alpha,
    )


def _block_tests(fit: BlockFit, tau, methods, rho: float):
    """The selected tests at ``tau[r]`` on every row r of a two-group block
    fit, as arrays over the rows.

    Returns, for each method, (statistic, p-value, degenerate), the first
    two NaN where degenerate. Row r gets what ``diff_test`` and
    ``sdiff_test`` give sample r at ``tau[r]``, up to the order in which
    sums are taken, and is degenerate where they raise: Diff at a zero
    standard error, sDiff with no grid time below tau or a zero
    normalizer. Each ``tau[r]`` must be at or before one of row r's grid
    times, as ``rmtl._block_taus`` is.
    """
    # Clipped at tau, every row's grid times end at tau (a grid time is at
    # or after it), and those from tau on, padding included, start
    # intervals of width 0. The CIFs are step functions on the grid, so
    # Diff's areas are integrals over it.
    clipped = np.minimum(fit.grid_times, tau[:, None])
    starts, ends = clipped[:, :-1], clipped[:, 1:]
    values, variances = fit.values[..., :-1], fit.variances[..., :-1]
    results = {}
    if TestMethod.DIFF in methods:
        area, area_t = _step_integrals(values, starts, ends)
        var = _plug_in_variance(tau, area, area_t) / fit.n_total[:, None]
        se = np.sqrt(var[0] + var[1])
        ok = se > 0.0
        z = np.divide(area[1] - area[0], se, out=np.full_like(se, np.nan), where=ok)
        results[TestMethod.DIFF] = (z, _p_values(_diff_p, z, ok), ~ok)
    if TestMethod.SDIFF in methods:
        widths = ends - starts
        process = ((values[1] - values[0]) * widths).cumsum(axis=-1)
        s = widths * np.sqrt(variances[0] + variances[1])
        # with no grid time below tau every width is 0, and so is sigma
        sigma = _sigma_tau(np.einsum("ij,ij->i", s, s), s.sum(axis=-1), rho)
        ok = sigma > 0.0
        statistic = np.divide(np.abs(process).max(axis=-1, initial=0.0), sigma,
                              out=np.full_like(sigma, np.nan), where=ok)
        results[TestMethod.SDIFF] = (statistic, _p_values(_sdiff_p, statistic, ok), ~ok)
    return results


def _p_values(p_value, statistics, ok):
    """``p_value`` of each statistic where ``ok``, NaN elsewhere."""
    p = np.full_like(statistics, np.nan)
    p[ok] = [p_value(x) for x in statistics[ok].tolist()]
    return p
