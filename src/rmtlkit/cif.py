"""Kaplan-Meier survival and cumulative incidence estimation.

Both estimators are right-continuous step functions built from a risk
table. The CIF estimator is the nonparametric maximum likelihood one,

    I_j(t) = sum over event times t_i <= t of (d_ij / n_i) * S(t_{i-1}),

where S is the all-cause Kaplan-Meier curve. Pointwise variances for the
CIF use Aalen's delta-method estimator (the form given in Pintilie,
"Competing Risks: A Practical Perspective", eq. 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import EventCode, RiskTable, build_risk_table
from .errors import DataValidationError


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with pointwise variances.

    ``values[i]`` holds on [times[i], times[i+1]); before ``times[0]`` the
    function equals ``value_before_first`` (0 for a CIF, 1 for survival).
    """

    times: np.ndarray
    values: np.ndarray
    variances: np.ndarray
    value_before_first: float
    last_observed: float

    def value_at(self, t):
        """Evaluate by right-continuity: value at the largest knot <= t."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self._pick(self.values, idx, self.value_before_first)

    def variance_at(self, t):
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self._pick(self.variances, idx, 0.0)

    def _pick(self, arr, idx, before):
        idx = np.asarray(idx)
        if len(arr) == 0:
            out = np.full(idx.shape, before, dtype=float)
        else:
            out = np.where(idx >= 0, arr[np.clip(idx, 0, None)], before)
        if out.ndim == 0:
            return float(out)
        return out


def km_overall(rt: RiskTable) -> StepFunction:
    """All-cause Kaplan-Meier survival curve with Greenwood variances."""
    n = rt.at_risk.astype(float)
    d = (rt.events_interest + rt.events_competing).astype(float)
    surv = np.cumprod(1.0 - d / n)
    term = np.zeros_like(n)
    np.divide(d, n * (n - d), out=term, where=(n - d) > 0)
    var = surv**2 * np.cumsum(term)
    return StepFunction(
        times=rt.times.copy(),
        values=surv,
        variances=var,
        value_before_first=1.0,
        last_observed=rt.last_observed,
    )


def cif_estimate(rt: RiskTable, cause: EventCode) -> StepFunction:
    """Cumulative incidence of one cause, with Aalen pointwise variances.

    The returned step function has knots only at times where the chosen
    cause has events; the estimate (and its variance) is constant between
    those knots, so right-continuous evaluation elsewhere is exact.
    """
    if cause not in (EventCode.INTEREST, EventCode.COMPETING):
        raise DataValidationError("cause must be Interest or Competing")
    n = rt.at_risk.astype(float)
    dj = rt.events(cause).astype(float)
    d = (rt.events_interest + rt.events_competing).astype(float)
    surv = np.cumprod(1.0 - d / n)
    s_prev = np.concatenate(([1.0], surv[:-1]))
    if len(rt) and (d - dj).sum() == 0:
        # Single-cause data: the estimator collapses algebraically to the
        # Kaplan-Meier complement. Computing it that way keeps the identity
        # I_1 = 1 - KM exact in floating point, not just to rounding.
        inc = 1.0 - surv
    else:
        inc = np.cumsum((dj / n) * s_prev)
    var = _aalen_variance(n, d, dj, s_prev, inc)
    mask = dj > 0
    return StepFunction(
        times=rt.times[mask],
        values=inc[mask],
        variances=var[mask],
        value_before_first=0.0,
        last_observed=rt.last_observed,
    )


@dataclass(frozen=True)
class GroupFit:
    """One group's risk table and CIF of the event of interest.

    Every statistic of a two-group sample reads these, so each group is
    fitted once (``TwoGroupSample.fits``).
    """

    table: RiskTable
    cif: StepFunction

    @classmethod
    def from_arrays(cls, times, codes) -> "GroupFit":
        """Fit one group from its observed times and status codes."""
        table = build_risk_table(times, codes)
        return cls(table=table, cif=cif_estimate(table, EventCode.INTEREST))


def _aalen_variance(n, d, dj, s_prev, inc):
    """Aalen's variance of the CIF at every risk-table row.

    Written with cumulative sums so the triangular double sums cost O(K):
    sum_k (I_i - I_k)^2 a_k expands to I_i^2 A_i - 2 I_i (aI)_i + (aI^2)_i.
    All divisions are guarded; rows where a denominator hits zero (n_k = 1
    or n_k = d_k) contribute nothing, matching the plug-in limit.
    """
    a = np.zeros_like(n)
    den_a = (n - 1.0) * (n - d)
    np.divide(d, den_a, out=a, where=den_a > 0)

    b = np.zeros_like(n)
    den_b = (n - 1.0) * n**2
    np.divide((n - dj) * dj * s_prev**2, den_b, out=b, where=den_b > 0)

    c = np.zeros_like(n)
    den_c = n * (n - d) * (n - 1.0)
    np.divide(dj * (n - dj) * s_prev, den_c, out=c, where=den_c > 0)

    var = (
        inc**2 * np.cumsum(a)
        - 2.0 * inc * np.cumsum(a * inc)
        + np.cumsum(a * inc**2)
        + np.cumsum(b)
        - 2.0 * (inc * np.cumsum(c) - np.cumsum(c * inc))
    )
    return np.clip(var, 0.0, None)
