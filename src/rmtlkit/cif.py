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
from typing import NamedTuple

import numpy as np

from .data_model import EventCode, RiskTable, _tabulate, build_risk_table
from .errors import DataValidationError


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function.

    ``values[i]`` holds on [times[i], times[i+1]); before ``times[0]`` the
    function equals ``value_before_first`` (0 for a CIF, 1 for survival).
    A CIF carries its Aalen ``variances``; the Kaplan-Meier curve has None.
    """

    times: np.ndarray
    values: np.ndarray
    value_before_first: float
    last_observed: float
    variances: np.ndarray | None = None


def _survival(n, d):
    """All-cause Kaplan-Meier survival at every risk-table row (n >= 1 there)."""
    return (1.0 - d / n).cumprod(axis=-1)


def _incidence(n, dj, dk):
    """CIF of one cause and its Aalen variance at every risk-table row, from
    at-risk counts n and the events dj of that cause and dk of the other.
    Rows run along the last axis; each leading index is a separate fit."""
    d = dj + dk
    surv = _survival(n, d)
    # survival just before each row
    s_prev = np.concatenate((np.ones(surv.shape[:-1] + (1,)), surv), axis=-1)[..., :-1]
    # Single-cause data: the estimator collapses algebraically to the
    # Kaplan-Meier complement. Computing it that way keeps the identity
    # I_1 = 1 - KM exact in floating point, not just to rounding.
    single = ~dk.any(axis=-1, keepdims=True)
    inc = (dj / n * s_prev).cumsum(axis=-1)
    if single.any():
        inc = np.where(single, 1.0 - surv, inc)
    return inc, _aalen_variance(n, d, dj, s_prev, inc)


def km_overall(rt: RiskTable) -> StepFunction:
    """All-cause Kaplan-Meier survival curve (values only, no variances)."""
    d = (rt.events_interest + rt.events_competing).astype(float)
    return StepFunction(times=rt.times.copy(), values=_survival(rt.at_risk.astype(float), d),
                        value_before_first=1.0, last_observed=rt.last_observed)


def cif_estimate(rt: RiskTable, cause: EventCode) -> StepFunction:
    """Cumulative incidence of one cause, with Aalen pointwise variances.

    The returned step function has knots only at times where the chosen
    cause has events; the estimate (and its variance) is constant between
    those knots, so right-continuous evaluation elsewhere is exact.
    """
    if cause not in (EventCode.INTEREST, EventCode.COMPETING):
        raise DataValidationError("cause must be Interest or Competing")
    dj, dk = ((rt.events_interest, rt.events_competing) if cause == EventCode.INTEREST
              else (rt.events_competing, rt.events_interest))
    inc, var = _incidence(rt.at_risk.astype(float), dj.astype(float), dk.astype(float))
    mask = dj > 0
    return StepFunction(times=rt.times[mask], values=inc[mask], variances=var[mask],
                        value_before_first=0.0, last_observed=rt.last_observed)


@dataclass(frozen=True)
class PooledFit:
    """Interest CIFs of several groups, also held on one pooled grid.

    ``tables`` holds each group's risk table and ``cifs`` the interest CIF
    fitted from it, with knots at the group's own events of interest.
    ``times`` holds the distinct event times (either cause) of all groups
    together. ``values`` and ``variances`` have one row per group and one
    column per pooled time: each group's CIF and its Aalen variance read
    from ``cifs`` by right-continuity there (0 before the group's first
    event of interest). ``n_total`` holds the group sizes.
    """

    times: np.ndarray
    values: np.ndarray
    variances: np.ndarray
    cifs: tuple[StepFunction, ...]
    n_total: np.ndarray
    tables: tuple[RiskTable, ...]

    @classmethod
    def from_arrays(cls, times, codes, group, n_groups: int) -> "PooledFit":
        """Fit every group from all subjects' times, codes and group indices."""
        tables = []
        for g in range(n_groups):
            rows = np.flatnonzero(group == g)  # faster than a boolean mask here
            tables.append(build_risk_table(times.take(rows), codes.take(rows)))
        cifs = tuple(cif_estimate(table, EventCode.INTEREST) for table in tables)
        grid = np.unique(np.concatenate([table.times for table in tables]))
        # each pooled time reads the CIF and variance at the group's last
        # knot at or before it: the count of such knots indexes the knot
        # values after a leading 0, the value before the first knot
        at = [cif.times.searchsorted(grid, side="right") for cif in cifs]
        values = np.array([np.append(0.0, cif.values).take(k) for cif, k in zip(cifs, at)])
        variances = np.array([np.append(0.0, cif.variances).take(k)
                              for cif, k in zip(cifs, at)])
        n_total = np.array([table.n_total for table in tables])
        return cls(grid, values, variances, cifs, n_total, tuple(tables))


class BlockFit(NamedTuple):
    """The pooled fits of a block of samples with equal groups, row r that
    of sample r, in arrays whose leading index is the group, as
    ``_block_fits`` makes them in one pass over all groups.

    Row r's pooled grid is ``grid_times[r]`` up to its first +inf, with
    each group's CIF and Aalen variance there in ``values[k, r]`` and
    ``variances[k, r]``: bitwise the arrays of ``PooledFit.from_arrays`` of
    sample r. Padding times are +inf, and padding values and variances 0.
    ``n_total`` holds the group sizes.
    """

    grid_times: np.ndarray
    values: np.ndarray
    variances: np.ndarray
    n_total: np.ndarray


def _left_aligned(counts, columns, fill):
    """``columns`` of entries held row after row, ``counts[r]`` of them in
    row r, laid out in a (C, R, m) array: row r's entries left-aligned in
    ``out[:, r]``, m the largest count, the rest ``fill`` (one value per
    column). Also returns the (R, m) mask of the cells the entries took."""
    filled = np.arange(counts.max()) < counts[:, None]
    out = np.empty((len(columns),) + filled.shape)
    for table, column, value in zip(out, columns, fill):
        table.fill(value)
        table[filled] = column
    return out, filled


def _block_fits(times, codes, sizes) -> BlockFit:
    """The pooled fit of each row of a block of samples with equal groups.

    ``times`` and ``codes`` are (R, N) arrays, one sample per row: its
    first ``sizes[0]`` subjects are group 0, the next ``sizes[1]`` group 1,
    and so on. All groups of all rows go through each step once, with no
    loop over groups: one ``_tabulate``, one (G·R, m) layout of the risk
    tables (m the most rows of any; the rest of a row is padding that no
    fitted value reads, as the fit runs cumulative sums and products along
    rows) and one ``_incidence``. Each CIF and variance is then read on its
    row's pooled grid, in the layout ``BlockFit`` describes. Tau comes from
    ``rmtl._block_taus``.
    """
    n_rows, width = times.shape
    order = times.argsort(axis=-1)
    # int8 labels: their stable sort below is a radix sort
    g = np.repeat(np.arange(len(sizes), dtype=np.int8), sizes).take(order)
    order += np.arange(0, times.size, width)[:, None]  # flat indices
    t, c = times.take(order), codes.take(order)
    # the pooled grid: the last position of each run of tied times that
    # holds an event (the latest event time so far is the run's own time)
    grid = np.ones(t.shape, dtype=bool)
    np.not_equal(t[:, 1:], t[:, :-1], out=grid[:, :-1])
    grid &= np.maximum.accumulate(np.where(c > 0, t, -1.0), axis=-1) == t
    (grid_times,), filled = _left_aligned(grid.sum(axis=-1), (t[grid],), (np.inf,))
    before = grid.cumsum(axis=-1) - grid  # grid positions before each, in its row
    # every group's sorted subjects, group after group, row after row within
    # each: sample k * R + r is group k of row r
    pick = g.ravel().argsort(kind="stable")
    bounds = np.concatenate(([0], np.repeat(sizes, n_rows).cumsum()))
    sample, starts, at_risk, dj, dk = _tabulate(t.take(pick), c.take(pick), bounds)
    # padding has 1 at risk and no events
    table, cells = _left_aligned(np.bincount(sample, minlength=len(bounds) - 1),
                                 (at_risk, dj, dk), (1.0, 0.0, 0.0))
    inc, var = _incidence(*table)
    # Each knot (a table row with an event of interest) puts its table cell
    # + 1 in its grid cell, as its run of tied times ends at the next grid
    # position; other table rows put 0. Filled forward along rows, this reads
    # each grid time at the group's last knot at or before it, as from_arrays
    # does, and at entry 0 (0, the value before a first knot) where there is
    # none, or in padding.
    number = cells.ravel().nonzero()[0] + 1
    number *= dj > 0
    at = np.zeros((len(sizes),) + grid_times.shape, dtype=np.intp)
    at.put(sample * grid_times.shape[-1] + before.take(pick.take(starts)), number)
    np.maximum.accumulate(at, axis=-1, out=at)
    at *= filled
    return BlockFit(grid_times, np.concatenate(([0.0], inc.ravel())).take(at),
                    np.concatenate(([0.0], var.ravel())).take(at), np.array(sizes))


def _aalen_variance(n, d, dj, s_prev, inc):
    """Aalen's variance of the CIF at every risk-table row.

    Written with cumulative sums so the triangular double sums cost O(K):
    sum_k (I_i - I_k)^2 a_k expands to I_i^2 A_i - 2 I_i (aI)_i + (aI^2)_i.
    The three per-row terms a, b, c are divided in one guarded call and
    the six running sums taken in one cumsum. Rows where a denominator hits
    zero (n_k <= 1 or n_k = d_k) contribute nothing, matching the plug-in
    limit. Every step writes into one of three buffers: fresh temporaries
    of this size would each be mapped and faulted in again.
    """
    terms = np.empty((6,) + n.shape)  # a, b, c, a*I, a*I^2, c*I
    den = np.empty((3,) + n.shape)
    t = np.empty(n.shape)
    num = terms[:3]
    num[0] = d
    np.subtract(n, dj, out=t)
    np.multiply(t, dj, out=t)  # (n - dj) dj
    np.square(s_prev, out=num[1])
    np.multiply(t, num[1], out=num[1])
    np.multiply(t, s_prev, out=num[2])
    np.subtract(n, 1.0, out=t)
    np.subtract(n, d, out=den[2])
    np.multiply(t, den[2], out=den[0])  # (n - 1)(n - d)
    np.multiply(n, den[2], out=den[2])
    np.multiply(den[2], t, out=den[2])  # n (n - d) (n - 1)
    np.square(n, out=den[1])
    np.multiply(t, den[1], out=den[1])  # (n - 1) n^2
    positive = den > 0
    np.divide(num, den, out=num, where=positive)
    np.copyto(num, 0.0, where=~positive)
    a, b, c = num
    np.square(inc, out=t)  # I^2
    np.multiply(a, inc, out=terms[3])
    np.multiply(a, t, out=terms[4])
    np.multiply(c, inc, out=terms[5])
    np.add.accumulate(terms, axis=-1, out=terms)
    sum_a, sum_b, sum_c, sum_ai, sum_ai2, sum_ci = terms
    # I^2 A - 2 I (aI) + (aI^2) + B - 2 (I C - (cI)), in this order
    var, u = den[0], den[1]
    np.multiply(t, sum_a, out=var)
    np.multiply(inc, 2.0, out=u)
    np.multiply(u, sum_ai, out=u)
    np.subtract(var, u, out=var)
    np.add(var, sum_ai2, out=var)
    np.add(var, sum_b, out=var)
    np.multiply(inc, sum_c, out=u)
    np.subtract(u, sum_ci, out=u)
    np.multiply(u, 2.0, out=u)
    np.subtract(var, u, out=var)
    return np.maximum(var, 0.0)
