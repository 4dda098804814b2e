"""Restricted mean time lost: point estimates, variances, differences.

The RMTL for the cause of interest is the area under its CIF on [0, tau];
the companion RMSTc is the area under all-cause survival. Areas are exact
step-function integrals, never quadrature, so results are bit-stable.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .cif import StepFunction
from .data_model import EventCode, TwoGroupSample
from .errors import (DataValidationError, DegenerateDataError, ExtrapolationWarning,
                     _check_number)

_PACKAGE = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class RmtlEstimate:
    """RMTL point estimate with its per-subject plug-in variance."""

    value: float
    variance: float
    n: int
    tau: float


@dataclass(frozen=True)
class RmtlDifference:
    """Between-group RMTL difference, group 2 minus group 1."""

    delta: float
    se: float
    tau: float
    groups: tuple[str, str]
    per_group: tuple[RmtlEstimate, RmtlEstimate]


def _check_tau(fn: StepFunction, tau: float) -> float:
    tau = _check_number(tau, "tau", lambda t: math.isfinite(t) and t > 0,
                        "a positive finite number")
    if tau > fn.last_observed:
        warnings.warn(
            f"tau={tau:g} exceeds the last observed time {fn.last_observed:g}; "
            "the step function is constant-extrapolated beyond the data",
            ExtrapolationWarning,
            stacklevel=_outside_package(),
        )
    return tau


def _outside_package() -> int:
    """``stacklevel`` of the first calling frame outside this package, for a
    warning raised by this module's caller: public functions reach the
    check through different depths of the package's own calls."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    return level


def _areas(fn: StepFunction, tau: float) -> tuple[float, float, float]:
    """(checked tau, int f, int t*f): exact integrals of step function f on [0, tau]."""
    tau = _check_tau(fn, tau)
    k = int(fn.times.searchsorted(tau))
    starts = np.concatenate(([0.0], fn.times[:k]))
    ends = np.concatenate((fn.times[:k], [tau]))
    vals = np.concatenate(([fn.value_before_first], fn.values[:k]))
    area, area_t = _step_integrals(vals, starts, ends)
    return tau, float(area), float(area_t)


def _step_integrals(values, starts, ends):
    """int f and int t*f of the step function equal to ``values`` on
    [``starts``, ``ends``), interval by interval along the last axis."""
    area = (values * (ends - starts)).sum(axis=-1)
    # per interval, int_a^b t*v dt has the closed form v*(b^2 - a^2)/2
    area_t = (values * (ends**2 - starts**2)).sum(axis=-1) / 2.0
    return area, area_t


def _plug_in_variance(tau, area, area_t):
    """Per-subject plug-in variance of an RMTL from int I and int t*I on
    [0, tau]: 2*tau*int(I) - 2*int(t*I) - int(I)^2, rounding residue
    clipped at zero."""
    return np.maximum(2.0 * tau * area - 2.0 * area_t - area * area, 0.0)


def rmtl(cif: StepFunction, tau: float) -> float:
    """Area under the CIF on [0, tau]: average time lost to the cause."""
    return _areas(cif, tau)[1]


def rmstc(km: StepFunction, tau: float) -> float:
    """Area under all-cause survival on [0, tau] (composite-endpoint RMST)."""
    return _areas(km, tau)[1]


def _check_alpha(alpha: float) -> float:
    return _check_number(alpha, "alpha", lambda a: 0.0 < a < 1.0, "in (0, 1)")


def rmtl_ci(est: RmtlEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-approximation confidence interval, clipped to [0, tau]."""
    _check_alpha(alpha)
    if est.n < 2:
        raise DataValidationError("confidence interval needs group size n >= 2")
    half = ndtri(1.0 - alpha / 2.0) * math.sqrt(est.variance / est.n)
    return max(est.value - half, 0.0), min(est.value + half, est.tau)


def rmtl_estimate(cif: StepFunction, n: int, tau: float) -> RmtlEstimate:
    """RMTL of the event of interest for one group of ``n`` subjects, from
    that group's CIF.

    The per-subject plug-in variance is 2*tau*int(I) - 2*int(t*I) - int(I)^2,
    both integrals exact over the step function; rounding residue is
    clipped at zero.
    """
    tau, area, area_t = _areas(cif, tau)
    return RmtlEstimate(
        value=area,
        variance=float(_plug_in_variance(tau, area, area_t)),
        n=int(n),
        tau=tau,
    )


def rmtl_difference(
    sample: TwoGroupSample,
    tau: float,
    require_events: bool = True,
) -> RmtlDifference:
    """RMTL difference (group 2 minus group 1) with its delta-method SE.

    Each call integrates both groups' CIFs from the sample's one pooled fit
    on [0, tau], checking tau against each group. ``require_events``: a
    group with no event of interest before tau is degenerate.
    """
    cifs = sample.pooled.cifs
    first, second = (rmtl_estimate(cif, n, tau) for cif, n in zip(cifs, sample.pooled.n_total))
    if require_events:
        for label, cif in zip(sample.groups, cifs):
            if not (cif.times.size and cif.times[0] < first.tau):
                raise DegenerateDataError(
                    f"group {label!r} has no events of interest before tau"
                )
    return RmtlDifference(
        delta=second.value - first.value,
        se=math.sqrt(first.variance / first.n + second.variance / second.n),
        tau=first.tau, groups=sample.groups, per_group=(first, second))


def default_tau(sample: TwoGroupSample) -> float:
    """Truncation time rule: min over groups of the last event of interest."""
    last = []
    for label, cif in zip(sample.groups, sample.pooled.cifs):
        if len(cif.times) == 0:
            raise DegenerateDataError(
                f"group {label!r} has no events of interest; tau rule undefined"
            )
        last.append(float(cif.times[-1]))
    if min(last) == 0.0:
        raise _tau_at_zero(sample.groups[last.index(0.0)])
    return min(last)


def _block_taus(times, codes, sizes, groups) -> np.ndarray:
    """``default_tau`` of every row of (R, N) two-group draws whose first
    ``sizes[0]`` subjects are group 0. Each row needs an event of interest
    in each group; a row whose tau is 0 raises as ``default_tau`` does."""
    # np.where(interest, times, 0) for nonnegative times, without its slow branch
    interest = times * (codes == int(EventCode.INTEREST))
    last = np.maximum.reduceat(interest, [0, sizes[0]], axis=1)
    tau = last.min(axis=1)
    if not tau.all():
        raise _tau_at_zero(groups[int((last[(tau == 0).argmax()] == 0).argmax())])
    return tau


def _tau_at_zero(label: str) -> DegenerateDataError:
    return DegenerateDataError(f"group {label!r} has its last event of interest at time 0; "
                               "tau rule undefined")
