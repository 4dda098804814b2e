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
from .data_model import TwoGroupSample
from .errors import DataValidationError, DegenerateDataError, ExtrapolationWarning

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
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or tau <= 0:
        raise DataValidationError(f"tau must be a positive finite number, got {tau!r}")
    if tau > fn.last_observed:
        warnings.warn(
            f"tau={tau:g} exceeds the last observed time {fn.last_observed:g}; "
            "the step function is constant-extrapolated beyond the data",
            ExtrapolationWarning,
            stacklevel=_outside_package(),
        )
    return float(tau)


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
    area = float((vals * (ends - starts)).sum())
    # per interval, int_a^b t*v dt has the closed form v*(b^2 - a^2)/2
    area_t = float((vals * (ends**2 - starts**2)).sum() / 2.0)
    return tau, area, area_t


def rmtl(cif: StepFunction, tau: float) -> float:
    """Area under the CIF on [0, tau]: average time lost to the cause."""
    return _areas(cif, tau)[1]


def rmstc(km: StepFunction, tau: float) -> float:
    """Area under all-cause survival on [0, tau] (composite-endpoint RMST)."""
    return _areas(km, tau)[1]


def rmtl_ci(est: RmtlEstimate, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-approximation confidence interval, clipped to [0, tau]."""
    if not 0.0 < alpha < 1.0:
        raise DataValidationError(f"alpha must be in (0, 1), got {alpha!r}")
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
        variance=max(2.0 * tau * area - 2.0 * area_t - area * area, 0.0),
        n=int(n),
        tau=tau,
    )


def rmtl_difference(
    sample: TwoGroupSample,
    tau: float,
    require_events: bool = True,
) -> RmtlDifference:
    """RMTL difference (group 2 minus group 1) with its delta-method SE.

    Integrated once per sample and tau: a repeated call (the Diff and sDiff
    tests of one sample) checks tau against each group again and returns
    the same object. ``require_events``: a group with no event of interest
    before tau is degenerate.
    """
    cifs = sample.pooled.cifs
    known = isinstance(tau, (int, float))  # a hashable key; _check_tau rejects the rest
    diff = sample._differences.get(tau) if known else None
    if diff is None:
        first, second = (rmtl_estimate(cif, n, tau)
                         for cif, n in zip(cifs, sample.pooled.n_total))
        diff = RmtlDifference(
            delta=second.value - first.value,
            se=math.sqrt(first.variance / first.n + second.variance / second.n),
            tau=first.tau,
            groups=sample.groups,
            per_group=(first, second),
        )
        if known:
            sample._differences[tau] = diff
    else:
        for cif in cifs:
            _check_tau(cif, tau)
    if require_events:
        for label, cif in zip(sample.groups, cifs):
            if not (cif.times.size and cif.times[0] < diff.tau):
                raise DegenerateDataError(
                    f"group {label!r} has no events of interest before tau"
                )
    return diff


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
        raise DegenerateDataError(
            f"group {sample.groups[last.index(0.0)]!r} has its last event of "
            "interest at time 0; tau rule undefined"
        )
    return min(last)
