"""Sample-size calculation for the basic and supremum RMTL tests.

The basic-test size comes from the usual two-sample normal formula. The
supremum-test size inflates it by the squared ratio of two drifts: the
drift solving the Brownian crossing equation at the supremum critical
value, over the drift z_{1-alpha/2} + z_{1-power} of the normal problem.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from ._normal import ndtri
from .brownian import solve_crossing_drift, sup_abs_bm_quantile
from .data_model import TwoGroupSample
from .errors import (DataValidationError, DegenerateDesignWarning, NumericError,
                     _check_number)
from .inference import TestMethod
from .rmtl import _check_alpha, rmtl_difference


@dataclass(frozen=True)
class DesignInput:
    """Planning quantities: assumed difference, per-group variances, ratio."""

    delta: float
    var1: float
    var2: float
    ratio: float = 1.0
    alpha: float = 0.05
    power: float = 0.8

    def __post_init__(self):
        delta = _check_number(self.delta, "delta", lambda d: True, "a real number")
        if not (math.isfinite(delta) and delta != 0.0):
            raise DataValidationError(
                "delta must be nonzero and finite: a zero assumed difference "
                "needs an infinite sample"
            )
        for name in ("var1", "var2"):
            _check_number(getattr(self, name), name, lambda v: math.isfinite(v) and v >= 0.0,
                          ">= 0")
        _check_number(self.ratio, "ratio", lambda r: math.isfinite(r) and r > 0.0, "> 0")
        _check_alpha(self.alpha)
        _check_number(self.power, "power", lambda p: 0.0 < p < 1.0, "in (0, 1)")


@dataclass(frozen=True)
class SampleSizeResult:
    """Designed sizes; drift fields are populated by the supremum method."""

    method: TestMethod
    n_total: int
    n1: int
    n2: int
    inflation: float
    drift: float | None = None
    drift_normal: float | None = None


@dataclass(frozen=True)
class PilotParameters:
    delta: float
    var1: float
    var2: float
    tau: float


def _raw_diff_n(inp: DesignInput) -> float:
    z = ndtri(1.0 - inp.alpha / 2.0) + ndtri(inp.power)
    r = inp.ratio
    spread, d2 = (1.0 + r) * z * z * (inp.var1 + inp.var2 / r), inp.delta * inp.delta
    if not d2:  # delta**2 underflows: the size is 0 only with no spread
        return math.inf if spread else 0.0
    return spread / d2


def _split(raw: float, inp: DesignInput) -> tuple[int, int]:
    # ceil per group, floored at 1 subject so a degenerate raw size of 0
    # still yields a reportable (flagged) design
    sizes = raw / (1.0 + inp.ratio), inp.ratio * raw / (1.0 + inp.ratio)
    if not all(map(math.isfinite, sizes)):
        raise NumericError(f"design size is not finite at delta={inp.delta!r}, "
                           f"var1={inp.var1!r}, var2={inp.var2!r}, ratio={inp.ratio!r}")
    n1, n2 = (max(math.ceil(size), 1) for size in sizes)
    return n1, n2


def _check_degenerate(inp: DesignInput):
    if inp.var1 == 0.0 and inp.var2 == 0.0:
        warnings.warn(
            "both variances are 0: the design is degenerate and the minimum "
            "group sizes are reported",
            DegenerateDesignWarning,
            stacklevel=3,
        )


def sample_size_diff(inp: DesignInput) -> SampleSizeResult:
    """Total and per-group sizes for the basic difference test."""
    _check_degenerate(inp)
    n1, n2 = _split(_raw_diff_n(inp), inp)
    return SampleSizeResult(
        method=TestMethod.DIFF, n_total=n1 + n2, n1=n1, n2=n2, inflation=1.0
    )


@lru_cache
def _sdiff_drifts(alpha: float, power: float) -> tuple[float, float, float]:
    """(drift, normal drift, inflation): all that depends on alpha and power
    alone, so a sweep over pilot taus solves for the drift once."""
    drift_normal = ndtri(1.0 - alpha / 2.0) + ndtri(power)
    drift = solve_crossing_drift(sup_abs_bm_quantile(alpha), power)
    return drift, drift_normal, (drift / drift_normal) ** 2


def sample_size_sdiff(inp: DesignInput) -> SampleSizeResult:
    """Sizes for the supremum test via the drift-ratio inflation factor."""
    _check_degenerate(inp)
    drift, drift_normal, inflation = _sdiff_drifts(inp.alpha, inp.power)
    n1, n2 = _split(inflation * _raw_diff_n(inp), inp)
    return SampleSizeResult(
        method=TestMethod.SDIFF,
        n_total=n1 + n2,
        n1=n1,
        n2=n2,
        inflation=inflation,
        drift=drift,
        drift_normal=drift_normal,
    )


def pilot_parameters(sample: TwoGroupSample, tau: float) -> PilotParameters:
    """Extract (delta, var1, var2) from pilot data at truncation tau."""
    diff = rmtl_difference(sample, tau)
    return PilotParameters(
        delta=diff.delta,
        var1=diff.per_group[0].variance,
        var2=diff.per_group[1].variance,
        tau=float(tau),
    )
