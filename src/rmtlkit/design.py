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

from ._normal import ndtri
from .brownian import solve_crossing_drift, sup_abs_bm_quantile
from .data_model import TwoGroupSample
from .errors import DataValidationError, DegenerateDesignWarning
from .inference import TestMethod
from .rmtl import rmtl_difference


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
        if not (math.isfinite(self.delta) and self.delta != 0.0):
            raise DataValidationError(
                "delta must be nonzero and finite: a zero assumed difference "
                "needs an infinite sample"
            )
        for name, value in (("var1", self.var1), ("var2", self.var2)):
            if not (math.isfinite(value) and value >= 0.0):
                raise DataValidationError(f"{name} must be >= 0, got {value!r}")
        if not (math.isfinite(self.ratio) and self.ratio > 0.0):
            raise DataValidationError(f"ratio must be > 0, got {self.ratio!r}")
        if not 0.0 < self.alpha < 1.0:
            raise DataValidationError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 < self.power < 1.0:
            raise DataValidationError(f"power must be in (0, 1), got {self.power!r}")


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
    return (1.0 + r) * z * z * (inp.var1 + inp.var2 / r) / (inp.delta * inp.delta)


def _split(raw: float, ratio: float) -> tuple[int, int]:
    # ceil per group, floored at 1 subject so a degenerate raw size of 0
    # still yields a reportable (flagged) design
    n1 = max(math.ceil(raw / (1.0 + ratio)), 1)
    n2 = max(math.ceil(ratio * raw / (1.0 + ratio)), 1)
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
    n1, n2 = _split(_raw_diff_n(inp), inp.ratio)
    return SampleSizeResult(
        method=TestMethod.DIFF, n_total=n1 + n2, n1=n1, n2=n2, inflation=1.0
    )


def sample_size_sdiff(inp: DesignInput, eps: float = 1e-10) -> SampleSizeResult:
    """Sizes for the supremum test via the drift-ratio inflation factor."""
    _check_degenerate(inp)
    drift_normal = ndtri(1.0 - inp.alpha / 2.0) + ndtri(inp.power)
    critical = sup_abs_bm_quantile(inp.alpha, eps)
    drift = solve_crossing_drift(critical, inp.power)
    inflation = (drift / drift_normal) ** 2
    n1, n2 = _split(inflation * _raw_diff_n(inp), inp.ratio)
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
