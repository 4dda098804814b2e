"""Numerics for the supremum of Brownian motion on [0, 1].

Covers the survival function of sup|M(t)| to full double precision, its
quantiles by bisection, the crossing probability of a level by a drifted
Brownian motion, and the safeguarded Newton solve for the drift that
achieves a target crossing probability. The survival function sums one of
two exact series, each a fixed few terms: the theta series
1 - (4/pi) sum_a (-1)^a exp(-pi^2 (2a+1)^2 / (8x^2)) / (2a+1) below
x = 1.2, and the reflection series 4 sum_k (-1)^k Phibar((2k+1)x) from
there on. Reflection brackets both roots in closed form:
2 Phibar(x) <= P[sup|M| > x] <= 4 Phibar(x), and
Phibar(u - eta) <= P[drifted BM crosses u] <= exp(2 u eta).
"""

from __future__ import annotations

import math

from ._normal import log_ndtr, ndtr, ndtri
from .errors import DataValidationError, NumericError, SolverError, _check_number

# Where the theta series hands over to the reflection series. The first
# omitted term is at most 1.7e-19 of the value on the theta side (3 terms)
# and at most 1e-39 on the reflection side (5 terms).
_SERIES_SWITCH = 1.2
_NEWTON_ITERATIONS = 100


def sup_abs_bm_sf(x: float) -> float:
    """P[sup of |M(t)| over t in [0,1] > x] for standard Brownian motion M.

    Below x = 1.2 it is the theta series to three terms; from 1.2 on, the
    reflection series 4 sum_{k<5} (-1)^k Phibar((2k+1)x), whose alternating
    terms fall fast enough that the far tail keeps full relative precision.
    Either is exact to double precision.
    """
    # checked inline, not by _check_number: the block kernel calls this once
    # per replication row, where a helper call per row costs measurable time
    if not (math.isfinite(x) and x > 0):
        raise DataValidationError(f"x must be positive and finite, got {x!r}")
    if x < _SERIES_SWITCH:
        c = math.pi**2 / (8.0 * x * x)
        total = 0.0
        for a in range(3):
            total += (-1) ** a * math.exp(-c * (2 * a + 1) ** 2) / (2 * a + 1)
        return 1.0 - (4.0 / math.pi) * total
    total = 0.0
    for k in range(5):
        total += (-1) ** k * ndtr(-(2 * k + 1) * x)
    return 4.0 * total


def sup_abs_bm_quantile(p: float) -> float:
    """Value x with sup_abs_bm_sf(x) = p, to within 1e-9 on the probability.

    Bisects on [Phibar^-1(p/2), Phibar^-1(p/4)]: one side alone crosses x
    with probability 2 Phibar(x) and, by the union bound, either side with
    at most 4 Phibar(x), so the sf is >= p at the lower end and <= p at the
    upper.
    """
    p = _check_number(p, "p", lambda p: 0.0 < p < 1.0, "in (0, 1)")
    # -ndtri(q), not ndtri(1 - q), keeps the precision of small p
    lo, hi = -ndtri(p / 2.0), -ndtri(p / 4.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sup_abs_bm_sf(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    x = 0.5 * (lo + hi)
    if abs(sup_abs_bm_sf(x) - p) >= 1e-9:
        raise NumericError(f"quantile solve did not reach 1e-9 at p={p}")
    return x


def drift_crossing_prob(level: float, drift: float) -> float:
    """Probability that Brownian motion with the given drift exceeds level.

    Phibar(level - drift) + exp(2*level*drift) * Phibar(level + drift),
    with the product term evaluated in log space so large level*drift
    cannot overflow. Clamped into [0, 1].
    """
    u, x = float(level), float(drift)
    val = ndtr(x - u) + math.exp(2.0 * u * x + log_ndtr(-(u + x)))
    return min(max(val, 0.0), 1.0)


def drift_crossing_prob_deriv(level: float, drift: float) -> float:
    """Derivative of drift_crossing_prob in the drift argument.

    Direct differentiation gives phi(u-x) + 2u*exp(2ux)*Phibar(u+x)
    - exp(2ux)*phi(u+x); the two density terms cancel identically because
    exp(2ux)*phi(u+x) = phi(u-x), leaving the single positive term.
    """
    u, x = float(level), float(drift)
    return 2.0 * u * math.exp(2.0 * u * x + log_ndtr(-(u + x)))


def solve_crossing_drift(level: float, target: float) -> float:
    """Drift at which the crossing probability equals target.

    P is strictly increasing in the drift for level u > 0, so the root is
    unique. It lies in [log(target/2)/(2u), u + Phi^-1(target)], because
    P(eta) <= exp(2u eta), the crossing probability on the whole half-line,
    and P(eta) >= Phibar(u - eta), that of the end point alone. Newton
    iteration from the upper end; a step leaving the bracket is bisected.
    It stops once the Newton step is at most 4 ulp of max(|eta|, u), the
    scale at which P itself is rounded, so the drift is settled to machine
    precision and does not follow rounding noise in ``level``.
    """
    level = _check_number(level, "level", lambda u: math.isfinite(u) and u > 0,
                          "positive and finite")
    target = _check_number(target, "target", lambda p: 0.0 < p < 1.0, "in (0, 1)")

    lo = math.log(target / 2.0) / (2.0 * level)
    hi = x = level + ndtri(target)
    for _ in range(_NEWTON_ITERATIONS):
        f = drift_crossing_prob(level, x) - target
        if f < 0:
            lo = x
        else:
            hi = x
        deriv = drift_crossing_prob_deriv(level, x)
        step = f / deriv if deriv > 0 else math.inf
        if abs(step) <= 4.0 * math.ulp(max(abs(x), level)):
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise SolverError(
        f"drift solve did not converge within {_NEWTON_ITERATIONS} iterations"
    )
