"""Numerics for the supremum of Brownian motion on [0, 1].

Covers the survival function of sup|M(t)| via its alternating series (the
reflection series in the far tail), its quantiles by bisection, the
crossing probability of a level by a drifted Brownian motion, and the
safeguarded Newton solve for the drift that achieves a target crossing
probability. Reflection brackets both roots in closed form:
2 Phibar(x) <= P[sup|M| > x] <= 4 Phibar(x), and
Phibar(u - eta) <= P[drifted BM crosses u] <= exp(2 u eta).
"""

from __future__ import annotations

import math
import warnings

from ._normal import log_ndtr, ndtr, ndtri
from .errors import DataValidationError, NumericError, SolverError

_MAX_TERMS = 1_000_000
# From here on P[sup|M| > x] is below 4e-9, so 1 - (4/pi) * (theta series)
# is all cancellation, and the reflection series is summed instead. The
# bisection brackets of the quantiles for p >= 1e-8 end below it.
_REFLECTION_FROM = 6.0
_DRIFT_TOL = 1e-10
_NEWTON_ITERATIONS = 100


def series_term_count(x: float, eps: float) -> int:
    """Minimum number of series terms for permissible error eps.

    Computed as ceil((x*sqrt(2)/pi) * sqrt(log(1/(pi*eps)) - 1/2)), floored
    at 1. Outside eps in (0, 1/pi) the rule is undefined; fall back to 1
    with a warning, since term-magnitude stopping still bounds the error.
    """
    if not (math.isfinite(x) and x > 0):
        raise DataValidationError(f"x must be positive and finite, got {x!r}")
    if not 0.0 < eps < 1.0 / math.pi:
        warnings.warn(
            f"eps={eps!r} outside (0, 1/pi); using m=1 and relying on "
            "term-magnitude stopping",
            stacklevel=2,
        )
        return 1
    inner = math.log(1.0 / (math.pi * eps)) - 0.5
    if inner <= 0.0:
        return 1
    return max(math.ceil(x * math.sqrt(2.0) / math.pi * math.sqrt(inner)), 1)


def _term_magnitude(a: int, x: float) -> float:
    return math.exp(-math.pi**2 * (2 * a + 1) ** 2 / (8.0 * x * x)) / (2 * a + 1)


def sup_abs_bm_sf(x: float, eps: float = 1e-10) -> float:
    """P[sup of |M(t)| over t in [0,1] > x] for standard Brownian motion M.

    Sums the alternating series to at least the term count from
    ``series_term_count`` and further until the next term's magnitude
    drops below eps; the result is clamped into [0, 1]. From x = 6 on, it
    sums the reflection series 4 sum_k (-1)^k Phibar((2k+1)x) instead, to
    full relative precision.
    """
    if not eps > 0:
        raise DataValidationError(f"eps must be positive, got {eps!r}")
    m = series_term_count(x, eps)
    if x >= _REFLECTION_FROM:
        total, sign, k = 0.0, 1.0, 1
        while True:
            term = ndtr(-k * x)
            if total + term == total:  # negligible, or an underflowed first term
                return 4.0 * total
            total += sign * term
            sign, k = -sign, k + 2
    total = 0.0
    a = 0
    while a < _MAX_TERMS:
        sign = 1.0 if a % 2 == 0 else -1.0
        total += sign * _term_magnitude(a, x)
        a += 1
        if a >= m and _term_magnitude(a, x) < eps:
            break
    else:
        raise NumericError(f"series did not converge within {_MAX_TERMS} terms")
    return min(max(1.0 - (4.0 / math.pi) * total, 0.0), 1.0)


def sup_abs_bm_quantile(p: float, eps: float = 1e-10) -> float:
    """Value x with sup_abs_bm_sf(x) = p, to within 1e-9 on the probability.

    Bisects on [Phibar^-1((p + d)/2), Phibar^-1((p - d)/8)]. One side alone
    crosses x with probability 2 Phibar(x) and, by the union bound, either
    side with at most 4 Phibar(x); the series cut off at eps is within
    d = 4 eps / pi of the exact sf, since its first omitted term is below
    eps. So the series is > p at the lower end and < (p + d)/2 at the upper
    (a factor-2 margin, as 4 Phibar is tight to about 1e-12) whenever d < p.
    A coarser eps leaves the upper end at Phibar^-1(p/8), where the cut-off
    series need not fall below p; the final check then reports the miss.
    """
    if not 0.0 < p < 1.0:
        raise DataValidationError(f"p must be in (0, 1), got {p!r}")
    d = 4.0 * eps / math.pi
    # -ndtri(q), not ndtri(1 - q), keeps the precision of small p; at 1e-8
    # the series is 1 for every eps
    lo = max(-ndtri(min(p + d, 1.0) / 2.0), 1e-8)
    hi = -ndtri((p - d if d < p else p) / 8.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sup_abs_bm_sf(mid, eps) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    x = 0.5 * (lo + hi)
    if abs(sup_abs_bm_sf(x, eps) - p) >= 1e-9:
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
    """
    if not (math.isfinite(level) and level > 0):
        raise DataValidationError(f"level must be positive and finite, got {level!r}")
    if not 0.0 < target < 1.0:
        raise DataValidationError(f"target must be in (0, 1), got {target!r}")

    lo = math.log(target / 2.0) / (2.0 * level)
    hi = x = level + ndtri(target)
    for _ in range(_NEWTON_ITERATIONS):
        f = drift_crossing_prob(level, x) - target
        if abs(f) < _DRIFT_TOL:
            return x
        if f < 0:
            lo = x
        else:
            hi = x
        deriv = drift_crossing_prob_deriv(level, x)
        x_new = x - f / deriv if deriv > 0 else None
        if x_new is None or not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise SolverError(
        f"drift solve did not converge within {_NEWTON_ITERATIONS} iterations"
    )
