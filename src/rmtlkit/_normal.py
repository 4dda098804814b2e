"""Standard normal cdf, log-cdf and quantile on Python floats.

Every caller is scalar, so the standard library suffices: the cdf is a
complementary error function, and the quantile is Wichura's AS241 (Appl.
Stat. 37:477, 1988) as shipped in ``statistics.NormalDist.inv_cdf``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import DataValidationError

_STANDARD = NormalDist()
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def ndtr(x: float) -> float:
    """Phi(x), the standard normal cdf."""
    # x * sqrt(1/2), not x / sqrt(2): the far tails are conditioned on the
    # rounding of the argument, and this one matches scipy's ndtr
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def log_ndtr(x: float) -> float:
    """log Phi(x), accurate in both tails."""
    if x > 0.0:
        # log(Phi(x)) would round Phi(x) to 1 long before Phibar(x) underflows
        return math.log1p(-ndtr(-x))
    if x <= -20.0:
        # Phi(x) = phi(x)/(-x) * (1 - 1/x^2 + 3/x^4 - ...); at |x| >= 20 the
        # terms fall below rounding long before the series starts to diverge
        r, term, total, k = 1.0 / (x * x), 1.0, 0.0, 1
        while True:
            term *= -(2 * k - 1) * r
            if total + term == total:
                break
            total += term
            k += 1
        return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log1p(total)
    return math.log(ndtr(x))  # NaN lands here and passes through


def ndtri(p: float) -> float:
    """Phi^-1(p) for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DataValidationError(f"p must be in (0, 1), got {p!r}")
    return _STANDARD.inv_cdf(p)
