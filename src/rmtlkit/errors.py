"""Exception and warning types shared across the toolkit, and the checks
of its numeric parameters."""

import numbers
import operator


class RmtlError(Exception):
    """Base class for all toolkit errors."""


class DataValidationError(RmtlError):
    """Raised when input data or parameters fail validation."""


class DegenerateDataError(DataValidationError):
    """Raised when data are valid but carry no usable information
    (no events of interest, zero variance normalizer, ...)."""


class NumericError(RmtlError):
    """Raised when a numeric routine cannot produce a reliable result."""


class SolverError(NumericError):
    """Raised when a root-finding routine fails to converge."""


class ExtrapolationWarning(UserWarning, DataValidationError):
    """Emitted when a truncation time lies beyond the observed data range;
    raised as a DataValidationError under the "error" warnings filter."""


class SmallSampleWarning(UserWarning):
    """Emitted when a sample is too small for the normal approximation."""


class DegenerateDesignWarning(UserWarning):
    """Emitted when a sample-size computation degenerates (zero variance)."""


def _check_number(value, name: str, ok, what: str) -> float:
    """``value`` as a float: a real number, not a bool, for which ``ok``
    holds. Anything else raises "<name> must be <what>, got <value>"."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and ok(value):
        return float(value)
    raise DataValidationError(f"{name} must be {what}, got {value!r}")


def _check_int(value, name: str, least: int, what: str = "") -> int:
    """``value`` as a plain int: an integer that is not a bool (a numpy
    integer counts as its value) and is at least ``least``. Below it, the
    message says it must be ``what``, by default ">= least"."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise DataValidationError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise DataValidationError(f"{name} must be {what or f'>= {least}'}, got {n}")
    return n
