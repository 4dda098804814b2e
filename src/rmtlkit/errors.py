"""Exception and warning types shared across the toolkit."""


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
