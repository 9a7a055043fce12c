"""Exception types shared across the package."""


class WavedampError(Exception):
    """Base class for all package errors."""


class ConfigError(WavedampError):
    """Invalid experiment configuration. Carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class NumericalError(WavedampError):
    """Numerical failure: CFL violation, non-finite fields, solver breakdown."""


class ResolutionError(WavedampError):
    """Grid, sample count or horizon too coarse to resolve the requested mode or fit."""


class RegimeError(WavedampError):
    """Measurement gap too large for the truncation-order selection rule."""


class ObservabilityFailure(WavedampError):
    """A probe produced no usable boundary signal."""
