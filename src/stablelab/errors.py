"""Exception types shared across the package."""


class StableLabError(Exception):
    """Base class for all package errors."""


class ParameterError(StableLabError, ValueError):
    """A scalar parameter is outside its admissible range."""


class CapacityError(StableLabError):
    """Requested array sizes exceed the desk-scale capacity guard."""


class AdmissibilityError(StableLabError):
    """A parameter combination violates an admissibility hypothesis."""


class ConvergenceError(StableLabError):
    """An iterative routine failed to converge.

    Carries the last iterate so callers can inspect stagnation.
    """

    def __init__(self, message, last_value=None, last_iterate=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_iterate = last_iterate


class DivergenceError(StableLabError):
    """A Neumann series cannot converge; carries the norm estimate."""

    def __init__(self, message, norm_estimate):
        super().__init__(message)
        self.norm_estimate = norm_estimate


class ConfigurationError(StableLabError):
    """An experiment configuration is invalid or unsafe to run."""


class QuadratureError(StableLabError):
    """A quadrature did not reach the requested accuracy."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics
