"""Exception types shared across the package."""

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DimensionCapError",
    "FitError",
]


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


class ConvergenceError(RuntimeError):
    """A solver or truncation schedule failed to converge.

    Carries diagnostic state so callers never get a silent partial answer:
    ``residual`` for eigensolver failures, ``history`` (each step's
    GroundState) for truncation-schedule failures.
    """

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history


class DimensionCapError(RuntimeError):
    """Requested matrix exceeds the configured dimension cap."""


class FitError(RuntimeError):
    """A nonlinear fit failed or produced out-of-range parameters.

    ``diagnostics`` holds whatever the fitter can report (best parameters,
    residuals) for post-mortem inspection.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
