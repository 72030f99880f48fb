"""Exception types shared across the package."""

from __future__ import annotations


class RestartFomError(Exception):
    """Base class for package-specific errors."""


class ParameterError(RestartFomError, ValueError):
    """A scalar argument is outside its documented range; ``field`` names its record field."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class DimensionMismatchError(RestartFomError, ValueError):
    """A point's dimension does not match the owning problem's."""


class NonFiniteInputError(RestartFomError, ValueError):
    """A point contains NaN or infinite coordinates."""


class NonFiniteValueError(RestartFomError, ValueError):
    """A finite point gave a NaN or infinite value, or a trace record holds one."""


class UnsupportedQueryError(RestartFomError, RuntimeError):
    """The instance lacks the analytic structure needed to answer the query."""


class LineSearchStallError(RestartFomError, RuntimeError):
    """Backtracking failed to terminate within the hard trial cap.

    Indicates an inconsistent oracle (or a curvature estimate driven to
    overflow); carries the iterate index and the last curvature tried.
    """

    def __init__(self, iteration: int, curvature: float):
        self.iteration = iteration
        self.curvature = curvature
        super().__init__(
            f"line search exceeded the trial cap at iteration {iteration} "
            f"(curvature estimate reached {curvature:.3e})"
        )


class ConfigError(RestartFomError, ValueError):
    """An experiment configuration document is invalid.

    ``path`` locates the offending entry, e.g. ``"problem.kind"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
