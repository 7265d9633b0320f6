"""Exception hierarchy.

Separate classes per failure mode so callers can distinguish bad input
(shape, grid, schedule) from mathematical degeneracy (rank loss, singular
operators) and from internal consistency failures that should never occur.
"""


class FrameLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FrameLabError):
    """An array argument does not match the expected length or shape."""


class InvalidValueError(FrameLabError, ValueError):
    """An input value is outside its domain: not finite, not positive, not distinct."""


class EmptySpaceError(FrameLabError):
    """An operation requires a nonempty point set."""


class DegenerateBasisError(FrameLabError):
    """Requested basis columns are linearly dependent in the H inner product."""


class GridMismatchError(FrameLabError):
    """Two objects were built on different sampling grids."""


class UnsupportedSpaceError(FrameLabError):
    """The operation needs a uniform periodic grid and got something else."""


class NotAFrameError(FrameLabError):
    """A frame-only operation (canonical dual, ...) was applied to a non-frame."""


class SingularOperatorError(FrameLabError):
    """A dense operator that must be inverted is numerically singular."""


class PreconditionError(FrameLabError):
    """A documented precondition of the operation does not hold."""


class ScheduleError(FrameLabError):
    """A refinement schedule is too short or an index is out of range."""


class InconsistencyError(FrameLabError):
    """An identity that holds in exact arithmetic failed beyond tolerance.

    Raised by operations that assert a mathematically guaranteed bound; a
    failure indicates a discretization inconsistency, not user error.
    """


class ConfigError(FrameLabError):
    """Experiment configuration is invalid; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
