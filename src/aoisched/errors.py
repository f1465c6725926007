"""Exception types shared across the package.

Two families: ValidationError covers malformed configs and inputs
(CLI exit code 2), ComputationError covers failures inside numerical
routines (CLI exit code 3).
"""


class SchedulingError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SchedulingError):
    """Invalid configuration or malformed input data."""


class ComputationError(SchedulingError):
    """A numerical routine failed or reached an unsupported regime."""


class IntegralityError(ValidationError):
    """alpha*n or gamma_k*n is not an integer."""


class FractionError(ValidationError):
    """Class population fractions do not sum to one."""


class RangeError(ValidationError):
    """A scalar argument is outside its documented domain."""


class ShapeError(ValidationError):
    """Array or grouping dimensions do not match the configuration."""


class ParseError(ValidationError):
    """Malformed JSON config or command line."""


class SizeError(ValidationError):
    """Problem size exceeds a documented cap."""


class InfeasibleError(ComputationError):
    """No subsidy candidate brackets the scheduling budget."""


class DegenerateThresholdError(ComputationError):
    """Threshold layout leaves no coordinate to eliminate in the linear region."""


class FixedPointError(DegenerateThresholdError):
    """The fluid map moves z_star, or its assembled affine form disagrees there."""


class ConvergenceError(ComputationError):
    """An iterative solver failed to converge or two routes disagree."""


class SingularSystemError(ComputationError):
    """A linear system that should be regular turned out singular."""
