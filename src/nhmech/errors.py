"""Exception types shared across the package.

Every error raised on a mathematical failure path derives from NhError so
callers can catch the whole family at once.  Errors raised while advancing a
trajectory carry a ``step_index`` attribute (set by ``evolve``) identifying the
step that failed.
"""

# what Python raises for arithmetic on an overflowed or out-of-domain value
# (math.sin(inf), an overflowing float power); a step turns it into a
# SingularError and the CLI's element building into a ConfigError
NUMERIC_FAILURES = (ArithmeticError, ValueError)


class NhError(Exception):
    """Base class for all solver/geometry errors."""

    step_index = None


class NotComposableError(NhError):
    """Composition of two groupoid elements whose target/source do not match."""


class ChartDomainError(NhError):
    """A chart or logarithm was evaluated outside its domain of validity."""


class SingularError(NhError):
    """Degenerate configuration: the step map is not well defined here.

    Raised when a regularity pairing degenerates, when the Newton matrix
    condition estimate exceeds the configured limit, when a matrix or the
    first residual of a step has non-finite entries or a LAPACK routine
    reports failure, or when a model callable refuses an element outside
    the model's domain (Veselova's constraint at a rotation by pi).  An
    ArithmeticError or ValueError that a model callable or a backend kernel
    raises inside ``solver.step`` (a math domain error on an overflowed
    angle) becomes one too, with the original error as its ``__cause__``.
    A Newton trial point refused in any of these ways makes the line search
    halve the step.
    """


class NoConvergenceError(NhError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, iterations=None, residual_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class ConstraintViolationError(NhError):
    """An element that must lie on the constraint set does not."""


class RankDeficientAnnihilator(NhError):
    """The annihilator basis is numerically dependent; multipliers undefined."""


class NotInConstraintCone(NhError):
    """A symmetry direction does not take values in the constraint distribution."""


class ChartInversionFailed(NhError):
    """The two-point chart of a Chaplygin system could not be inverted."""


class ConfigError(NhError):
    """Invalid run configuration (unknown keys, wrong types, bad shapes)."""
