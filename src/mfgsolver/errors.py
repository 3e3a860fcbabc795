"""Exception types shared across the solver modules.

A SolverFailure means that a solver ran and failed, and carries what it
reached; the command line exits 1 on it and 2 on any other MfgError."""


class MfgError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(MfgError):
    """Linear solve found no acceptable pivot."""


class EmptyInput(MfgError):
    """An operation received an empty vector."""


class NonFiniteEvaluation(MfgError):
    """A user-supplied map returned NaN or infinity at a probe point."""


class BadParameter(MfgError):
    """A model parameter is outside its admissible range."""


class ParseError(MfgError):
    """A model document could not be parsed."""


class ValidationError(MfgError):
    """A parsed model violates a structural invariant."""


class MissingTheta(MfgError):
    """The operation needs reward weights but the model has none."""


class NonUniqueStationary(MfgError):
    """The chain has more than one stationary distribution."""


class SolverFailure(MfgError):
    """A solver ran and failed. result is what it reached, None when the
    error is raised outside a solve: gnep.solve_gnep attaches (z,
    KktReport), a copy of the last iterate and the report up to it, and
    irl.solve_irl attaches (DualPoint, trace) of its last iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class BoundaryViolation(SolverFailure):
    """A barrier term was evaluated at a non-positive component."""


class NonDescent(SolverFailure):
    """A Newton direction is not a descent direction."""


class LineSearchStall(SolverFailure):
    """Backtracking exhausted its budget without an acceptable step."""


class NotConverged(SolverFailure):
    """An iterative solver hit its iteration cap before reaching tolerance,
    or its progress stalled."""


class NonFinite(SolverFailure):
    """An iterative solver diverged to NaN or infinity, or its linear
    system had no finite solution."""


class EmptyData(MfgError):
    """An estimator received no trajectories."""
