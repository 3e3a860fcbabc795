"""Exception types shared across the solver modules."""


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


class ReportedFailure(MfgError):
    """A solver failure that can carry the solver's report up to the
    failing iteration and a copy of the iterate it failed at (both None
    when raised outside a solve)."""

    def __init__(self, message, report=None, iterate=None):
        super().__init__(message)
        self.report = report
        self.iterate = iterate


class BoundaryViolation(ReportedFailure):
    """A barrier term was evaluated at a non-positive component."""


class NonDescent(ReportedFailure):
    """The Newton direction is not a descent direction for the potential.

    path names how that direction was computed (a key of
    gnep.KktReport.directions), or is None when unknown."""

    def __init__(self, message, report=None, path=None, iterate=None):
        super().__init__(message, report, iterate)
        self.path = path


class LineSearchStall(ReportedFailure):
    """Backtracking exhausted its budget without an acceptable step."""


class PartialResult(MfgError):
    """A solver failure that carries the solver's partial result (None when
    raised outside a solve), so callers can inspect the last iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NotConverged(PartialResult):
    """An iterative solver hit its iteration cap before reaching tolerance,
    or its line search found no decrease."""


class NonFinite(PartialResult):
    """An iterative solver diverged to NaN or infinity, or its linear
    system had no finite solution."""


class EmptyData(MfgError):
    """An estimator received no trajectories."""
