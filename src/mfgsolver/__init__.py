"""Forward and inverse solvers for finite-state discounted mean-field games.

The forward solver computes a mean-field equilibrium by driving the joint
KKT system of a two-player game to zero with an interior-point
potential-reduction iteration. The inverse solver recovers a maximum causal
entropy policy from expert statistics by gradient descent on a smooth
convex dual.
"""

from .errors import (
    BadParameter,
    BoundaryViolation,
    EmptyData,
    EmptyInput,
    LineSearchStall,
    MfgError,
    MissingTheta,
    NonDescent,
    NonFinite,
    NonFiniteEvaluation,
    NonUniqueStationary,
    NotConverged,
    ParseError,
    SingularMatrix,
    SolverFailure,
    ValidationError,
)
from .estimation import (
    EstimatorConfig,
    Trajectory,
    estimate_feature_expectation,
    estimate_mean_field,
    simulate,
)
from .gnep import Equilibrium, GnepConfig, KktReport, solve_gnep, verify_mfe
from .irl import (
    DualPoint,
    IrlConfig,
    IrlProblem,
    SmoothnessConstants,
    check_span_assumption,
    dual_gradient,
    dual_objective,
    smoothness_constants,
    solve_irl,
    verify_irl,
)
from .mdp import (
    OccupationMeasure,
    ValueFunctions,
    causal_entropy,
    disintegrate,
    feature_expectation,
    occupation_measure,
    policy_evaluation,
    stationary_distribution,
    value_iteration,
)
from .model import ModelSpec, builtin_malware, dump_model, load_model

__version__ = "1.0.0"

__all__ = [
    "BadParameter",
    "BoundaryViolation",
    "DualPoint",
    "EmptyData",
    "EmptyInput",
    "Equilibrium",
    "EstimatorConfig",
    "GnepConfig",
    "IrlConfig",
    "IrlProblem",
    "KktReport",
    "LineSearchStall",
    "MfgError",
    "MissingTheta",
    "ModelSpec",
    "NonDescent",
    "NonFinite",
    "NonFiniteEvaluation",
    "NonUniqueStationary",
    "NotConverged",
    "OccupationMeasure",
    "ParseError",
    "SingularMatrix",
    "SmoothnessConstants",
    "SolverFailure",
    "Trajectory",
    "ValidationError",
    "ValueFunctions",
    "builtin_malware",
    "causal_entropy",
    "check_span_assumption",
    "disintegrate",
    "dual_gradient",
    "dual_objective",
    "dump_model",
    "estimate_feature_expectation",
    "estimate_mean_field",
    "feature_expectation",
    "load_model",
    "occupation_measure",
    "policy_evaluation",
    "simulate",
    "smoothness_constants",
    "solve_gnep",
    "solve_irl",
    "stationary_distribution",
    "value_iteration",
    "verify_irl",
    "verify_mfe",
]
