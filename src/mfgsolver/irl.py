"""Maximum causal entropy IRL on the occupation-measure dual.

Given the expert mean-field term and discounted feature expectations, the
entropy-maximization problem over occupation measures has an unconstrained
convex dual in (theta, lambda, xi). Constant-step gradient descent on that
dual recovers the Boltzmann occupation measure and its policy.
"""

import math
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import daxpy, idamax

from .errors import NonFinite, NotConverged, ValidationError
from .mdp import disintegrate, OccupationMeasure
from .model import check_simplex, feature_table, transition_kernel
from .numerics import log_sum_exp


@dataclass(frozen=True)
class IrlProblem:
    """Expert data for the inverse problem.

    mu_E must be strictly positive: the exponent of the Boltzmann measure
    contains log mu_E(x). f_expert is the discounted feature expectation
    vector of the expert.
    """

    spec: object
    mu_E: np.ndarray
    f_expert: np.ndarray

    def __post_init__(self):
        mu = check_simplex(self.mu_E, "mu_E")
        if mu.min() <= 0.0:
            raise ValidationError(
                f"mu_E must be strictly positive; state {mu.argmin()} has zero mass"
            )
        f = np.asarray(self.f_expert, dtype=float)
        if f.shape != (self.spec.feature_dim,) or not np.all(np.isfinite(f)):
            raise ValidationError("f_expert must be a finite vector of length k")
        object.__setattr__(self, "mu_E", mu)
        object.__setattr__(self, "f_expert", f)

    @cached_property
    def features(self):
        return feature_table(self.spec, self.mu_E)

    @cached_property
    def kernel(self):
        return transition_kernel(self.spec, self.mu_E)

    @cached_property
    def _matrices(self):
        """The dual in matrix form, shared by every dual evaluation.

        Over the stacked vector v = (theta, lambda, xi), the exponent of the
        Boltzmann measure is affine, k = c0 + B v on the flattened
        state-action pairs; the gradient is G nu - b; and the linear part of
        the objective is <v, linear> = <theta, f_expert> + <lambda, mu_E>.
        Returns (c0, B, G, b, linear).
        """
        spec = self.spec
        X, A = spec.n_states, spec.n_actions
        f_flat = self.features.reshape(X * A, spec.feature_dim)
        p_flat = self.kernel.reshape(X, X * A)
        one_minus_beta = 1.0 - spec.beta
        marginal = np.repeat(np.eye(X), A, axis=0)  # [xa, x] state indicator
        c0 = np.repeat(np.log(self.mu_E), A)
        B = np.hstack([
            f_flat,
            one_minus_beta * marginal,
            one_minus_beta * (p_flat - self.mu_E[:, None]).T,
        ])
        G = np.vstack([f_flat.T / one_minus_beta, marginal.T, p_flat])
        b = np.concatenate([self.f_expert, self.mu_E, self.mu_E])
        linear = np.concatenate([self.f_expert, self.mu_E, np.zeros(X)])
        return c0, B, G, b, linear


@dataclass(frozen=True)
class DualPoint:
    theta: np.ndarray
    lam: np.ndarray
    xi: np.ndarray

    @classmethod
    def zero(cls, problem):
        X = problem.spec.n_states
        return cls(np.zeros(problem.spec.feature_dim), np.zeros(X), np.zeros(X))

    def as_vector(self):
        return np.concatenate([self.theta, self.lam, self.xi])

    @classmethod
    def from_vector(cls, problem, v):
        k = problem.spec.feature_dim
        X = problem.spec.n_states
        v = np.asarray(v, dtype=float)
        return cls(v[:k].copy(), v[k : k + X].copy(), v[k + X :].copy())


@dataclass(frozen=True)
class SmoothnessConstants:
    M1: float
    M2: float
    M3: float
    M: float
    L: float


@dataclass
class IrlConfig:
    """step=None selects 1/L from the smoothness constants.

    settle_tol, when set, additionally requires the Boltzmann occupation
    measure to move by at most settle_tol (sup norm) between successive
    iterations before stopping. This matters when the expert data is not
    exactly self-consistent: the dual then has no finite minimizer, yet the
    occupation measure still converges while the gradient plateaus at a
    small positive norm, and the plateau can dip under grad_tol long
    before the measure has settled.
    """

    step: float | None = None
    grad_tol: float = 1e-2
    max_iter: int = 1_000_000
    settle_tol: float | None = None


def k_table(problem, d):
    """Exponent table of the Boltzmann measure:

    k(x,a) = log mu_E(x) + <theta, f(x,a,mu_E)>
             + (1-beta) [lambda_x + sum_z xi_z (p(z|x,a,mu_E) - mu_E(z))]
    """
    c0, B, _, _, _ = problem._matrices
    spec = problem.spec
    return (c0 + B @ d.as_vector()).reshape(spec.n_states, spec.n_actions)


def boltzmann(problem, d):
    """Normalized exponential of the k-table, as an occupation measure."""
    k = k_table(problem, d)
    log_z = log_sum_exp(k.ravel())
    nu = np.exp(k - log_z)
    return OccupationMeasure(nu=nu, beta=problem.spec.beta, mu0=problem.mu_E)


def dual_objective(problem, d):
    """g = (1/(1-beta)) log sum exp(k) - <theta, f_expert> - <lambda, mu_E>."""
    linear = problem._matrices[4]
    return (
        log_sum_exp(k_table(problem, d)) / (1.0 - problem.spec.beta)
        - float(d.as_vector() @ linear)
    )


def dual_gradient(problem, d):
    """Partial gradients (grad_theta, grad_lambda, grad_xi) of the dual.

    All three are expectation-matching residuals under the current
    Boltzmann measure.
    """
    _, _, G, b, _ = problem._matrices
    grad = G @ boltzmann(problem, d).nu.ravel() - b
    k, X = problem.spec.feature_dim, problem.spec.n_states
    return grad[:k], grad[k : k + X], grad[k + X :]


def smoothness_constants(problem):
    """Lipschitz data of the dual gradient: L = 2M (M1/(1-beta) + 2 sqrt(|X||A|))."""
    spec = problem.spec
    f = problem.features
    p = problem.kernel
    M1 = float(np.linalg.norm(f, axis=2).max())
    M2 = 1.0 - spec.beta
    diffs = p - problem.mu_E[:, None, None]
    M3 = (1.0 - spec.beta) * float(np.linalg.norm(diffs, axis=0).max())
    M = max(M1, M2, M3)
    L = 2.0 * M * (M1 / (1.0 - spec.beta) + 2.0 * np.sqrt(spec.n_states * spec.n_actions))
    return SmoothnessConstants(M1=M1, M2=M2, M3=M3, M=M, L=L)


def check_span_assumption(problem):
    """Rank test of the stacked vectors (f, p(.|x,a), e(.|x,a)) over all
    state-action pairs; the strong-convexity condition needs rank k + 2|X|."""
    spec = problem.spec
    X, A, k = spec.n_states, spec.n_actions, spec.feature_dim
    f = problem.features
    p = problem.kernel
    rows = np.zeros((X * A, k + 2 * X))
    for x in range(X):
        for a in range(A):
            i = x * A + a
            rows[i, :k] = f[x, a]
            rows[i, k : k + X] = p[:, x, a]
            rows[i, k + X + x] = 1.0
    svals = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
    return rank == k + 2 * X, rank


def solve_irl(problem, config=None):
    """Constant-step gradient descent on the dual from the zero start.

    Stops when the sup-norm of the gradient drops below grad_tol (and, if
    settle_tol is set, the occupation measure has stopped moving). Returns
    (DualPoint, OccupationMeasure, Policy, trace) where trace rows are
    (g value, sup-norm of gradient) per iteration.

    Each step is one matrix-vector product each way. The constants are
    folded into two matrices built once: Bext = [[B, c0], [linear, 0]]
    maps (v, 1) to the exponent k and <v, linear>, and Gext = [[G - b 1'],
    [1']] maps e = exp(k - c) to (s grad, s) with s = sum(e), because nu
    sums to one. Then log Z = c + log s. The log-sum-exp shift c is the
    previous step's log Z, which is exact for any c; only when s leaves
    [1e-100, 1e100] is the step shifted again at max(k). The trace is kept
    in two arrays of doubles, 16 bytes per step.
    """
    config = config or IrlConfig()
    consts = smoothness_constants(problem)
    step = config.step if config.step is not None else 1.0 / consts.L
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if step > 1.0 / consts.L:
        warnings.warn(
            f"step {step:g} exceeds 1/L = {1.0 / consts.L:g}; "
            "the descent guarantee does not apply",
            stacklevel=2,
        )
    spec = problem.spec
    X, A = spec.n_states, spec.n_actions
    one_minus_beta = 1.0 - spec.beta
    c0, B, G, b, linear = problem._matrices
    m, n = B.shape
    Bext = np.block([[B, c0[:, None]], [linear, 0.0]])
    Gext = np.vstack([G - b[:, None], np.ones(m)])

    w = np.zeros(n + 1)       # (v, 1), v the dual vector from the zero start
    w[n] = 1.0
    v = w[:n]
    kl = np.empty(m + 1)      # (k, <v, linear>)
    k = kl[:m]
    e = np.empty(m)
    sg = np.empty(n + 1)      # (s grad, s)
    s_grad = sg[:n]
    grad_tol, settle = config.grad_tol, config.settle_tol
    if settle is not None:
        nu, prev_nu = np.empty(m), np.empty(m)
    trace_g, trace_norm = array("d"), array("d")
    c = math.inf              # forces a shift at max(k) on the first step
    # exp(k - c) may overflow before the re-shift; NonFinite catches the rest.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.max_iter + 1):
            Bext.dot(w, out=kl)
            np.subtract(k, c, out=e)
            np.exp(e, out=e)
            Gext.dot(e, out=sg)
            s = sg.item(n)
            if not 1e-100 <= s <= 1e100:
                c = float(k.max())
                np.subtract(k, c, out=e)
                np.exp(e, out=e)
                Gext.dot(e, out=sg)
                s = sg.item(n)
            log_z = c + math.log(s)
            g = log_z / one_minus_beta - kl.item(m)
            if not math.isfinite(g):
                raise NonFinite(f"dual objective diverged after {it} steps")
            grad_norm = abs(s_grad.item(idamax(s_grad))) / s
            trace_g.append(g)
            trace_norm.append(grad_norm)
            settled = True
            if settle is not None:
                np.divide(e, s, out=nu)
                settled = it > 0 and np.abs(nu - prev_nu).max() <= settle
                nu, prev_nu = prev_nu, nu
            if grad_norm <= grad_tol and settled:
                d = DualPoint.from_vector(problem, v)
                occupation = OccupationMeasure(
                    nu=(e / s).reshape(X, A), beta=spec.beta, mu0=problem.mu_E
                )
                trace = _trace(trace_g, trace_norm)
                return d, occupation, disintegrate(occupation), trace
            c = log_z
            daxpy(s_grad, v, a=-step / s)  # v -= step * grad, in place
    raise NotConverged(
        f"gradient sup-norm {grad_norm:.3e} after {config.max_iter} iterations",
        result=(DualPoint.from_vector(problem, v), _trace(trace_g, trace_norm)),
    )


def _trace(trace_g, trace_norm):
    """The (iterations + 1, 2) trace array from its two columns."""
    return np.column_stack([np.frombuffer(trace_g), np.frombuffer(trace_norm)])


def polish_dual(problem, start=None, gtol=1e-12, max_iter=50_000):
    """Quasi-Newton refinement of a dual point with scipy's L-BFGS-B.

    Constant-step descent closes the last stretch of the duality gap
    sublinearly whenever the expert policy is deterministic somewhere: the
    dual infimum is then approached only along an unbounded direction.
    L-BFGS takes large steps along that direction and closes the gap in a
    handful of iterations. Returns (DualPoint, OccupationMeasure, policy);
    the refined point is kept only if it improves the dual objective.
    """
    from scipy.optimize import minimize

    v0 = (start.as_vector() if isinstance(start, DualPoint)
          else DualPoint.zero(problem).as_vector() if start is None
          else np.asarray(start, dtype=float))

    def fun(v):
        return dual_objective(problem, DualPoint.from_vector(problem, v))

    def jac(v):
        return np.concatenate(
            dual_gradient(problem, DualPoint.from_vector(problem, v))
        )

    res = minimize(fun, v0, jac=jac, method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": 1e-18, "gtol": gtol})
    v = res.x if res.fun <= fun(v0) else v0
    d = DualPoint.from_vector(problem, v)
    nu = boltzmann(problem, d)
    return d, nu, disintegrate(nu)


def verify_irl(problem, nu):
    """Residuals of the recovered occupation measure against the expert
    constraints: feature matching, invariance, marginal, positivity."""
    table = nu.nu if isinstance(nu, OccupationMeasure) else np.asarray(nu, dtype=float)
    f = problem.features
    p = problem.kernel
    r_feat = float(np.abs(
        np.einsum("xaj,xa->j", f, table) / (1.0 - problem.spec.beta)
        - problem.f_expert
    ).max())
    r_flow = float(np.abs(
        problem.mu_E - np.einsum("zxa,xa->z", p, table)
    ).max())
    r_marg = float(np.abs(table.sum(axis=1) - problem.mu_E).max())
    r_pos = float(max(0.0, -table.min()))
    return {"feat": r_feat, "flow": r_flow, "marg": r_marg, "pos": r_pos}
