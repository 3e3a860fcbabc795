"""Maximum causal entropy IRL on the occupation-measure dual.

Given the expert mean-field term and discounted feature expectations, the
entropy-maximization problem over occupation measures has an unconstrained
convex dual in (theta, lambda, xi). Constant-step gradient descent or damped
Newton on that dual recovers the Boltzmann occupation measure and its
policy.
"""

import math
import numbers
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    LineSearchStall, NonDescent, NonFinite, NotConverged, SolverFailure, ValidationError,
)
from .mdp import disintegrate, OccupationMeasure
from .model import check_simplex, feature_table, transition_kernel
from .numerics import scipy_extension


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
        mu = check_simplex(self.mu_E, "mu_E", self.spec.n_states)
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
        """The dual in matrix form, built once per problem: (Bext, M).

        Over w = (v, 1), v = (theta, lambda, xi), Bext w = (k, <v, linear>):
        the exponent k = c0 + B v of the Boltzmann measure on the flattened
        state-action pairs, and the linear part of the objective, <theta,
        f_expert> + <lambda, mu_E>. The gradient is G nu - b, so Gext = [[G
        - b 1'], [1']] maps e = exp(k - c) to (s grad, s) with s = sum(e),
        because nu = e / s sums to one. A step v -= t grad moves (k, <v,
        linear>) by -t Bv (s grad) / s, Bv the first n columns of Bext, so
        M = [[Bv Gv], [Gext]], Gv the first n rows of Gext, maps e to that
        move, s grad and s in one product.
        """
        spec = self.spec
        X, A = spec.n_states, spec.n_actions
        f_flat = self.features.reshape(X * A, spec.feature_dim)
        p_flat = self.kernel.reshape(X, X * A)
        one_minus_beta = 1.0 - spec.beta
        marginal = np.repeat(np.eye(X), A, axis=0)  # [xa, x] state indicator
        mu = self.mu_E
        Bext = np.block([
            [f_flat, one_minus_beta * marginal,
             one_minus_beta * (p_flat - mu[:, None]).T,
             np.repeat(np.log(mu), A)[:, None]],
            [self.f_expert, mu, np.zeros(X), 0.0],
        ])
        Gext = np.vstack([
            f_flat.T / one_minus_beta - self.f_expert[:, None],
            marginal.T - mu[:, None],
            p_flat - mu[:, None],
            np.ones(X * A),
        ])
        n = Gext.shape[0] - 1
        return Bext, np.vstack([Bext[:, :n] @ Gext[:n], Gext])


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


# Damped Newton: the Hessian is regularized by NEWTON_REG times its trace,
# and a trial point is accepted when it decreases the dual by at least
# ARMIJO_C times the predicted decrease; the step halves at most
# MAX_HALVINGS times before the search gives up (LineSearchStall). Newton
# stops with NotConverged once the gradient sup-norm, still above grad_tol,
# has not halved over the last STALL_WINDOW iterations: below a floor of
# about NEWTON_REG * tr(H), on data whose dual has no finite minimizer, it
# would otherwise crawl to max_iter.
NEWTON_REG = 1e-12
ARMIJO_C = 1e-4
MAX_HALVINGS = 60
STALL_WINDOW = 10


@dataclass
class IrlConfig:
    """method is "gd", constant-step gradient descent, or "newton", damped
    Newton. step configures "gd" only: step=None selects 1/L from the
    smoothness constants.

    settle_tol, when set, additionally requires the Boltzmann occupation
    measure to move by at most settle_tol (sup norm) between successive
    iterations before stopping. This matters when the expert data is not
    exactly self-consistent: the dual then has no finite minimizer, yet the
    occupation measure still converges while the gradient plateaus at a
    small positive norm, and the plateau can dip under grad_tol long
    before the measure has settled.

    Rejects, with ValueError, a method other than "gd" and "newton", a step
    that is not positive and finite (whatever the method), a max_iter that
    is negative, a bool or not an integer, and a grad_tol or settle_tol
    that is negative or not finite.
    """

    step: float | None = None
    grad_tol: float = 1e-2
    max_iter: int = 1_000_000
    settle_tol: float | None = None
    method: str = "gd"

    def __post_init__(self):
        if self.method not in ("gd", "newton"):
            raise ValueError(f"method must be 'gd' or 'newton', got {self.method!r}")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")
        for name in ("grad_tol", "settle_tol"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")


def _idamax(x):
    """The index of the first largest |x_i|: idamax's, on a finite x."""
    return np.abs(x).argmax()


def dual_kernel(problem, daxpy=None):
    """The one evaluation of the dual, shared by every caller.

    Returns (restart, evaluate, step, v, e, sg). The state u = (k - c,
    <v, linear>, v, 1) carries the exponent shifted by a fixed c, so that
    its tail w = (v, 1) gives Bext w = (k, <v, linear>) directly; v is a
    view of it. restart(v0) sets v = v0 and recomputes the head from it
    exactly, shifted at c = max(k). evaluate() sets e = exp(k - c) and, by
    one product with the stacked M, sg = (s grad, s) and the exponent move
    of a step; if s leaves [1e-100, 1e100], it restarts from v first. It
    returns (g, s), g = log Z / (1 - beta) - <v, linear> with log Z = c +
    log s. Given BLAS daxpy, step(-t / s) is one daxpy that moves all of u
    but the 1 by a times that product: v -= t grad, with its exponent
    update; without it, step is None, and nothing loads BLAS. A closure
    over locals, so the gradient loop does no attribute lookups.
    """
    Bext, M = problem._matrices
    m, n = M.shape[1], Bext.shape[1] - 1
    u = np.zeros(m + n + 2)
    u[-1] = 1.0
    z, kl, w = u[:m], u[: m + 1], u[m + 1 :]
    v = w[:n]
    e = np.empty(m)
    Me = np.empty(m + n + 2)
    c = 0.0
    one_minus_beta = 1.0 - problem.spec.beta
    log, subtract, exp = math.log, np.subtract, np.exp

    def restart(start):
        nonlocal c
        v[:] = start
        Bext.dot(w, out=kl)
        c = float(z.max())
        subtract(z, c, out=z)

    def evaluate():
        exp(z, out=e)
        M.dot(e, out=Me)
        s = Me.item(-1)
        if not 1e-100 <= s <= 1e100:
            restart(v)
            exp(z, out=e)
            M.dot(e, out=Me)
            s = Me.item(-1)
        return (c + log(s)) / one_minus_beta - u.item(m), s

    step = None if daxpy is None else partial(daxpy, Me[:-1], u[:-1], m + n + 1)
    return restart, evaluate, step, v, e, Me[m + 1 :]


def _evaluate(problem, v):
    """(g, gradient, nu table) at the dual vector v, max-shifted."""
    restart, evaluate, _, _, e, sg = dual_kernel(problem)
    restart(v)
    g, s = evaluate()
    spec = problem.spec
    return g, sg[:-1] / s, (e / s).reshape(spec.n_states, spec.n_actions)


def boltzmann(problem, d):
    """The Boltzmann occupation measure nu = exp(k - log Z), with exponent
    k(x,a) = log mu_E(x) + <theta, f(x,a,mu_E)>
             + (1-beta) [lambda_x + sum_z xi_z (p(z|x,a,mu_E) - mu_E(z))]"""
    nu = _evaluate(problem, d.as_vector())[2]
    return OccupationMeasure(nu=nu, beta=problem.spec.beta, mu0=problem.mu_E)


def dual_objective(problem, d):
    """g = (1/(1-beta)) log sum exp(k) - <theta, f_expert> - <lambda, mu_E>."""
    return _evaluate(problem, d.as_vector())[0]


def dual_gradient(problem, d):
    """Partial gradients (grad_theta, grad_lambda, grad_xi) of the dual: the
    expectation-matching residuals under the Boltzmann measure."""
    grad = DualPoint.from_vector(problem, _evaluate(problem, d.as_vector())[1])
    return grad.theta, grad.lam, grad.xi


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
    state-action pairs; the strong-convexity condition needs rank k + 2|X|.

    As stated the test cannot hold: sum_y p(y|x,a) = 1 = sum_x' e(x'|x,a)
    on every row, so (0_k, 1_X, -1_X) annihilates all of them and the rank
    is at most k + 2|X| - 1. The returned `holds` is therefore always
    False."""
    spec = problem.spec
    X, A, k = spec.n_states, spec.n_actions, spec.feature_dim
    rows = np.hstack([
        problem.features.reshape(X * A, k),
        problem.kernel.reshape(X, X * A).T,
        np.repeat(np.eye(X), A, axis=0),
    ])
    svals = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals[0] > 0 else 0
    return rank == k + 2 * X, rank


def solve_irl(problem, config=None):
    """Gradient descent or damped Newton on the dual from the zero start.

    Stops when the sup-norm of the gradient drops below grad_tol (and, if
    settle_tol is set, the occupation measure has stopped moving). Returns
    (DualPoint, OccupationMeasure, Policy, trace) where trace rows are
    (g value, sup-norm of gradient) per iteration. Raises NotConverged at
    max_iter, where no step is taken, and NonFinite on divergence; Newton
    also raises NotConverged when it stalls, and NonDescent and
    LineSearchStall from _newton_step. Every failure carries (DualPoint,
    trace) of the last iterate, the point of the trace's last row, as its
    result.

    Each "gd" step makes three array calls through dual_kernel: exp of the
    carried exponent, one product with the stacked matrix, and one daxpy
    that moves v and its exponent together. The shift c stays at the max(k)
    of the last restart, from v = 0 on the first step, and the kernel
    restarts from v exactly only when the sum of exp(k - c) leaves [1e-100,
    1e100]; BLAS idamax finds the gradient sup-norm. Only "gd" loads
    scipy's compiled _fblas module (numerics.scipy_extension), and it hands
    that module's daxpy to dual_kernel. "newton" takes its steps from
    _newton_step, and stops once its gradient stalls (STALL_WINDOW). It
    finds the sup-norm with numpy, the same value on a finite gradient, and
    so imports nothing from scipy. The trace is kept interleaved in one
    array of doubles, 16 bytes per step, and returned as a view of it.
    """
    config = config or IrlConfig()
    newton = config.method == "newton"
    if newton:
        kernel = dual_kernel(problem)
        newton_step = _newton_step(problem, kernel)
        idamax = _idamax
    else:
        fblas = scipy_extension("_fblas")
        idamax = fblas.idamax
        consts = smoothness_constants(problem)
        step = config.step if config.step is not None else 1.0 / consts.L
        if step > 1.0 / consts.L:
            warnings.warn(
                f"step {step:g} exceeds 1/L = {1.0 / consts.L:g}; "
                "the descent guarantee does not apply",
                stacklevel=2,
            )
        kernel = dual_kernel(problem, fblas.daxpy)
    spec = problem.spec
    X, A = spec.n_states, spec.n_actions
    restart, evaluate, descend, v, e, sg = kernel
    restart(v)                # from the zero start, shifted at max(k)
    s_grad = sg[:-1]
    grad_tol, settle, max_iter = config.grad_tol, config.settle_tol, config.max_iter
    if settle is not None:
        nu, prev_nu = np.empty_like(e), np.empty_like(e)
    trace = array("d")        # (g, gradient sup-norm) per step, interleaved
    push = trace.append
    # exp(k - c) may overflow before the re-shift; NonFinite catches the rest.
    with np.errstate(over="ignore", invalid="ignore"):
        g, s = evaluate()
        for it in range(max_iter + 1):
            grad_norm = abs(s_grad.item(idamax(s_grad))) / s
            push(g)
            push(grad_norm)
            if not math.isfinite(g):
                raise NonFinite(f"dual objective diverged after {it} steps",
                                result=_partial(problem, v, trace))
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
                return d, occupation, disintegrate(occupation), _trace(trace)
            if it == max_iter:
                break
            if not newton:
                descend(-step / s)  # v -= step * grad, and its exponent
                g, s = evaluate()
                continue
            if (it >= STALL_WINDOW and grad_norm > grad_tol
                    and grad_norm > 0.5 * trace[2 * (it - STALL_WINDOW) + 1]):
                raise NotConverged(
                    f"gradient sup-norm {grad_norm:.3e} has not halved in "
                    f"{STALL_WINDOW} Newton iterations",
                    result=_partial(problem, v, trace),
                )
            x = v.copy()
            try:
                g, s = newton_step(x, g, s)
            except SolverFailure as exc:
                exc.result = _partial(problem, x, trace)
                raise
    raise NotConverged(
        f"gradient sup-norm {grad_norm:.3e} after {max_iter} iterations",
        result=_partial(problem, v, trace),
    )


def _newton_step(problem, kernel):
    """The damped Newton step of solve_irl on dual_kernel's state.

    The Hessian of g is (1/(1-beta)) Bv' (diag nu - nu nu') Bv, nu = e / s
    and Bv = Bext[:-1, :n], so it is built from the centered rows Bv -
    nu' Bv, plus NEWTON_REG times its trace on the diagonal. step(x, g, s)
    takes the kernel evaluated at x, with value g and sum s, solves for the
    Newton direction and halves the step from 1 until the Armijo test
    holds. It makes one restart and one evaluate per trial point, so the
    kernel is left at the accepted point, and returns its (g, s). Raises
    NonFinite on a singular or non-finite system or a non-finite value,
    NonDescent when the direction's slope is not negative, and
    LineSearchStall when no trial decreases g within MAX_HALVINGS halvings.
    """
    restart, evaluate, _, v, e, sg = kernel
    Bv = problem._matrices[0][:-1, : v.size]
    one_minus_beta = 1.0 - problem.spec.beta

    def step(x, g, s):
        nu = e / s
        centered = Bv - nu @ Bv
        H = (centered.T * nu) @ centered / one_minus_beta
        H.flat[:: v.size + 1] += NEWTON_REG * np.trace(H)
        grad = sg[:-1] / s
        try:
            d = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError as exc:
            raise NonFinite(f"Newton system: {exc}") from None
        slope = float(grad @ d)
        if not (math.isfinite(slope) and np.isfinite(d).all()):
            raise NonFinite("Newton direction is not finite")
        if slope >= 0.0:
            raise NonDescent(f"Newton direction has slope {slope:.3e} >= 0")
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            restart(x + t * d)
            g_t, s_t = evaluate()
            if not math.isfinite(g_t):
                raise NonFinite(f"dual objective not finite at step {t:g}")
            if g_t <= g + ARMIJO_C * t * slope:
                return g_t, s_t
            t *= 0.5
        raise LineSearchStall(f"no decrease within {MAX_HALVINGS} halvings "
                              f"(slope {slope:.3e})")

    return step


def _partial(problem, v, trace):
    """The result a failed solve carries: (DualPoint at v, trace)."""
    return DualPoint.from_vector(problem, v), _trace(trace)


def _trace(trace):
    """The (iterations + 1, 2) trace array, a view of the interleaved doubles."""
    return np.frombuffer(trace).reshape(-1, 2)


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
