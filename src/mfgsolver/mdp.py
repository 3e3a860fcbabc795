"""Single-agent computations for the MDP with a frozen mean-field term.

Values and policies use the cost-minimization convention throughout. A
policy entering the layer is validated (model.check_policy): a table of
shape (n_states, n_actions) whose rows are probability vectors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MissingTheta, NonUniqueStationary
from .model import check_policy, check_simplex, cost_table, feature_table, transition_kernel
from .numerics import solve_linear

ZERO_MASS = 1e-12
# value_iteration's stopping rule: see its docstring.
VI_TOL = 1e-12
VI_MAX_ITER = 100_000


@dataclass(frozen=True)
class ValueFunctions:
    V: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class OccupationMeasure:
    """Joint state-action probabilities plus the discount and initial
    distribution they were computed under."""

    nu: np.ndarray
    beta: float
    mu0: np.ndarray

    @property
    def state_marginal(self):
        return self.nu.sum(axis=1)


def policy_chain(spec, pi, mu):
    """Row-stochastic state chain P[x, y] under pi with kernel frozen at mu."""
    p = transition_kernel(spec, mu)  # [y, x, a]
    return np.einsum("xa,yxa->xy", check_policy(spec, pi), p)


def value_iteration(spec, mu):
    """Optimal cost-to-go for the frozen-mu MDP.

    Iterates T V(x) = min_a [c(x,a,mu) + beta * sum_y p(y|x,a,mu) V(y)]
    from V = 0 until a step moves V by at most VI_TOL * (1 + ||V||_inf) in
    sup norm, or for VI_MAX_ITER steps. The greedy policy is deterministic
    with ties broken toward the lowest action index.
    """
    if spec.theta is None:
        raise MissingTheta("value iteration needs reward weights")
    c = cost_table(spec, mu)
    p = transition_kernel(spec, mu)
    V = np.zeros(spec.n_states)
    for _ in range(VI_MAX_ITER):
        V, V_prev = (c + spec.beta * np.einsum("yxa,y->xa", p, V)).min(axis=1), V
        if np.abs(V - V_prev).max() <= VI_TOL * (1.0 + np.abs(V).max()):
            break
    Q = c + spec.beta * np.einsum("yxa,y->xa", p, V)
    greedy = np.zeros((spec.n_states, spec.n_actions))
    greedy[np.arange(spec.n_states), Q.argmin(axis=1)] = 1.0
    return ValueFunctions(V=V, Q=Q), greedy


def policy_evaluation(spec, pi, mu):
    """Discounted cost of pi in the frozen-mu MDP, per starting state."""
    P = policy_chain(spec, pi, mu)  # validates pi before it is read
    c_pi = (np.asarray(pi, dtype=float) * cost_table(spec, mu)).sum(axis=1)
    A = np.eye(spec.n_states) - spec.beta * P
    return solve_linear(A, c_pi)


def stationary_distribution(spec, pi, mu):
    """Invariant distribution of the state chain under pi at frozen mu.

    Solves (P^T - I) m = 0 with the normalization sum(m) = 1 appended.
    Raises NonUniqueStationary when the nullspace of P^T - I has dimension
    above 1; callers may fall back to power iteration in that case.
    """
    P = policy_chain(spec, pi, mu)
    X = spec.n_states
    M = P.T - np.eye(X)
    rank = np.linalg.matrix_rank(M, tol=1e-10)
    if rank < X - 1:
        raise NonUniqueStationary(
            f"nullspace dimension {X - rank} exceeds 1"
        )
    A = np.vstack([M, np.ones((1, X))])
    b = np.zeros(X + 1)
    b[-1] = 1.0
    m, *_ = np.linalg.lstsq(A, b, rcond=None)
    m = np.clip(m, 0.0, None)
    return m / m.sum()


def occupation_measure(spec, pi, mu, mu0):
    """Discounted state-action occupation measure of pi.

    Solves (I - beta P^T) m = (1 - beta) mu0 for the discounted state
    marginal, then nu(x,a) = pi(a|x) * m(x). Total mass is 1.
    """
    pi = np.asarray(pi, dtype=float)
    mu0 = check_simplex(mu0, "mu0", spec.n_states)
    P = policy_chain(spec, pi, mu)
    A = np.eye(spec.n_states) - spec.beta * P.T
    m = solve_linear(A, (1.0 - spec.beta) * mu0)
    return OccupationMeasure(nu=pi * m[:, None], beta=spec.beta, mu0=mu0)


def disintegrate(nu):
    """Conditional policy pi(a|x) = nu(x,a) / nu^X(x).

    States with marginal mass below ZERO_MASS get a uniform row.
    """
    table = nu.nu if isinstance(nu, OccupationMeasure) else np.asarray(nu, dtype=float)
    marginal = table.sum(axis=1)
    n_actions = table.shape[1]
    pi = np.full_like(table, 1.0 / n_actions)
    supported = marginal > ZERO_MASS
    pi[supported] = table[supported] / marginal[supported, None]
    return pi


def causal_entropy(spec, pi, mu, mu0):
    """Discounted causal entropy of pi via its occupation measure.

    Equals (1/(1-beta)) * sum -log(nu(x,a)/nu^X(x)) nu(x,a) with the
    0*log(0) = 0 convention.
    """
    occ = occupation_measure(spec, pi, mu, mu0)
    nu = occ.nu
    marginal = occ.state_marginal
    total = 0.0
    for x in range(spec.n_states):
        for a in range(spec.n_actions):
            if nu[x, a] > ZERO_MASS:
                total -= np.log(nu[x, a] / marginal[x]) * nu[x, a]
    return total / (1.0 - spec.beta)


def feature_expectation(spec, pi, mu, mu0):
    """Discounted feature expectation vector of pi at frozen mu.

    Equals (1/(1-beta)) * sum f(x,a,mu) nu(x,a).
    """
    occ = occupation_measure(spec, pi, mu, mu0)
    f = feature_table(spec, mu)
    return np.einsum("xaj,xa->j", f, occ.nu) / (1.0 - spec.beta)
