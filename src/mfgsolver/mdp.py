"""Single-agent computations for the MDP with a frozen mean-field term.

Values and policies use the cost-minimization convention throughout. A
policy entering the layer is validated (model.check_policy): a table of
shape (n_states, n_actions) whose rows are probability vectors. Values are
exact: one solve of (I - beta P_pi) V = c_pi per policy (_evaluate), and
policy iteration over such solves for the best response.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueStationary
from .model import check_policy, check_simplex, feature_table, frozen_tables, transition_kernel
from .numerics import solve_linear

ZERO_MASS = 1e-12


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


def _evaluate(beta, pi, p, c):
    """Exact discounted cost V of the validated policy pi on the kernel
    p[y, x, a] and cost c[x, a] of one mu, with its state chain P_pi[x, y]:
    V solves (I - beta P_pi) V = sum_a pi(a|x) c(x, a)."""
    P = np.einsum("xa,yxa->xy", pi, p)
    V = solve_linear(np.eye(len(P)) - beta * P, (pi * c).sum(axis=1))
    return V, P


def _best_response(beta, p, c):
    """Policy iteration on the tables of one mu; see value_iteration."""
    choice, evaluated = c.argmin(axis=1), set()  # greedy at V = 0
    while choice.tobytes() not in evaluated:
        evaluated.add(choice.tobytes())
        greedy = np.eye(c.shape[1])[choice]
        V, _ = _evaluate(beta, greedy, p, c)
        Q = c + beta * np.einsum("yxa,y->xa", p, V)
        choice = Q.argmin(axis=1)
    return ValueFunctions(V=V, Q=Q), greedy


def value_iteration(spec, mu):
    """Optimal cost-to-go and an optimal deterministic policy of the
    frozen-mu MDP, by Howard's policy iteration (Puterman, 1994, sec. 6.4):
    from the greedy policy at V = 0, evaluate the policy exactly and take
    the greedy policy of Q = c + beta p V, ties toward the lowest action.
    A near-tie may flip the argmin between equally good policies in
    floating point, so the loop stops once the greedy policy is one already
    evaluated and returns the last one evaluated, whose exact value V is,
    bit for bit, policy_evaluation(spec, greedy, mu).
    """
    c, p = frozen_tables(spec, mu)
    return _best_response(spec.beta, p, c)


def policy_evaluation(spec, pi, mu):
    """Discounted cost of pi in the frozen-mu MDP, per starting state."""
    c, p = frozen_tables(spec, mu)
    return _evaluate(spec.beta, check_policy(spec, pi), p, c)[0]


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
    mass = occ.nu > ZERO_MASS  # where nu^X(x) >= nu(x,a) > ZERO_MASS too
    return -(np.log(disintegrate(occ)[mass]) * occ.nu[mass]).sum() / (1.0 - spec.beta)


def feature_expectation(spec, pi, mu, mu0):
    """Discounted feature expectation vector of pi at frozen mu.

    Equals (1/(1-beta)) * sum f(x,a,mu) nu(x,a).
    """
    occ = occupation_measure(spec, pi, mu, mu0)
    f = feature_table(spec, mu)
    return np.einsum("xaj,xa->j", f, occ.nu) / (1.0 - spec.beta)
