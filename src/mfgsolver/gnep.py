"""Forward mean-field equilibrium solver via a two-player GNEP.

Player 1 (the generic agent) minimizes <nu, c_mu> over occupation measures
subject to the relaxed Bellman flow inequality; player 2 (the population)
carries the invariance constraint mu >= nu p_mu together with the mass
bound <mu, 1> >= 1. The joint KKT system with slacks is driven to zero by
an interior-point potential-reduction Newton iteration, after which the
equilibrium policy is read off by disintegration and verified directly
against the frozen-mu MDP.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryViolation,
    LineSearchStall,
    MissingTheta,
    NonDescent,
    NotConverged,
)
from .mdp import (
    OccupationMeasure,
    disintegrate,
    policy_chain,
    policy_evaluation,
    value_iteration,
)
from .model import ModelSpec
from .numerics import truncated_lstsq

MAX_BACKTRACK = 200


@dataclass
class GnepConfig:
    """Interior-point iteration parameters.

    sigma is the centering weight, kappa the backtracking base, and K the
    potential constant (None selects 2m, which satisfies K > m).
    direction_rcond is the relative singular-value cutoff of the
    pseudoinverse applied to the KKT Jacobian; untruncated directions blow
    up whenever the path nears a point where strict complementarity fails.
    The truncated direction is lstsq's up to rounding. A KKT system of
    dimension numerics.LU_MIN_DIM or more gets it from one LU factorization
    of the slack-eliminated matrix (dimension n + m, not n + 2m): the plain
    solve when no singular value of the whole Jacobian lies near the cut,
    or the solve with the one dropped singular triplet removed. It defers
    to lstsq's SVD of the whole Jacobian when a singular value lies within
    numerics.CUT_BAND of the cut, when two or more fall below it, or when
    the triplet does not converge.
    """

    sigma: float = 0.1
    kappa: float = 0.5
    armijo_alpha: float = 0.1
    K: float | None = None
    tol: float = 1e-8
    max_iter: int = 10_000
    direction_rcond: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0,1), got {self.sigma}")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        if not 0.0 < self.armijo_alpha <= 1.0:
            raise ValueError(f"armijo_alpha must lie in (0,1], got {self.armijo_alpha}")


@dataclass
class KktReport:
    """Per-iteration KKT norms and potentials, the outcome, the final
    residual blocks, and how many Newton directions each path of
    numerics.truncated_lstsq computed ("lu", "lu_cut1", "svd")."""

    h_norm_history: list = field(default_factory=list)
    psi_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    residual_stationarity: float = np.nan
    residual_feasibility: float = np.nan
    residual_complementarity: float = np.nan
    directions: dict = field(
        default_factory=lambda: {"lu": 0, "lu_cut1": 0, "svd": 0})


@dataclass(frozen=True)
class Equilibrium:
    policy: np.ndarray
    mean_field: np.ndarray
    occupation: OccupationMeasure
    optimality_gap: float
    invariance_residual: float


class Dimensions:
    """Block sizes and slices of the stacked iterate z."""

    def __init__(self, spec):
        X, A = spec.n_states, spec.n_actions
        self.X, self.A = X, A
        self.nxa = X * A
        self.n = self.nxa + X
        self.m1 = self.nxa + X
        self.m2 = 2 * X + 1
        self.m = self.m1 + self.m2
        self.dim = self.n + 2 * self.m
        ofs = 0
        self.s_nu = slice(ofs, ofs + self.nxa); ofs += self.nxa
        self.s_mu = slice(ofs, ofs + X); ofs += X
        self.s_lam = slice(ofs, ofs + self.m1); ofs += self.m1
        self.s_gam = slice(ofs, ofs + self.m2); ofs += self.m2
        self.s_slam = slice(ofs, ofs + self.m1); ofs += self.m1
        self.s_sgam = slice(ofs, ofs + self.m2)


def _kernel_at(spec, mu):
    """p[y, x, a] without simplex validation; iterates leave the simplex."""
    return spec.P0 + np.einsum("yxaz,z->yxa", spec.P1, mu)


def _cost_at(spec, mu):
    if spec.theta is None:
        raise MissingTheta("GNEP solve needs reward weights")
    f = spec.F0 + np.einsum("xajz,z->xaj", spec.F1, mu)
    return f @ spec.theta


def constraints(spec, nu, mu):
    """Inequality blocks h1 (player 1) and h2 (player 2), both <= 0 when
    feasible.

    h1 = (-nu ; -nu^X + (1-beta) mu + beta nu p_mu)
    h2 = (-mu ; -<mu,1> + 1 ; -mu + nu p_mu)
    """
    X, A = spec.n_states, spec.n_actions
    nu_tab = np.asarray(nu, dtype=float).reshape(X, A)
    mu = np.asarray(mu, dtype=float)
    p = _kernel_at(spec, mu)
    nu_p = np.einsum("yxa,xa->y", p, nu_tab)
    marginal = nu_tab.sum(axis=1)
    h1 = np.concatenate([
        -nu_tab.ravel(),
        -marginal + (1.0 - spec.beta) * mu + spec.beta * nu_p,
    ])
    h2 = np.concatenate([-mu, [1.0 - mu.sum()], -mu + nu_p])
    return h1, h2


def _jac_h1_nu(spec, mu, dims):
    """J1 = dh1/dnu: top -I, bottom rows -1{x=.} + beta p_mu."""
    p = _kernel_at(spec, mu)
    bottom = spec.beta * p.reshape(dims.X, dims.nxa)
    for y in range(dims.X):
        for a in range(dims.A):
            bottom[y, y * dims.A + a] -= 1.0
    return np.vstack([-np.eye(dims.nxa), bottom])


def _jac_h2_mu(spec, nu_tab, dims):
    """J2 = dh2/dmu assembled from -I, -1^T, and -I + sum nu.P1 slices."""
    X = dims.X
    block3 = -np.eye(X) + np.einsum("yxaz,xa->yz", spec.P1, nu_tab)
    return np.vstack([-np.eye(X), -np.ones((1, X)), block3])


def _theta_f1(spec):
    """Table t[x, a, z] = <theta, F1[x, a, :, z]>, the mu-gradient of the
    cost at each state-action pair."""
    return np.einsum("xajz,j->xaz", spec.F1, spec.theta)


def kkt_map(spec, z, dims=None):
    """Stacked KKT residual H(z) = (F ; h + slack ; multipliers o slack).

    F = (grad_nu L1, grad_mu L2) with L1 = <nu, c_mu> + <h1, lambda> and
    L2 = <nu, c_mu> + <h2, gamma> (the second player reuses the first
    player's cost).
    """
    dims = dims or Dimensions(spec)
    z = np.asarray(z, dtype=float)
    nu = z[dims.s_nu]
    mu = z[dims.s_mu]
    lam = z[dims.s_lam]
    gam = z[dims.s_gam]
    slam = z[dims.s_slam]
    sgam = z[dims.s_sgam]
    nu_tab = nu.reshape(dims.X, dims.A)

    h1, h2 = constraints(spec, nu, mu)
    c = _cost_at(spec, mu).ravel()
    grad_nu_L1 = c + _jac_h1_nu(spec, mu, dims).T @ lam
    cost_mu_grad = np.einsum("xaz,xa->z", _theta_f1(spec), nu_tab)
    grad_mu_L2 = cost_mu_grad + _jac_h2_mu(spec, nu_tab, dims).T @ gam

    return np.concatenate([
        grad_nu_L1,
        grad_mu_L2,
        h1 + slam,
        h2 + sgam,
        lam * slam,
        gam * sgam,
    ])


def kkt_jacobian(spec, z, dims=None):
    """Analytic Jacobian of the KKT map for affine-in-mu models."""
    dims = dims or Dimensions(spec)
    z = np.asarray(z, dtype=float)
    nu_tab = z[dims.s_nu].reshape(dims.X, dims.A)
    mu = z[dims.s_mu]
    lam = z[dims.s_lam]
    gam = z[dims.s_gam]
    slam = z[dims.s_slam]
    sgam = z[dims.s_sgam]
    X, A, nxa = dims.X, dims.A, dims.nxa

    J1 = _jac_h1_nu(spec, mu, dims)
    J2 = _jac_h2_mu(spec, nu_tab, dims)
    tf1 = _theta_f1(spec)  # [x, a, z]
    lam2 = lam[nxa:]
    gam3 = gam[X + 1:]

    J = np.zeros((dims.dim, dims.dim))
    r = 0
    # grad_nu L1 rows: c_mu + J1^T lam.
    rows = slice(r, r + nxa); r += nxa
    J[rows, dims.s_mu] = (tf1 + spec.beta
                          * np.einsum("yxaz,y->xaz", spec.P1, lam2)).reshape(nxa, X)
    J[rows, dims.s_lam] = J1.T
    # grad_mu L2 rows: cost mu-gradient + J2^T gam.
    rows = slice(r, r + X); r += X
    J[rows, dims.s_nu] = (tf1 + np.einsum("yxaz,y->xaz", spec.P1, gam3)
                          ).reshape(nxa, X).T
    J[rows, dims.s_gam] = J2.T
    # h1 + slack rows.
    rows = slice(r, r + dims.m1); r += dims.m1
    J[rows, dims.s_nu] = J1
    d_h1_mu = np.zeros((dims.m1, X))
    d_h1_mu[nxa:] = ((1.0 - spec.beta) * np.eye(X)
                     + spec.beta * np.einsum("yxaz,xa->yz", spec.P1, nu_tab))
    J[rows, dims.s_mu] = d_h1_mu
    J[rows, dims.s_slam] = np.eye(dims.m1)
    # h2 + slack rows.
    rows = slice(r, r + dims.m2); r += dims.m2
    p = _kernel_at(spec, mu)
    d_h2_nu = np.zeros((dims.m2, nxa))
    d_h2_nu[X + 1:] = p.reshape(X, nxa)
    J[rows, dims.s_nu] = d_h2_nu
    J[rows, dims.s_mu] = J2
    J[rows, dims.s_sgam] = np.eye(dims.m2)
    # Complementarity rows.
    rows = slice(r, r + dims.m1); r += dims.m1
    J[rows, dims.s_lam] = np.diag(slam)
    J[rows, dims.s_slam] = np.diag(lam)
    rows = slice(r, r + dims.m2)
    J[rows, dims.s_gam] = np.diag(sgam)
    J[rows, dims.s_sgam] = np.diag(gam)
    return J


def potential(Hz, n, K):
    """Barrier potential p(u, v) = K log(|u|^2 + |v|^2) - sum log v_i,
    with u the first n components and v the rest."""
    Hz = np.asarray(Hz, dtype=float)
    u, v = Hz[:n], Hz[n:]
    if np.any(v <= 0.0):
        raise BoundaryViolation(f"min v-component {v.min():.3e} is not positive")
    return float(K * np.log(u @ u + v @ v) - np.log(v).sum())


def potential_gradient(Hz, n, K):
    """Gradient of the barrier potential in (u, v)."""
    Hz = np.asarray(Hz, dtype=float)
    u, v = Hz[:n], Hz[n:]
    sq = u @ u + v @ v
    return np.concatenate([2.0 * K * u / sq, 2.0 * K * v / sq - 1.0 / v])


def _interior(z, Hz, dims):
    mult = z[dims.n:]
    return bool(np.all(mult > 0.0) and np.all(Hz[dims.n:] > 0.0))


def _centering_vector(dims):
    a = np.zeros(dims.dim)
    a[dims.n:] = 1.0
    return a / np.linalg.norm(a)


def newton_direction(spec, z, sigma, config, dims=None):
    """Potential-reduction Newton direction and its directional derivative.

    d = grad(H)^{-1} (sigma <a, H> a - H) with a the normalized indicator
    of the positivity block. The solve applies a truncated Moore-Penrose
    pseudoinverse (relative singular-value cutoff config.direction_rcond):
    the Jacobian turns singular whenever strict complementarity fails along
    the path, and a plain LU solve then produces runaway directions.
    numerics.truncated_lstsq computes it from one LU factorization, with
    the dims.m slack columns eliminated, when the system is large and at
    most one singular value falls clearly below the cut, and from lstsq's
    SVD otherwise. Returns (d, slope, path), path naming how d was computed
    ("lu", "lu_cut1" or "svd"). Raises NonDescent, carrying that path, if
    <grad psi, d> >= 0.
    """
    dims = dims or Dimensions(spec)
    K = config.K if config.K is not None else 2.0 * dims.m
    Hz = kkt_map(spec, z, dims)
    JH = kkt_jacobian(spec, z, dims)
    a = _centering_vector(dims)
    rhs = sigma * (a @ Hz) * a - Hz
    grad_psi = JH.T @ potential_gradient(Hz, dims.n, K)
    d, path = truncated_lstsq(JH, rhs, config.direction_rcond, dims.m)
    slope = float(grad_psi @ d)
    if slope >= 0.0:
        raise NonDescent(f"directional derivative {slope:.3e} is not negative",
                         path=path)
    return d, slope, path


def armijo_step(spec, z, d, slope, config, dims=None):
    """Largest step kappa^l keeping the iterate interior and achieving the
    sufficient-decrease fraction armijo_alpha of the directional derivative."""
    dims = dims or Dimensions(spec)
    K = config.K if config.K is not None else 2.0 * dims.m
    Hz = kkt_map(spec, z, dims)
    psi0 = potential(Hz, dims.n, K)
    t = 1.0
    for _ in range(MAX_BACKTRACK + 1):
        z_next = z + t * d
        H_next = kkt_map(spec, z_next, dims)
        if _interior(z_next, H_next, dims):
            psi_next = potential(H_next, dims.n, K)
            if psi_next <= psi0 + config.armijo_alpha * t * slope:
                return t, z_next
        t *= config.kappa
    raise LineSearchStall(f"no acceptable step above kappa^{MAX_BACKTRACK}")


def initial_point(spec, dims=None):
    """Interior starting iterate: uniform nu and mu, unit multipliers, and
    slacks padded so every positivity component of H is at least 1."""
    dims = dims or Dimensions(spec)
    z = np.zeros(dims.dim)
    z[dims.s_nu] = 1.0 / dims.nxa
    z[dims.s_mu] = 1.0 / dims.X
    z[dims.s_lam] = 1.0
    z[dims.s_gam] = 1.0
    h1, h2 = constraints(spec, z[dims.s_nu], z[dims.s_mu])
    z[dims.s_slam] = np.maximum(1.0, 1.0 - h1)
    z[dims.s_sgam] = np.maximum(1.0, 1.0 - h2)
    return z


def solve_gnep(spec, config=None):
    """Run the potential-reduction iteration and extract the equilibrium.

    Returns (Equilibrium, KktReport); raises NotConverged (with both
    attached) when the KKT norm does not reach config.tol in time, and
    NonDescent or LineSearchStall with the report up to the failing
    iteration attached. The report counts the failing direction too.
    """
    config = config or GnepConfig()
    dims = Dimensions(spec)
    z = initial_point(spec, dims)
    report = KktReport()
    K = config.K if config.K is not None else 2.0 * dims.m

    for it in range(config.max_iter):
        Hz = kkt_map(spec, z, dims)
        h_norm = float(np.linalg.norm(Hz))
        report.h_norm_history.append(h_norm)
        report.psi_history.append(potential(Hz, dims.n, K))
        report.iterations = it
        if h_norm <= config.tol:
            report.converged = True
            break
        try:
            d, slope, path = newton_direction(spec, z, config.sigma, config, dims)
            report.directions[path] += 1
            _, z = armijo_step(spec, z, d, slope, config, dims)
        except NonDescent as exc:
            report.directions[exc.path] += 1
            raise NonDescent(f"iteration {it}: {exc}", report=report,
                             path=exc.path) from exc
        except LineSearchStall as exc:
            raise LineSearchStall(f"iteration {it}: {exc}", report=report) from exc
    else:
        Hz = kkt_map(spec, z, dims)
        h_norm = float(np.linalg.norm(Hz))
        report.h_norm_history.append(h_norm)
        report.psi_history.append(potential(Hz, dims.n, K))
        report.iterations = config.max_iter
        report.converged = h_norm <= config.tol

    report.residual_stationarity = float(np.abs(Hz[: dims.n]).max())
    report.residual_feasibility = float(
        np.abs(Hz[dims.n : dims.n + dims.m]).max()
    )
    report.residual_complementarity = float(np.abs(Hz[dims.n + dims.m :]).max())

    nu_tab = z[dims.s_nu].reshape(dims.X, dims.A)
    mu = z[dims.s_mu].copy()
    nu_tab = np.clip(nu_tab, 0.0, None)
    mu = np.clip(mu, 0.0, None)
    nu_tab /= nu_tab.sum()
    mu /= mu.sum()
    pi = disintegrate(nu_tab)
    gap, residual = verify_mfe(spec, pi, mu)
    eq = Equilibrium(
        policy=pi,
        mean_field=mu,
        occupation=OccupationMeasure(nu=nu_tab, beta=spec.beta, mu0=mu),
        optimality_gap=gap,
        invariance_residual=residual,
    )
    if not report.converged:
        raise NotConverged(
            f"|H| = {h_norm:.3e} after {report.iterations} iterations",
            result=(eq, report),
        )
    return eq, report


def verify_mfe(spec, pi, mu):
    """Check the two equilibrium conditions directly.

    optimality_gap: excess discounted cost of pi over the optimal policy of
    the frozen-mu MDP, started from mu (cost convention, so >= 0 up to
    solver noise). invariance_residual: sup-norm of mu - mu P_{pi,mu}.
    """
    mu = np.asarray(mu, dtype=float)
    _, pi_opt = value_iteration(spec, mu)
    J_pi = float(mu @ policy_evaluation(spec, pi, mu))
    J_opt = float(mu @ policy_evaluation(spec, pi_opt, mu))
    gap = max(J_pi - J_opt, 0.0)
    P = policy_chain(spec, pi, mu)
    residual = float(np.abs(mu - mu @ P).max())
    return gap, residual
