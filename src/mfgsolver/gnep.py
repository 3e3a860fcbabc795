"""Forward mean-field equilibrium solver via a two-player GNEP.

Player 1 (the generic agent) minimizes <nu, c_mu> over occupation measures
subject to the relaxed Bellman flow inequality; player 2 (the population)
carries the invariance constraint mu >= nu p_mu together with the mass
bound <mu, 1> >= 1. The joint KKT system with slacks is driven to zero by
an interior-point potential-reduction Newton iteration, after which the
equilibrium policy is read off by disintegration and verified directly
against the frozen-mu MDP.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryViolation,
    LineSearchStall,
    MissingTheta,
    NonDescent,
    NotConverged,
    SolverFailure,
)
from .mdp import OccupationMeasure, _best_response, _evaluate, disintegrate
from .model import check_policy, frozen_tables
from .numerics import BLOCK_STEPS, KktBlocks, StartBlocks, truncated_lstsq

MAX_BACKTRACK = 200
# Sufficient-decrease fraction of the directional derivative in armijo_step.
ARMIJO_ALPHA = 0.1
# Relative singular-value cutoff of the truncated pseudoinverse applied to
# the KKT Jacobian (see newton_direction).
DIRECTION_RCOND = 1e-6
# The potential constant is K = POTENTIAL_K_PER_M * m, which satisfies K > m.
POTENTIAL_K_PER_M = 2.0
# KktReport.line_search: trials, and the rejected ones by cause.
LINE_SEARCH = ("trials", "interior_failures", "armijo_failures")


@dataclass
class GnepConfig:
    """Interior-point iteration parameters.

    sigma is the centering weight and kappa the backtracking base. The line
    search tries t = 1, kappa, kappa^2, ... on the exact quadratic H(z +
    t d) = H(z) + t J d + t^2 Q(d), so a small kappa costs vector
    arithmetic per trial, not KKT evaluations.
    The Newton direction applies the pseudoinverse of the KKT Jacobian
    truncated at DIRECTION_RCOND; untruncated directions blow up whenever
    the path nears a point where strict complementarity fails. The
    truncated direction is lstsq's up to rounding. A KKT system of
    dimension numerics.LU_MIN_DIM (100) or more gets it from one LU
    factorization of the n x n Schur complement Fx + G diag(y/s) Hx of the
    Jacobian blocks (not n + 2m), through numpy's LAPACK below
    numerics.GETRF_MIN_DIM (200) and scipy's getrf from there on, so
    malware10 (dimension 132) solves without scipy and malware2 (28) on
    lstsq: the plain solve when no singular value of the
    whole Jacobian lies near the cut, or the solve with the one dropped
    singular triplet removed, each refined once against the whole
    Jacobian. The division by the slacks s is safe because s > 0 at every
    interior iterate. It defers to lstsq's SVD of the assembled Jacobian
    when some s <= 0, when a singular value lies within numerics.CUT_BAND
    of the cut, when two or more fall below it, or when the triplet does
    not converge. The block iterations that find the largest and the two
    smallest singular values start from the solve's numerics.StartBlocks:
    cold on the first direction, then from the Ritz vectors the last
    direction ended with plus one generic column. They have no setting
    here.

    Rejects, with ValueError, a sigma outside [0, 1), a kappa outside (0,
    1), a tol that is negative or not finite, and a max_iter that is
    negative, a bool or not an integer.
    """

    sigma: float = 0.1
    kappa: float = 0.5
    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0,1), got {self.sigma}")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be non-negative and finite, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")


@dataclass
class KktReport:
    """Per-iteration KKT norms and potentials, the outcome, how many Newton
    directions each path of numerics.truncated_lstsq computed ("lu",
    "lu_cut1", "svd"), the line-search trials with their rejections by
    cause (LINE_SEARCH), and the block steps of the LU path's
    singular-value estimates (numerics.BLOCK_STEPS: power steps and
    subspace solves)."""

    h_norm_history: list = field(default_factory=list)
    psi_history: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    directions: dict = field(
        default_factory=lambda: {"lu": 0, "lu_cut1": 0, "svd": 0})
    line_search: dict = field(default_factory=lambda: dict.fromkeys(LINE_SEARCH, 0))
    block_steps: dict = field(default_factory=lambda: dict.fromkeys(BLOCK_STEPS, 0))


@dataclass(frozen=True)
class Equilibrium:
    policy: np.ndarray
    mean_field: np.ndarray
    occupation: OccupationMeasure
    optimality_gap: float
    invariance_residual: float


class KktSystem:
    """The joint KKT system H(z) = 0 of one model, with the blocks that do
    not depend on z built once per solve.

    z stacks (nu, mu, lam, gam, slam, sgam): the primal part x = (nu, mu)
    of size n = XA + X; the multipliers y = (lam, gam) of the m1 = XA + X
    player-1 and m2 = 2X + 1 player-2 constraints; and their slacks s. So
    H(z) = (F ; h + s ; y o s), with F = (grad_nu L1, grad_mu L2), L1 =
    <nu, c_mu> + <h1, lam> and L2 = <nu, c_mu> + <h2, gam> (the second
    player reuses the first player's cost).

    The model is affine in mu, so every term of H is constant, linear or
    bilinear in z, and along any line H(z + t d) = H(z) + t J(z) d + t^2
    Q(d) holds exactly. The three are `H`, `jacobian` (as numerics.KktBlocks)
    and `Q`. K is the constant of the barrier potential. `start_blocks`
    (numerics.StartBlocks) carries the truncated direction's block
    iterations from one Jacobian of the solve to the next.
    """

    def __init__(self, spec):
        if spec.theta is None:
            raise MissingTheta("GNEP solve needs reward weights")
        X, A = spec.n_states, spec.n_actions
        self.spec = spec
        self.X, self.A = X, A
        self.nxa = nxa = X * A
        self.n = nxa + X
        self.m1 = nxa + X
        self.m2 = 2 * X + 1
        self.m = self.m1 + self.m2
        self.dim = self.n + 2 * self.m
        self.K = POTENTIAL_K_PER_M * self.m
        ofs = 0
        self.s_nu = slice(ofs, ofs + nxa); ofs += nxa
        self.s_mu = slice(ofs, ofs + X); ofs += X
        self.s_lam = slice(ofs, ofs + self.m1); ofs += self.m1
        self.s_gam = slice(ofs, ofs + self.m2); ofs += self.m2
        self.s_slam = slice(ofs, ofs + self.m1); ofs += self.m1
        self.s_sgam = slice(ofs, ofs + self.m2)

        self.beta = spec.beta
        self.P1 = spec.P1
        # P1 as the matrices of mu -> P1[mu] (rows (y, x, a)) and of
        # y -> sum_y y_y P1[y] (columns (x, a, z)).
        self.P1_mu = spec.P1.reshape(X * nxa, X)
        self.P1_y = spec.P1.reshape(X, nxa * X)
        # t[x, a, z] = <theta, F1[x, a, :, z]>, the mu-gradient of the cost.
        self.theta_f1 = np.einsum("xajz,j->xaz", spec.F1, spec.theta)
        self.marginal = np.kron(np.eye(X), np.ones(A))     # 1{x = y}, X x XA
        self.neg_eye_X = -np.eye(X)
        # J1 = dh1/dnu = [-I ; beta p_mu - 1{x=.}] and J2 = dh2/dmu = [-I ;
        # -1' ; -I + P1[nu]] with their constant rows filled; _tables writes
        # the rest.
        self._J1 = np.vstack([-np.eye(nxa), np.empty((X, nxa))])
        self._J2 = np.vstack([-np.eye(X), -np.ones((1, X)), np.empty((X, X))])
        a = np.zeros(self.dim)
        a[self.n:] = 1.0
        self.centering = a / np.linalg.norm(a)
        self._tables_at = None
        self.start_blocks = StartBlocks(self.dim)

    def _tables(self, z):
        """The kernel p_mu and P1[nu] = sum_(x,a) nu(x,a) P1[:, x, a, :] at
        z, with J1 and J2 written into their buffers from them. All depend
        on x = (nu, mu) alone and are kept for the last x: the solver asks
        for H and then for J at each iterate."""
        x = z[:self.n]
        if self._tables_at is None or not np.array_equal(self._tables_at[0], x):
            nu_tab = x[self.s_nu].reshape(self.X, self.A)
            p = self._kernel(x[self.s_mu])
            nu_P1 = np.einsum("yxaz,xa->yz", self.P1, nu_tab)
            self._J1[self.nxa:] = self.beta * p.reshape(self.X, self.nxa) - self.marginal
            self._J2[self.X + 1:] = self.neg_eye_X + nu_P1
            self._tables_at = (x.copy(), p, nu_P1)
        return self._tables_at[1:]

    def _kernel(self, mu):
        """p[y, x, a] without simplex validation; iterates leave the simplex."""
        return self.spec.P0 + np.einsum("yxaz,z->yxa", self.P1, mu)

    def _constraints(self, nu_tab, mu, p):
        nu_p = np.einsum("yxa,xa->y", p, nu_tab)
        marginal = nu_tab.sum(axis=1)
        h1 = np.concatenate([
            -nu_tab.ravel(),
            -marginal + (1.0 - self.beta) * mu + self.beta * nu_p,
        ])
        h2 = np.concatenate([-mu, [1.0 - mu.sum()], -mu + nu_p])
        return h1, h2

    def constraints(self, nu, mu):
        """Inequality blocks h1 (player 1) and h2 (player 2), both <= 0 when
        feasible.

        h1 = (-nu ; -nu^X + (1-beta) mu + beta nu p_mu)
        h2 = (-mu ; -<mu,1> + 1 ; -mu + nu p_mu)
        """
        nu_tab = np.asarray(nu, dtype=float).reshape(self.X, self.A)
        mu = np.asarray(mu, dtype=float)
        return self._constraints(nu_tab, mu, self._kernel(mu))

    def H(self, z):
        """The stacked KKT residual H(z)."""
        z = np.asarray(z, dtype=float)
        nu_tab = z[self.s_nu].reshape(self.X, self.A)
        mu = z[self.s_mu]
        lam, gam = z[self.s_lam], z[self.s_gam]
        spec = self.spec
        p, _ = self._tables(z)
        h1, h2 = self._constraints(nu_tab, mu, p)
        c = ((spec.F0 + np.einsum("xajz,z->xaj", spec.F1, mu)) @ spec.theta).ravel()
        grad_nu_L1 = c + self._J1.T @ lam
        cost_mu_grad = np.einsum("xaz,xa->z", self.theta_f1, nu_tab)
        grad_mu_L2 = cost_mu_grad + self._J2.T @ gam
        return np.concatenate([
            grad_nu_L1,
            grad_mu_L2,
            h1 + z[self.s_slam],
            h2 + z[self.s_sgam],
            lam * z[self.s_slam],
            gam * z[self.s_sgam],
        ])

    def jacobian(self, z):
        """The analytic Jacobian of H at z as numerics.KktBlocks: J = [[Fx,
        G, 0], [Hx, 0, I], [0, diag(s), diag(y)]] over the columns (x, y,
        s), carrying the system's start_blocks."""
        z = np.asarray(z, dtype=float)
        lam, gam = z[self.s_lam], z[self.s_gam]
        X, nxa, n, m1 = self.X, self.nxa, self.n, self.m1
        beta, tf1 = self.beta, self.theta_f1
        p, nu_P1 = self._tables(z)

        FG = np.zeros((n, n + self.m))
        # grad_nu L1 rows: c_mu + J1' lam.
        FG[:nxa, self.s_mu] = (tf1 + beta * np.einsum("yxaz,y->xaz", self.P1, lam[nxa:])
                               ).reshape(nxa, X)
        FG[:nxa, self.s_lam] = self._J1.T
        # grad_mu L2 rows: the cost's mu-gradient + J2' gam.
        FG[nxa:, self.s_nu] = (tf1 + np.einsum("yxaz,y->xaz", self.P1, gam[X + 1:])
                               ).reshape(nxa, X).T
        FG[nxa:, self.s_gam] = self._J2.T
        Hx = np.zeros((self.m, n))
        # h1 rows.
        Hx[:m1, self.s_nu] = self._J1
        Hx[nxa:m1, self.s_mu] = (1.0 - beta) * np.eye(X) + beta * nu_P1
        # h2 rows.
        Hx[m1 + X + 1:, self.s_nu] = p.reshape(X, nxa)
        Hx[m1:, self.s_mu] = self._J2
        return KktBlocks(FG, Hx, z[n + self.m:].copy(), z[n:n + self.m].copy(),
                         self.start_blocks)

    def Q(self, d):
        """The quadratic part of H along d, so that H(z + t d) = H(z) + t
        J(z) d + t^2 Q(d): beta P1[dmu]' dlam2 and P1[dnu]' dgam3 in F,
        (beta) dnu P1[dmu] in h1 and h2, and dy o ds."""
        d = np.asarray(d, dtype=float)
        X, nxa, n, m1, m = self.X, self.nxa, self.n, self.m1, self.m
        dnu = d[self.s_nu]
        dp = (self.P1_mu @ d[self.s_mu]).reshape(X, nxa)    # P1[dmu]
        dnu_p = dp @ dnu
        q = np.zeros(self.dim)
        q[self.s_nu] = self.beta * (d[self.s_lam][nxa:] @ dp)
        q[self.s_mu] = dnu @ (d[self.s_gam][X + 1:] @ self.P1_y).reshape(nxa, X)
        q[n + nxa:n + m1] = self.beta * dnu_p
        q[n + m1 + X + 1:n + m] = dnu_p
        q[n + m:] = d[n:n + m] * d[n + m:]
        return q

    def initial_point(self):
        """Interior starting iterate: uniform nu and mu, unit multipliers,
        and slacks padded so every positivity component of H is at least 1."""
        z = np.zeros(self.dim)
        z[self.s_nu] = 1.0 / self.nxa
        z[self.s_mu] = 1.0 / self.X
        z[self.s_lam] = 1.0
        z[self.s_gam] = 1.0
        h1, h2 = self.constraints(z[self.s_nu], z[self.s_mu])
        z[self.s_slam] = np.maximum(1.0, 1.0 - h1)
        z[self.s_sgam] = np.maximum(1.0, 1.0 - h2)
        return z


# The solver evaluates the system only through these module-level names, so
# that a profiler (perfbench/tracing.py) can wrap and count them.

def kkt_map(kkt, z):
    """H(z) of the KktSystem kkt."""
    return kkt.H(z)


def kkt_jacobian(kkt, z):
    """The Jacobian of the KktSystem kkt at z, as numerics.KktBlocks with
    kkt's start blocks attached."""
    return kkt.jacobian(z)


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


def newton_direction(kkt, J, Hz, config, directions):
    """Potential-reduction Newton direction and its directional derivative.

    d = J^{-1} (sigma <a, H> a - H), with J = kkt_jacobian(kkt, z) given as
    its blocks, Hz = H(z), sigma = config.sigma and a the normalized
    indicator of the positivity block. The solve applies a truncated
    Moore-Penrose pseudoinverse (relative singular-value cutoff
    DIRECTION_RCOND): the Jacobian turns singular whenever strict
    complementarity fails along the path, and a plain LU solve then
    produces runaway directions. numerics.truncated_lstsq computes it from
    one LU factorization of the Schur complement of its blocks when the
    system is large and at most one singular value falls clearly below the cut, and
    from lstsq's SVD of the assembled J otherwise. The slope is <J' grad
    psi(H), d>, with J' applied from the blocks. Counts d into the dict
    directions under the path that computed it ("lu", "lu_cut1" or "svd"),
    and returns (d, slope). Raises NonDescent if the slope is not negative.
    """
    a = kkt.centering
    rhs = config.sigma * (a @ Hz) * a - Hz
    grad_psi = J.rmatmul(potential_gradient(Hz, kkt.n, kkt.K))
    d, path = truncated_lstsq(J, rhs, DIRECTION_RCOND)
    directions[path] += 1
    slope = float(grad_psi @ d)
    if slope >= 0.0:
        raise NonDescent(f"directional derivative {slope:.3e} is not negative")
    return d, slope


def armijo_step(kkt, J, z, Hz, psi0, d, slope, config, line_search):
    """Largest step t = kappa^l keeping the iterate interior and achieving
    the sufficient-decrease fraction ARMIJO_ALPHA of the directional
    derivative. Returns (t, z + t d).

    Hz = H(z) and psi0 its potential. H is quadratic along d, so every
    trial is H(z + t d) = Hz + t J d + t^2 Q(d), from J d and Q(d) formed
    once; no trial evaluates kkt_map. A trial is interior when the
    multipliers and slacks of z + t d and the positivity block of H are
    all positive. The trials are counted into the dict line_search:
    "trials", and the rejections "interior_failures" and
    "armijo_failures". Raises LineSearchStall after MAX_BACKTRACK
    backtracks.
    """
    n, K = kkt.n, kkt.K
    Jd = J.matmul(d)
    Qd = kkt.Q(d)
    mult, d_mult = z[n:], d[n:]
    t = 1.0
    for _ in range(MAX_BACKTRACK + 1):
        line_search["trials"] += 1
        H_next = Hz + t * Jd + t * t * Qd
        if np.all(mult + t * d_mult > 0.0) and np.all(H_next[n:] > 0.0):
            if potential(H_next, n, K) <= psi0 + ARMIJO_ALPHA * t * slope:
                return t, z + t * d
            line_search["armijo_failures"] += 1
        else:
            line_search["interior_failures"] += 1
        t *= config.kappa
    raise LineSearchStall(f"no acceptable step above kappa^{MAX_BACKTRACK}")


def solve_gnep(spec, config=None):
    """Run the potential-reduction iteration and read off the equilibrium.

    Each iteration evaluates H once (kkt_map) and its Jacobian once
    (kkt_jacobian), and hands H, its potential and the Jacobian's blocks
    to newton_direction and armijo_step. Returns (Equilibrium, KktReport)
    with the equilibrium from equilibrium_at. Every failure carries (z,
    KktReport) as its result, a copy of the last iterate and the report up
    to it: NotConverged when the KKT norm does not reach config.tol within
    config.max_iter iterations, and NonDescent, LineSearchStall or
    BoundaryViolation (an iterate whose positivity block of H is not
    positive), whose messages name the failing iteration. The report
    counts the failing direction and the failing line search too.
    """
    config = config or GnepConfig()
    kkt = KktSystem(spec)
    z = kkt.initial_point()
    report = KktReport(block_steps=kkt.start_blocks.steps)

    for it in range(config.max_iter + 1):
        Hz = kkt_map(kkt, z)
        h_norm = float(np.linalg.norm(Hz))
        report.h_norm_history.append(h_norm)
        report.iterations = it
        try:
            psi = potential(Hz, kkt.n, kkt.K)
            report.psi_history.append(psi)
            if h_norm <= config.tol:
                report.converged = True
                break
            if it == config.max_iter:
                break
            J = kkt_jacobian(kkt, z)
            d, slope = newton_direction(kkt, J, Hz, config, report.directions)
            _, z = armijo_step(kkt, J, z, Hz, psi, d, slope, config, report.line_search)
        except SolverFailure as exc:
            exc.args = (f"iteration {it}: {exc}",)
            exc.result = (z.copy(), report)
            raise
    if not report.converged:
        raise NotConverged(f"|H| = {h_norm:.3e} after {it} iterations",
                           result=(z.copy(), report))
    return equilibrium_at(spec, z), report


def equilibrium_at(spec, z):
    """The Equilibrium read off an iterate z of solve_gnep, which starts
    with nu and mu (KktSystem's layout): both clipped at zero and
    normalized, the policy by disintegrating nu, and the verify_mfe gap
    and residual of that policy and mean field."""
    X, A = spec.n_states, spec.n_actions
    nu_tab = np.clip(z[:X * A].reshape(X, A), 0.0, None)
    mu = np.clip(z[X * A:X * A + X], 0.0, None)
    nu_tab /= nu_tab.sum()
    mu /= mu.sum()
    pi = disintegrate(nu_tab)
    gap, residual = verify_mfe(spec, pi, mu)
    return Equilibrium(
        policy=pi,
        mean_field=mu,
        occupation=OccupationMeasure(nu=nu_tab, beta=spec.beta, mu0=mu),
        optimality_gap=gap,
        invariance_residual=residual,
    )


def verify_mfe(spec, pi, mu):
    """Check the two equilibrium conditions directly.

    optimality_gap: excess discounted cost of pi over the optimal policy of
    the frozen-mu MDP, started from mu (cost convention, so >= 0 up to
    solver noise). invariance_residual: sup-norm of mu - mu P_{pi,mu}.

    mu is checked once, and the kernel and cost table at it are built once
    (model.frozen_tables). The optimal cost is the best response's exact V,
    and pi's cost and residual share one solve.
    """
    mu = np.asarray(mu, dtype=float)
    c, p = frozen_tables(spec, mu)
    best, _ = _best_response(spec.beta, p, c)
    V_pi, P = _evaluate(spec.beta, check_policy(spec, pi), p, c)
    gap = max(float(mu @ V_pi) - float(mu @ best.V), 0.0)
    residual = float(np.abs(mu - mu @ P).max())
    return gap, residual
