"""Dense linear-algebra and numerical utilities shared by all solvers.

Everything here is a pure function of its inputs. Problem sizes are at most
a few hundred, so dense LAPACK-backed routines are used throughout.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import EmptyInput, NonFiniteEvaluation, SingularMatrix

PIVOT_RTOL = 1e-14
DEFAULT_RCOND = 1e-12
DEFAULT_FD_STEP = 1e-6

# truncated_lstsq solves square systems of at least this dimension from one
# LU factorization; smaller ones go straight to lstsq. Milliseconds per
# direction, averaged over the KKT Jacobians of a whole solve: lstsq / LU
# of the whole J (a plain matrix) / LU of the slack-eliminated matrix (J
# as KktBlocks), the better of two runs of best-of-three passes (chain
# models; 2-core x86_64, one OpenBLAS thread, a shared box):
#   dim  67:  0.93 / 1.33 / 1.28    dim 197:   6.43 / 2.79 /  1.80
#   dim 106:  2.02 / 1.67 / 1.60    dim 236:   8.37 / 2.99 /  2.05
#   dim 132:  3.08 / 1.85 / 1.57    dim 262:  10.32 / 3.20 /  2.01
#   dim 158:  4.03 / 1.40 / 1.06    dim 327:  17.75 / 5.24 /  3.24
#                                   dim 652: 114.06 / 20.07 / 8.02
# The LU paths win from about dim 100. The bound sits higher, at 200, so
# that the builtin models (dim 28 and 132) and small random models keep
# lstsq's rounding, and with it their byte-stable outputs, for at most a
# few ms a direction. The bound is compared with the dimension of J.
LU_MIN_DIM = 200
# A Ritz value within this relative distance of the cut defers to the SVD.
CUT_BAND = 0.05
MAX_STEPS = 40            # step budget of each block iteration
POWER_RTOL = 1e-3         # sigma_max settles once a step raises it by less
RITZ_GUARD = 100.0        # a Ritz value may still fall this many last steps
VECTOR_TOL = 1e-12        # the dropped right vector must move less than this
# J^-T V counts as numerically rank one when its second singular value is
# below this fraction of the first: the SVD holds a value only to eps times
# the first, so the second would be known to no better than
# eps / RANK_RTOL = 2e-3 relative.
RANK_RTOL = 1e-13


def solve_linear(A, b):
    """Solve the square system A x = b by LU with partial pivoting.

    Raises SingularMatrix when elimination produces no pivot above
    PIVOT_RTOL relative to the largest entry of A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected square matrix, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"dimension mismatch: A is {A.shape}, b is {b.shape}")
    scale = np.abs(A).max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    try:
        lu, piv = lu_factor(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:g} * {scale:.3e}"
        )
    return lu_solve((lu, piv), b)


def pseudo_inverse(A, rcond=DEFAULT_RCOND):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below rcond * sigma_max are truncated. Total on any
    finite matrix.
    """
    A = np.asarray(A, dtype=float)
    return np.linalg.pinv(A, rcond=rcond)


def _start_block(n):
    """Fixed, well-spread start block of both block iterations: the Weyl
    sequences frac(i sqrt(p)) - 1/2 for p = 2, 3, 5, one per column. Three
    columns: the two wanted vectors and a guard that speeds their
    convergence."""
    return np.modf(np.outer(np.arange(1.0, n + 1.0), np.sqrt([2.0, 3.0, 5.0])))[0] - 0.5


class KktBlocks:
    """A square KKT matrix held by its blocks, with its m slack columns last:

        J = [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]]

    FG = [Fx, G] holds the n stationarity rows (n x (n + m)), Hx the
    constraint rows' primal part (m x n), and s and y the m slacks and
    their multipliers. A plain square matrix is the case m = 0
    (`of_matrix`). Products with J and J' come from the blocks; `dense`
    assembles J. Raises ValueError when the block shapes do not fit."""

    def __init__(self, FG, Hx, s, y):
        n, m = FG.shape[0], s.shape[0]
        if (FG.shape != (n, n + m) or Hx.shape != (m, n)
                or s.shape != (m,) or y.shape != (m,)):
            raise ValueError(f"no KKT layout in blocks {FG.shape}, {Hx.shape}, "
                             f"{s.shape} and {y.shape}")
        self.FG, self.Hx, self.s, self.y = FG, Hx, s, y
        self.n, self.m, self.dim = n, m, n + 2 * m

    @classmethod
    def of_matrix(cls, J):
        """A square matrix as blocks with no slacks."""
        J = np.asarray(J, dtype=float)
        return cls(J, np.empty((0, len(J))), np.empty(0), np.empty(0))

    def _diagonals(self, X):
        return (self.s, self.y) if X.ndim == 1 else (self.s[:, None], self.y[:, None])

    def matmul(self, X):
        """J X, for a vector or a block of columns X."""
        n, k = self.n, self.n + self.m
        s, y = self._diagonals(X)
        X_s = X[k:]
        return np.concatenate([self.FG @ X[:k], self.Hx @ X[:n] + X_s,
                               s * X[n:k] + y * X_s])

    def rmatmul(self, Y):
        """J' Y, for a vector or a block of columns Y."""
        n, k = self.n, self.n + self.m
        s, y = self._diagonals(Y)
        Y_h, Y_c = Y[n:k], Y[k:]
        out = self.FG.T @ Y[:n]
        out[:n] += self.Hx.T @ Y_h
        out[n:] += s * Y_c
        return np.concatenate([out, Y_h + y * Y_c])

    def dense(self):
        """J as one array."""
        if not self.m:
            return self.FG
        n, m, k = self.n, self.m, self.n + self.m
        J = np.zeros((self.dim, self.dim))
        J[:n, :k] = self.FG
        J[n:k, :n] = self.Hx
        J[n:k, k:] = np.eye(m)
        J[k:, n:k] = np.diag(self.s)
        J[k:, k:] = np.diag(self.y)
        return J


class _SlackEliminatedLu:
    """Solves with the J of KktBlocks kkt from one LU factorization of the
    slack-eliminated matrix R = [[Fx, G], [-diag(y) Hx, diag(s)]] of
    dimension n + m (Wright, Primal-Dual Interior-Point Methods, ch. 11).
    The slack columns hold only an identity and a diagonal block, so they
    are eliminated exactly, without division. With m = 0, R = J. Every
    operand is a block of columns. `nonsingular` is False when a pivot of
    R is zero or not finite."""

    def __init__(self, kkt):
        self.kkt = kkt
        n, k = kkt.n, kkt.n + kkt.m
        R = np.empty((k, k))
        R[:n] = kkt.FG
        R[n:, :n] = -kkt.y[:, None] * kkt.Hx
        R[n:, n:] = np.diagflat(kkt.s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            self.lu_piv = lu_factor(R, overwrite_a=True, check_finite=False)
        pivots = np.abs(np.diagonal(self.lu_piv[0]))
        self.nonsingular = bool(np.all(np.isfinite(pivots)) and pivots.min() > 0.0)

    def solve(self, B):
        """J^-1 B: (dx, dy) = R^-1 (B_F, B_c - y B_h), ds = B_h - Hx dx."""
        kkt = self.kkt
        n, k = kkt.n, kkt.n + kkt.m
        B_h = B[n:k]
        X = lu_solve(self.lu_piv, np.concatenate([B[:n], B[k:] - kkt.y[:, None] * B_h]),
                     check_finite=False)
        return np.concatenate([X, B_h - kkt.Hx @ X[:n]])

    def solve_t(self, Q):
        """J^-T Q: (W_F, W_c) = R^-T (Q_x - Hx' Q_s, Q_y), W_h = Q_s - y W_c."""
        kkt = self.kkt
        n, k = kkt.n, kkt.n + kkt.m
        Q_s = Q[k:]
        r = Q[:k].copy()
        r[:n] -= kkt.Hx.T @ Q_s
        W = lu_solve(self.lu_piv, r, trans=1, check_finite=False)
        W_c = W[n:]
        return np.concatenate([W[:n], Q_s - kkt.y[:, None] * W_c, W_c])


def _sigma_max(kkt):
    """Largest singular value of J from below, to about POWER_RTOL: block
    power iteration on J'J, started in the row space of J, with a
    Rayleigh-Ritz estimate at each step."""
    X = np.linalg.qr(kkt.rmatmul(_start_block(kkt.dim)))[0]
    est = 0.0
    for _ in range(MAX_STEPS):
        Y = kkt.matmul(X)
        s = float(np.sqrt(np.linalg.eigvalsh(Y.T @ Y)[-1]))
        if s <= est * (1.0 + POWER_RTOL):
            break
        est = s
        X = np.linalg.qr(kkt.rmatmul(Y))[0]
    return max(est, s)


def _lu_truncated(kkt, rhs, rcond):
    """The truncated least-squares solution from one LU factorization, as
    (x, path), or None when the cut cannot be placed safely.

    The two smallest singular triplets come from inverse subspace
    iteration on (J'J)^-1 = J^-1 J^-T, applied through the factors of the
    slack-eliminated matrix. The Ritz values, the reciprocal singular
    values of Y = J^-T V, are upper bounds on the singular values they
    track and decrease towards them, so a value below `lo` is below the cut
    for certain; one above `hi` counts once RITZ_GUARD times its last change
    could not carry it to `hi`, and one inside the band once it could not
    carry it below `lo`. They come from an SVD of Y, not from the Gram
    matrix Y'Y, which squares their spread: when sigma_min lies far below
    sigma_2, the Gram matrix holds the second value only to rounding noise
    of the first, and a noisy value below the cut would defer for nothing.
    J^-T V counts as rank one, and defers, only when the SVD itself cannot
    resolve the second value (RANK_RTOL).
    """
    lu = _SlackEliminatedLu(kkt)
    if not lu.nonsingular:
        return None
    cut = rcond * _sigma_max(kkt)
    lo, hi = cut * (1.0 - CUT_BAND), cut * (1.0 + CUT_BAND)
    V = np.linalg.qr(_start_block(kkt.dim))[0]
    sigma_old = v_old = None
    for _ in range(MAX_STEPS):
        Y = lu.solve_t(V)
        if not np.all(np.isfinite(Y)):
            return None
        U, inv_sigma, W = np.linalg.svd(Y, full_matrices=False)
        if inv_sigma[1] <= RANK_RTOL * inv_sigma[0]:
            return None                             # J^-T V is rank one
        sigma = 1.0 / inv_sigma[:2]                 # the two smallest
        if sigma[1] < lo:
            return None                             # two below the cut
        v = V @ W[0]
        if sigma_old is not None:
            guard = RITZ_GUARD * np.abs(sigma_old - sigma) / sigma
            above = guard < 1.0 - hi / sigma
            band = (sigma <= hi) & (guard < 1.0 - lo / sigma)
            if above[0]:
                return lu.solve(rhs[:, None])[:, 0], "lu"
            if band[0] or (sigma[0] < lo and band[1]):
                return None                         # a value inside the band
            moved = np.linalg.norm(v - np.copysign(1.0, v @ v_old) * v_old)
            if sigma[0] < lo and above[1] and moved <= VECTOR_TOL:
                u = U[:, 0]
                x = lu.solve((rhs - u * (u @ rhs))[:, None])[:, 0]
                return x - v * (v @ x), "lu_cut1"
        sigma_old, v_old = sigma, v
        V = np.linalg.qr(lu.solve(Y))[0]
    return None


def truncated_lstsq(J, rhs, rcond):
    """Least-squares solution of the square system J x = rhs with every
    singular value at or below rcond * sigma_max dropped:
    np.linalg.lstsq(J, rhs, rcond)[0] up to rounding. Returns (x, path).

    J is a square matrix, or a KktBlocks with its slack columns last: J =
    [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]], as
    gnep.kkt_jacobian returns it. The blocks are used as they are; the
    dense J is assembled only for lstsq.

    A J of dimension at least LU_MIN_DIM is solved from one LU
    factorization. The slack columns are eliminated exactly, without
    division, and the factored matrix is R = [[Fx, G], [-diag(y) Hx,
    diag(s)]] of dimension n + m; with no slacks it is J itself. If J's
    smallest singular value lies clearly above the cut, x is the LU solve
    (path "lu"). If exactly one lies clearly below, that triplet (sigma, u,
    v) is removed: x = (I - v v') J^-1 (rhs - u u' rhs) (path "lu_cut1").
    In every other case (a value within CUT_BAND of the cut, two or more
    below it, no convergence within MAX_STEPS, a non-finite value, or a
    small system) x comes from lstsq's SVD on the dense J (path "svd").
    """
    kkt = J if isinstance(J, KktBlocks) else KktBlocks.of_matrix(J)
    rhs = np.asarray(rhs, dtype=float)
    if kkt.dim >= LU_MIN_DIM and rhs.ndim == 1:
        found = _lu_truncated(kkt, rhs, rcond)
        if found is not None and np.all(np.isfinite(found[0])):
            return found
    return np.linalg.lstsq(kkt.dense(), rhs, rcond=rcond)[0], "svd"


def log_sum_exp(v):
    """Stabilized log(sum(exp(v))): max(v) + log(sum(exp(v - max(v))))."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("log_sum_exp of empty vector")
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def jacobian_fd(F, z, h_rel=DEFAULT_FD_STEP):
    """Central-difference Jacobian of a vector-valued map F at z.

    Per-coordinate step is h_rel * (1 + |z_i|). Raises NonFiniteEvaluation
    if F returns non-finite values at any probe point.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    cols = []
    for i in range(n):
        h = h_rel * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        fp = np.asarray(F(zp), dtype=float)
        fm = np.asarray(F(zm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFiniteEvaluation(f"non-finite evaluation at coordinate {i}")
        cols.append((fp - fm) / (2.0 * h))
    return np.stack(cols, axis=1)
