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
# of the whole J (m = 0) / LU of the slack-eliminated matrix (m slacks),
# the better of two runs of best-of-three passes (chain models; 2-core
# x86_64, one OpenBLAS thread, a shared box):
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


def _check_kkt_layout(J, m):
    """Raise ValueError unless J = [[Fx, G, 0], [Hx, 0, I], [0, diag(s),
    diag(y)]] with its m > 0 slack columns last."""
    if J.ndim != 2 or J.shape[0] != J.shape[1] or not 0 < 2 * m <= J.shape[0]:
        raise ValueError(f"no KKT layout with {m} slacks in shape {J.shape}")
    n, k = J.shape[0] - 2 * m, J.shape[0] - m
    if J[:n, k:].any():
        raise ValueError("KKT layout: the stationarity rows have slack entries")
    if not (np.count_nonzero(J[n:k, n:]) == m
            and np.all(np.diagonal(J[n:k, k:]) == 1.0)):
        raise ValueError("KKT layout: the h rows are not [Hx, 0, I]")
    diagonals = np.diagonal(J[k:, n:k]), np.diagonal(J[k:, k:])
    if np.count_nonzero(J[k:]) != sum(map(np.count_nonzero, diagonals)):
        raise ValueError("KKT layout: the complementarity rows are not "
                         "[0, diag(s), diag(y)]")


class _Kkt:
    """A square J with its m slack columns last, held by the blocks of J =
    [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]]: products with J and J'
    from the blocks, and solves from one LU factorization of the
    slack-eliminated matrix R = [[Fx, G], [-diag(y) Hx, diag(s)]] of
    dimension dim - m (Wright, Primal-Dual Interior-Point Methods, ch. 11).
    With m = 0, R = J. Every operand is a block of columns. `nonsingular`
    is False when a pivot of R is zero or not finite."""

    def __init__(self, J, m):
        self.dim = J.shape[0]
        n, k = self.dim - 2 * m, self.dim - m
        self.n, self.k = n, k
        self.top = J[:n, :k]                    # [Fx, G]
        self.Hx = J[n:k, :n]
        self.s = np.diagonal(J[k:, n:k])[:, None]
        self.y = np.diagonal(J[k:, k:])[:, None]
        R = np.empty((k, k))
        R[:n] = self.top
        R[n:, :n] = -self.y * self.Hx
        R[n:, n:] = np.diagflat(self.s)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            self.lu_piv = lu_factor(R, overwrite_a=True, check_finite=False)
        pivots = np.abs(np.diagonal(self.lu_piv[0]))
        self.nonsingular = bool(np.all(np.isfinite(pivots)) and pivots.min() > 0.0)

    def matmul(self, X):
        """J X."""
        n, k = self.n, self.k
        X_s = X[k:]
        return np.concatenate([self.top @ X[:k], self.Hx @ X[:n] + X_s,
                               self.s * X[n:k] + self.y * X_s])

    def rmatmul(self, Y):
        """J' Y."""
        n, k = self.n, self.k
        Y_h, Y_c = Y[n:k], Y[k:]
        out = self.top.T @ Y[:n]
        out[:n] += self.Hx.T @ Y_h
        out[n:] += self.s * Y_c
        return np.concatenate([out, Y_h + self.y * Y_c])

    def solve(self, B):
        """J^-1 B: (dx, dy) = R^-1 (B_F, B_c - y B_h), ds = B_h - Hx dx."""
        n, k = self.n, self.k
        B_h = B[n:k]
        X = lu_solve(self.lu_piv, np.concatenate([B[:n], B[k:] - self.y * B_h]),
                     check_finite=False)
        return np.concatenate([X, B_h - self.Hx @ X[:n]])

    def solve_t(self, Q):
        """J^-T Q: (W_F, W_c) = R^-T (Q_x - Hx' Q_s, Q_y), W_h = Q_s - y W_c."""
        n, k = self.n, self.k
        Q_s = Q[k:]
        r = Q[:k].copy()
        r[:n] -= self.Hx.T @ Q_s
        W = lu_solve(self.lu_piv, r, trans=1, check_finite=False)
        W_c = W[n:]
        return np.concatenate([W[:n], Q_s - self.y * W_c, W_c])


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


def _lu_truncated(J, rhs, rcond, m):
    """The truncated least-squares solution from one LU factorization, as
    (x, path), or None when the cut cannot be placed safely.

    The two smallest singular triplets come from inverse subspace
    iteration on (J'J)^-1 = J^-1 J^-T, applied through the factors of the
    slack-eliminated matrix. The Ritz values of Y = J^-T V are upper bounds
    on the singular values they track and decrease towards them, so a value
    below `lo` is below the cut for certain; one above `hi` counts once
    RITZ_GUARD times its last change could not carry it to `hi`, and one
    inside the band once it could not carry it below `lo`.
    """
    kkt = _Kkt(J, m)
    if not kkt.nonsingular:
        return None
    cut = rcond * _sigma_max(kkt)
    lo, hi = cut * (1.0 - CUT_BAND), cut * (1.0 + CUT_BAND)
    V = np.linalg.qr(_start_block(kkt.dim))[0]
    sigma_old = v_old = None
    for _ in range(MAX_STEPS):
        Y = kkt.solve_t(V)
        if not np.all(np.isfinite(Y)):
            return None
        theta, W = np.linalg.eigh(Y.T @ Y)
        if theta[-2] <= 0.0:
            # J^-T V is numerically rank one: a tiny sigma swamps the rest
            # for now; the next orthogonalized block resolves them.
            sigma_old = None
        else:
            sigma = 1.0 / np.sqrt(theta[:-3:-1])    # the two smallest
            if sigma[1] < lo:
                return None                         # two below the cut
            w = W[:, -1]
            v = V @ w
            if sigma_old is not None:
                guard = RITZ_GUARD * np.abs(sigma_old - sigma) / sigma
                above = guard < 1.0 - hi / sigma
                band = (sigma <= hi) & (guard < 1.0 - lo / sigma)
                if above[0]:
                    return kkt.solve(rhs[:, None])[:, 0], "lu"
                if band[0] or (sigma[0] < lo and band[1]):
                    return None                     # a value inside the band
                moved = np.linalg.norm(v - np.copysign(1.0, v @ v_old) * v_old)
                if sigma[0] < lo and above[1] and moved <= VECTOR_TOL:
                    u = Y @ w
                    u /= np.linalg.norm(u)
                    x = kkt.solve((rhs - u * (u @ rhs))[:, None])[:, 0]
                    return x - v * (v @ x), "lu_cut1"
            sigma_old, v_old = sigma, v
        V = np.linalg.qr(kkt.solve(Y))[0]
    return None


def truncated_lstsq(J, rhs, rcond, m=0):
    """Least-squares solution of J x = rhs with every singular value at or
    below rcond * sigma_max dropped: np.linalg.lstsq(J, rhs, rcond)[0] up
    to rounding. Returns (x, path).

    m > 0 declares the layout gnep.kkt_jacobian builds, with the m slack
    columns last: J = [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]].
    The layout is checked, and ValueError raised when it does not hold.
    m = 0 (the default) takes J as an unstructured square matrix.

    A square J of dimension at least LU_MIN_DIM is solved from one LU
    factorization. With m > 0 the slack columns are eliminated exactly,
    without division, and the factored matrix is R = [[Fx, G], [-diag(y)
    Hx, diag(s)]] of dimension dim - m; with m = 0 it is J itself. If J's
    smallest singular value lies clearly above the cut, x is the LU solve
    (path "lu"). If exactly one lies clearly below, that triplet (sigma, u,
    v) is removed: x = (I - v v') J^-1 (rhs - u u' rhs) (path "lu_cut1").
    In every other case (a value within CUT_BAND of the cut, two or more
    below it, no convergence within MAX_STEPS, a non-finite value, or a
    small system) x comes from lstsq's SVD on the untouched J (path "svd").
    """
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if m:
        _check_kkt_layout(J, m)
    if J.ndim == 2 and J.shape[0] == J.shape[1] >= LU_MIN_DIM and rhs.ndim == 1:
        found = _lu_truncated(J, rhs, rcond, m)
        if found is not None and np.all(np.isfinite(found[0])):
            return found
    return np.linalg.lstsq(J, rhs, rcond=rcond)[0], "svd"


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
