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
# direction, lstsq / LU path, averaged over the KKT Jacobians of a whole
# solve (chain models; 2-core x86_64, one OpenBLAS thread):
#   dim  67: 0.51 / 0.52    dim 158:  2.67 / 0.96    dim 262:  7.19 / 1.89
#   dim 106: 1.17 / 0.71    dim 197:  4.05 / 1.18    dim 327: 12.73 / 3.34
#   dim 132: 1.76 / 0.73    dim 236:  5.73 / 1.62
# The LU path wins from about dim 70. The bound sits higher, at 200, so
# that the builtin models (dim 28 and 132) and small random models keep
# lstsq's rounding, and with it their byte-stable outputs, for at most
# about 3 ms a direction.
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


def _sigma_max(J):
    """Largest singular value of J from below, to about POWER_RTOL: block
    power iteration on J'J, started in the row space of J, with a
    Rayleigh-Ritz estimate at each step."""
    X = np.linalg.qr((_start_block(J.shape[0]).T @ J).T)[0]
    est = 0.0
    for _ in range(MAX_STEPS):
        Y = J @ X
        s = float(np.sqrt(np.linalg.eigvalsh(Y.T @ Y)[-1]))
        if s <= est * (1.0 + POWER_RTOL):
            break
        est = s
        X = np.linalg.qr((Y.T @ J).T)[0]
    return max(est, s)


def _lu_truncated(J, rhs, rcond):
    """The truncated least-squares solution from one LU factorization, as
    (x, path), or None when the cut cannot be placed safely.

    The two smallest singular triplets come from inverse subspace
    iteration on (J'J)^-1 = J^-1 J^-T with the LU factors. The Ritz values
    of Y = J^-T V are upper bounds on the singular values they track and
    decrease towards them, so a value below `lo` is below the cut for
    certain; one above `hi` counts once RITZ_GUARD times its last change
    could not carry it to `hi`, and one inside the band once it could not
    carry it below `lo`.
    """
    n = J.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu_piv = lu_factor(J, check_finite=False)
    pivots = np.abs(np.diag(lu_piv[0]))
    if not (np.all(np.isfinite(pivots)) and pivots.min() > 0.0):
        return None
    cut = rcond * _sigma_max(J)
    lo, hi = cut * (1.0 - CUT_BAND), cut * (1.0 + CUT_BAND)
    V = np.linalg.qr(_start_block(n))[0]
    sigma_old = v_old = None
    for _ in range(MAX_STEPS):
        Y = lu_solve(lu_piv, V, trans=1, check_finite=False)
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
                    return lu_solve(lu_piv, rhs, check_finite=False), "lu"
                if band[0] or (sigma[0] < lo and band[1]):
                    return None                     # a value inside the band
                moved = np.linalg.norm(v - np.copysign(1.0, v @ v_old) * v_old)
                if sigma[0] < lo and above[1] and moved <= VECTOR_TOL:
                    u = Y @ w
                    u /= np.linalg.norm(u)
                    x = lu_solve(lu_piv, rhs - u * (u @ rhs), check_finite=False)
                    return x - v * (v @ x), "lu_cut1"
            sigma_old, v_old = sigma, v
        V = np.linalg.qr(lu_solve(lu_piv, Y, check_finite=False))[0]
    return None


def truncated_lstsq(J, rhs, rcond):
    """Least-squares solution of J x = rhs with every singular value at or
    below rcond * sigma_max dropped: np.linalg.lstsq(J, rhs, rcond)[0] up
    to rounding. Returns (x, path).

    A square J of dimension at least LU_MIN_DIM is LU-factored once. If
    its smallest singular value lies clearly above the cut, x is the LU
    solve (path "lu"). If exactly one lies clearly below, that triplet
    (sigma, u, v) is removed: x = (I - v v') J^-1 (rhs - u u' rhs) (path
    "lu_cut1"). In every other case (a value within CUT_BAND of the cut,
    two or more below it, no convergence within MAX_STEPS, a
    non-finite value, or a small system) x comes from lstsq's SVD on the
    untouched J (path "svd").
    """
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if J.ndim == 2 and J.shape[0] == J.shape[1] >= LU_MIN_DIM and rhs.ndim == 1:
        found = _lu_truncated(J, rhs, rcond)
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
