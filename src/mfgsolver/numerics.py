"""Dense linear-algebra and numerical utilities shared by all solvers.

Everything here is a pure function of its inputs, except that
truncated_lstsq carries its start blocks (StartBlocks) from one Jacobian
of a solve to the next. Problem sizes are at most a few hundred, so dense
LAPACK-backed routines are used throughout.

scipy's LAPACK and BLAS are loaded only where they run, and then only as
the compiled modules scipy.linalg._flapack and _fblas (scipy_extension):
the scipy.linalg package is never imported, since its import takes longer
than importing numpy and the whole package together. Each caller of a
LAPACK routine takes it from scipy_extension("_flapack") where it runs:
the LU path of truncated_lstsq at dimension GETRF_MIN_DIM or more, and
solve_linear on a matrix whose pivots it cannot certify. Below
GETRF_MIN_DIM the LU path uses numpy's own LAPACK.
"""

import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .errors import EmptyInput, NonFiniteEvaluation, SingularMatrix

PIVOT_RTOL = 1e-14
DEFAULT_RCOND = 1e-12
DEFAULT_FD_STEP = 1e-6

# truncated_lstsq solves square systems of at least this dimension through
# the LU factorization of the n x n Schur complement of J (_SchurLu); smaller
# ones go straight to lstsq. Milliseconds per direction, averaged over the
# KKT Jacobians of a whole chain solve with the solve's warm starts: lstsq
# of the assembled J / Schur LU through numpy's LAPACK / Schur LU through
# scipy's getrf, the better of two runs of best-of-three passes (2-core
# x86_64, one OpenBLAS thread, a shared box):
#   chain3   dim  41:  0.20 / 0.42 / 0.30    chain10  dim 132:  1.87 / 0.55 / 0.37
#   chain4   dim  54:  0.56 / 0.65 / 0.48    chain11  dim 145:  2.29 / 0.69 / 0.48
#   chain5   dim  67:  0.54 / 0.64 / 0.32    chain12  dim 158:  2.73 / 0.60 / 0.38
#   chain6   dim  80:  0.72 / 0.44 / 0.30    chain13  dim 171:  3.24 / 0.62 / 0.41
#   chain7   dim  93:  1.01 / 0.52 / 0.36    chain14  dim 184:  3.60 / 0.64 / 0.40
#   chain8   dim 106:  1.18 / 0.52 / 0.38    chain15  dim 197:  4.05 / 0.68 / 0.44
#   chain9   dim 119:  1.51 / 0.59 / 0.42    chain20  dim 262:  7.26 / 0.87 / 0.52
# The Schur paths win from dim 67 (getrf) or 80 (numpy), and clearly from
# dim 100. The bound sits at 100, so that malware2 (dim 28) and random
# models of up to dim 98 keep lstsq's rounding, and with it their outputs,
# while malware10 (dim 132) takes the Schur path. The bound is compared
# with the dimension of J.
LU_MIN_DIM = 100
# From this dimension of J on, the Schur LU factors with scipy's getrf
# (scipy_extension); below it, through numpy's own LAPACK. getrf saves
# 0.1-0.3 ms a direction, but loading scipy's _flapack costs about 20 ms
# and 3 MB once per process, more than a 30-direction solve below this
# bound saves; from here on the chains keep getrf's rounding.
GETRF_MIN_DIM = 200
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

    numpy does not return the pivots, so a certificate stands in for them
    where it can. Let delta be the larger of the smallest row margin and
    the smallest column margin, a margin being |a_ii| - sum_{j != i}
    |a_ij|. If delta > 0, ||A^-1|| <= 1 / delta in the matching norm, the
    infinity norm for rows and the 1-norm for columns (Varah, Linear
    Algebra Appl. 11, 1975). Partial pivoting gives PA = LU with |l_ij| <=
    1, so ||L|| <= n and ||U^-1|| = ||A^-1 P' L|| <= n / delta; each
    1 / |u_kk| is an entry of U^-1, so every pivot is at least delta / n.
    When delta > n * PIVOT_RTOL * max|A|, no pivot can fail the test, and
    np.linalg.solve solves A x = b. Both mdp callers pass I - beta P (row
    margins 1 - beta) or I - beta P' (column margins 1 - beta), so they
    take this branch whenever 1 - beta > n * PIVOT_RTOL. Any other matrix
    is factored by LAPACK's getrf (dgetrf, from scipy_extension), and its
    pivots are tested as they are; getrf reports an exactly zero pivot in
    its info, with no warning. A non-finite A or b is a ValueError on
    either branch, checked before the margins.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected square matrix, got shape {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"dimension mismatch: A is {A.shape}, b is {b.shape}")
    abs_A = np.abs(A)
    scale = abs_A.max()
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    if not (math.isfinite(scale) and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    twice_diag = 2.0 * abs_A.diagonal()
    delta = max((twice_diag - abs_A.sum(axis=1)).min(),
                (twice_diag - abs_A.sum(axis=0)).min())
    if delta > len(A) * PIVOT_RTOL * scale:
        return np.linalg.solve(A, b)
    lapack = scipy_extension("_flapack")
    lu, piv, _ = lapack.dgetrf(A)
    pivots = np.abs(np.diag(lu))
    if pivots.min() <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below {PIVOT_RTOL:g} * {scale:.3e}"
        )
    return lapack.dgetrs(lu, piv, b)[0]


def pseudo_inverse(A, rcond=DEFAULT_RCOND):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below rcond * sigma_max are truncated. Total on any
    finite matrix.
    """
    A = np.asarray(A, dtype=float)
    return np.linalg.pinv(A, rcond=rcond)


def _start_block(n):
    """The cold start block W of both block iterations, fixed and well
    spread: the Weyl sequences frac(i sqrt(p)) - 1/2 for p = 2, 3, 5, one
    per column. Three columns: the two wanted vectors and a guard that
    speeds their convergence. A StartBlocks computes it once; its first
    column stays in every warm start too."""
    return np.modf(np.outer(np.arange(1.0, n + 1.0), np.sqrt([2.0, 3.0, 5.0])))[0] - 0.5


# The StartBlocks.steps counters: power steps and subspace solves.
BLOCK_STEPS = ("power", "subspace")


class StartBlocks:
    """Where the two block iterations of _lu_truncated start, carried from
    one direction to the next. The Jacobians of one forward solve change
    little between iterates, so the last direction's Ritz vectors are good
    starts for the next (Saad, Numerical Methods for Large Eigenvalue
    Problems, ch. 5); gnep.KktSystem owns one holder per solve.

    A new holder is cold: the power iteration starts from J' W and the
    subspace iteration from W, with W = _start_block(dim). Each direction
    writes back `top`, its last top right Ritz vector of J, and `bottom`,
    its last two smallest right Ritz vectors, and the next one starts from
    [top, W[:, :2]] and [bottom, W[:, 0]]. The generic W columns keep a
    start block from another matrix, or one orthogonal to the wanted
    vectors, from hiding a singular value: every direction still finds
    the same triplets, and only the step count depends on the start.
    `steps` counts the power steps and the subspace solves (BLOCK_STEPS)."""

    def __init__(self, dim):
        self.W = _start_block(dim)
        self.top = self.bottom = None
        self.steps = dict.fromkeys(BLOCK_STEPS, 0)

    def power_start(self, kkt):
        """Orthonormal start block of the power iteration on J'J."""
        X = kkt.rmatmul(self.W) if self.top is None else np.column_stack(
            [self.top, self.W[:, :2]])
        return _orthonormal_basis(X)

    def subspace_start(self):
        """Orthonormal start block of the inverse subspace iteration."""
        V = self.W if self.bottom is None else np.column_stack([self.bottom, self.W[:, 0]])
        return _orthonormal_basis(V)


class KktBlocks:
    """A square KKT matrix held by its blocks, with its m slack columns last:

        J = [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]]

    FG = [Fx, G] holds the n stationarity rows (n x (n + m)), Hx the
    constraint rows' primal part (m x n), and s and y the m slacks and
    their multipliers. A plain square matrix is the case m = 0
    (`of_matrix`). Products with J and J' come from the blocks; `dense`
    assembles J. `starts` is the StartBlocks that truncated_lstsq carries
    between the Jacobians of one solve; without one, every call starts
    cold. Raises ValueError when the block shapes do not fit."""

    def __init__(self, FG, Hx, s, y, starts=None):
        n, m = FG.shape[0], s.shape[0]
        if (FG.shape != (n, n + m) or Hx.shape != (m, n)
                or s.shape != (m,) or y.shape != (m,)):
            raise ValueError(f"no KKT layout in blocks {FG.shape}, {Hx.shape}, "
                             f"{s.shape} and {y.shape}")
        self.FG, self.Hx, self.s, self.y = FG, Hx, s, y
        self.n, self.m, self.dim = n, m, n + 2 * m
        self.starts = starts

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


def scipy_extension(name):
    """The compiled module scipy.linalg.<name> (_flapack or _fblas), loaded
    without importing the scipy.linalg package.

    The top-level scipy package is imported first: its path locates the
    file, and its _distributor_init prepares the bundled libraries on the
    builds that need it. The extension file is then found in scipy's linalg
    directory, executed on its own and registered in sys.modules under its
    full name, so a later import of scipy.linalg (or of scipy.linalg.lapack
    or .blas) reuses it instead of initialising it again: their routines
    are then the same objects as this module's. A module already in
    sys.modules is returned as it is. Raises ImportError, naming the
    module, when scipy has no such file.
    """
    full_name = f"scipy.linalg.{name}"
    module = sys.modules.get(full_name)
    if module is not None:
        return module
    import scipy
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full_name)
    if spec is None:
        raise ImportError(f"no compiled module {full_name} in {directory}", name=full_name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython registers a single-phase extension as it creates it; one
    # with multi-phase initialisation is registered only here.
    sys.modules[full_name] = module
    return module


def _orthonormal_basis(X):
    """Q of the reduced QR factorization of the block X. A block of fewer
    than GETRF_MIN_DIM rows (the dimension of J) takes np.linalg.qr(X)[0],
    and so does a block with fewer rows than columns, which a J of
    dimension 1 or 2 gives: dorgqr rejects it, where numpy's qr returns the
    square Q. A taller one takes LAPACK's dgeqrf and dorgqr
    (scipy_extension): the same calls, and so the same bits, without
    numpy's wrapper, which costs several times the factorization on the
    dim x 3 blocks of the LU path."""
    if len(X) < GETRF_MIN_DIM or len(X) < X.shape[1]:
        return np.linalg.qr(X)[0]
    lapack = scipy_extension("_flapack")
    qr, tau = lapack.dgeqrf(X)[:2]
    return lapack.dorgqr(qr, tau, overwrite_a=True)[0]


class _SchurLu:
    """Solves with the J of KktBlocks kkt through the LU factorization of the
    n x n Schur complement M = Fx + G diag(y/s) Hx (Wright, Primal-Dual
    Interior-Point Methods, ch. 11). The slack rows give ds = B_h - Hx dx
    and the complementarity rows dy = (c + y Hx dx) / s, so both blocks are
    eliminated, leaving M dx = B_F - G (c / s) with c = B_c - y B_h. The
    division by s is safe because every interior iterate has s > 0; when
    some s <= 0 nothing is divided or factored and `nonsingular` is False,
    as it is when a pivot of M is zero or not finite. With m = 0, M = J.
    Every operand is a vector or a block of columns.

    Below GETRF_MIN_DIM, M is solved through numpy's own LAPACK, so scipy
    stays unloaded: np.linalg.slogdet tests the pivots of getrf, with
    numpy's floating-point warnings off as getrf has none, and
    np.linalg.solve solves against M and M', factoring each again (numpy
    keeps no factors; at these sizes M is a few dozen rows). A zero pivot
    of M' alone raises LinAlgError, which truncated_lstsq takes as a
    deferral. From GETRF_MIN_DIM on, LAPACK's getrf and getrs, from
    scipy_extension once M is formed, are called directly: lu_factor and
    lu_solve give the same bits through a wrapper that costs more than a
    solve at these sizes."""

    def __init__(self, kkt):
        self.kkt = kkt
        self.nonsingular = bool(np.all(kkt.s > 0.0))
        if not self.nonsingular:
            return
        n = kkt.n
        self.G = kkt.FG[:, n:]
        M = kkt.FG[:, :n] + (self.G * (kkt.y / kkt.s)) @ kkt.Hx
        if kkt.dim < GETRF_MIN_DIM:
            with np.errstate(all="ignore"):
                sign, logdet = np.linalg.slogdet(M)
            self.nonsingular = bool(sign != 0.0 and np.isfinite(logdet))
            self._solve = lambda B: np.linalg.solve(M, B)
            self._solve_t = lambda B: np.linalg.solve(M.T, B)
            return
        lapack = scipy_extension("_flapack")
        lu, piv, info = lapack.dgetrf(M, overwrite_a=True)
        pivots = np.abs(np.diagonal(lu))
        self.nonsingular = bool(info == 0 and np.all(np.isfinite(pivots))
                                and pivots.min() > 0.0)
        self._solve = lambda B: lapack.dgetrs(lu, piv, B)[0]
        self._solve_t = lambda B: lapack.dgetrs(lu, piv, B, trans=1)[0]

    def solve(self, B):
        """J^-1 B: dx = M^-1 (B_F - G (c / s)), dy = (c + y Hx dx) / s and
        ds = B_h - Hx dx, with c = B_c - y B_h."""
        kkt = self.kkt
        n, k = kkt.n, kkt.n + kkt.m
        s, y = kkt._diagonals(B)
        B_h = B[n:k]
        c = B[k:] - y * B_h
        dx = self._solve(B[:n] - self.G @ (c / s))
        Hx_dx = kkt.Hx @ dx
        return np.concatenate([dx, (c + y * Hx_dx) / s, B_h - Hx_dx])

    def solve_t(self, Q):
        """J^-T Q: p = M^-T (Q_x - Hx' (Q_s - y Q_y / s)), q = (Q_y - G' p)
        / s and W = (p, Q_s - y q, q)."""
        kkt = self.kkt
        n, k = kkt.n, kkt.n + kkt.m
        s, y = kkt._diagonals(Q)
        Q_y, Q_s = Q[n:k], Q[k:]
        rhs = Q[:n] - kkt.Hx.T @ (Q_s - y * (Q_y / s))
        p = self._solve_t(rhs)
        q = (Q_y - self.G.T @ p) / s
        return np.concatenate([p, Q_s - y * q, q])

    def solve_refined(self, b):
        """J^-1 b for one vector b, with one step of iterative refinement:
        x + J^-1 (b - J x) restores the accuracy that the reduction to M
        loses when J is ill-conditioned (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 12)."""
        x = self.solve(b)
        return x + self.solve(b - self.kkt.matmul(x))


def _sigma_max(kkt, starts):
    """Largest singular value of J from below, to about POWER_RTOL: block
    power iteration on J'J with a Rayleigh-Ritz estimate at each step.
    It starts from starts.power_start: cold in the row space of J, warm
    from the last direction's top right Ritz vector, which already lies
    in the space J'J acts on. The last top right Ritz vector is written
    back to starts.top."""
    X = starts.power_start(kkt)
    est = 0.0
    for _ in range(MAX_STEPS):
        starts.steps["power"] += 1
        Y = kkt.matmul(X)
        theta, E = np.linalg.eigh(Y.T @ Y)
        s = float(np.sqrt(theta[-1]))
        starts.top = X @ E[:, -1]
        if s <= est * (1.0 + POWER_RTOL):
            break
        est = s
        X = _orthonormal_basis(kkt.rmatmul(Y))
    return max(est, s)


def _lu_truncated(kkt, rhs, rcond):
    """The truncated least-squares solution from one LU factorization, as
    (x, path), or None when the cut cannot be placed safely.

    The two smallest singular triplets come from inverse subspace
    iteration on (J'J)^-1 = J^-1 J^-T, applied through the factors of the
    Schur complement M (_SchurLu). Both block iterations start from
    kkt.starts (StartBlocks), or cold from a new holder when kkt has none:
    the first direction of a solve starts cold, and every later one from
    the Ritz vectors the last one ended with plus one generic column of
    the cold block, and writes its own back. The Ritz values, the
    reciprocal singular values of Y = J^-T V, are upper bounds on the singular values they
    track and decrease towards them, so a value below `lo` is below the cut
    for certain; one above `hi` counts once RITZ_GUARD times its last change
    could not carry it to `hi`, and one inside the band once it could not
    carry it below `lo`. They come from an SVD of Y, not from the Gram
    matrix Y'Y, which squares their spread: when sigma_min lies far below
    sigma_2, the Gram matrix holds the second value only to rounding noise
    of the first, and a noisy value below the cut would defer for nothing.
    J^-T V counts as rank one, and defers, only when the SVD itself cannot
    resolve the second value (RANK_RTOL), or finds none: a J of dimension
    1 has a single singular value. The iteration's solves go
    unrefined: they only need to converge on the triplets. The final
    direction solve takes one step of iterative refinement, which the
    reduction to M needs on the ill-conditioned Jacobians near the end of
    a solve.
    """
    lu = _SchurLu(kkt)
    if not lu.nonsingular:
        return None
    starts = kkt.starts or StartBlocks(kkt.dim)
    cut = rcond * _sigma_max(kkt, starts)
    lo, hi = cut * (1.0 - CUT_BAND), cut * (1.0 + CUT_BAND)
    V = starts.subspace_start()
    sigma_old = v_old = None
    for _ in range(MAX_STEPS):
        starts.steps["subspace"] += 1
        Y = lu.solve_t(V)
        if not np.all(np.isfinite(Y)):
            return None
        U, inv_sigma, W = np.linalg.svd(Y, full_matrices=False)
        if len(inv_sigma) < 2 or inv_sigma[1] <= RANK_RTOL * inv_sigma[0]:
            return None                             # J^-T V is rank one
        sigma = 1.0 / inv_sigma[:2]                 # the two smallest
        starts.bottom = V @ W[:2].T                 # their right Ritz vectors
        if sigma[1] < lo:
            return None                             # two below the cut
        v = starts.bottom[:, 0]
        if sigma_old is not None:
            guard = RITZ_GUARD * np.abs(sigma_old - sigma) / sigma
            above = guard < 1.0 - hi / sigma
            band = (sigma <= hi) & (guard < 1.0 - lo / sigma)
            if above[0]:
                return lu.solve_refined(rhs), "lu"
            if band[0] or (sigma[0] < lo and band[1]):
                return None                         # a value inside the band
            moved = np.linalg.norm(v - np.copysign(1.0, v @ v_old) * v_old)
            if sigma[0] < lo and above[1] and moved <= VECTOR_TOL:
                u = U[:, 0]
                x = lu.solve_refined(rhs - u * (u @ rhs))
                return x - v * (v @ x), "lu_cut1"
        sigma_old, v_old = sigma, v
        V = _orthonormal_basis(lu.solve(Y))
    return None


def truncated_lstsq(J, rhs, rcond):
    """Least-squares solution of the square system J x = rhs with every
    singular value at or below rcond * sigma_max dropped:
    np.linalg.lstsq(J, rhs, rcond)[0] up to rounding. Returns (x, path).

    J is a square matrix, or a KktBlocks with its slack columns last: J =
    [[Fx, G, 0], [Hx, 0, I], [0, diag(s), diag(y)]], as
    gnep.kkt_jacobian returns it. The blocks are used as they are; the
    dense J is assembled only for lstsq. The LU path's block iterations
    start from J's StartBlocks (KktBlocks.starts): cold on the first
    direction of a solve and on a J without a holder, warm from the last
    direction's Ritz vectors after that. The start changes only how many
    steps they take: "lu" solves do not depend on it, and "lu_cut1" solves
    only at rounding level, since the triplet converges to VECTOR_TOL.

    A J of dimension at least LU_MIN_DIM is solved through an LU
    factorization. The slack and multiplier blocks are eliminated, and the
    factored matrix is the Schur complement M = Fx + G diag(y/s) Hx of
    dimension n; with no slacks it is J itself. M is factored through
    numpy's LAPACK below GETRF_MIN_DIM and by scipy's getrf from there on
    (_SchurLu). The division by s is safe
    because s > 0 at every interior iterate; when some s <= 0 nothing is
    divided and x comes from lstsq. The final LU solve takes one step of
    iterative refinement against J, which restores the accuracy that the
    reduction loses when J is ill-conditioned. If J's smallest singular
    value lies clearly above the cut, x is the LU solve (path "lu"). If
    exactly one lies clearly below, that triplet (sigma, u, v) is removed:
    x = (I - v v') J^-1 (rhs - u u' rhs) (path "lu_cut1"). In every other
    case (a value within CUT_BAND of the cut, two or more below it, no
    convergence within MAX_STEPS, a non-finite value, a slack s <= 0, a
    zero pivot of M, a zero pivot of M' in numpy's second factorization,
    or a system below LU_MIN_DIM) x comes from lstsq's SVD on the dense J
    (path "svd").
    """
    kkt = J if isinstance(J, KktBlocks) else KktBlocks.of_matrix(J)
    rhs = np.asarray(rhs, dtype=float)
    if kkt.dim >= LU_MIN_DIM and rhs.ndim == 1:
        try:
            found = _lu_truncated(kkt, rhs, rcond)
        except np.linalg.LinAlgError:
            found = None
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
