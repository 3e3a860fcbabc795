import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfgsolver import gnep, numerics
from mfgsolver.errors import EmptyInput, NonFiniteEvaluation, SingularMatrix
from mfgsolver.numerics import (
    KktBlocks,
    StartBlocks,
    jacobian_fd,
    log_sum_exp,
    pseudo_inverse,
    solve_linear,
    truncated_lstsq,
)

from conftest import chain_model


class TestSolveLinear:
    def test_known_system(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        x = solve_linear(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-12)

    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_linear(np.eye(3), b), b)

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            solve_linear(A, np.ones(2))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), np.ones(2))

    def test_singular_raises_without_warning(self):
        # LAPACK's getrf reports the zero pivot in its info and warns
        # nothing, so even under "error" the caller gets SingularMatrix.
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="below 1e-14"):
                solve_linear(A, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        A = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_linear(A, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("A,certified", [
        ([[2.0, 0.5], [0.3, 1.0]], True),    # numpy's branch
        ([[1.0, 2.0], [3.0, 1.0]], False),   # getrf's branch
    ], ids=["certified", "uncertified"])
    def test_non_finite_rhs_raises_on_both_branches(self, A, certified, bad):
        # b is checked once, before the margins pick a branch, so numpy's
        # branch refuses it as getrf's does and returns no NaN.
        A = np.array(A)
        assert (_margin(A) > 0.0) == certified
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_linear(A, np.array([bad, 1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.ones(3))
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = solve_linear(A, b)
            assert np.abs(A @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def _margin(A):
    """delta of solve_linear's certificate: the larger of the smallest row
    and the smallest column margin |a_ii| - sum_{j != i} |a_ij|."""
    abs_A = np.abs(A)
    twice_diag = 2.0 * abs_A.diagonal()
    return max((twice_diag - abs_A.sum(axis=1)).min(),
               (twice_diag - abs_A.sum(axis=0)).min())


# Solves I - beta P and I - beta P' for random row-stochastic P and prints,
# as JSON, the largest residual relative to 1 + |x| and the scipy modules
# loaded.
MDP_SYSTEMS = """
import json, sys
import numpy as np
from mfgsolver import numerics

rng = np.random.default_rng(11)
worst = 0.0
for beta in (0.0, 0.5, 0.8, 0.99, 0.999999):
    for n in (1, 2, 10, 50, 200):
        P = rng.random((n, n)) ** 4
        P /= P.sum(axis=1, keepdims=True)
        for A in (np.eye(n) - beta * P, np.eye(n) - beta * P.T):
            b = rng.random(n)
            x = numerics.solve_linear(A, b)
            worst = max(worst, np.abs(A @ x - b).max() / (np.abs(x).max() + 1.0))
print(json.dumps([worst, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestSolveLinearCertificate:
    """solve_linear solves a matrix whose margins certify its pivots with
    numpy alone, and factors any other with LAPACK's getrf, whose pivot
    test stays the contract."""

    def test_mdp_systems_load_no_scipy(self):
        # mdp's I - beta P (row margins 1 - beta) and I - beta P' (column
        # margins 1 - beta) solve, in a fresh process, to a small residual
        # with no scipy module loaded.
        src = str(Path(numerics.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", MDP_SYSTEMS], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        worst, scipy_modules = json.loads(proc.stdout)
        assert worst <= 1e-12 and scipy_modules == []

    def test_planted_small_pivot_raises(self):
        # A last column that is a combination of the others, up to
        # rounding: its pivot is far below PIVOT_RTOL * max|A|, the margins
        # certify nothing, and getrf's pivot test rejects it.
        rng = np.random.default_rng(5)
        for n in (3, 6, 12):
            A = rng.normal(size=(n, n))
            A[:, -1] = A[:, :-1] @ rng.normal(size=n - 1)
            assert _margin(A) <= n * numerics.PIVOT_RTOL * np.abs(A).max()
            with pytest.raises(SingularMatrix, match="below 1e-14"):
                solve_linear(A, rng.normal(size=n))

    def test_non_dominant_residual_bound(self):
        # Gaussian matrices are not diagonally dominant, so getrf solves
        # them: backward errors at rounding level.
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            A = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            assert _margin(A) <= n * numerics.PIVOT_RTOL * np.abs(A).max()
            x = solve_linear(A, b)
            bound = 1e-13 * n * (np.abs(A).sum(axis=1).max() * np.abs(x).max()
                                 + np.abs(b).max())
            assert np.abs(A @ x - b).max() <= bound

    @pytest.mark.parametrize("transpose", [False, True])
    def test_margin_bounds_every_pivot(self, transpose):
        # The certificate's claim: with partial pivoting, every pivot of a
        # row (or column) dominant matrix is at least delta / n.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            A = rng.normal(size=(n, n))
            off = np.abs(A).sum(axis=1) - np.abs(A.diagonal())
            np.fill_diagonal(A, np.sign(rng.normal(size=n)) * off
                             * (1.0 + rng.random(n) ** 3))
            A = A.T if transpose else A
            delta = _margin(A)
            assert delta > 0.0
            pivots = np.abs(np.diag(numerics.scipy_extension("_flapack").dgetrf(A)[0]))
            assert pivots.min() >= delta / n * (1.0 - 1e-12)


# Factors with LAPACK through solve_linear, takes one "gd" step, and only
# then imports scipy.linalg.lapack and .blas; prints, as JSON, whether the
# routines the package calls from the loaded compiled modules are the ones
# scipy.linalg exposes, whether those modules were reused, and the
# scipy.linalg modules loaded before that import.
CONTRACT_PIN = """
import json, sys
import numpy as np
from mfgsolver import irl, mdp, model, numerics
from mfgsolver.errors import NotConverged

numerics.solve_linear([[1.0, 2.0], [3.0, 1.0]], [1.0, 1.0])    # uncertified: getrf
spec = model.builtin_malware(2, (0.2, 1.0, 0.4), q=0.9)
mu = np.array([0.6, 0.4])
pi = np.array([[0.7, 0.3], [0.2, 0.8]])
problem = irl.IrlProblem(spec=spec, mu_E=mu,
                         f_expert=mdp.feature_expectation(spec, pi, mu, mu))
try:
    irl.solve_irl(problem, irl.IrlConfig(method="gd", max_iter=1))
except NotConverged:
    pass
loaded = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
compiled = [sys.modules["scipy.linalg._flapack"], sys.modules["scipy.linalg._fblas"]]
import scipy.linalg.blas, scipy.linalg.lapack
lapack, blas = scipy.linalg.lapack, scipy.linalg.blas
flapack, fblas = compiled
print(json.dumps({
    "loaded": loaded,
    "same": [flapack.dgetrf is lapack.dgetrf, flapack.dgetrs is lapack.dgetrs,
             flapack.dgeqrf is lapack.dgeqrf, flapack.dorgqr is lapack.dorgqr,
             fblas.daxpy is blas.daxpy, fblas.idamax is blas.idamax],
    "reused": [sys.modules["scipy.linalg._flapack"] is compiled[0],
               sys.modules["scipy.linalg._fblas"] is compiled[1]],
}))
"""


class TestScipyExtension:
    """numerics.scipy_extension loads scipy's compiled LAPACK and BLAS
    modules without the scipy.linalg package. It relies on scipy's module
    layout, so these tests fail loudly when that layout changes."""

    def test_routines_are_scipy_linalgs_own(self):
        # In a fresh process: after an LU solve and a "gd" step, importing
        # scipy.linalg.lapack and .blas reuses the loaded modules, and the
        # dgetrf, dgetrs, dgeqrf, dorgqr, daxpy and idamax that the package
        # calls from them are the very routines they expose, so the bits are
        # the same and nothing was initialised twice.
        src = str(Path(numerics.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", CONTRACT_PIN], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen == {"loaded": ["scipy.linalg._fblas", "scipy.linalg._flapack"],
                        "same": [True] * 6, "reused": [True, True]}

    def test_missing_module_is_an_import_error(self):
        with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
            numerics.scipy_extension("_no_such_module")

    def test_loaded_module_is_returned_as_it_is(self, monkeypatch):
        loaded = object()
        monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", loaded)
        assert numerics.scipy_extension("_flapack") is loaded


class TestOrthonormalBasis:
    """numerics._orthonormal_basis calls LAPACK's dgeqrf and dorgqr as
    np.linalg.qr does, so the LU path's block iterations keep its bits. It
    takes them at every size here; below GETRF_MIN_DIM it calls
    np.linalg.qr itself."""

    @pytest.mark.parametrize("dim", [3, 132, 262, 652])
    def test_bits_of_numpy_qr(self, dim, monkeypatch):
        monkeypatch.setattr(numerics, "GETRF_MIN_DIM", 0)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            X = rng.normal(size=(dim, 3)) * rng.lognormal(size=3)
            before = X.copy()
            Q = numerics._orthonormal_basis(X)
            np.testing.assert_array_equal(Q, np.linalg.qr(X)[0])
            np.testing.assert_array_equal(X, before)     # the input is kept


class TestPseudoInverse:
    def test_inverse_of_invertible(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(pseudo_inverse(A), np.linalg.inv(A), atol=1e-12)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            P = pseudo_inverse(A)
            np.testing.assert_allclose(A @ P @ A, A, atol=1e-8)
            np.testing.assert_allclose(P @ A @ P, P, atol=1e-8)
            np.testing.assert_allclose(A @ P, (A @ P).T, atol=1e-8)
            np.testing.assert_allclose(P @ A, (P @ A).T, atol=1e-8)

    def test_rank_deficient_total(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        P = pseudo_inverse(A)
        np.testing.assert_allclose(A @ P @ A, A, atol=1e-10)


RCOND = 1e-6


def planted(n, smallest, seed):
    """Seeded n x n matrix U diag(s) V' with sigma_max = 1, the given
    smallest singular values (in units of the cut RCOND * sigma_max), and
    the rest spread log-uniformly over [1e-4, 1]; plus a seeded rhs."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    rest = np.logspace(0.0, -4.0, n - len(smallest))
    s = np.concatenate([rest, RCOND * np.asarray(smallest, dtype=float)])
    return (U * s) @ V.T, rng.normal(size=n)


def assert_matches_svd(J, rhs, x):
    """x equals both the lstsq and the pseudoinverse solution to 1e-8."""
    for ref in (np.linalg.lstsq(J, rhs, rcond=RCOND)[0], pseudo_inverse(J, RCOND) @ rhs):
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


PLANTED_SPECTRA = [
    ([0.5], "lu_cut1"),         # one value clearly below the cut
    ([1e-8], "lu_cut1"),        # ... or far below it: J is nearly singular
    ([2.0], "lu"),              # every value clearly above it
    ([0.98], "svd"),            # within the band, either side
    ([1.02], "svd"),
    ([0.3, 0.6], "svd"),        # two below the cut
    ([0.5, 0.98], "svd"),       # one below, the next within the band
    # Clusters near the cut, where the subspace iteration converges slowly.
    ([0.5, 1.2, 1.4, 1.6], "lu_cut1"),
    ([0.98, *np.linspace(1.06, 1.5, 20)], "svd"),
    ([1.1, 1.12, 1.14, 1.16], "lu"),
]


class TestTruncatedLstsq:
    """The LU path must give lstsq's truncated solution, and defer to the
    SVD whenever the cut cannot be placed clearly, on either factorization."""

    @pytest.fixture(autouse=True)
    def lu_for_all_sizes(self, monkeypatch, factorization):
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)

    @pytest.mark.parametrize("smallest,path", PLANTED_SPECTRA)
    @pytest.mark.parametrize("n", [40, 90])
    def test_planted_spectrum(self, smallest, path, n):
        J, rhs = planted(n, smallest, seed=n)
        x, taken = truncated_lstsq(J, rhs, RCOND)
        assert taken == path
        assert_matches_svd(J, rhs, x)

    @pytest.mark.parametrize("poison", ["other_matrix", "orthogonal"])
    @pytest.mark.parametrize("smallest,path", PLANTED_SPECTRA)
    @pytest.mark.parametrize("n", [40, 90])
    def test_planted_spectrum_poisoned_start(self, smallest, path, n, poison):
        """A warm start that hides the wanted vectors still finds them: the
        generic column of the cold block stays in every start. The other
        matrix shares J's singular vectors (the same seed) but not its
        spectrum, so its final blocks span singular vectors of J that are
        not its smallest. The orthogonal blocks are seeded vectors with
        every planted small right singular vector of J projected out."""
        J, rhs = planted(n, smallest, seed=n)
        starts = StartBlocks(n)
        if poison == "other_matrix":
            other = PLANTED_SPECTRA[(PLANTED_SPECTRA.index((smallest, path)) + 1)
                                   % len(PLANTED_SPECTRA)][0]
            donor = KktBlocks.of_matrix(planted(n, other, seed=n)[0])
            donor.starts = starts
            truncated_lstsq(donor, rhs, RCOND)
            assert starts.top is not None and starts.bottom is not None
        else:
            small = np.linalg.svd(J)[2][-len(smallest):]
            B = np.random.default_rng(n).normal(size=(n, 3))
            B -= small.T @ (small @ B)
            starts.bottom, starts.top = B[:, :2], B[:, 2]
            assert np.abs(small @ B).max() <= 1e-14 * np.abs(B).max()
        blocks = KktBlocks.of_matrix(J)
        blocks.starts = starts
        x, taken = truncated_lstsq(blocks, rhs, RCOND)
        assert taken == path
        assert_matches_svd(J, rhs, x)

    @pytest.mark.parametrize("J,path", [
        ([[2.0]], "svd"),                   # no second singular value: defers
        ([[2.0, 1.0], [1.0, 3.0]], "lu"),
    ])
    def test_tiny_system_keeps_dorgqr_quiet(self, J, path, capfd):
        """A J of dimension 1 or 2 gives subspace blocks with more columns
        than rows. Their basis comes from np.linalg.qr on either
        factorization: LAPACK's dorgqr rejects such a block, prints why and
        returns no usable Q."""
        J = np.array(J)
        rhs = np.array([1.0, -1.0])[:len(J)]
        x, taken = truncated_lstsq(J, rhs, RCOND)
        out, err = capfd.readouterr()
        assert "DORGQR" not in out + err
        assert taken == path
        assert_matches_svd(J, rhs, x)

    def test_exactly_singular(self):
        J, rhs = planted(40, [2.0], seed=3)
        J[:, 7] = 0.0
        assert not numerics._SchurLu(KktBlocks.of_matrix(J)).nonsingular
        x, taken = truncated_lstsq(J, rhs, RCOND)
        assert taken == "svd"
        assert_matches_svd(J, rhs, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pivot_is_singular_without_warning(self, bad):
        J, _ = planted(40, [2.0], seed=3)
        J[5, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not numerics._SchurLu(KktBlocks.of_matrix(J)).nonsingular

    def test_zero_pivot_of_the_transpose_alone_defers(self):
        """getrf finds no zero pivot in J but an exact one in J'. numpy
        factors J' anew for the transposed solves, and its LinAlgError
        defers to the SVD."""
        J = np.eye(5)
        J[:2, :2] = [[1.0, 3.0], [0.5, np.nextafter(1.5, 2.0)]]
        assert np.linalg.slogdet(J)[0] != 0.0 and np.linalg.slogdet(J.T)[0] == 0.0
        assert numerics._SchurLu(KktBlocks.of_matrix(J)).nonsingular
        rhs = np.arange(1.0, 6.0)
        x, taken = truncated_lstsq(J, rhs, RCOND)
        assert taken == "svd"
        assert np.array_equal(x, np.linalg.lstsq(J, rhs, rcond=RCOND)[0])

    def test_does_not_touch_inputs(self):
        J, rhs = planted(40, [0.5], seed=5)
        J0, rhs0 = J.copy(), rhs.copy()
        truncated_lstsq(J, rhs, RCOND)
        assert np.array_equal(J, J0) and np.array_equal(rhs, rhs0)

    def test_small_systems_stay_on_lstsq(self, monkeypatch):
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 41)
        J, rhs = planted(40, [0.5], seed=40)
        x, taken = truncated_lstsq(J, rhs, RCOND)
        assert taken == "svd"
        assert np.array_equal(x, np.linalg.lstsq(J, rhs, rcond=RCOND)[0])


def record_solve(spec, cold=False):
    """Every (blocks, rhs, x, path) that spec's forward solve hands to and
    gets back from truncated_lstsq. With cold=True, every call gets the
    blocks without the solve's start blocks, so each starts cold."""
    calls = []
    solve = gnep.truncated_lstsq

    def record(J, rhs, rcond):
        x, path = solve(KktBlocks(J.FG, J.Hx, J.s, J.y) if cold else J, rhs, rcond)
        calls.append((J, rhs.copy(), x, path))
        return x, path

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gnep, "truncated_lstsq", record)
        gnep.solve_gnep(spec)
    return calls


def solve_systems(spec):
    """Every (blocks, rhs) that spec's forward solve hands to truncated_lstsq."""
    return [(J, rhs) for J, rhs, _, _ in record_solve(spec)]


@pytest.fixture(scope="module")
def chain20_systems():
    return solve_systems(chain_model(20))


class TestSlackEliminatedSolve:
    """Given the Jacobian's blocks, the LU path factors the n x n Schur
    complement of the KKT matrix; the result and the path must be those of
    the unstructured solve of the assembled matrix."""

    def test_chain20_matches_lstsq_and_unstructured_path(self, chain20_systems,
                                                         factorization):
        paths = []
        for blocks, rhs in chain20_systems:
            assert blocks.m > 0 and blocks.dim >= numerics.LU_MIN_DIM
            J = blocks.dense()
            x, path = truncated_lstsq(blocks, rhs, RCOND)
            ref = np.linalg.lstsq(J, rhs, rcond=RCOND)[0]
            assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
            assert path == truncated_lstsq(J, rhs, RCOND)[1]
            paths.append(path)
        assert {"lu", "lu_cut1"} <= set(paths)

    def test_chain30_last_directions_refined(self, factorization):
        """The last Jacobians of chain30's solve are the worst conditioned;
        without the refinement step their directions drift up to 5e-6 off
        lstsq's."""
        for blocks, rhs in solve_systems(chain_model(30))[-5:]:
            x, path = truncated_lstsq(blocks, rhs, RCOND)
            ref = np.linalg.lstsq(blocks.dense(), rhs, rcond=RCOND)[0]
            assert path in ("lu", "lu_cut1")
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("slack", [0.0, -1e-3])
    def test_nonpositive_slack_defers_without_division(self, chain20_systems,
                                                        monkeypatch, slack, factorization):
        blocks, rhs = chain20_systems[13]
        s = blocks.s.copy()
        s[7] = slack
        bad = numerics.KktBlocks(blocks.FG, blocks.Hx, s, blocks.y)

        def no_factorization(*args, **kwargs):
            raise AssertionError("factored a matrix with a slack <= 0")

        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with monkeypatch.context() as mp:
                mp.setattr(numerics.scipy_extension("_flapack"), "dgetrf",
                           no_factorization)
                mp.setattr(np.linalg, "slogdet", no_factorization)
                assert not numerics._SchurLu(bad).nonsingular
                x, path = truncated_lstsq(bad, rhs, RCOND)
        assert path == "svd"
        assert np.array_equal(x, np.linalg.lstsq(bad.dense(), rhs, rcond=RCOND)[0])

    @pytest.mark.parametrize("which", [0, 13, 25])
    def test_blocks_reproduce_dense_products_and_solves(self, chain20_systems, which,
                                                        factorization):
        blocks, _ = chain20_systems[which]
        J = blocks.dense()
        lu = numerics._SchurLu(blocks)
        rng = np.random.default_rng(which)
        B = rng.normal(size=(J.shape[0], 3))
        scale = np.abs(J).max() * np.abs(B).max()
        for X in (B, B[:, 0]):      # a block of columns and a vector
            np.testing.assert_allclose(blocks.matmul(X), J @ X, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(blocks.rmatmul(X), J.T @ X, rtol=0, atol=1e-13 * scale)
        # Small backward errors: the last of these Jacobians is near singular.
        for A, X in ((J, lu.solve(B)), (J.T, lu.solve_t(B))):
            assert np.linalg.norm(A @ X - B) <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(X)

    def test_dense_layout(self, chain20_systems):
        blocks, _ = chain20_systems[0]
        n, m, k = blocks.n, blocks.m, blocks.n + blocks.m
        J = blocks.dense()
        assert np.array_equal(J[:n, :k], blocks.FG) and not J[:n, k:].any()
        assert np.array_equal(J[n:k], np.hstack([blocks.Hx, np.zeros((m, m)), np.eye(m)]))
        assert np.array_equal(J[k:], np.hstack([np.zeros((m, n)), np.diag(blocks.s),
                                                np.diag(blocks.y)]))

    @staticmethod
    def parts(blocks):
        return {name: getattr(blocks, name) for name in ("FG", "Hx", "s", "y")}

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_wrong_slack_count_raises(self, chain20_systems, shift):
        parts = self.parts(chain20_systems[0][0])
        m = parts["s"].size + shift
        parts["s"], parts["y"] = np.ones(m), np.ones(m)
        with pytest.raises(ValueError, match="no KKT layout"):
            numerics.KktBlocks(**parts)

    @pytest.mark.parametrize("block", ["FG", "Hx", "s", "y"])
    def test_mismatched_blocks_raise(self, chain20_systems, block):
        parts = self.parts(chain20_systems[0][0])
        parts[block] = parts[block][:-1]
        with pytest.raises(ValueError, match="no KKT layout"):
            numerics.KktBlocks(**parts)

    def test_square_matrix_only(self):
        with pytest.raises(ValueError, match="no KKT layout"):
            truncated_lstsq(np.ones((3, 4)), np.ones(3), RCOND)


class TestWarmStart:
    """The block iterations of a solve start from the Ritz vectors of its
    last direction; the path and the direction must be those of a cold
    start, on either factorization."""

    @pytest.mark.parametrize("n_states", [20, 30])
    def test_chain_directions_match_cold_start(self, n_states, factorization):
        calls = record_solve(chain_model(n_states))
        assert all(J.starts is calls[0][0].starts is not None for J, _, _, _ in calls)
        for J, rhs, x, path in calls:
            cold = KktBlocks(J.FG, J.Hx, J.s, J.y)
            assert path == truncated_lstsq(cold, rhs, RCOND)[1]
            ref = np.linalg.lstsq(J.dense(), rhs, rcond=RCOND)[0]
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("fixture", ["malware2", "malware10"])
    def test_builtin_paths_match_cold_start(self, request, monkeypatch, fixture,
                                            factorization):
        spec = request.getfixturevalue(fixture)
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)
        warm = [path for _, _, _, path in record_solve(spec)]
        assert [path for _, _, _, path in record_solve(spec, cold=True)] == warm
        assert {"lu", "lu_cut1"} <= set(warm)

    def test_holder_steps_and_blocks(self, chain20_systems, factorization):
        J, rhs = chain20_systems[13]
        starts = StartBlocks(J.dim)
        truncated_lstsq(KktBlocks(J.FG, J.Hx, J.s, J.y, starts), rhs, RCOND)
        cold = dict(starts.steps)
        assert cold["power"] >= 2 and cold["subspace"] >= 2
        assert starts.top.shape == (J.dim,) and starts.bottom.shape == (J.dim, 2)
        # The same matrix again starts from its own Ritz vectors: the floor.
        truncated_lstsq(KktBlocks(J.FG, J.Hx, J.s, J.y, starts), rhs, RCOND)
        assert starts.steps == {"power": cold["power"] + 2,
                                "subspace": cold["subspace"] + 2}


class TestNearlySingular:
    """A Jacobian whose smallest singular value is far below the cut: the
    second Ritz value of the first, unaligned step is then swamped by the
    first, and must not read as a second value below the cut."""

    def test_chain5_last_jacobian_cuts_one(self, monkeypatch, factorization):
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)
        blocks, rhs = solve_systems(chain_model(5))[-1]
        J = blocks.dense()
        s = np.linalg.svd(J, compute_uv=False)
        cut = RCOND * s[0]
        assert s[-1] < 1e-8 * cut and s[-2] > 10.0 * cut
        ref = np.linalg.lstsq(J, rhs, rcond=RCOND)[0]
        for A in (blocks, J):
            x, path = truncated_lstsq(A, rhs, RCOND)
            assert path == "lu_cut1"
            assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


class TestLogSumExp:
    def test_two_equal_entries(self):
        assert log_sum_exp(np.zeros(2)) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_shift_identity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=40) * 100.0
        assert abs(log_sum_exp(v) - (log_sum_exp(v - 37.0) + 37.0)) <= 1e-12

    def test_no_overflow(self):
        v = np.array([1000.0, 1000.0])
        assert log_sum_exp(v) == pytest.approx(1000.0 + np.log(2.0))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            log_sum_exp(np.array([]))


class TestJacobianFd:
    def test_quadratic_map(self):
        def F(z):
            return np.array([z[0] ** 2, z[0] * z[1], np.sin(z[1])])

        z = np.array([0.7, -0.3])
        exact = np.array([
            [2 * z[0], 0.0],
            [z[1], z[0]],
            [0.0, np.cos(z[1])],
        ])
        np.testing.assert_allclose(jacobian_fd(F, z), exact, atol=1e-7)

    def test_linear_map_exact(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(
            jacobian_fd(lambda z: A @ z, np.ones(2)), A, atol=1e-8
        )

    def test_non_finite_raises(self):
        def F(z):
            with np.errstate(invalid="ignore"):
                return np.array([np.log(z[0])])

        with pytest.raises(NonFiniteEvaluation):
            jacobian_fd(F, np.zeros(1))
