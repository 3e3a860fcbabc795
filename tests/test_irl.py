import numpy as np
import pytest

from mfgsolver import irl, mdp, model
from mfgsolver.errors import NotConverged, ValidationError

from test_mdp import MU_STAR, PI_STAR


@pytest.fixture(scope="module")
def problem2(malware2, expert2):
    mu_E, f_E = expert2
    return irl.IrlProblem(spec=malware2, mu_E=mu_E, f_expert=f_E)


@pytest.fixture(scope="module")
def problem10(malware10, eq10):
    """A4's inverse problem: exact expert data at the 10-state equilibrium."""
    eq, _ = eq10
    f_E = mdp.feature_expectation(malware10, eq.policy, eq.mean_field, eq.mean_field)
    return irl.IrlProblem(spec=malware10, mu_E=eq.mean_field, f_expert=f_E)


def reference_descent(spec, mu_E, f_E, step, n_steps):
    """Constant-step gradient descent written from the paper's exponent

        k(x,a) = log mu_E(x) + <theta, f(x,a)>
                 + (1-beta) [lambda_x + sum_z xi_z (p(z|x,a) - mu_E(z))]

    with a max-shifted log-sum-exp at every step. Evaluates n_steps + 1
    points and steps from each, as solve_irl does before NotConverged.
    Returns the (g, gradient sup-norm) trace, the final dual vector and the
    log Z of every evaluated point.
    """
    f = model.feature_table(spec, mu_E)  # [x, a, j]
    p = model.transition_kernel(spec, mu_E)  # [z, x, a]
    c = 1.0 - spec.beta
    theta = np.zeros(spec.feature_dim)
    lam, xi = np.zeros(spec.n_states), np.zeros(spec.n_states)
    trace, log_zs = [], []
    for _ in range(n_steps + 1):
        k = (np.log(mu_E)[:, None] + f @ theta
             + c * (lam[:, None]
                    + np.einsum("zxa,z->xa", p - mu_E[:, None, None], xi)))
        k_max = k.max()
        log_z = k_max + np.log(np.exp(k - k_max).sum())
        nu = np.exp(k - log_z)
        g = log_z / c - theta @ f_E - lam @ mu_E
        grad_theta = np.einsum("xaj,xa->j", f, nu) / c - f_E
        grad_lam = nu.sum(axis=1) - mu_E
        grad_xi = np.einsum("zxa,xa->z", p, nu) - mu_E
        grad = np.concatenate([grad_theta, grad_lam, grad_xi])
        trace.append((g, np.abs(grad).max()))
        log_zs.append(log_z)
        theta = theta - step * grad_theta
        lam = lam - step * grad_lam
        xi = xi - step * grad_xi
    return np.array(trace), np.concatenate([theta, lam, xi]), np.array(log_zs)


def stopped_run(problem, config):
    """Trace and final dual vector of a run that hits max_iter."""
    with pytest.raises(NotConverged) as exc_info:
        irl.solve_irl(problem, config)
    d, trace = exc_info.value.result
    return trace, d.as_vector()


class TestProblemValidation:
    def test_zero_mass_raises(self, malware2):
        with pytest.raises(ValidationError):
            irl.IrlProblem(
                spec=malware2, mu_E=np.array([1.0, 0.0]),
                f_expert=np.zeros(3),
            )

    def test_wrong_feature_length_raises(self, malware2):
        with pytest.raises(ValidationError):
            irl.IrlProblem(
                spec=malware2, mu_E=np.array([0.6, 0.4]), f_expert=np.zeros(2)
            )

    def test_non_simplex_raises(self, malware2):
        with pytest.raises(ValidationError):
            irl.IrlProblem(
                spec=malware2, mu_E=np.array([0.6, 0.6]), f_expert=np.zeros(3)
            )


class TestDualPieces:
    def test_boltzmann_normalized(self, problem2):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = irl.DualPoint.from_vector(problem2, rng.normal(size=7))
            nu = irl.boltzmann(problem2, d)
            assert nu.nu.sum() == pytest.approx(1.0, abs=1e-12)
            assert nu.nu.min() > 0.0

    def test_zero_point_objective(self, problem2):
        # At the zero dual point the exponent is log mu_E(x) for both
        # actions, so log Z = log(2) and g = log(2)/(1-beta).
        g = irl.dual_objective(problem2, irl.DualPoint.zero(problem2))
        assert g == pytest.approx(np.log(2.0) / 0.2, abs=1e-10)

    def test_gradient_matches_finite_differences(self, problem2):
        rng = np.random.default_rng(13)
        for _ in range(10):
            v = rng.normal(scale=0.5, size=7)
            g_an = np.concatenate(
                irl.dual_gradient(problem2, irl.DualPoint.from_vector(problem2, v))
            )
            h = 1e-6
            g_fd = np.empty_like(v)
            for i in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                g_fd[i] = (
                    irl.dual_objective(problem2, irl.DualPoint.from_vector(problem2, vp))
                    - irl.dual_objective(problem2, irl.DualPoint.from_vector(problem2, vm))
                ) / (2.0 * h)
            np.testing.assert_allclose(g_an, g_fd, atol=1e-7)

    def test_vector_round_trip(self, problem2):
        v = np.arange(7.0)
        d = irl.DualPoint.from_vector(problem2, v)
        np.testing.assert_allclose(d.as_vector(), v)
        np.testing.assert_allclose(d.theta, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(d.lam, [3.0, 4.0])
        np.testing.assert_allclose(d.xi, [5.0, 6.0])

    def test_gradient_duality_identity(self, problem2):
        # For the Boltzmann family, g(d) - <d, grad g(d)> equals the
        # entropy of nu_d relative to the expert marginal:
        # -(1/(1-beta)) sum nu(x,a) log(nu(x,a)/mu_E(x)).
        rng = np.random.default_rng(21)
        v = rng.normal(scale=0.3, size=7)
        d = irl.DualPoint.from_vector(problem2, v)
        g = irl.dual_objective(problem2, d)
        grad = np.concatenate(irl.dual_gradient(problem2, d))
        table = irl.boltzmann(problem2, d).nu
        H = -float(np.sum(table * np.log(table / problem2.mu_E[:, None])))
        H /= 1.0 - problem2.spec.beta
        assert g - float(v @ grad) == pytest.approx(H, abs=1e-8)


class TestSmoothness:
    def test_constants_positive(self, problem2):
        c = irl.smoothness_constants(problem2)
        assert c.M1 > 0 and c.M2 > 0 and c.M3 >= 0
        assert c.M == max(c.M1, c.M2, c.M3)
        spec = problem2.spec
        expected = 2.0 * c.M * (
            c.M1 / (1.0 - spec.beta)
            + 2.0 * np.sqrt(spec.n_states * spec.n_actions)
        )
        assert c.L == pytest.approx(expected)

    def test_span_assumption_reports_rank(self, problem2):
        holds, rank = irl.check_span_assumption(problem2)
        assert isinstance(holds, bool)
        # |X||A| rows can never reach rank k + 2|X| = 7 here: only 4 rows.
        assert not holds
        assert rank <= 4


class TestSolveIrl:
    def test_recovers_expert_measure(self, malware2, problem2):
        # Plain descent gets the constraint residuals below grad_tol; the
        # quasi-Newton refinement then pins the measure to the expert's.
        d, nu, pi, trace = irl.solve_irl(
            problem2, irl.IrlConfig(step=0.5, grad_tol=1e-3)
        )
        res = irl.verify_irl(problem2, nu)
        assert max(res.values()) <= 2e-3
        _, nu_ref, _ = irl.polish_dual(problem2, start=d)
        exact_nu = mdp.occupation_measure(malware2, PI_STAR, MU_STAR, MU_STAR)
        np.testing.assert_allclose(nu_ref.nu, exact_nu.nu, atol=1e-5)

    def test_trace_monotone_at_safe_step(self, problem2):
        consts = irl.smoothness_constants(problem2)
        d, nu, pi, trace = irl.solve_irl(
            problem2, irl.IrlConfig(step=1.0 / consts.L, grad_tol=0.05)
        )
        g = trace[:, 0]
        assert np.all(np.diff(g) <= 1e-14)

    def test_not_converged_carries_trace(self, problem2):
        with pytest.raises(NotConverged) as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(step=0.5, grad_tol=1e-9,
                                                  max_iter=10))
        d, trace = exc_info.value.result
        assert isinstance(d, irl.DualPoint)
        assert trace.shape == (11, 2)
        assert trace.dtype == np.float64

    def test_matches_reference_descent_a4(self, problem10):
        # A4's configuration: 2,000 steps of 0.0025 from the zero start.
        trace, v = stopped_run(
            problem10, irl.IrlConfig(step=0.0025, grad_tol=0.0, max_iter=2_000)
        )
        spec = problem10.spec
        ref_trace, ref_v, _ = reference_descent(
            spec, problem10.mu_E, problem10.f_expert, 0.0025, 2_000
        )
        assert trace.shape == ref_trace.shape == (2_001, 2)
        np.testing.assert_allclose(trace, ref_trace, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(v, ref_v, rtol=0.0, atol=1e-12)

    def test_matches_reference_descent_with_reshift(self, problem2):
        # At step 500, log Z moves by more than log(1e100) between most
        # steps, the first among them. Shifting by the previous step's
        # log Z then overflows, and those steps take the re-shift at max(k).
        with pytest.warns(UserWarning):
            trace, _ = stopped_run(
                problem2, irl.IrlConfig(step=500.0, grad_tol=0.0, max_iter=20)
            )
        ref_trace, _, log_zs = reference_descent(
            problem2.spec, problem2.mu_E, problem2.f_expert, 500.0, 20
        )
        jumps = np.abs(np.diff(log_zs)) > np.log(1e100)
        assert jumps[0] and jumps.sum() > 10
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-9, atol=0.0)

    def test_large_step_warns(self, problem2):
        with pytest.warns(UserWarning):
            irl.solve_irl(problem2, irl.IrlConfig(step=0.5, grad_tol=0.5,
                                                  max_iter=100))

    def test_bad_step_raises(self, problem2):
        with pytest.raises(ValueError):
            irl.solve_irl(problem2, irl.IrlConfig(step=-1.0))

    def test_settle_tol_requires_static_measure(self, problem2):
        loose = irl.solve_irl(problem2, irl.IrlConfig(step=0.5, grad_tol=5e-3))
        settled = irl.solve_irl(
            problem2,
            irl.IrlConfig(step=0.5, grad_tol=5e-3, settle_tol=1e-9),
        )
        assert len(settled[3]) >= len(loose[3])


class TestPolishDual:
    def test_improves_objective(self, problem2):
        d0, _, _, _ = irl.solve_irl(
            problem2, irl.IrlConfig(step=0.5, grad_tol=1e-2)
        )
        g0 = irl.dual_objective(problem2, d0)
        d, nu, pi = irl.polish_dual(problem2, start=d0)
        assert irl.dual_objective(problem2, d) <= g0
        assert nu.nu.sum() == pytest.approx(1.0, abs=1e-10)

    def test_from_zero_start(self, problem2):
        d, nu, pi = irl.polish_dual(problem2)
        grad = np.concatenate(irl.dual_gradient(problem2, d))
        assert np.abs(grad).max() <= 1e-6
