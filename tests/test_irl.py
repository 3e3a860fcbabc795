import numpy as np
import pytest

from mfgsolver import estimation, irl, mdp, model
from mfgsolver.errors import (
    LineSearchStall, MfgError, NonDescent, NonFinite, NotConverged, ValidationError,
)
from mfgsolver.numerics import scipy_extension

from test_acceptance import ROUNDED_F, ROUNDED_MU
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


@pytest.fixture(scope="module")
def problem_a4(malware10):
    """A4's inverse problem: the deterministic policy that repairs from state
    7 up, with its own invariant distribution."""
    pi_E = np.zeros((10, 2))
    pi_E[:7, 0] = 1.0
    pi_E[7:, 1] = 1.0
    mu_E = mdp.stationary_distribution(malware10, pi_E, np.full(10, 0.1))
    f_E = mdp.feature_expectation(malware10, pi_E, mu_E, mu_E)
    return irl.IrlProblem(spec=malware10, mu_E=mu_E, f_expert=f_E)


def reference_descent(spec, mu_E, f_E, step, n_steps, points=None):
    """Constant-step gradient descent written from the paper's exponent

        k(x,a) = log mu_E(x) + <theta, f(x,a)>
                 + (1-beta) [lambda_x + sum_z xi_z (p(z|x,a) - mu_E(z))]

    with a max-shifted log-sum-exp at every step. Evaluates n_steps + 1
    points, stepping from each to the next, as solve_irl does before
    NotConverged. Returns the (g, gradient sup-norm) trace, the last
    evaluated dual vector and the log Z of every evaluated point. A list
    passed as points receives (v, g, gradient, nu) at every evaluated
    point.
    """
    f = model.feature_table(spec, mu_E)  # [x, a, j]
    p = model.transition_kernel(spec, mu_E)  # [z, x, a]
    c = 1.0 - spec.beta
    theta = np.zeros(spec.feature_dim)
    lam, xi = np.zeros(spec.n_states), np.zeros(spec.n_states)
    trace, log_zs = [], []
    for i in range(n_steps + 1):
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
        if points is not None:
            points.append((np.concatenate([theta, lam, xi]), g, grad, nu))
        if i == n_steps:
            break
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

    @pytest.mark.parametrize("mu_E", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_mean_field_length_raises(self, malware2, mu_E):
        with pytest.raises(ValidationError, match=r"mu_E has shape .*, expected \(2,\)"):
            irl.IrlProblem(spec=malware2, mu_E=mu_E, f_expert=np.zeros(3))


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

    @pytest.mark.parametrize("case,step", [("problem2", 0.5), ("problem10", 0.0025),
                                           ("problem2", 500.0)])
    def test_match_reference_descent_points(self, request, case, step):
        # The public functions against the paper form, at every point the
        # reference evaluates; step 500 moves log Z by up to 1e4 per step.
        problem = request.getfixturevalue(case)
        points = []
        reference_descent(problem.spec, problem.mu_E, problem.f_expert, step,
                          300, points)
        for v, g, grad, nu in points:
            d = irl.DualPoint.from_vector(problem, v)
            assert abs(irl.dual_objective(problem, d) - g) <= 1e-12 * abs(g)
            got = np.concatenate(irl.dual_gradient(problem, d))
            assert np.abs(got - grad).max() <= 1e-12 * np.abs(grad).max()
            got = irl.boltzmann(problem, d).nu
            assert np.abs(got - nu).max() <= 1e-12 * nu.max()

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

    @pytest.mark.parametrize("case", ["problem2", "problem10"])
    def test_span_rows_have_a_null_vector(self, request, case, monkeypatch):
        # Each row (f(x,a), p(.|x,a), e_x) has kernel mass 1 and indicator
        # mass 1, so (0_k, 1_X, -1_X) annihilates every row: the rank is at
        # most k + 2|X| - 1 and the test cannot hold.
        problem = request.getfixturevalue(case)
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: seen.append(a.copy()) or svd(a, **kw))
        holds, rank = irl.check_span_assumption(problem)
        X, k = problem.spec.n_states, problem.spec.feature_dim
        null = np.concatenate([np.zeros(k), np.ones(X), -np.ones(X)])
        np.testing.assert_allclose(seen[0] @ null, 0.0, atol=1e-12)
        assert not holds
        assert rank <= k + 2 * X - 1

    @pytest.mark.parametrize("case", ["problem2", "problem10"])
    def test_span_rows_match_loop_reference(self, request, case, monkeypatch):
        problem = request.getfixturevalue(case)
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: seen.append(a.copy()) or svd(a, **kw))
        irl.check_span_assumption(problem)
        spec, f, p = problem.spec, problem.features, problem.kernel
        X, A, k = spec.n_states, spec.n_actions, spec.feature_dim
        rows = np.zeros((X * A, k + 2 * X))
        for x in range(X):
            for a in range(A):
                i = x * A + a
                rows[i, :k] = f[x, a]
                rows[i, k : k + X] = p[:, x, a]
                rows[i, k + X + x] = 1.0
        np.testing.assert_array_equal(seen[0], rows)


class TestSolveIrl:
    def test_recovers_expert_measure(self, malware2, problem2):
        # Plain descent gets the constraint residuals below grad_tol; Newton
        # at a tight grad_tol pins the measure to the expert's.
        d, nu, pi, trace = irl.solve_irl(
            problem2, irl.IrlConfig(step=0.5, grad_tol=1e-3)
        )
        res = irl.verify_irl(problem2, nu)
        assert max(res.values()) <= 2e-3
        _, nu_ref, _, _ = irl.solve_irl(
            problem2, irl.IrlConfig(method="newton", grad_tol=1e-8))
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

    def test_non_finite_carries_last_iterate(self, problem2):
        # Steps of 1e308 overflow the exponent, so the objective is NaN.
        with pytest.warns(UserWarning), pytest.raises(NonFinite) as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(step=1e308, max_iter=10))
        d, trace = exc_info.value.result
        assert 0 < len(trace) - 1 <= 10
        assert np.all(np.isfinite(trace[:-1])) and not np.isfinite(trace[-1, 0])
        assert not np.isfinite(irl.dual_objective(problem2, d))

    def test_unknown_method_raises(self, problem2):
        with pytest.raises(ValueError):
            irl.solve_irl(problem2, irl.IrlConfig(method="lbfgs"))

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

    @pytest.mark.parametrize("method", ["gd", "newton"])
    def test_config_rejects_non_positive_step(self, method):
        # Checked when the config is built, whatever the method.
        for step in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step must be positive"):
                irl.IrlConfig(step=step, method=method)

    @pytest.mark.parametrize("name", ["grad_tol", "settle_tol"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_config_rejects_negative_tolerance(self, name, value):
        irl.IrlConfig(**{name: 0.0})
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            irl.IrlConfig(**{name: value})

    def test_settle_tol_requires_static_measure(self, problem2):
        loose = irl.solve_irl(problem2, irl.IrlConfig(step=0.5, grad_tol=5e-3))
        settled = irl.solve_irl(
            problem2,
            irl.IrlConfig(step=0.5, grad_tol=5e-3, settle_tol=1e-9),
        )
        assert len(settled[3]) >= len(loose[3])


class TestDualKernel:
    def test_carried_exponent_stays_in_sync(self, problem_a4):
        # 20,000 steps of A4's configuration through the kernel, as
        # solve_irl takes them; no re-shift happens, so c stays the max of
        # the exponent at v = 0, log mu_E's max.
        daxpy = scipy_extension("_fblas").daxpy
        restart, evaluate, step, v, e, sg = irl.dual_kernel(problem_a4, daxpy)
        restart(v)
        for _ in range(20_000):
            _, s = evaluate()
            step(-0.0025 / s)
        assert np.abs(v).max() > 1.0
        u, m = v.base, e.size  # the kernel's state (k - c, <v, linear>, v, 1)
        Bext, _ = problem_a4._matrices
        fresh = Bext @ np.append(v, 1.0)
        fresh[:m] -= np.log(problem_a4.mu_E).max()
        np.testing.assert_allclose(u[: m + 1], fresh, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("drift", [-300.0, 300.0])
    def test_reshift_restarts_from_v_exactly(self, problem10, drift):
        # A carried exponent 300 off puts s = sum(exp(k - c)) outside
        # [1e-100, 1e100]; evaluate then restarts from v, and everything it
        # leaves equals a fresh kernel's max-shifted evaluation at v.
        restart, evaluate, _, v, e, sg = irl.dual_kernel(problem10)
        v0 = np.random.default_rng(3).normal(scale=0.5, size=v.size)
        restart(v0)
        v.base[: e.size] += drift  # the carried exponent, k - c
        got = evaluate()
        fresh_restart, fresh_evaluate, _, fresh_v, fresh_e, fresh_sg = (
            irl.dual_kernel(problem10))
        fresh_restart(v0)
        assert got == fresh_evaluate()
        np.testing.assert_array_equal(v.base, fresh_v.base)
        np.testing.assert_array_equal(e, fresh_e)
        np.testing.assert_array_equal(sg, fresh_sg)
        assert 1.0 <= got[1] <= e.size


class TestIterationCounts:
    """The iteration counts of the reference runs, which a change to the
    kernel's arithmetic must keep."""

    def test_a4_pipeline_problem(self, problem10):
        _, _, _, trace = irl.solve_irl(
            problem10, irl.IrlConfig(step=0.0025, grad_tol=1e-2))
        assert len(trace) - 1 == 514_907

    def test_a3_problem(self, malware2):
        problem = irl.IrlProblem(spec=malware2, mu_E=ROUNDED_MU, f_expert=ROUNDED_F)
        with pytest.warns(UserWarning):
            _, _, _, trace = irl.solve_irl(
                problem, irl.IrlConfig(step=0.5, grad_tol=1e-2, settle_tol=1e-10))
        assert len(trace) - 1 == 91_201

    def test_a4_problem(self, problem_a4):
        _, _, _, trace = irl.solve_irl(
            problem_a4,
            irl.IrlConfig(step=0.0025, grad_tol=4.4e-3, max_iter=3_000_000))
        assert len(trace) - 1 == 1_719_627


class TestNewton:
    @pytest.mark.parametrize("case,eq", [("problem2", "eq2"), ("problem10", "eq10")])
    def test_reaches_equilibrium_policy(self, request, case, eq):
        # On exact expert data Newton drives the verify_irl residuals to the
        # tolerance and recovers the equilibrium policy.
        problem = request.getfixturevalue(case)
        eq, _ = request.getfixturevalue(eq)
        d, nu, pi, trace = irl.solve_irl(
            problem, irl.IrlConfig(method="newton", grad_tol=1e-9))
        assert len(trace) - 1 <= 30
        assert max(irl.verify_irl(problem, nu).values()) <= 1e-8
        assert np.abs(pi - eq.policy).max() <= 1e-6
        grad = np.concatenate(irl.dual_gradient(problem, d))
        assert np.abs(grad).max() <= 1e-9

    def test_decreases_with_one_evaluate_per_point(self, problem10, monkeypatch):
        # Every trial point is restarted and evaluated once, and the accepted
        # trial's values are the next iterate's trace row: no point twice.
        points, kernel = [], irl.dual_kernel

        def recorded_kernel(problem):
            restart, evaluate, step, v, e, sg = kernel(problem)

            def recorded():
                g, s = evaluate()
                points.append((v.copy(), g))
                return g, s
            return restart, recorded, step, v, e, sg

        monkeypatch.setattr(irl, "dual_kernel", recorded_kernel)
        d, _, _, trace = irl.solve_irl(
            problem10, irl.IrlConfig(method="newton", grad_tol=1e-9))
        assert trace.shape[1] == 2
        assert np.all(np.diff(trace[:, 0]) < 0.0)
        assert len({v.tobytes() for v, _ in points}) == len(points) >= len(trace)
        accepted = [g for _, g in points if g in set(trace[:, 0])]
        np.testing.assert_array_equal(accepted, trace[:, 0])
        np.testing.assert_array_equal(points[-1][0], d.as_vector())

    @pytest.mark.parametrize("method", ["newton", "gd"])
    def test_not_converged_carries_last_iterate(self, problem2, method):
        # The carried point is the one of the trace's last row: no step is
        # taken at max_iter. Newton evaluates each point afresh, so its value
        # is the trace's to the bit; gd carries its exponent along by daxpy.
        with pytest.raises(NotConverged) as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(method=method, grad_tol=1e-12,
                                                  max_iter=3))
        d, trace = exc_info.value.result
        assert trace.shape == (4, 2)
        g = irl.dual_objective(problem2, d)
        if method == "newton":
            assert g == trace[-1, 0]
        else:
            assert g == pytest.approx(trace[-1, 0], rel=1e-13, abs=0.0)

    def test_stalled_gradient_raises_not_converged(self, problem2):
        # Below the regularization's floor the gradient sits at about
        # 1.13e-10 from iteration 19 on; the default max_iter would take
        # about 47 s to reach.
        with pytest.raises(NotConverged, match="has not halved") as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(method="newton", grad_tol=1e-10))
        d, trace = exc_info.value.result
        grad, W = trace[:, 1], irl.STALL_WINDOW
        assert len(trace) - 1 <= 100
        assert irl.dual_objective(problem2, d) == trace[-1, 0]
        # It stops at the first iterate whose gradient has not halved over
        # the window, and not before.
        stalled = grad[W:] > 0.5 * grad[:-W]
        assert stalled[-1] and not stalled[:-1].any()
        assert grad.min() > 1e-10

    def test_stall_stop_leaves_settling_alone(self, problem2):
        # Once the gradient meets grad_tol, a stalled gradient does not stop
        # a solve that waits for the measure to settle.
        _, _, _, trace = irl.solve_irl(
            problem2, irl.IrlConfig(method="newton", grad_tol=1e-6, settle_tol=1e-15))
        grad, W = trace[:, 1], irl.STALL_WINDOW
        assert (grad[W:] > 0.5 * grad[:-W]).any()
        assert grad[-1] <= 1e-6

    @pytest.mark.parametrize("solve,message", [
        ("singular", "Singular matrix"), ("nan", "direction is not finite"),
    ])
    def test_bad_newton_system_raises_non_finite(self, problem2, monkeypatch,
                                                 solve, message):
        def bad_solve(a, b):
            if solve == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", bad_solve)
        with pytest.raises(NonFinite, match=message) as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(method="newton"))
        d, trace = exc_info.value.result
        np.testing.assert_array_equal(d.as_vector(), 0.0)
        assert trace.shape == (1, 2) and np.all(np.isfinite(trace))

    def test_no_decrease_raises_line_search_stall(self, problem2, monkeypatch):
        # A direction 2^20 times too long needs about 20 halvings.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 2.0**20 * solve(a, b))
        irl.solve_irl(problem2, irl.IrlConfig(method="newton"))
        monkeypatch.setattr(irl, "MAX_HALVINGS", 10)
        with pytest.raises(LineSearchStall, match="10 halvings") as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(method="newton"))
        d, trace = exc_info.value.result
        np.testing.assert_array_equal(d.as_vector(), 0.0)
        assert trace.shape == (1, 2)

    def test_ascent_direction_raises_non_descent(self, problem2, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -solve(a, b))
        with pytest.raises(NonDescent, match="slope .* >= 0") as exc_info:
            irl.solve_irl(problem2, irl.IrlConfig(method="newton"))
        d, trace = exc_info.value.result
        np.testing.assert_array_equal(d.as_vector(), 0.0)
        assert trace.shape == (1, 2)

    @pytest.mark.parametrize("n_trajectories,horizon,seed", [
        (10, 10_000, 0), (10, 10_000, 1), (1_000, 100, 0),
    ])
    def test_estimated_data_never_leaks(self, malware10, eq10,
                                        n_trajectories, horizon, seed):
        # On sampled data the dual has no finite minimizer: Newton either
        # meets grad_tol or raises a package error carrying its last
        # iterate, never a LinAlgError or a NaN result.
        eq, _ = eq10
        trajectories = estimation.simulate(
            malware10, eq.policy, eq.mean_field, eq.mean_field,
            estimation.EstimatorConfig(n_trajectories=n_trajectories,
                                       horizon=horizon, seed=seed))
        mu_E = np.clip(estimation.estimate_mean_field(trajectories, 10), 1e-12, None)
        mu_E /= mu_E.sum()
        f_E, _ = estimation.estimate_feature_expectation(
            malware10, trajectories, mu_E, malware10.beta)
        problem = irl.IrlProblem(spec=malware10, mu_E=mu_E, f_expert=f_E)
        config = irl.IrlConfig(method="newton")
        try:
            _, nu, pi, _ = irl.solve_irl(problem, config)
        except MfgError as exc:
            d, trace = exc.result
            assert isinstance(d, irl.DualPoint) and len(trace) >= 1
            return
        assert np.all(np.isfinite(pi))
        assert max(irl.verify_irl(problem, nu).values()) <= config.grad_tol
