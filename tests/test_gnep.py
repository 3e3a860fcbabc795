import numpy as np
import pytest

import mfgsolver as m
from mfgsolver import gnep, mdp, numerics
from mfgsolver.errors import BoundaryViolation, MissingTheta, NonDescent, NotConverged
from mfgsolver.numerics import jacobian_fd

from conftest import chain_model, non_descent_model
from test_mdp import MU_STAR, PI_STAR


def assert_a2(spec, eq):
    """A2's gate: relative optimality gap <= 1e-5, invariance residual <= 1e-6."""
    J = float(eq.mean_field @ mdp.policy_evaluation(spec, eq.policy, eq.mean_field))
    assert eq.optimality_gap / abs(J) <= 1e-5
    assert eq.invariance_residual <= 1e-6


class TestConstraints:
    def test_feasible_point(self, malware2):
        from mfgsolver import mdp

        occ = mdp.occupation_measure(malware2, PI_STAR, MU_STAR, MU_STAR)
        h1, h2 = gnep.constraints(malware2, occ.nu.ravel(), MU_STAR)
        assert h1.max() <= 1e-10
        assert h2.max() <= 1e-10

    def test_infeasible_point(self, malware2):
        h1, _ = gnep.constraints(malware2, -np.ones(4) / 4.0, MU_STAR)
        assert h1.max() > 0.0


class TestKktJacobian:
    def test_matches_finite_differences(self, malware2):
        dims = gnep.Dimensions(malware2)
        rng = np.random.default_rng(2)
        z = gnep.initial_point(malware2, dims) + 0.05 * rng.random(dims.dim)
        J_an = gnep.kkt_jacobian(malware2, z, dims)
        J_fd = jacobian_fd(lambda w: gnep.kkt_map(malware2, w, dims), z)
        assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())

    def test_matches_finite_differences_10_state(self, malware10):
        dims = gnep.Dimensions(malware10)
        z = gnep.initial_point(malware10, dims)
        J_an = gnep.kkt_jacobian(malware10, z, dims)
        J_fd = jacobian_fd(lambda w: gnep.kkt_map(malware10, w, dims), z)
        assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())

    @pytest.mark.parametrize("fixture,iterations", [("malware2", 30), ("malware10", 29)])
    def test_matches_finite_differences_along_path(self, request, fixture, iterations):
        """At three seeded iterates of the solve's own path."""
        spec = request.getfixturevalue(fixture)
        config = gnep.GnepConfig()
        dims = gnep.Dimensions(spec)
        picks = set(np.random.default_rng(7).choice(iterations, 3, replace=False))
        z = gnep.initial_point(spec, dims)
        for it in range(max(picks) + 1):
            if it in picks:
                J_an = gnep.kkt_jacobian(spec, z, dims)
                J_fd = jacobian_fd(lambda w: gnep.kkt_map(spec, w, dims), z)
                assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())
            d, slope, _ = gnep.newton_direction(spec, z, config.sigma, config, dims)
            _, z = gnep.armijo_step(spec, z, d, slope, config, dims)


class TestPotential:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        n, total, K = 3, 8, 12.0
        Hz = np.concatenate([rng.normal(size=n), rng.random(total - n) + 0.5])
        g_an = gnep.potential_gradient(Hz, n, K)
        g_fd = jacobian_fd(
            lambda w: np.array([gnep.potential(w, n, K)]), Hz
        ).ravel()
        np.testing.assert_allclose(g_an, g_fd, atol=1e-6)

    def test_boundary_raises(self):
        with pytest.raises(BoundaryViolation):
            gnep.potential(np.array([1.0, 0.0]), 1, 4.0)


class TestInitialPoint:
    def test_interior(self, malware2):
        dims = gnep.Dimensions(malware2)
        z = gnep.initial_point(malware2, dims)
        Hz = gnep.kkt_map(malware2, z, dims)
        assert np.all(z[dims.n:] > 0.0)
        assert np.all(Hz[dims.n:] > 0.0)


class TestSolveGnep:
    def test_malware2_closed_form(self, eq2):
        eq, report = eq2
        assert report.converged
        np.testing.assert_allclose(eq.mean_field, MU_STAR, atol=1e-7)
        np.testing.assert_allclose(eq.policy, PI_STAR, atol=1e-6)
        assert eq.optimality_gap <= 1e-7
        assert eq.invariance_residual <= 1e-7

    def test_malware10_verified(self, eq10):
        eq, report = eq10
        assert report.converged
        assert eq.optimality_gap <= 1e-6
        assert eq.invariance_residual <= 1e-8
        assert eq.mean_field.sum() == pytest.approx(1.0, abs=1e-10)

    def test_not_converged_carries_result(self, malware2):
        with pytest.raises(NotConverged) as exc_info:
            m.solve_gnep(malware2, gnep.GnepConfig(max_iter=3))
        eq, report = exc_info.value.result
        assert not report.converged
        assert eq.mean_field.shape == (2,)

    def test_missing_theta_raises(self):
        spec = m.builtin_malware(2, None, q=0.9)
        with pytest.raises(MissingTheta):
            m.solve_gnep(spec)

    def test_histories_aligned(self, eq2):
        _, report = eq2
        assert len(report.h_norm_history) == len(report.psi_history)
        assert report.h_norm_history[-1] <= 1e-8


class TestDirectionPaths:
    """How each Newton direction was computed, and that the LU path keeps
    the iterate path of the SVD."""

    def test_builtins_stay_on_lstsq(self, eq2, eq10):
        assert eq2[1].directions == {"lu": 0, "lu_cut1": 0, "svd": 30}
        assert eq10[1].directions == {"lu": 0, "lu_cut1": 0, "svd": 29}

    @pytest.mark.parametrize("fixture,iterations", [("malware2", 30), ("malware10", 29)])
    def test_lu_path_forced_on_builtins(self, request, monkeypatch, fixture, iterations):
        spec = request.getfixturevalue(fixture)
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)
        eq, report = m.solve_gnep(spec)
        assert report.converged and report.iterations == iterations
        assert_a2(spec, eq)
        assert sum(report.directions.values()) == iterations
        assert report.directions["lu"] > 0 and report.directions["lu_cut1"] > 0

    def test_chain20(self):
        spec = chain_model(20)
        eq, report = m.solve_gnep(spec)
        assert report.converged and report.iterations == 26
        assert_a2(spec, eq)
        assert report.directions == {"lu": 14, "lu_cut1": 12, "svd": 0}


class TestFailureReport:
    def test_non_descent_carries_report(self):
        with pytest.raises(NonDescent) as exc_info:
            m.solve_gnep(non_descent_model())
        report = exc_info.value.report
        assert f"iteration {report.iterations}:" in str(exc_info.value)
        assert len(report.h_norm_history) == report.iterations + 1
        # One direction per step taken, plus the failing one.
        assert sum(report.directions.values()) == report.iterations + 1
        assert exc_info.value.path == "svd"


class TestVerifyMfe:
    def test_exact_equilibrium(self, malware2):
        gap, residual = m.verify_mfe(malware2, PI_STAR, MU_STAR)
        assert gap <= 1e-10
        assert residual <= 1e-12

    def test_off_equilibrium(self, malware2):
        pi = np.array([[1.0, 0.0], [1.0, 0.0]])
        gap, residual = m.verify_mfe(malware2, pi, MU_STAR)
        assert gap > 1e-2 or residual > 1e-2


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sigma": 1.0}, {"sigma": -0.1}, {"kappa": 0.0},
        {"kappa": 1.0}, {"armijo_alpha": 0.0},
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gnep.GnepConfig(**kwargs)
