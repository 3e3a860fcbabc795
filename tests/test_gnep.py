import dataclasses

import numpy as np
import pytest

import mfgsolver as m
from mfgsolver import gnep, irl, mdp, numerics
from mfgsolver.errors import (
    BoundaryViolation, LineSearchStall, MissingTheta, NonDescent, NotConverged,
    ValidationError,
)
from mfgsolver.numerics import jacobian_fd

from conftest import (
    chain_model, inject_boundary_violation, non_descent_model, random_feasible_instance,
)
from test_mdp import MU_STAR, PI_STAR


def assert_a2(spec, eq):
    """A2's gate: relative optimality gap <= 1e-5, invariance residual <= 1e-6."""
    J = float(eq.mean_field @ mdp.policy_evaluation(spec, eq.policy, eq.mean_field))
    assert eq.optimality_gap / abs(J) <= 1e-5
    assert eq.invariance_residual <= 1e-6


def solve_path(spec, config=None, iterations=None):
    """The solver's own iteration, one (kkt, z, Hz, psi, J, d, slope) per
    Newton step, for at most `iterations` steps."""
    config = config or gnep.GnepConfig()
    kkt = gnep.KktSystem(spec)
    z = kkt.initial_point()
    report = gnep.KktReport()
    for _ in range(config.max_iter if iterations is None else iterations):
        Hz = gnep.kkt_map(kkt, z)
        if np.linalg.norm(Hz) <= config.tol:
            return
        psi = gnep.potential(Hz, kkt.n, kkt.K)
        J = gnep.kkt_jacobian(kkt, z)
        d, slope = gnep.newton_direction(kkt, J, Hz, config, report.directions)
        yield kkt, z, Hz, psi, J, d, slope
        _, z = gnep.armijo_step(kkt, J, z, Hz, psi, d, slope, config, report.line_search)


class TestConstraints:
    def test_feasible_point(self, malware2):
        from mfgsolver import mdp

        occ = mdp.occupation_measure(malware2, PI_STAR, MU_STAR, MU_STAR)
        h1, h2 = gnep.KktSystem(malware2).constraints(occ.nu.ravel(), MU_STAR)
        assert h1.max() <= 1e-10
        assert h2.max() <= 1e-10

    def test_infeasible_point(self, malware2):
        h1, _ = gnep.KktSystem(malware2).constraints(-np.ones(4) / 4.0, MU_STAR)
        assert h1.max() > 0.0


class TestKktJacobian:
    def test_matches_finite_differences(self, malware2):
        kkt = gnep.KktSystem(malware2)
        rng = np.random.default_rng(2)
        z = kkt.initial_point() + 0.05 * rng.random(kkt.dim)
        J_an = gnep.kkt_jacobian(kkt, z).dense()
        J_fd = jacobian_fd(lambda w: gnep.kkt_map(kkt, w), z)
        assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())

    def test_matches_finite_differences_10_state(self, malware10):
        kkt = gnep.KktSystem(malware10)
        z = kkt.initial_point()
        J_an = gnep.kkt_jacobian(kkt, z).dense()
        J_fd = jacobian_fd(lambda w: gnep.kkt_map(kkt, w), z)
        assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())

    @pytest.mark.parametrize("fixture,iterations", [("malware2", 30), ("malware10", 29)])
    def test_matches_finite_differences_along_path(self, request, fixture, iterations):
        """At three seeded iterates of the solve's own path."""
        spec = request.getfixturevalue(fixture)
        picks = set(np.random.default_rng(7).choice(iterations, 3, replace=False))
        for it, (kkt, z, _, _, J, _, _) in enumerate(solve_path(spec)):
            if it in picks:
                J_fd = jacobian_fd(lambda w: gnep.kkt_map(kkt, w), z)
                J_an = J.dense()
                assert np.abs(J_an - J_fd).max() <= 1e-6 * (1.0 + np.abs(J_an).max())

    def test_tables_follow_an_iterate_moved_in_place(self, malware10):
        kkt = gnep.KktSystem(malware10)
        z = kkt.initial_point()
        gnep.kkt_map(kkt, z)
        z[kkt.s_mu] += 0.1
        z[kkt.s_nu] *= 1.5
        fresh = gnep.KktSystem(malware10)
        assert np.array_equal(gnep.kkt_jacobian(kkt, z).dense(),
                              gnep.kkt_jacobian(fresh, z).dense())
        assert np.array_equal(gnep.kkt_map(kkt, z), gnep.kkt_map(fresh, z))


class TestQuadraticModel:
    """H is quadratic along a line: H(z + t d) = H(z) + t J d + t^2 Q(d)."""

    @staticmethod
    def assert_model(kkt, z, Hz, J, d):
        """To 1e-13 relative to |H(z + t d)|, or to the unit scale of H's
        terms once H is small: near a solution |H| is 1e-9 while the terms
        kkt_map sums are of order one and round at 1e-16."""
        Jd, Qd = J.matmul(d), kkt.Q(d)
        for t in (1.0, 0.3, 1e-4):
            exact = gnep.kkt_map(kkt, z + t * d)
            model = Hz + t * Jd + t * t * Qd
            scale = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(model - exact) <= 1e-13 * scale

    @pytest.mark.parametrize("fixture,iterations", [
        ("malware2", 30), ("malware10", 29), ("chain20", 26)])
    def test_along_solve_path(self, request, fixture, iterations):
        spec = chain_model(20) if fixture == "chain20" else request.getfixturevalue(fixture)
        picks = set(np.random.default_rng(11).choice(iterations, 4, replace=False))
        for it, (kkt, z, Hz, _, J, d, _) in enumerate(solve_path(spec)):
            if it in picks:
                self.assert_model(kkt, z, Hz, J, d)

    @pytest.mark.parametrize("make", ["random_feasible_instance", "non_descent_model"])
    def test_random_models(self, make):
        """A constant kernel, and a kernel and features that depend on mu;
        seeded iterates and directions."""
        rng = np.random.default_rng(5)
        if make == "random_feasible_instance":
            spec = dataclasses.replace(random_feasible_instance(rng)[0], theta=[0.7])
        else:
            spec = non_descent_model()
        kkt = gnep.KktSystem(spec)
        for _ in range(3):
            z = kkt.initial_point() + 0.1 * rng.random(kkt.dim)
            d = rng.normal(size=kkt.dim)
            self.assert_model(kkt, z, gnep.kkt_map(kkt, z), gnep.kkt_jacobian(kkt, z), d)


def reference_step(kkt, z, d, slope, config):
    """The line search with one kkt_map per trial: (t, z + t d,
    interior failures, Armijo failures). The potential constant K = 2m and
    the sufficient-decrease fraction 0.1 are written out."""
    K = 2.0 * kkt.m
    psi0 = gnep.potential(gnep.kkt_map(kkt, z), kkt.n, K)
    t, interior, armijo = 1.0, 0, 0
    for _ in range(gnep.MAX_BACKTRACK + 1):
        z_next = z + t * d
        H_next = gnep.kkt_map(kkt, z_next)
        if np.all(z_next[kkt.n:] > 0.0) and np.all(H_next[kkt.n:] > 0.0):
            if gnep.potential(H_next, kkt.n, K) <= psi0 + 0.1 * t * slope:
                return t, z_next, interior, armijo
            armijo += 1
        else:
            interior += 1
        t *= config.kappa
    raise AssertionError("the reference line search stalled")


class TestArmijoStep:
    """The quadratic trials accept the step of a kkt_map per trial."""

    @pytest.mark.parametrize("case", ["malware2", "malware10", "chain20", "a1"])
    def test_same_step_as_reference(self, request, case):
        config = gnep.GnepConfig()
        iterations = None
        if case == "chain20":
            spec = chain_model(20)
        elif case == "a1":
            # A1's forward configuration backtracks far; its first Armijo
            # failures come after 2,150 steps.
            spec = request.getfixturevalue("malware2")
            config = gnep.GnepConfig(sigma=0.1, kappa=0.001, max_iter=10_000)
            iterations = 2_500
        else:
            spec = request.getfixturevalue(case)
        failures = np.zeros(2, dtype=int)
        for kkt, z, Hz, psi, J, d, slope in solve_path(spec, config, iterations):
            counts = dict.fromkeys(gnep.LINE_SEARCH, 0)
            t, z_next = gnep.armijo_step(kkt, J, z, Hz, psi, d, slope, config, counts)
            t_ref, z_ref, interior, armijo = reference_step(kkt, z, d, slope, config)
            assert t == t_ref and np.array_equal(z_next, z_ref)
            assert counts == {"trials": 1 + interior + armijo,
                              "interior_failures": interior, "armijo_failures": armijo}
            failures += interior, armijo
        if case == "a1":
            assert failures.min() > 0

    def test_negative_multiplier_and_slack_are_not_interior(self, malware2):
        """A trial that flips a multiplier and its slack negative keeps
        their product, and here h + s, positive; it must still be rejected."""
        kkt = gnep.KktSystem(malware2)
        z = kkt.initial_point()
        z[kkt.s_nu.start] = -5.0            # h1[0] = 5
        h1, h2 = kkt.constraints(z[kkt.s_nu], z[kkt.s_mu])
        z[kkt.s_slam] = np.maximum(1.0, 1.0 - h1)
        z[kkt.s_sgam] = np.maximum(1.0, 1.0 - h2)
        d = np.zeros(kkt.dim)
        d[kkt.s_lam.start] = -2.0           # lam[0]: 1 -> -1 at t = 1
        d[kkt.s_slam.start] = -1.5          # slam[0]: 1 -> -0.5 at t = 1
        Hz = gnep.kkt_map(kkt, z)
        assert np.all(Hz[kkt.n:] > 0.0)
        assert np.all(gnep.kkt_map(kkt, z + d)[kkt.n:] > 0.0)
        counts = dict.fromkeys(gnep.LINE_SEARCH, 0)
        # An infinite psi0 accepts every interior trial.
        t, _ = gnep.armijo_step(kkt, gnep.kkt_jacobian(kkt, z), z, Hz, np.inf, d, -1.0,
                                gnep.GnepConfig(), counts)
        assert t == 0.25                    # t = 0.5 leaves lam[0] = 0
        assert counts == {"trials": 3, "interior_failures": 2, "armijo_failures": 0}


class TestKktMapCalls:
    """The solve evaluates H once per iterate."""

    @pytest.mark.parametrize("case", ["malware2", "chain20", "not_converged"])
    def test_at_most_one_per_iterate(self, request, monkeypatch, case):
        calls = []
        kkt_map = gnep.kkt_map

        def counted(kkt, z):
            calls.append(1)
            return kkt_map(kkt, z)

        monkeypatch.setattr(gnep, "kkt_map", counted)
        if case == "not_converged":
            with pytest.raises(NotConverged) as exc_info:
                m.solve_gnep(request.getfixturevalue("malware2"), gnep.GnepConfig(max_iter=3))
            report = exc_info.value.result[1]
        else:
            spec = chain_model(20) if case == "chain20" else request.getfixturevalue(case)
            _, report = m.solve_gnep(spec)
        assert len(calls) == report.iterations + 1
        line_search = report.line_search
        assert (line_search["trials"] - line_search["interior_failures"]
                - line_search["armijo_failures"]) == report.iterations


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
        kkt = gnep.KktSystem(malware2)
        z = kkt.initial_point()
        Hz = gnep.kkt_map(kkt, z)
        assert np.all(z[kkt.n:] > 0.0)
        assert np.all(Hz[kkt.n:] > 0.0)


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
        z, report = exc_info.value.result
        assert not report.converged and report.iterations == 3
        TestFailureReport.assert_last_iterate(malware2, exc_info.value)
        assert gnep.equilibrium_at(malware2, z).mean_field.shape == (2,)

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

    def test_malware2_stays_on_lstsq(self, eq2):
        # KKT dimension 28, below numerics.LU_MIN_DIM.
        assert eq2[1].directions == {"lu": 0, "lu_cut1": 0, "svd": 30}
        assert eq2[1].block_steps == {"power": 0, "subspace": 0}

    def test_malware10_takes_the_numpy_schur_path(self, malware10, eq10):
        """KKT dimension 132, between numerics.LU_MIN_DIM and GETRF_MIN_DIM:
        every direction comes from the Schur complement solved through
        numpy's LAPACK, and the solve keeps lstsq's 29 iterations."""
        eq, report = eq10
        assert report.converged and report.iterations == 29
        assert_a2(malware10, eq)
        assert report.directions == {"lu": 23, "lu_cut1": 6, "svd": 0}
        assert report.block_steps == {"power": 67, "subspace": 75}

    @pytest.mark.parametrize("fixture,iterations", [("malware2", 30), ("malware10", 29)])
    def test_lu_path_forced_on_builtins(self, request, monkeypatch, fixture, iterations,
                                        factorization):
        spec = request.getfixturevalue(fixture)
        monkeypatch.setattr(numerics, "LU_MIN_DIM", 0)
        eq, report = m.solve_gnep(spec)
        assert report.converged and report.iterations == iterations
        assert_a2(spec, eq)
        assert sum(report.directions.values()) == iterations
        assert report.directions["lu"] > 0 and report.directions["lu_cut1"] > 0

    @pytest.mark.parametrize("n_states,iterations,lu,lu_cut1,power,subspace", [
        pytest.param(20, 26, 14, 12, 56, 79, id="chain20"),
        pytest.param(30, 30, 17, 13, 65, 91, id="chain30"),
        pytest.param(40, 34, 23, 11, 77, 104, id="chain40"),
        pytest.param(50, 48, 35, 13, 106, 143, id="chain50"),
    ])
    def test_chains(self, n_states, iterations, lu, lu_cut1, power, subspace):
        """Cold starts would take 3.0 power steps and 4.2 subspace solves
        per direction on these chains; starts carried from one direction to
        the next take 2.2 and 3.0."""
        spec = chain_model(n_states)
        eq, report = m.solve_gnep(spec)
        assert report.converged and report.iterations == iterations
        assert_a2(spec, eq)
        assert report.directions == {"lu": lu, "lu_cut1": lu_cut1, "svd": 0}
        assert report.block_steps == {"power": power, "subspace": subspace}

    def test_start_blocks_per_solve(self):
        """Each solve owns its start blocks: a second solve of the same
        model starts cold and counts only its own steps."""
        reports = [m.solve_gnep(chain_model(20))[1] for _ in range(2)]
        assert reports[0].block_steps == reports[1].block_steps
        assert reports[0].block_steps is not reports[1].block_steps


class TestFailureReport:
    @staticmethod
    def assert_last_iterate(spec, exc):
        """The attached iterate is the one whose KKT norm ends the report."""
        z, report = exc.result
        kkt = gnep.KktSystem(spec)
        assert z.shape == (kkt.dim,)
        assert np.linalg.norm(gnep.kkt_map(kkt, z)) == report.h_norm_history[-1]

    def test_non_descent_carries_report(self):
        with pytest.raises(NonDescent) as exc_info:
            m.solve_gnep(non_descent_model())
        self.assert_last_iterate(non_descent_model(), exc_info.value)
        _, report = exc_info.value.result
        assert f"iteration {report.iterations}:" in str(exc_info.value)
        assert len(report.h_norm_history) == report.iterations + 1
        # One direction per step taken, plus the failing one, all by lstsq.
        assert sum(report.directions.values()) == report.iterations + 1
        assert report.directions["svd"] == report.iterations + 1
        # One accepted trial per step taken.
        line_search = report.line_search
        assert (line_search["trials"] - line_search["interior_failures"]
                - line_search["armijo_failures"]) == report.iterations

    def test_boundary_violation_carries_report(self, malware2, monkeypatch):
        inject_boundary_violation(monkeypatch, iteration=2)
        with pytest.raises(BoundaryViolation, match="^iteration 2: ") as exc_info:
            m.solve_gnep(malware2)
        z, report = exc_info.value.result
        assert report.iterations == 2
        # The failing iterate's KKT norm is recorded; its potential is not.
        assert len(report.h_norm_history) == 3 and len(report.psi_history) == 2
        assert sum(report.directions.values()) == 2
        # The iterate is the third of the unperturbed solve.
        iterates = [z for _, z, _, _, _, _, _ in solve_path(malware2, iterations=3)]
        assert np.array_equal(z, iterates[2])

    def test_line_search_stall_carries_iterate(self, malware2, monkeypatch):
        # malware2's first full step leaves the interior.
        monkeypatch.setattr(gnep, "MAX_BACKTRACK", 0)
        with pytest.raises(LineSearchStall, match="^iteration 0: ") as exc_info:
            m.solve_gnep(malware2)
        self.assert_last_iterate(malware2, exc_info.value)
        z, _ = exc_info.value.result
        assert np.array_equal(z, gnep.KktSystem(malware2).initial_point())


class TestVerifyMfe:
    def test_exact_equilibrium(self, malware2):
        gap, residual = m.verify_mfe(malware2, PI_STAR, MU_STAR)
        assert gap <= 1e-10
        assert residual <= 1e-12

    def test_off_equilibrium(self, malware2):
        pi = np.array([[1.0, 0.0], [1.0, 0.0]])
        gap, residual = m.verify_mfe(malware2, pi, MU_STAR)
        assert gap > 1e-2 or residual > 1e-2

    @pytest.mark.parametrize("mu", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_mean_field_length_raises(self, malware2, mu):
        with pytest.raises(ValidationError, match=r"mu has shape .*, expected \(2,\)"):
            m.verify_mfe(malware2, PI_STAR, mu)

    @pytest.mark.parametrize("case", ["malware2", "malware10", "chain20"])
    def test_builds_each_table_once(self, request, monkeypatch, case):
        # The best response, the cost of pi and the residual share one set
        # of tables, built from one check of mu. Every module that imported
        # a builder is rebound, so a call through any path is counted.
        spec = chain_model(20) if case == "chain20" else request.getfixturevalue(case)
        calls = {}
        for name in ("frozen_tables", "transition_kernel", "cost_table", "feature_table",
                     "check_simplex", "check_policy"):
            original = getattr(m.model, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            for module in (m.model, mdp, gnep):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        X = spec.n_states
        pi = np.full((X, spec.n_actions), 1.0 / spec.n_actions)
        m.verify_mfe(spec, pi, np.full(X, 1.0 / X))
        assert calls == {"frozen_tables": 1, "check_simplex": 1, "check_policy": 1}


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sigma": 1.0}, {"sigma": -0.1}, {"kappa": 0.0},
        {"kappa": 1.0},
    ])
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gnep.GnepConfig(**kwargs)

    @pytest.mark.parametrize("config", [gnep.GnepConfig, irl.IrlConfig])
    def test_negative_max_iter(self, config):
        # Zero iterations is a valid cap; -1 would leave the solve no iterate.
        config(max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be non-negative"):
            config(max_iter=-1)

    @pytest.mark.parametrize("config", [gnep.GnepConfig, irl.IrlConfig])
    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3", None])
    def test_max_iter_must_be_an_integer(self, config, max_iter):
        config(max_iter=np.int64(3))
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            config(max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tol_must_be_non_negative(self, tol):
        # A tolerance no KKT norm can meet is an input error, not a solve;
        # one every norm meets would pass the starting point off as solved.
        gnep.GnepConfig(tol=0.0)
        with pytest.raises(ValueError, match="tol must be non-negative"):
            gnep.GnepConfig(tol=tol)
