"""Shared fixtures and the acceptance-summary reporter.

Solver runs are cached per session because several test modules need the
same converged equilibria. Acceptance tests record a single pass/fail line
each through the `acceptance` fixture; the lines are printed in a summary
block at the end of the pytest run.
"""

import itertools
import math
import time

import numpy as np
import pytest

import mfgsolver as m
from mfgsolver import irl, mdp, numerics

ACCEPTANCE_LINES = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_LINES, key=lambda k: int(k[1:])):
        terminalreporter.write_line(ACCEPTANCE_LINES[key])


class AcceptanceRecorder:
    """Collects named clause checks and asserts them together, so a failed
    criterion still reports every measured value."""

    def __init__(self, key):
        self.key = key
        self.clauses = []

    def check(self, label, ok, detail=""):
        self.clauses.append((label, bool(ok), detail))

    def finish(self):
        failed = [c for c in self.clauses if not c[1]]
        verdict = "PASS" if not failed else "FAIL"
        details = "; ".join(
            f"{label}: {'ok' if ok else 'FAIL'}"
            + (f" ({detail})" if detail else "")
            for label, ok, detail in self.clauses
        )
        line = f"{self.key}: {verdict} [{details}]"
        ACCEPTANCE_LINES[self.key] = line
        print(line)
        assert not failed, line


@pytest.fixture
def acceptance(request):
    key = request.node.name.split("_")[1].upper()
    rec = AcceptanceRecorder(key)
    yield rec
    # finish() is called by the test itself so timing clauses can be last.


@pytest.fixture(params=["numpy", "getrf"])
def factorization(request, monkeypatch):
    """Runs a test once per factorization of the LU path's Schur complement,
    each for every dimension: numpy's LAPACK ("numpy") and scipy's getrf
    ("getrf"). Without it the dimension picks one (numerics.GETRF_MIN_DIM)."""
    monkeypatch.setattr(numerics, "GETRF_MIN_DIM",
                        math.inf if request.param == "numpy" else 0)
    return request.param


@pytest.fixture(scope="session")
def malware2():
    return m.builtin_malware(2, (0.2, 1.0, 0.4), q=0.9)


@pytest.fixture(scope="session")
def malware10():
    return m.builtin_malware(10, (0.1, 1.0, 0.4))


@pytest.fixture(scope="session")
def eq2(malware2):
    eq, report = m.solve_gnep(malware2)
    return eq, report


@pytest.fixture(scope="session")
def eq10(malware10):
    eq, report = m.solve_gnep(malware10)
    return eq, report


def chain_model(n_states, theta=(0.2, 1.0, 0.2), beta=0.9):
    """The builtin 10-state malware model generalised to n_states states
    (the benchmark's forward-scale family): action 0 moves uniformly over
    the current and all worse states, action 1 resets to state 0, labels
    x/X, features (label, label*<labels, mu>, a), kernel in degree-one form."""
    X, A = n_states, 2
    kernel = np.zeros((X, X, A))
    for x in range(X):
        kernel[x:, x, 0] = 1.0 / (X - x)
        kernel[0, x, 1] = 1.0
    labels = np.arange(X) / X
    F0 = np.zeros((X, A, 3))
    F0[:, :, 0] = labels[:, None]
    F0[:, 1, 2] = 1.0
    F1 = np.zeros((X, A, 3, X))
    F1[:, :, 1, :] = (labels[:, None] * labels[None, :])[:, None, :]
    return m.ModelSpec(
        n_states=X, n_actions=A, feature_dim=3, beta=beta,
        P0=np.zeros((X, X, A)), P1=np.repeat(kernel[..., None], X, axis=3),
        F0=F0, F1=F1, theta=theta, state_labels=labels, name=f"chain{X}",
    )


def non_descent_model():
    """A seeded random degree-one model, p(.|x,a,mu) = sum_z mu(z) K_z(.|x,a),
    on which the forward solver stops on a non-descent Newton direction."""
    rng = np.random.default_rng(1)
    X, A, k = 3, 2, 2
    vertex = rng.random((X, X, A, X))
    vertex /= vertex.sum(axis=0, keepdims=True)
    return m.ModelSpec(
        n_states=X, n_actions=A, feature_dim=k, beta=0.8,
        P0=np.zeros((X, X, A)), P1=vertex, F0=rng.random((X, A, k)),
        F1=rng.random((X, A, k, X)), theta=rng.uniform(0.1, 1.0, size=k),
    )


def inject_boundary_violation(monkeypatch, iteration):
    """Make gnep.kkt_map leave the barrier's domain at the given iteration
    of a forward solve: the last component of the positivity block of H
    turns negative."""
    kkt_map, calls = m.gnep.kkt_map, itertools.count()

    def off_domain(kkt, z):
        Hz = kkt_map(kkt, z).copy()
        if next(calls) == iteration:
            Hz[-1] = -1.0
        return Hz

    monkeypatch.setattr(m.gnep, "kkt_map", off_domain)


@pytest.fixture(scope="session")
def expert2(malware2, eq2):
    """Exact expert data of the 2-state model at its equilibrium."""
    eq, _ = eq2
    f_E = mdp.feature_expectation(malware2, eq.policy, eq.mean_field, eq.mean_field)
    return eq.mean_field, f_E


@pytest.fixture(scope="session")
def expert10(malware10, eq10):
    eq, _ = eq10
    f_E = mdp.feature_expectation(malware10, eq.policy, eq.mean_field, eq.mean_field)
    return eq.mean_field, f_E


def a4_expert_policy():
    """A4's expert: the deterministic policy of the 10-state model that
    repairs from state 7 up."""
    pi_E = np.zeros((10, 2))
    pi_E[:7, 0] = 1.0
    pi_E[7:, 1] = 1.0
    return pi_E


@pytest.fixture(scope="session")
def problem_a4(malware10):
    """A4's inverse problem: the expert policy with its own invariant
    distribution."""
    pi_E = a4_expert_policy()
    mu_E = mdp.stationary_distribution(malware10, pi_E, np.full(10, 0.1))
    f_E = mdp.feature_expectation(malware10, pi_E, mu_E, mu_E)
    return irl.IrlProblem(spec=malware10, mu_E=mu_E, f_expert=f_E)


@pytest.fixture(scope="session")
def a4_gd_solve(problem_a4):
    """A4's 1,719,627-step constant-step solve, run once for the acceptance
    test and the iteration pin: solve_irl's (d, nu, pi, trace) and the
    seconds the solve took."""
    start = time.monotonic()
    result = irl.solve_irl(
        problem_a4, irl.IrlConfig(step=0.0025, grad_tol=4.4e-3, max_iter=3_000_000))
    return (*result, time.monotonic() - start)


def random_feasible_instance(rng, feature_dim=1):
    """Small random model with a valid constant kernel, a random policy,
    and a random initial distribution."""
    X = int(rng.integers(2, 5))
    A = int(rng.integers(2, 4))
    beta = float(rng.uniform(0.9, 0.97))
    P0 = rng.random((X, X, A))
    P0 /= P0.sum(axis=0, keepdims=True)
    spec = m.ModelSpec(
        n_states=X, n_actions=A, feature_dim=feature_dim, beta=beta,
        P0=P0, P1=np.zeros((X, X, A, X)),
        F0=rng.random((X, A, feature_dim)),
        F1=np.zeros((X, A, feature_dim, X)),
    )
    pi = rng.random((X, A))
    pi /= pi.sum(axis=1, keepdims=True)
    mu0 = rng.random(X)
    mu0 /= mu0.sum()
    return spec, pi, mu0
