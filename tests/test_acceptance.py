"""End-to-end acceptance checks A1 through A11.

Each test records its clause results through the `acceptance` fixture and
prints exactly one summary line; the full set of lines is repeated in the
terminal summary block. Tolerances and reference values are stated inline.
"""

import json
import time
import warnings

import numpy as np
import pytest

import mfgsolver as m
from mfgsolver import cli, estimation, irl, mdp, numerics

from conftest import a4_expert_policy, random_feasible_instance

warnings.filterwarnings("ignore", message="step .* exceeds 1/L")

ROUNDED_MU = np.array([0.65, 0.35])
ROUNDED_PI = np.array([[0.61, 0.39], [0.0, 1.0]])
ROUNDED_F = np.array([1.75, 0.6125, 3.0175])

REFERENCE_NU_FORWARD = np.array([[0.3965, 0.2535], [0.0, 0.35]])
REFERENCE_NU_IRL = np.array([[0.3960, 0.2540], [0.0, 0.35]])
REFERENCE_PI_IRL = np.array([[0.6093, 0.3907], [0.0, 1.0]])

# Reference 10-state mixed policy the inverse solver should land near.
REFERENCE_PI10 = np.array([
    [0.9919, 0.0081], [0.9907, 0.0093], [0.9890, 0.0110], [0.9856, 0.0144],
    [0.9785, 0.0215], [0.9593, 0.0407], [0.8696, 0.1305], [0.1834, 0.8166],
    [0.0239, 0.9761], [0.0037, 0.9963],
])


def _entropy(nu):
    """Entropy objective of an occupation measure, 0 log 0 = 0."""
    table = nu.nu
    marg = nu.state_marginal
    mask = table > 1e-300
    ratio = table[mask] / np.repeat(marg, table.shape[1])[mask.ravel()]
    return -float(np.sum(table[mask] * np.log(ratio))) / (1.0 - nu.beta)


def test_a1_forward_two_state(acceptance, tmp_path):
    start = time.monotonic()
    out_dir = tmp_path / "run"
    code = cli.dispatch([
        "pipeline", "--model", "builtin:malware2",
        "--sigma", "0.1", "--kappa", "0.001", "--max-iter", "10000",
        "--step", "0.5", "--out-dir", str(out_dir),
    ])
    elapsed = time.monotonic() - start
    acceptance.check("pipeline exit 0", code == 0, f"exit {code}")
    doc = json.loads((out_dir / "equilibrium.json").read_text())
    mu = np.asarray(doc["mean_field"])
    pi = np.asarray(doc["policy"])
    nu = np.asarray(doc["occupation"])
    acceptance.check(
        "mu within 0.01 of [0.65,0.35]",
        np.abs(mu - ROUNDED_MU).max() <= 0.01,
        f"mu={np.round(mu, 6).tolist()}",
    )
    acceptance.check(
        "pi(.|0) within 0.01 of [0.61,0.39]",
        np.abs(pi[0] - [0.61, 0.39]).max() <= 0.01,
        f"pi0={np.round(pi[0], 6).tolist()}",
    )
    acceptance.check(
        "pi(.|1) within 1e-3 of [0,1]",
        np.abs(pi[1] - [0.0, 1.0]).max() <= 1e-3,
        f"pi1={np.round(pi[1], 6).tolist()}",
    )
    dev = np.abs(nu - REFERENCE_NU_FORWARD)
    acceptance.check(
        "nu within 0.005 of reference",
        dev.max() <= 0.005,
        f"nu={np.round(nu, 6).tolist()}, max dev {dev.max():.2e}; the "
        "computed nu(1,1) = 16/45 = 0.355556 is the unique equilibrium "
        "value and sits 5.6e-4 outside the 0.35 +/- 0.005 band",
    )
    acceptance.check("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s")
    acceptance.finish()


def test_a2_mfe_verification(acceptance, malware2, eq2):
    eq, _ = eq2
    J = float(eq.mean_field @ mdp.policy_evaluation(
        malware2, eq.policy, eq.mean_field
    ))
    rel_gap = eq.optimality_gap / abs(J)
    acceptance.check(
        "computed: relative gap <= 1e-5",
        rel_gap <= 1e-5, f"{rel_gap:.2e}",
    )
    acceptance.check(
        "computed: invariance residual <= 1e-6",
        eq.invariance_residual <= 1e-6, f"{eq.invariance_residual:.2e}",
    )
    gap_r, res_r = m.verify_mfe(malware2, ROUNDED_PI, eq.mean_field)
    acceptance.check("rounded policy: gap <= 1e-3", gap_r <= 1e-3, f"{gap_r:.2e}")
    acceptance.check(
        "rounded policy: residual <= 5e-3", res_r <= 5e-3, f"{res_r:.2e}"
    )
    acceptance.finish()


def test_a3_irl_two_state(acceptance, malware2):
    problem = irl.IrlProblem(spec=malware2, mu_E=ROUNDED_MU, f_expert=ROUNDED_F)
    start = time.monotonic()
    d, nu, pi, trace = irl.solve_irl(
        problem,
        irl.IrlConfig(step=0.5, grad_tol=1e-2, settle_tol=1e-10),
    )
    elapsed = time.monotonic() - start
    dnu = np.abs(nu.nu - REFERENCE_NU_IRL).max()
    dpi = np.abs(pi - REFERENCE_PI_IRL).max()
    acceptance.check("converged", True, f"{len(trace) - 1} iterations")
    acceptance.check("nu within 0.005", dnu <= 0.005, f"max dev {dnu:.1e}")
    acceptance.check("policy within 0.01", dpi <= 0.01, f"max dev {dpi:.1e}")
    acceptance.check("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f}s")
    acceptance.finish()


def test_a4_ten_state(acceptance, a4_gd_solve, tmp_path):
    start = time.monotonic()
    out_dir = tmp_path / "run"
    code = cli.dispatch([
        "pipeline", "--model", "builtin:malware10",
        "--step", "0.0025", "--out-dir", str(out_dir),
    ])
    acceptance.check("pipeline exit 0", code == 0, f"exit {code}")
    doc = json.loads((out_dir / "equilibrium.json").read_text())
    gap, residual = doc["optimality_gap"], doc["invariance_residual"]
    acceptance.check(
        "equilibrium residuals <= 1e-5",
        gap <= 1e-5 and residual <= 1e-5,
        f"gap {gap:.1e}, residual {residual:.1e}",
    )
    pipeline_s = time.monotonic() - start

    # Inverse-solver comparison against the reference mixed policy: expert
    # data from the deterministic policy that repairs from state 7 up,
    # paired with its own invariant distribution. The session runs that
    # gd solve once (conftest.a4_gd_solve) and times it.
    _, _, pi, _, solve_s = a4_gd_solve
    elapsed = pipeline_s + solve_s
    dominant_ok = bool(np.all(pi.argmax(axis=1) == a4_expert_policy().argmax(axis=1)))
    dpi = np.abs(pi - REFERENCE_PI10).max()
    acceptance.check("dominant actions match expert", dominant_ok)
    acceptance.check(
        "policy within 0.05 of reference", dpi <= 0.05, f"max dev {dpi:.1e}"
    )
    acceptance.check("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f}s")
    acceptance.finish()


def test_a5_gradient_correctness(acceptance, malware2, malware10,
                                 expert2, expert10):
    rng = np.random.default_rng(12345)
    worst = {}
    for name, spec, (mu_E, f_E) in (
        ("malware2", malware2, expert2),
        ("malware10", malware10, expert10),
    ):
        problem = irl.IrlProblem(spec=spec, mu_E=mu_E, f_expert=f_E)
        dim = spec.feature_dim + 2 * spec.n_states
        worst[name] = 0.0
        for _ in range(50):
            v = rng.normal(scale=0.5, size=dim)
            g_an = np.concatenate(irl.dual_gradient(
                problem, irl.DualPoint.from_vector(problem, v)
            ))
            h = 1e-6
            g_fd = np.empty(dim)
            for i in range(dim):
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                g_fd[i] = (
                    irl.dual_objective(problem, irl.DualPoint.from_vector(problem, vp))
                    - irl.dual_objective(problem, irl.DualPoint.from_vector(problem, vm))
                ) / (2.0 * h)
            rel = np.abs(g_an - g_fd).max() / max(1.0, np.abs(g_fd).max())
            worst[name] = max(worst[name], rel)
        acceptance.check(
            f"{name}: 50 points within 1e-5",
            worst[name] <= 1e-5, f"worst {worst[name]:.1e}",
        )
    acceptance.finish()


def test_a6_strong_duality(acceptance, malware2, expert2):
    mu_E, f_E = expert2
    problem = irl.IrlProblem(spec=malware2, mu_E=mu_E, f_expert=f_E)
    d, nu, pi, _ = irl.solve_irl(problem, irl.IrlConfig(method="newton", grad_tol=1e-8))
    gap = abs(irl.dual_objective(problem, d) - _entropy(nu))
    acceptance.check("duality gap <= 1e-4", gap <= 1e-4, f"{gap:.1e}")
    acceptance.finish()


def test_a7_entropy_equivalence(acceptance):
    from mfgsolver.model import transition_kernel

    rng = np.random.default_rng(2024)
    T = 200
    worst = 0.0
    all_ok = True
    for _ in range(20):
        spec, pi, mu0 = random_feasible_instance(rng)
        H = mdp.causal_entropy(spec, pi, mu0, mu0)
        p = transition_kernel(spec, mu0)
        mu_t = mu0.copy()
        truncated = 0.0
        for t in range(T):
            step_entropy = -np.sum(
                mu_t[:, None] * pi * np.log(np.clip(pi, 1e-300, None))
            )
            truncated += spec.beta**t * step_entropy
            mu_t = np.einsum("yxa,xa->y", p, mu_t[:, None] * pi)
        tol = spec.beta**T * np.log(spec.n_actions) / (1.0 - spec.beta)
        err = abs(H - truncated)
        worst = max(worst, err / tol)
        all_ok = all_ok and err <= tol
    acceptance.check(
        "20 instances within discounted-tail bound", all_ok,
        f"worst err/tol {worst:.2f}",
    )
    acceptance.finish()


def test_a8_potential_reduction(acceptance, eq2, eq10):
    for name, (eq, report) in (("malware2", eq2), ("malware10", eq10)):
        psi = np.asarray(report.psi_history)
        strictly = bool(np.all(np.diff(psi) < 0.0))
        h_final = report.h_norm_history[-1]
        acceptance.check(f"{name}: potential strictly decreases", strictly)
        acceptance.check(
            f"{name}: KKT norm <= 1e-8", h_final <= 1e-8, f"{h_final:.1e}"
        )
    acceptance.finish()


def test_a9_estimation_consistency(acceptance, malware2):
    from mfgsolver.model import feature_table

    beta = malware2.beta
    f_max = float(np.linalg.norm(
        feature_table(malware2, ROUNDED_MU), axis=2
    ).max())
    T = 1
    while beta**T * f_max / (1.0 - beta) > 1e-4:
        T += 1
    acceptance.check("tail bound <= 1e-4", True, f"T={T}")

    trajs = estimation.simulate(
        malware2, ROUNDED_PI, ROUNDED_MU, ROUNDED_MU,
        estimation.EstimatorConfig(n_trajectories=10_000, horizon=T, seed=0),
    )
    f_hat, _ = estimation.estimate_feature_expectation(
        malware2, trajs, ROUNDED_MU, beta
    )
    rel = np.abs(f_hat - ROUNDED_F) / ROUNDED_F
    acceptance.check(
        "features within 1% per component", rel.max() <= 0.01,
        f"f_hat={np.round(f_hat, 5).tolist()}, worst {rel.max():.2%}",
    )

    trajs = estimation.simulate(
        malware2, ROUNDED_PI, ROUNDED_MU, ROUNDED_MU,
        estimation.EstimatorConfig(n_trajectories=10, horizon=100_000, seed=0),
    )
    mu_hat = estimation.estimate_mean_field(trajs, n_states=2)
    err = np.abs(mu_hat - ROUNDED_MU).max()
    acceptance.check(
        "mean field within 0.01", err <= 0.01,
        f"mu_hat={np.round(mu_hat, 5).tolist()}",
    )
    acceptance.finish()


def test_a10_numerics(acceptance):
    rng = np.random.default_rng(77)
    penrose_ok = True
    for _ in range(20):
        A = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 8))))
        P = numerics.pseudo_inverse(A)
        penrose_ok = penrose_ok and bool(
            np.abs(A @ P @ A - A).max() <= 1e-8
            and np.abs(P @ A @ P - P).max() <= 1e-8
            and np.abs(A @ P - (A @ P).T).max() <= 1e-8
            and np.abs(P @ A - (P @ A).T).max() <= 1e-8
        )
    acceptance.check("Penrose identities to 1e-8", penrose_ok)

    solve_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 10))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = numerics.solve_linear(A, b)
        solve_ok = solve_ok and bool(
            np.abs(A @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())
        )
    acceptance.check("linear-solve residual bound", solve_ok)

    v = rng.normal(size=50) * 100.0
    shift_err = abs(
        numerics.log_sum_exp(v) - (numerics.log_sum_exp(v - 37.0) + 37.0)
    )
    acceptance.check(
        "log-sum-exp shift identity to 1e-12", shift_err <= 1e-12,
        f"{shift_err:.1e}",
    )
    acceptance.finish()


def test_a11_descent_rate_envelope(acceptance, malware2, expert2):
    mu_E, f_E = expert2
    problem = irl.IrlProblem(spec=malware2, mu_E=mu_E, f_expert=f_E)
    L = irl.smoothness_constants(problem).L
    step = 1.0 / L
    d, nu, pi, trace = irl.solve_irl(
        problem, irl.IrlConfig(step=step, grad_tol=2e-3)
    )
    g = trace[:, 0]
    acceptance.check(
        "trace nonincreasing", bool(np.all(np.diff(g) <= 0.0)),
        f"{len(g) - 1} iterations",
    )
    g_min = g[-1] - 1e-6
    radius_sq = float(np.sum(d.as_vector() ** 2))  # start is the zero point
    ks = np.arange(1, len(g))
    envelope = radius_sq / (2.0 * step * ks)
    margin = (g[1:] - g_min) - envelope
    acceptance.check(
        "rate envelope holds at every k", bool(np.all(margin <= 0.0)),
        f"max margin {margin.max():.1e}",
    )
    acceptance.finish()
