import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mfgsolver as m
from mfgsolver import mdp
from mfgsolver.errors import MissingTheta, NonUniqueStationary, ValidationError
from mfgsolver.model import ModelSpec, cost_table, transition_kernel

from conftest import chain_model

# Closed-form equilibrium of the 2-state model with theta=(0.2,1,0.4),
# q=0.9, beta=0.8: mu* = [29/45, 16/45] and the healthy state mixes so
# that the infected mass is reproduced, pi(0|0) = (16/45)/(0.9*29/45).
MU_STAR = np.array([29.0 / 45.0, 16.0 / 45.0])
PI_STAR = np.array([
    [16.0 / (0.9 * 29.0), 1.0 - 16.0 / (0.9 * 29.0)],
    [0.0, 1.0],
])


def single_state_spec(beta=0.5, costs=(1.0, 3.0)):
    """One state, two actions; every value reduces to a geometric series."""
    A = len(costs)
    P0 = np.ones((1, 1, A))
    F0 = np.array(costs, dtype=float).reshape(1, A, 1)
    return ModelSpec(
        n_states=1, n_actions=A, feature_dim=1, beta=beta,
        P0=P0, P1=np.zeros((1, 1, A, 1)),
        F0=F0, F1=np.zeros((1, A, 1, 1)), theta=np.array([1.0]),
    )


def reference_value_iteration(spec, mu):
    """The Bellman loop value_iteration once ran: V <- min_a Q from V = 0
    until a sweep moves V by at most 1e-12 (1 + ||V||_inf), which leaves V
    within beta / (1 - beta) times that last step of the fixed point."""
    c, p = cost_table(spec, mu), transition_kernel(spec, mu)
    V = np.zeros(spec.n_states)
    for _ in range(100_000):
        V, V_prev = (c + spec.beta * np.einsum("yxa,y->xa", p, V)).min(axis=1), V
        if np.abs(V - V_prev).max() <= 1e-12 * (1.0 + np.abs(V).max()):
            break
    return V, c + spec.beta * np.einsum("yxa,y->xa", p, V)


@st.composite
def random_models(draw):
    """A small model frozen at a drawn mean field mu. Its kernel depends on
    mu, p(.|x,a,mu) = w K_0(.|x,a) + (1 - w) sum_z mu(z) K_z(.|x,a), with
    random stochastic K's sharpened toward deterministic moves. Its costs
    are <theta, F0 + F1 mu>, where F0 adds a state level ten times the
    action spread, so an action's future often outweighs its cost now and
    policy iteration needs more than one step. hypothesis also draws
    repeated and zero entries, so exact and near ties occur."""
    X = draw(st.integers(1, 6))
    A = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))

    def table(shape, low=0.0, high=1.0):
        return draw(hnp.arrays(float, shape, elements=st.floats(low, high),
                               fill=st.nothing()))

    kernels = table((X, X, A, X + 1)) ** 8 + 1e-3
    kernels /= kernels.sum(axis=0, keepdims=True)
    w = draw(st.floats(0.0, 0.9))
    spec = ModelSpec(
        n_states=X, n_actions=A, feature_dim=k,
        beta=draw(st.sampled_from([0.5, 0.8, 0.9, 0.95])),
        P0=w * kernels[..., 0], P1=(1.0 - w) * kernels[..., 1:],
        F0=table((X, A, k)) + 10.0 * table((X, 1, k)), F1=table((X, A, k, X)),
        theta=table(k, -1.0, 1.0),
    )
    mu = table(X, 0.01)
    return spec, mu / mu.sum()


class TestValueIteration:
    def test_single_state_geometric(self):
        spec = single_state_spec(beta=0.5, costs=(1.0, 3.0))
        vals, greedy = mdp.value_iteration(spec, np.array([1.0]))
        assert vals.V[0] == pytest.approx(1.0 / 0.5, abs=1e-9)
        np.testing.assert_allclose(greedy, [[1.0, 0.0]])

    def test_exact_tie_goes_to_the_lowest_action(self):
        spec = single_state_spec(beta=0.5, costs=(3.0, 1.0, 1.0))
        _, greedy = mdp.value_iteration(spec, np.array([1.0]))
        np.testing.assert_array_equal(greedy, [[0.0, 1.0, 0.0]])

    def test_equilibrium_indifference(self, malware2):
        # At the equilibrium mean field, both actions at the healthy state
        # have the same Q-value; that is what allows the mixed policy. So
        # rounding alone decides the argmin there. The loop still stops,
        # and V is the returned policy's own value: optimality_gap reads
        # J_opt off V, so this identity keeps every written gap byte-stable.
        vals, greedy = mdp.value_iteration(malware2, MU_STAR)
        assert abs(vals.Q[0, 0] - vals.Q[0, 1]) <= 1e-8
        assert vals.V[0] == pytest.approx(2.0, abs=1e-8)
        assert vals.V[1] == pytest.approx(2.0 + 5.0 / 9.0, abs=1e-8)
        np.testing.assert_array_equal(vals.V, mdp.policy_evaluation(malware2, greedy, MU_STAR))

    def test_missing_theta_raises(self):
        spec = m.builtin_malware(2, None, q=0.9)
        with pytest.raises(MissingTheta):
            mdp.value_iteration(spec, [0.5, 0.5])

    @pytest.mark.parametrize("case", ["malware2", "malware10", "chain20"])
    def test_matches_reference_loop(self, request, case):
        spec = chain_model(20) if case == "chain20" else request.getfixturevalue(case)
        X = spec.n_states
        rng = np.random.default_rng(7)
        for mu in (np.full(X, 1.0 / X), rng.dirichlet(np.ones(X))):
            V, Q = reference_value_iteration(spec, mu)
            vals, greedy = mdp.value_iteration(spec, mu)
            assert np.abs(vals.V - V).max() <= 1e-10 * (1.0 + np.abs(V).max())
            np.testing.assert_array_equal(greedy, np.eye(spec.n_actions)[Q.argmin(axis=1)])

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(random_models())
    def test_random_models_match_reference_loop(self, case):
        # Near-ties: where a state's best and second-best Q differ by at most
        # 1e-9 (1 + ||Q||_inf), both actions are optimal up to rounding and
        # either may be returned, so only the other states' actions are
        # compared. V is unique and is compared everywhere.
        spec, mu = case
        V, Q = reference_value_iteration(spec, mu)
        vals, greedy = mdp.value_iteration(spec, mu)
        assert np.abs(vals.V - V).max() <= 1e-10 * (1.0 + np.abs(V).max())
        best_two = np.sort(Q, axis=1)[:, :2]
        clear = best_two[:, 1] - best_two[:, 0] > 1e-9 * (1.0 + np.abs(Q).max())
        np.testing.assert_array_equal(greedy.argmax(axis=1)[clear], Q.argmin(axis=1)[clear])

    def test_takes_only_spec_and_mu(self, malware2):
        with pytest.raises(TypeError):
            mdp.value_iteration(malware2, MU_STAR, 1e-6)


class TestPolicyEvaluation:
    def test_matches_value_iteration_at_optimum(self, malware2):
        vals, greedy = mdp.value_iteration(malware2, MU_STAR)
        J = mdp.policy_evaluation(malware2, greedy, MU_STAR)
        np.testing.assert_allclose(J, vals.V, atol=1e-8)

    def test_single_state(self):
        spec = single_state_spec(beta=0.9, costs=(2.0, 5.0))
        J = mdp.policy_evaluation(spec, np.array([[0.0, 1.0]]), np.array([1.0]))
        assert J[0] == pytest.approx(5.0 / 0.1, abs=1e-8)


class TestStationaryDistribution:
    def test_equilibrium_invariance(self, malware2):
        mu = mdp.stationary_distribution(malware2, PI_STAR, MU_STAR)
        np.testing.assert_allclose(mu, MU_STAR, atol=1e-10)

    def test_two_state_chain(self):
        # pi plays action 0 everywhere: healthy infects w.p. 0.9, infected
        # is absorbing, so the invariant distribution is a Dirac at state 1.
        spec = m.builtin_malware(2, (0.2, 1.0, 0.4), q=0.9)
        pi = np.array([[1.0, 0.0], [1.0, 0.0]])
        mu = mdp.stationary_distribution(spec, pi, np.array([0.5, 0.5]))
        np.testing.assert_allclose(mu, [0.0, 1.0], atol=1e-10)

    def test_reducible_chain_raises(self):
        # Two absorbing states: the invariant distribution is not unique.
        P0 = np.zeros((2, 2, 1))
        P0[0, 0, 0] = 1.0
        P0[1, 1, 0] = 1.0
        spec = ModelSpec(
            n_states=2, n_actions=1, feature_dim=1, beta=0.5,
            P0=P0, P1=np.zeros((2, 2, 1, 2)),
            F0=np.zeros((2, 1, 1)), F1=np.zeros((2, 1, 1, 2)),
        )
        with pytest.raises(NonUniqueStationary):
            mdp.stationary_distribution(spec, np.ones((2, 1)), np.array([0.5, 0.5]))


class TestOccupationMeasure:
    def test_mass_and_flow(self, malware2):
        rng = np.random.default_rng(5)
        pi = rng.random((2, 2))
        pi /= pi.sum(axis=1, keepdims=True)
        mu = np.array([0.6, 0.4])
        mu0 = np.array([0.3, 0.7])
        occ = mdp.occupation_measure(malware2, pi, mu, mu0)
        assert occ.nu.sum() == pytest.approx(1.0, abs=1e-12)
        p = transition_kernel(malware2, mu)
        flow = (1.0 - malware2.beta) * mu0 + malware2.beta * np.einsum(
            "yxa,xa->y", p, occ.nu
        )
        np.testing.assert_allclose(occ.state_marginal, flow, atol=1e-10)

    def test_disintegrate_round_trip(self, malware2):
        pi = np.array([[0.2, 0.8], [0.55, 0.45]])
        occ = mdp.occupation_measure(
            malware2, pi, np.array([0.6, 0.4]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(mdp.disintegrate(occ), pi, atol=1e-10)

    def test_disintegrate_zero_mass_uniform(self):
        nu = np.array([[0.5, 0.5], [0.0, 0.0]])
        pi = mdp.disintegrate(nu)
        np.testing.assert_allclose(pi[1], [0.5, 0.5])


class TestCausalEntropy:
    def test_uniform_policy(self, malware2):
        # A uniform policy contributes log|A| per step, discounted.
        pi = np.full((2, 2), 0.5)
        H = mdp.causal_entropy(malware2, pi, np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        assert H == pytest.approx(np.log(2.0) / 0.2, abs=1e-10)

    def test_deterministic_policy_zero(self, malware2):
        pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = mdp.causal_entropy(malware2, pi, np.array([0.6, 0.4]), np.array([0.5, 0.5]))
        assert H == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference_loop(self, malware10):
        # The double loop causal_entropy once ran, with the same ZERO_MASS
        # convention for 0 log 0. The sum's order differs, so agreement is
        # to a few ulps per term, not bit for bit.
        rng = np.random.default_rng(3)
        pi = rng.dirichlet(np.ones(2), size=10)
        pi[[1, 4, 8]] = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        mu, mu0 = rng.dirichlet(np.ones(10)), np.eye(10)[0]
        occ = mdp.occupation_measure(malware10, pi, mu, mu0)
        total = 0.0
        for x in range(10):
            for a in range(2):
                if occ.nu[x, a] > mdp.ZERO_MASS:
                    total -= np.log(occ.nu[x, a] / occ.state_marginal[x]) * occ.nu[x, a]
        H = mdp.causal_entropy(malware10, pi, mu, mu0)
        assert H == pytest.approx(total / (1.0 - malware10.beta), rel=1e-13)


class TestFeatureExpectation:
    def test_constant_feature(self):
        # f identically 1 integrates to 1/(1-beta).
        spec = single_state_spec(beta=0.8, costs=(1.0, 1.0))
        f = mdp.feature_expectation(
            spec, np.array([[0.5, 0.5]]), np.array([1.0]), np.array([1.0])
        )
        assert f[0] == pytest.approx(1.0 / 0.2, abs=1e-10)

    def test_matches_cost(self, malware2):
        # <theta, feature expectation> equals the discounted cost.
        pi = np.array([[0.3, 0.7], [0.9, 0.1]])
        mu = np.array([0.6, 0.4])
        mu0 = np.array([0.5, 0.5])
        f = mdp.feature_expectation(malware2, pi, mu, mu0)
        J = mdp.policy_evaluation(malware2, pi, mu)
        assert float(malware2.theta @ f) == pytest.approx(float(mu0 @ J), abs=1e-10)

    @pytest.mark.parametrize("name", ["mu", "mu0"])
    @pytest.mark.parametrize("bad", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_mean_field_length_raises(self, malware2, name, bad):
        args = {"mu": MU_STAR, "mu0": MU_STAR, name: bad}
        with pytest.raises(ValidationError, match=f"{name} has shape"):
            mdp.feature_expectation(malware2, PI_STAR, **args)



# A policy whose rows sum to 1 but has a negative entry, one whose rows are
# nonnegative but do not sum to 1, and one of the wrong shape.
BAD_POLICIES = [
    pytest.param([[1.5, -0.5], [0.0, 1.0]], "pi row 0 has negative entry -5.000e-01",
                 id="negative"),
    pytest.param([[0.5, 0.5], [1.0, 1.0]], "pi row 1 sums to 2.000000000000, expected 1",
                 id="sum"),
    pytest.param([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]],
                 r"pi has shape \(3, 2\), expected \(2, 2\)", id="shape"),
]


class TestPolicyValidation:
    """A policy entering the layer is a (n_states, n_actions) table of
    probability rows; anything else raises ValidationError, not a
    plausible-looking number or numpy's broadcasting error."""

    @pytest.mark.parametrize("pi, message", BAD_POLICIES)
    @pytest.mark.parametrize("call", [
        lambda spec, pi: mdp.policy_chain(spec, pi, MU_STAR),
        lambda spec, pi: mdp.policy_evaluation(spec, pi, MU_STAR),
        lambda spec, pi: mdp.stationary_distribution(spec, pi, MU_STAR),
        lambda spec, pi: mdp.occupation_measure(spec, pi, MU_STAR, MU_STAR),
        lambda spec, pi: mdp.feature_expectation(spec, pi, MU_STAR, MU_STAR),
        lambda spec, pi: m.verify_mfe(spec, pi, MU_STAR),
    ], ids=["policy_chain", "policy_evaluation", "stationary_distribution",
            "occupation_measure", "feature_expectation", "verify_mfe"])
    def test_bad_policy_raises(self, malware2, call, pi, message):
        with pytest.raises(ValidationError, match=message):
            call(malware2, pi)

    def test_first_bad_row_is_reported(self):
        spec = chain_model(5)
        pi = np.full((5, 2), 0.5)
        pi[3] = [0.7, 0.7]
        pi[1] = [-0.1, 1.1]
        pi[4] = np.nan
        with pytest.raises(ValidationError, match="pi row 1 has negative entry"):
            mdp.policy_chain(spec, pi, np.full(5, 0.2))
        pi[1] = [0.1, 0.9]
        with pytest.raises(ValidationError, match="pi row 3 sums to 1.4"):
            mdp.policy_chain(spec, pi, np.full(5, 0.2))
        pi[3] = [0.3, 0.7]
        with pytest.raises(ValidationError, match="pi row 4 sums to nan"):
            mdp.policy_chain(spec, pi, np.full(5, 0.2))

    def test_rows_within_tolerance_pass_unclipped(self, malware2):
        pi = np.array([[1.0 + 5e-13, -5e-13], [0.0, 1.0]])
        P = mdp.policy_chain(malware2, pi, MU_STAR)
        np.testing.assert_array_equal(
            P, np.einsum("xa,yxa->xy", pi, transition_kernel(malware2, MU_STAR)))
