import numpy as np
import pytest

from mfgsolver.errors import BadParameter, MissingTheta, ParseError, ValidationError
from mfgsolver.model import (
    ModelSpec,
    builtin_malware,
    check_simplex,
    cost_table,
    dump_model,
    feature_table,
    load_model,
    transition_kernel,
)


class TestCheckSimplex:
    def test_valid(self):
        v = check_simplex([0.25, 0.75])
        np.testing.assert_allclose(v, [0.25, 0.75])

    def test_negative_raises(self):
        with pytest.raises(ValidationError):
            check_simplex([-0.1, 1.1])

    def test_bad_sum_raises(self):
        with pytest.raises(ValidationError):
            check_simplex([0.5, 0.6])

    def test_nan_raises(self):
        with pytest.raises(ValidationError):
            check_simplex([np.nan, 1.0])

    def test_matrix_raises(self):
        with pytest.raises(ValidationError):
            check_simplex(np.eye(2))

    def test_size_is_checked(self):
        check_simplex([0.25, 0.75], size=2)
        for v in ([0.5, 0.3, 0.2], [1.0], np.eye(2) / 2.0):
            with pytest.raises(ValidationError, match=r"expected \(2,\)"):
                check_simplex(v, size=2)


class TestMeanFieldLength:
    """A mean field is a distribution on the model's states: one of another
    length is a ValidationError, not numpy's error from the contraction."""

    @pytest.mark.parametrize("table", [transition_kernel, feature_table, cost_table])
    @pytest.mark.parametrize("mu", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_length_raises(self, malware2, table, mu):
        with pytest.raises(ValidationError, match=f"mu has shape \\({len(mu)},\\), "
                                                  r"expected \(2,\)"):
            table(malware2, mu)


class TestBuiltins:
    def test_malware2_shapes(self, malware2):
        assert (malware2.n_states, malware2.n_actions, malware2.feature_dim) == (2, 2, 3)
        assert malware2.beta == 0.8

    def test_malware10_shapes(self, malware10):
        assert (malware10.n_states, malware10.n_actions) == (10, 2)
        np.testing.assert_allclose(malware10.state_labels, np.arange(10) / 10.0)

    def test_malware2_kernel(self, malware2):
        p = transition_kernel(malware2, [0.5, 0.5])
        # Action 0 from the healthy state infects with probability q = 0.9.
        np.testing.assert_allclose(p[:, 0, 0], [0.1, 0.9], atol=1e-12)
        # The infected state is absorbing under action 0.
        np.testing.assert_allclose(p[:, 1, 0], [0.0, 1.0], atol=1e-12)
        # Action 1 repairs to the healthy state from anywhere.
        np.testing.assert_allclose(p[0, :, 1], [1.0, 1.0], atol=1e-12)

    def test_malware10_kernel(self, malware10):
        mu = np.full(10, 0.1)
        p = transition_kernel(malware10, mu)
        # Action 0 moves uniformly over the current and all worse states.
        np.testing.assert_allclose(p[3:, 3, 0], np.full(7, 1.0 / 7.0), atol=1e-12)
        np.testing.assert_allclose(p[:3, 3, 0], 0.0, atol=1e-12)
        # Action 1 resets to state 0.
        np.testing.assert_allclose(p[0, :, 1], np.ones(10), atol=1e-12)

    def test_kernel_columns_stochastic(self, malware2, malware10):
        rng = np.random.default_rng(0)
        for spec in (malware2, malware10):
            for _ in range(5):
                mu = rng.random(spec.n_states)
                mu /= mu.sum()
                p = transition_kernel(spec, mu)
                np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
                assert p.min() >= 0.0

    def test_features(self, malware2):
        mu = np.array([0.65, 0.35])
        f = feature_table(malware2, mu)
        np.testing.assert_allclose(f[0, 0], [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(f[1, 0], [1.0, 0.35, 0.0], atol=1e-12)
        np.testing.assert_allclose(f[1, 1], [1.0, 0.35, 1.0], atol=1e-12)

    def test_cost_table(self, malware2):
        mu = np.array([0.65, 0.35])
        c = cost_table(malware2, mu)
        # c(1, 1) = 0.2*1 + 1*0.35 + 0.4*1
        assert c[1, 1] == pytest.approx(0.95, abs=1e-12)

    def test_missing_theta_raises(self):
        spec = builtin_malware(2, None, q=0.9)
        with pytest.raises(MissingTheta):
            cost_table(spec, [0.5, 0.5])

    def test_bad_q_raises(self):
        with pytest.raises(BadParameter):
            builtin_malware(2, (1.0, 1.0, 1.0), q=1.5)
        with pytest.raises(BadParameter):
            builtin_malware(2, (1.0, 1.0, 1.0), q=None)

    def test_unsupported_size_raises(self):
        with pytest.raises(BadParameter):
            builtin_malware(5, (1.0, 1.0, 1.0))


class TestValidation:
    def test_bad_beta(self, malware2):
        with pytest.raises(ValidationError):
            ModelSpec(
                n_states=2, n_actions=2, feature_dim=3, beta=1.0,
                P0=malware2.P0, P1=malware2.P1, F0=malware2.F0, F1=malware2.F1,
            )

    def test_non_stochastic_kernel(self):
        P0 = np.zeros((2, 2, 1))
        P0[0, :, 0] = 0.7  # columns sum to 0.7, not 1
        with pytest.raises(ValidationError):
            ModelSpec(
                n_states=2, n_actions=1, feature_dim=1, beta=0.5,
                P0=P0, P1=np.zeros((2, 2, 1, 2)),
                F0=np.zeros((2, 1, 1)), F1=np.zeros((2, 1, 1, 2)),
            )

    def test_negative_vertex_kernel(self):
        # Constant block is fine but one simplex vertex turns negative.
        P0 = np.zeros((2, 2, 1))
        P0[0, :, 0] = 1.0
        P1 = np.zeros((2, 2, 1, 2))
        P1[0, 0, 0, 0] = -1.5
        P1[1, 0, 0, 0] = 1.5
        with pytest.raises(ValidationError):
            ModelSpec(
                n_states=2, n_actions=1, feature_dim=1, beta=0.5,
                P0=P0, P1=P1,
                F0=np.zeros((2, 1, 1)), F1=np.zeros((2, 1, 1, 2)),
            )

    def test_shape_mismatch(self, malware2):
        with pytest.raises(ValidationError):
            ModelSpec(
                n_states=2, n_actions=2, feature_dim=3, beta=0.8,
                P0=malware2.P0[:, :, :1], P1=malware2.P1,
                F0=malware2.F0, F1=malware2.F1,
            )


class TestSerialization:
    def test_round_trip(self, malware2):
        spec = load_model(dump_model(malware2))
        np.testing.assert_allclose(spec.P0, malware2.P0)
        np.testing.assert_allclose(spec.P1, malware2.P1)
        np.testing.assert_allclose(spec.F0, malware2.F0)
        np.testing.assert_allclose(spec.F1, malware2.F1)
        np.testing.assert_allclose(spec.theta, malware2.theta)
        assert spec.beta == malware2.beta

    def test_optional_blocks_default_to_zero(self):
        doc = """{"n_states": 1, "n_actions": 1, "feature_dim": 1,
                  "beta": 0.5, "P0": [[[1.0]]], "F0": [[[2.0]]]}"""
        spec = load_model(doc)
        np.testing.assert_allclose(spec.P1, 0.0)
        assert spec.theta is None

    def test_malformed_json_raises(self):
        with pytest.raises(ParseError):
            load_model("{not json")

    def test_non_object_raises(self):
        with pytest.raises(ParseError):
            load_model("[1, 2]")

    def test_missing_key_raises(self):
        with pytest.raises(ParseError):
            load_model('{"n_states": 1}')

    def test_invalid_content_raises(self):
        doc = """{"n_states": 1, "n_actions": 1, "feature_dim": 1,
                  "beta": 0.5, "P0": [[[0.5]]], "F0": [[[0.0]]]}"""
        with pytest.raises(ValidationError):
            load_model(doc)
