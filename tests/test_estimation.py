import tracemalloc

import numpy as np
import pytest

from mfgsolver import estimation, mdp, model
from mfgsolver.errors import EmptyData, ValidationError
from mfgsolver.model import transition_kernel

from test_mdp import MU_STAR, PI_STAR


class TestSimulate:
    def test_reproducible(self, malware2):
        config = estimation.EstimatorConfig(n_trajectories=4, horizon=30, seed=42)
        a = estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR, config)
        b = estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR, config)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.states, tb.states)
            np.testing.assert_array_equal(ta.actions, tb.actions)

    def test_substreams_order_independent(self, malware2):
        # Trajectory i of a batch of 5 equals trajectory i of a batch of 2.
        big = estimation.simulate(
            malware2, PI_STAR, MU_STAR, MU_STAR,
            estimation.EstimatorConfig(n_trajectories=5, horizon=20, seed=1),
        )
        small = estimation.simulate(
            malware2, PI_STAR, MU_STAR, MU_STAR,
            estimation.EstimatorConfig(n_trajectories=2, horizon=20, seed=1),
        )
        for i in range(2):
            np.testing.assert_array_equal(big[i].states, small[i].states)
            np.testing.assert_array_equal(big[i].actions, small[i].actions)

    def test_deterministic_dynamics(self, malware2):
        # Always repairing pins the chain at the healthy state.
        pi = np.array([[0.0, 1.0], [0.0, 1.0]])
        trajs = estimation.simulate(
            malware2, pi, MU_STAR, np.array([1.0, 0.0]),
            estimation.EstimatorConfig(n_trajectories=2, horizon=25, seed=0),
        )
        for t in trajs:
            assert np.all(t.states == 0)
            assert np.all(t.actions == 1)

    @pytest.mark.parametrize("field,value", [
        ("n_trajectories", 0), ("horizon", 0),
        # Not integers: each used to fail later, inside simulate, or as
        # horizon=True to run a one-step simulation.
        ("n_trajectories", 2.0), ("horizon", 2.5), ("horizon", np.float64(3.0)),
        ("n_trajectories", True), ("horizon", True), ("seed", True), ("seed", False),
        ("horizon", "5"), ("n_trajectories", None),
    ])
    def test_bad_config_raises(self, field, value):
        with pytest.raises(ValueError, match=f"{field}|at least one"):
            estimation.EstimatorConfig(**{field: value})

    def test_numpy_integer_sizes(self):
        config = estimation.EstimatorConfig(n_trajectories=np.int32(3),
                                            horizon=np.uint16(7), seed=np.int64(2))
        assert (config.n_trajectories, config.horizon, config.seed) == (3, 7, 2)

    @pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 2.0, "3", None])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            estimation.EstimatorConfig(seed=seed)

    def test_numpy_integer_seed(self, malware2):
        trajs = [
            estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR,
                                estimation.EstimatorConfig(n_trajectories=3,
                                                           horizon=20, seed=seed))
            for seed in (7, np.int64(7), np.uint8(7))
        ]
        for other in trajs[1:]:
            for a, b in zip(trajs[0], other):
                np.testing.assert_array_equal(a.states, b.states)
                np.testing.assert_array_equal(a.actions, b.actions)


class TestSubstreams:
    """_substreams reproduces numpy's SeedSequence-spawned PCG64 streams."""

    ROWS = (0, 1, 2, 3, 255, 256, 1_000, 4_095, 4_096, 7_777, 9_998, 9_999)

    # Run entropy of 1, 2, 3 and 5 32-bit words; the last is more than the
    # pool of 4.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**70 + 3, 2**140 + 11])
    @pytest.mark.parametrize("n", [1, 201])
    def test_rows_match_numpy(self, seed, n):
        u = estimation._substreams(seed, 10_000, n)
        assert u.shape == (10_000, n)
        for i in self.ROWS:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            np.testing.assert_array_equal(u[i], rng.random(n))

    def test_state_stub_serves_only_pcg64(self):
        words = np.arange(4, dtype=np.uint64)
        stub = estimation._PcgState(words)
        assert stub.generate_state(4, np.uint64) is words
        for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                               (8, np.uint64)]:
            with pytest.raises(ValueError, match="only"):
                stub.generate_state(n_words, dtype)
        with pytest.raises(ValueError, match="only"):
            stub.generate_state(4)


def reference_simulate(spec, pi, mu, mu0, config):
    """The lockstep loop, with no estimation helpers: the reference that
    every path of simulate must reproduce bit for bit."""
    p = transition_kernel(spec, mu)
    d, T = config.n_trajectories, config.horizon
    u = np.empty((d, 2 * T + 1))
    for i in range(d):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(i,)))
        u[i] = rng.random(2 * T + 1)
    pi_cum = np.cumsum(pi, axis=1)
    kernel_cum = np.cumsum(np.transpose(p, (1, 2, 0)), axis=2)
    states = np.empty((d, T), dtype=np.int64)
    actions = np.empty((d, T), dtype=np.int64)
    x = (np.cumsum(mu0) < u[:, 0][:, None]).sum(axis=1)
    for t in range(T):
        a = (pi_cum[x] < u[:, 1 + 2 * t][:, None]).sum(axis=1)
        states[:, t] = x
        actions[:, t] = a
        if t + 1 < T:
            x = (kernel_cum[x, a] < u[:, 2 + 2 * t][:, None]).sum(axis=1)
    return states, actions


def random_chain(rng, X, A):
    """A degree-one model, p(.|x,a,mu) = sum_z mu(z) K_z(.|x,a), with a
    policy whose even rows are deterministic, and a mean field."""
    vertex = rng.random((X, X, A, X))
    vertex /= vertex.sum(axis=0, keepdims=True)
    spec = model.ModelSpec(
        n_states=X, n_actions=A, feature_dim=1, beta=0.8,
        P0=np.zeros((X, X, A)), P1=vertex, F0=rng.random((X, A, 1)),
        F1=np.zeros((X, A, 1, X)),
    )
    pi = rng.random((X, A))
    pi[::2] = np.eye(A)[rng.integers(0, A, size=len(pi[::2]))]
    pi /= pi.sum(axis=1, keepdims=True)
    mu = rng.random(X)
    return spec, pi, mu / mu.sum()


def assert_same_as_reference(spec, pi, mu, config, force_paths=False):
    """simulate equals the reference under the path rule and, with
    force_paths, with each path forced."""
    states, actions = reference_simulate(spec, pi, mu, mu, config)
    forced = [10**9, 0] if force_paths else []
    for table_work in [None] + forced:
        with pytest.MonkeyPatch.context() as mp:
            if table_work is not None:
                mp.setattr(estimation, "TABLE_WORK", table_work)
            trajs = estimation.simulate(spec, pi, mu, mu, config)
        assert len(trajs) == config.n_trajectories
        assert all(t.states.dtype == np.int64 and t.actions.dtype == np.int64
                   for t in trajs)
        assert np.array_equal(np.stack([t.states for t in trajs]), states)
        assert np.array_equal(np.stack([t.actions for t in trajs]), actions)


class TestSimulateMatchesReference:
    # T = 16 and 100 fill whole blocks of sqrt(T) steps; 15, 17 and 101
    # sit one step either side.
    HORIZONS = (1, 2, 15, 16, 17, 100, 101)

    @pytest.mark.parametrize("X,A", [(2, 2), (2, 3), (3, 2), (4, 3), (6, 2),
                                     (8, 3), (10, 2), (10, 3)])
    def test_shapes(self, X, A):
        rng = np.random.default_rng(100 * X + A)
        spec, pi, mu = random_chain(rng, X, A)
        for d in (1, 2, 10, 1000):
            for T in self.HORIZONS:
                config = estimation.EstimatorConfig(
                    n_trajectories=d, horizon=T, seed=int(rng.integers(1000)))
                assert_same_as_reference(spec, pi, mu, config, force_paths=True)

    def test_rule_has_both_sides(self):
        # The shapes above reach both paths without forcing one.
        works = [d * X * (X + A) for X, A in [(2, 2), (10, 3)] for d in (1, 1000)]
        assert min(works) <= estimation.TABLE_WORK < max(works)

    def test_long_horizon(self, malware2):
        # A9's mean-field shape, walked through the draw tables.
        assert 10 * 2 * (2 + 2) <= estimation.TABLE_WORK
        config = estimation.EstimatorConfig(n_trajectories=10, horizon=100_000, seed=3)
        assert_same_as_reference(malware2, PI_STAR, MU_STAR, config)

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_uniform_chunks(self, monkeypatch, d):
        # 14 steps a chunk: one trajectory draws its uniforms 14 steps at
        # a time, three draw 4 at a time and ten one step at a time. The
        # horizons end on either side of a chunk boundary.
        monkeypatch.setattr(estimation, "_CHUNK_STEPS", 14)
        rng = np.random.default_rng(d)
        spec, pi, mu = random_chain(rng, 3, 2)
        for T in (1, 2, 4, 5, 13, 14, 15, 28, 29, 57):
            config = estimation.EstimatorConfig(n_trajectories=d, horizon=T, seed=T)
            assert_same_as_reference(spec, pi, mu, config, force_paths=True)

    def test_tiny_negative_policy_entry_is_kept(self, malware2):
        # Within check_simplex's clamp: accepted, and drawn from as given.
        pi = np.array([[1.0 + 1e-13, -1e-13], [0.3, 0.7]])
        config = estimation.EstimatorConfig(n_trajectories=3, horizon=50, seed=4)
        assert_same_as_reference(malware2, pi, MU_STAR, config)


def traced_peak_mb(fn, *args):
    """The peak of the memory that fn(*args) allocates, its result
    included, in MiB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """simulate holds its int64 output plus one narrow copy of it, or a
    chunk of draws, and estimate_mean_field holds no copy of every step.
    Holding all the uniforms, or all the states end to end, breaks these
    bounds."""

    SIMULATE_MB = {(10, 100_000): 17.0, (10_000, 51): 12.0}

    @pytest.mark.parametrize("shape", sorted(SIMULATE_MB))
    def test_simulate(self, malware2, shape):
        d, T = shape
        # A first simulation loads numpy.random, which is not counted.
        estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR,
                            estimation.EstimatorConfig(n_trajectories=2, horizon=2))
        config = estimation.EstimatorConfig(n_trajectories=d, horizon=T, seed=1)
        # The int64 states and actions alone take 16 bytes a step.
        output_mb = 16 * d * T / 2**20
        peak = traced_peak_mb(estimation.simulate, malware2, PI_STAR, MU_STAR, MU_STAR,
                              config)
        assert output_mb < peak <= self.SIMULATE_MB[shape]

    def test_mean_field(self, malware2):
        trajs = estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR,
                                    estimation.EstimatorConfig(n_trajectories=10,
                                                               horizon=100_000, seed=1))
        assert traced_peak_mb(estimation.estimate_mean_field, trajs, 2) <= 1.0


class TestSimulateValidatesPolicy:
    config = estimation.EstimatorConfig(n_trajectories=2, horizon=5)

    @pytest.mark.parametrize("pi", [
        [[0.6, 0.0], [0.0, 1.0]],            # a row sums to 0.6
        [[1.2, -0.2], [0.0, 1.0]],           # a negative entry
        [[np.nan, 1.0], [0.0, 1.0]],         # not a number
        [[0.5, 0.5]],                         # too few rows
        [[0.5, 0.25, 0.25], [0.0, 0.0, 1.0]],  # too many actions
    ])
    def test_bad_policy_raises(self, malware2, pi):
        with pytest.raises(ValidationError):
            estimation.simulate(malware2, pi, MU_STAR, MU_STAR, self.config)

    @pytest.mark.parametrize("name", ["mu", "mu0"])
    @pytest.mark.parametrize("bad", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_mean_field_length_raises(self, malware2, name, bad):
        # A short mu0 used to index past its cumulative table.
        args = {"mu": MU_STAR, "mu0": MU_STAR, name: bad}
        with pytest.raises(ValidationError, match=f"{name} has shape"):
            estimation.simulate(malware2, PI_STAR, config=self.config, **args)


def mixed_length_trajectories(spec):
    """Simulated trajectories of horizons 1, 7, 30 and 200, interleaved."""
    batches = [
        estimation.simulate(spec, PI_STAR, MU_STAR, MU_STAR,
                            estimation.EstimatorConfig(n_trajectories=d, horizon=T,
                                                       seed=T))
        for d, T in ((3, 1), (5, 7), (4, 30), (2, 200))
    ]
    return [t for group in zip(*batches) for t in group] + [
        t for batch in batches for t in batch[2:]]


def assert_feature_expectation_matches_loop(spec, trajs):
    mu_hat = estimation.estimate_mean_field(trajs, n_states=spec.n_states)
    f = model.feature_table(spec, mu_hat)
    total = np.zeros(spec.feature_dim)
    for t in trajs:
        total += spec.beta ** np.arange(len(t)) @ f[t.states, t.actions]
    est, _ = estimation.estimate_feature_expectation(spec, trajs, mu_hat, spec.beta)
    np.testing.assert_array_equal(est, total / len(trajs))


class TestEstimatorsMatchLoops:
    """Both estimators give exactly what a loop over trajectories gives."""

    def test_mean_field(self, malware2):
        trajs = mixed_length_trajectories(malware2)
        assert len({len(t) for t in trajs}) == 4
        counts, total = np.zeros(2), 0
        for t in trajs:
            counts += np.bincount(t.states, minlength=2)
            total += len(t)
        np.testing.assert_array_equal(
            estimation.estimate_mean_field(trajs, n_states=2), counts / total)
        # 14 steps a chunk: trajectories of 7 steps or fewer are joined,
        # the longer ones come alone.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_CHUNK_STEPS", 14)
            np.testing.assert_array_equal(
                estimation.estimate_mean_field(trajs, n_states=2), counts / total)

    def test_feature_expectation(self, malware2):
        trajs = mixed_length_trajectories(malware2)
        assert_feature_expectation_matches_loop(malware2, trajs)
        # 14 steps a chunk: the 5 trajectories of 7 steps take three
        # chunks, and the longer ones go one at a time.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_CHUNK_STEPS", 14)
            assert_feature_expectation_matches_loop(malware2, trajs)
        empty = estimation.Trajectory(states=np.zeros(0, dtype=np.int64),
                                      actions=np.zeros(0, dtype=np.int64), seed=0)
        assert_feature_expectation_matches_loop(
            malware2, [empty] + trajs[:5] + [empty] + trajs[5:])
        # With one feature column np.add.reduce would sum pairwise.
        spec, pi, mu = random_chain(np.random.default_rng(3), 4, 3)
        assert_feature_expectation_matches_loop(spec, estimation.simulate(
            spec, pi, mu, mu, estimation.EstimatorConfig(n_trajectories=300, horizon=20,
                                                         seed=2)))

    def test_feature_expectation_memory_is_chunked(self, malware2):
        # At A9's 10,000 x 51 shape the gathered features alone would take
        # 12 MB in one batch; in chunks the estimator stays under 4 MB.
        trajs = estimation.simulate(malware2, PI_STAR, MU_STAR, MU_STAR,
                                    estimation.EstimatorConfig(n_trajectories=10_000,
                                                               horizon=51, seed=0))

        def peak_mb():
            return traced_peak_mb(estimation.estimate_feature_expectation,
                                  malware2, trajs, MU_STAR, 0.8)

        assert peak_mb() < 4.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_CHUNK_STEPS", 1 << 40)
            assert peak_mb() > 4.0


class TestEstimateMeanField:
    def test_state_out_of_range_raises(self):
        t = estimation.Trajectory(
            states=np.array([0, 3, 1]), actions=np.zeros(3, dtype=int), seed=0
        )
        with pytest.raises(ValidationError):
            estimation.estimate_mean_field([t], n_states=2)

    def test_dirac(self):
        t = estimation.Trajectory(
            states=np.full(50, 2), actions=np.zeros(50, dtype=int), seed=0
        )
        mu = estimation.estimate_mean_field([t], n_states=4)
        np.testing.assert_allclose(mu, [0.0, 0.0, 1.0, 0.0])

    def test_two_pinned_trajectories(self):
        a = estimation.Trajectory(
            states=np.zeros(10, dtype=int), actions=np.zeros(10, dtype=int), seed=0
        )
        b = estimation.Trajectory(
            states=np.ones(10, dtype=int), actions=np.zeros(10, dtype=int), seed=0
        )
        mu = estimation.estimate_mean_field([a, b], n_states=2)
        np.testing.assert_allclose(mu, [0.5, 0.5])

    def test_simplex_output(self, malware2):
        trajs = estimation.simulate(
            malware2, PI_STAR, MU_STAR, MU_STAR,
            estimation.EstimatorConfig(n_trajectories=3, horizon=100, seed=5),
        )
        mu = estimation.estimate_mean_field(trajs, n_states=2)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert mu.min() >= 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyData):
            estimation.estimate_mean_field([], n_states=2)

    def test_state_count_is_required(self):
        t = estimation.Trajectory(states=np.array([0, 1]), actions=np.zeros(2, dtype=int),
                                  seed=0)
        with pytest.raises(TypeError):
            estimation.estimate_mean_field([t])

    @pytest.mark.parametrize("n_states", [2])
    def test_no_steps_raises(self, n_states):
        t = estimation.Trajectory(states=np.zeros(0, dtype=np.int64),
                                  actions=np.zeros(0, dtype=np.int64), seed=0)
        with pytest.raises(EmptyData, match="no steps"):
            estimation.estimate_mean_field([t, t], n_states=n_states)

    @pytest.mark.parametrize("n_states", [2])
    def test_negative_state_raises(self, n_states):
        t = estimation.Trajectory(states=np.array([0, -1]), actions=np.zeros(2, dtype=int),
                                  seed=0)
        with pytest.raises(ValidationError, match="state -1"):
            estimation.estimate_mean_field([t], n_states=n_states)


class TestEstimateFeatureExpectation:
    def test_tiny_beta_reads_first_step(self, malware2):
        # With beta near 0 the discounted sum collapses to the first step.
        t = estimation.Trajectory(
            states=np.array([1, 0, 0]), actions=np.array([1, 0, 0]), seed=0
        )
        mu_hat = np.array([0.5, 0.5])
        est, _ = estimation.estimate_feature_expectation(
            malware2, [t], mu_hat, beta=1e-9
        )
        np.testing.assert_allclose(est, [1.0, 0.5, 1.0], atol=1e-8)

    def test_constant_feature_geometric(self, malware2):
        # The action feature along an all-repair trajectory is identically
        # 1, so its discounted sum is the finite geometric series.
        T, beta = 40, 0.8
        t = estimation.Trajectory(
            states=np.zeros(T, dtype=int), actions=np.ones(T, dtype=int), seed=0
        )
        est, tail = estimation.estimate_feature_expectation(
            malware2, [t], np.array([0.5, 0.5]), beta=beta
        )
        assert est[2] == pytest.approx((1.0 - beta**T) / (1.0 - beta), abs=1e-12)
        f_max = np.sqrt(1.0 + 0.25 + 1.0)
        assert tail == pytest.approx(beta**T * f_max / (1.0 - beta), rel=1e-12)

    def test_empty_raises(self, malware2):
        with pytest.raises(EmptyData):
            estimation.estimate_feature_expectation(
                malware2, [], np.array([0.5, 0.5]), 0.8
            )

    @pytest.mark.parametrize("states,actions,message", [
        ([0, -1], [0, 0], "state -1 is outside 0..1"),    # would wrap to state 1
        ([0, 2], [0, 0], "state 2 is outside 0..1"),
        ([0, 1], [0, 2], "action 2 is outside 0..1"),     # would read state 1's row
        ([1, 0], [-1, 0], "action -1 is outside 0..1"),
        ([0, 1], [0], "trajectory 1 has 2 states but 1 actions"),
        ([0, 1], [0, 1, 1], "trajectory 1 has 2 states but 3 actions"),
    ])
    def test_bad_trajectory_raises(self, malware2, states, actions, message):
        good = estimation.Trajectory(states=np.array([0, 1]), actions=np.array([1, 0]),
                                     seed=0)
        bad = estimation.Trajectory(states=np.array(states), actions=np.array(actions),
                                    seed=0)
        with pytest.raises(ValidationError, match=message):
            estimation.estimate_feature_expectation(
                malware2, [good, bad], np.array([0.5, 0.5]), 0.8)

    @pytest.mark.parametrize("mu_hat", [[0.5, 0.3, 0.2], [1.0]])
    def test_wrong_mean_field_length_raises(self, malware2, mu_hat):
        t = estimation.Trajectory(states=np.array([0, 1]), actions=np.array([1, 0]), seed=0)
        with pytest.raises(ValidationError, match=r"mu has shape .*, expected \(2,\)"):
            estimation.estimate_feature_expectation(malware2, [t], mu_hat, 0.8)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.5, np.nan])
    def test_beta_outside_unit_interval_raises(self, malware2, beta):
        t = estimation.Trajectory(states=np.array([0, 1]), actions=np.array([1, 0]), seed=0)
        with pytest.raises(ValidationError, match="beta must lie in \\(0,1\\)"):
            estimation.estimate_feature_expectation(malware2, [t], np.array([0.5, 0.5]),
                                                    beta)

    def test_no_steps_raises(self, malware2):
        t = estimation.Trajectory(states=np.zeros(0, dtype=np.int64),
                                  actions=np.zeros(0, dtype=np.int64), seed=0)
        with pytest.raises(EmptyData, match="no steps"):
            estimation.estimate_feature_expectation(malware2, [t, t], np.array([0.5, 0.5]),
                                                    0.8)

    def test_narrow_codes_do_not_wrap(self):
        # 200 states and 2 actions: state * 2 + action wraps in uint8.
        rng = np.random.default_rng(5)
        X, A = 200, 2
        P0 = rng.random((X, X, A))
        spec = model.ModelSpec(
            n_states=X, n_actions=A, feature_dim=1, beta=0.8,
            P0=P0 / P0.sum(axis=0), P1=np.zeros((X, X, A, X)),
            F0=rng.random((X, A, 1)), F1=np.zeros((X, A, 1, X)))
        states, actions = rng.integers(0, X, size=50), rng.integers(0, A, size=50)
        mu = np.full(X, 1.0 / X)
        wide, narrow = (
            estimation.estimate_feature_expectation(
                spec, [estimation.Trajectory(states=states.astype(dtype),
                                             actions=actions.astype(dtype), seed=0)],
                mu, 0.8)[0]
            for dtype in (np.int64, np.uint8))
        np.testing.assert_array_equal(narrow, wide)

    def test_error_shrinks_with_more_trajectories(self, malware2):
        # Averaged over a few seeds, the estimator error decreases over
        # d = 100, 1000, 10000 at fixed horizon.
        exact = mdp.feature_expectation(malware2, PI_STAR, MU_STAR, MU_STAR)
        T = 51
        errors = []
        for d in (100, 1000, 10000):
            errs = []
            for seed in (0, 1, 2):
                trajs = estimation.simulate(
                    malware2, PI_STAR, MU_STAR, MU_STAR,
                    estimation.EstimatorConfig(
                        n_trajectories=d, horizon=T, seed=seed
                    ),
                )
                est, _ = estimation.estimate_feature_expectation(
                    malware2, trajs, MU_STAR, malware2.beta
                )
                errs.append(np.abs(est - exact).max())
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("states,actions", [
    ([0.0, 1.0], [0, 1]),
    ([0, 1], [0.0, 1.0]),
    ([True, False], [0, 1]),
])
def test_non_integer_codes_raise(malware2, states, actions):
    t = estimation.Trajectory(states=np.array(states), actions=np.array(actions), seed=0)
    with pytest.raises(ValidationError, match="not integer codes"):
        estimation.estimate_feature_expectation(malware2, [t], np.array([0.5, 0.5]), 0.8)
    if np.asarray(states).dtype != np.int64:
        with pytest.raises(ValidationError, match="not integer codes"):
            estimation.estimate_mean_field([t], n_states=2)
