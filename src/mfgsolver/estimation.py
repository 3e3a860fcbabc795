"""Expert-data pathway: trajectory simulation and plug-in estimators.

Trajectory i draws from the PCG64 stream that numpy's
default_rng(SeedSequence(seed, spawn_key=(i,))) gives, so the set of
trajectories is independent of generation order and batch size and
reproducible bit for bit. The SeedSequence hash behind those streams runs
once over every trajectory index at the same time (_streams), and each
PCG64 is seeded from its row of the result by numpy's own seeding.

States and actions are recorded as codes of the smallest unsigned type
that holds them and widened to int64 once, after the draws are freed, so a
simulation ends holding its int64 output plus one narrow copy. Walked
batches draw their uniforms in chunks of about _CHUNK_STEPS steps; only
lockstep batches, of many trajectories, hold a table of all their uniforms. The
estimators read the trajectories in chunks of about _CHUNK_STEPS steps, so
neither holds a copy of every step.

numpy.random is imported by the first _streams call, not with the
module: on numpy 2 a bare `import numpy` leaves it unloaded, and only
simulation draws from it.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, ValidationError
from .model import check_policy, check_simplex, feature_table, transition_kernel


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray
    actions: np.ndarray
    seed: int

    def __len__(self):
        return len(self.states)


@dataclass(frozen=True)
class EstimatorConfig:
    n_trajectories: int = 1
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("n_trajectories", "positive"), ("horizon", "positive"),
                           ("seed", "non-negative")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
        if self.n_trajectories < 1 or self.horizon < 1:
            raise ValueError("need at least one trajectory and one step")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


# numpy's SeedSequence hash (NEP 19): a pool of POOL_SIZE uint32 words,
# hashed with a multiplier that steps from INIT_A by MULT_A per word, mixed
# by MIX_MULT_L and MIX_MULT_R, and read out with a multiplier that steps
# from INIT_B by MULT_B. The multipliers never depend on the data.
POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_keys(h, mult):
    """The (xor key, multiplier) of each successive hashmix."""
    while True:
        nxt = h * mult & MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, keys):
    h, m = next(keys)
    value = (value ^ h) * m
    return value ^ value >> 16


def _mix(x, y):
    result = MIX_MULT_L * x - MIX_MULT_R * y
    return result ^ result >> 16


class _PcgState:
    """Hands PCG64 the seed words that SeedSequence.generate_state(4,
    uint64) would give, so numpy's own PCG64 seeding runs on them.
    _substreams, which imports numpy.random, registers it as the
    ISeedSequence that PCG64 requires of its seed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only (4, uint64) is available, not ({n_words}, {dtype})")
        return self.words


def _streams(seed, d):
    """Yields default_rng(SeedSequence(seed, spawn_key=(i,))) for i in
    range(d): numpy's own Generator on a PCG64 seeded by the same words.

    The hash runs as uint32 array operations over all d children at once:
    the run entropy, seed in 32-bit words from the least significant and
    zero-padded to POOL_SIZE words, is the same for every child, and the
    spawn word i, the last entropy word, is an array. The trajectory
    indices fit one word: d beyond 2**32 would not fit in memory.

    numpy.random is imported here, and _PcgState registered as an
    ISeedSequence, so that the module's import does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PcgState)
    words, seed = [], int(seed)
    while True:
        words.append(np.array([seed & MASK32], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros(1, dtype=np.uint32)] * (POOL_SIZE - len(words))
    entropy = words + [np.arange(d, dtype=np.uint32)]
    keys = _hash_keys(INIT_A, MULT_A)
    pool = [_hashmix(word, keys) for word in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], keys))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, keys))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # read as four little-endian uint64 words.
    keys = _hash_keys(INIT_B, MULT_B)
    state = np.stack([_hashmix(pool[k % POOL_SIZE], keys) for k in range(8)], axis=1)
    state = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    for row in state:
        yield np.random.Generator(np.random.PCG64(_PcgState(row)))


def _uniforms(streams, d, n):
    """The next n uniforms of each of d streams, one row per stream. A
    stream continues where its last draw stopped, so successive calls give
    the columns of one call that draws them all."""
    u = np.empty((d, n))
    for rng, out in zip(streams, u):
        rng.random(out=out)
    return u


def _substreams(seed, d, n):
    """The (d, n) table whose row i is
    default_rng(SeedSequence(seed, spawn_key=(i,))).random(n)."""
    return _uniforms(_streams(seed, d), d, n)


# Batches whose per-step table work, d * X * (X + A) entries, is at most
# this many are walked through draw tables; larger batches amortise the
# per-step numpy overhead of the lockstep loop. Below the bound the tables
# were faster on every shape measured (X from 2 to 60); the crossover lay
# between 2,600 and 6,000.
TABLE_WORK = 2048

# Steps per chunk, summed over trajectories: of the uniforms that a walked
# batch draws (16 bytes a step), of the states that estimate_mean_field
# counts (8 bytes a step), and of the features that
# estimate_feature_expectation gathers (8 * feature_dim bytes a step, 0.8 MB
# at three features).
_CHUNK_STEPS = 1 << 15


def _sample_rows(cum_rows, u):
    """Vectorized categorical draw: one row of cumulative probabilities and
    one uniform per sample."""
    return (cum_rows < u[:, None]).sum(axis=1)


def _draw_tables(pi_cum, kernel_cum, streams, T, width, dtype):
    """Draws for every possible current state, from the streams' uniforms
    that follow the initial state's.

    act[x, i, t] is the action and nxt[x, i, t] the next state that
    trajectory i draws at step t if it is in state x, as codes of `dtype`.
    Both have `width` columns; those from T on, and nxt's column T - 1, are
    zero padding, read only by steps past the horizon.

    The uniforms are drawn max(1, _CHUNK_STEPS // d) steps at a time for all
    d trajectories, and the tables filled one such chunk at a time, so
    only a chunk of uniforms, and of the probabilities that the drawn
    actions gather, is alive at once.
    """
    X, d = pi_cum.shape[0], len(streams)
    act = np.zeros((X, d, width), dtype)
    nxt = np.zeros((X, d, width), dtype)
    steps = max(1, _CHUNK_STEPS // d)
    for t0 in range(0, T, steps):
        t1 = min(t0 + steps, T)
        # Uniforms 2k and 2k + 1 of a row draw the action and the next
        # state at step t0 + k; the last step draws no next state.
        u = _uniforms(streams, d, 2 * (t1 - t0))
        chunk = act[:, :, t0:t1]
        for j in range(pi_cum.shape[1]):
            chunk += pi_cum[:, j, None, None] < u[:, ::2]
        n = min(t1, T - 1) - t0
        u_next = u[:, 1:2 * n:2]
        for x in range(X):
            counts = nxt[x, :, t0:t0 + n]
            for y in range(kernel_cum.shape[2]):
                counts += kernel_cum[x, :, y][chunk[x, :, :n]] < u_next
    return act, nxt


def _walk(x0, act, nxt, block_len):
    """States and actions of every trajectory from its draw tables, as
    codes of the tables' type, with the tables' width columns.

    The horizon is cut into blocks of block_len steps. The per-step maps of
    each block are composed for every start state, the block starts are
    walked one block at a time, and the states inside each block, with the
    action drawn at each, are then filled in for all blocks at once, one
    step of a block at a time: no index array is larger than d blocks.
    """
    X, d, width = nxt.shape
    n_blocks = width // block_len
    step = nxt.reshape(X, d, n_blocks, block_len)
    move = act.reshape(X, d, n_blocks, block_len)
    rows, blocks = np.arange(d)[:, None], np.arange(n_blocks)
    # across[x, i, b]: the state block_len steps after state x at the
    # start of block b.
    across = np.broadcast_to(np.arange(X, dtype=nxt.dtype)[:, None, None],
                             (X, d, n_blocks))
    for k in range(block_len):
        across = step[across, rows, blocks, k]
    starts = np.empty((d, n_blocks), dtype=nxt.dtype)
    x, traj = x0, np.arange(d)
    for b in range(n_blocks):
        starts[:, b] = x
        x = across[x, traj, b]
    states = np.empty((d, n_blocks, block_len), dtype=nxt.dtype)
    actions = np.empty_like(states)
    x = starts
    for k in range(block_len):
        states[:, :, k] = x
        actions[:, :, k] = move[x, rows, blocks, k]
        x = step[x, rows, blocks, k]
    return states.reshape(d, width), actions.reshape(d, width)


def _lockstep(x, pi_cum, kernel_cum, u, dtype):
    """States and actions of every trajectory, stepped together, as codes
    of `dtype`."""
    d, T = u.shape[0], (u.shape[1] - 1) // 2
    states = np.empty((d, T), dtype)
    actions = np.empty((d, T), dtype)
    for t in range(T):
        a = _sample_rows(pi_cum[x], u[:, 1 + 2 * t])
        states[:, t] = x
        actions[:, t] = a
        if t + 1 < T:
            x = _sample_rows(kernel_cum[x, a], u[:, 2 + 2 * t])
    return states, actions


def simulate(spec, pi, mu, mu0, config):
    """Simulate trajectories of the frozen-mu chain under pi.

    x(0) ~ mu0, a(t) ~ pi(.|x(t)), x(t+1) ~ p(.|x(t), a(t), mu). Each
    trajectory consumes only its own substream: one uniform for x(0), then
    one for the action and one for the next state at every step. A
    category is drawn as the count of cumulative probabilities below its
    uniform, leaving out the last, so a row that sums to 1 - eps still
    draws a valid index.

    Batches with many trajectories step all of them in lockstep through a
    table of all their uniforms. Small batches, where the per-step overhead
    of that loop would dominate, draw the action and the next state for
    every possible current state, chunk by chunk of uniforms; they compose
    the per-step maps over blocks of about sqrt(T) steps, and walk the
    block starts. Both paths read the same substreams with the same
    comparisons, so a seed gives the same trajectories on either path.

    Both record states and actions as codes of the smallest unsigned type
    that holds them. The uniform table or the draw tables are freed first,
    and the codes then widened to int64 one array at a time, so the peak is
    the int64 output plus one narrow copy, or the narrow codes plus the
    uniform table in lockstep if that is larger.
    """
    X, A = spec.n_states, spec.n_actions
    # Validated row by row, but the caller's values are drawn from, not
    # check_simplex's clipped copies.
    pi = check_policy(spec, pi)
    mu0 = check_simplex(mu0, "mu0", X)
    p = transition_kernel(spec, mu)  # [y, x, a]
    d, T = config.n_trajectories, config.horizon

    mu0_cum = np.cumsum(mu0)[:-1]
    pi_cum = np.cumsum(pi, axis=1)[:, :-1]
    # kernel_cum[x, a] is the cumulative distribution of the next state.
    kernel_cum = np.cumsum(np.transpose(p, (1, 2, 0)), axis=2)[:, :, :-1]
    dtype = np.min_scalar_type(max(X, A) - 1)

    if d * X * (X + A) <= TABLE_WORK:
        streams = list(_streams(config.seed, d))
        x0 = _sample_rows(mu0_cum, _uniforms(streams, d, 1)[:, 0])
        block_len = math.isqrt(T)
        width = -(-T // block_len) * block_len
        states, actions = _walk(
            x0, *_draw_tables(pi_cum, kernel_cum, streams, T, width, dtype), block_len)
    else:
        # One uniform per (trajectory, step, draw); draw 0 picks the action,
        # draw 1 the next state, and one extra seeds the initial state.
        u = _substreams(config.seed, d, 2 * T + 1)
        states, actions = _lockstep(_sample_rows(mu0_cum, u[:, 0]), pi_cum, kernel_cum,
                                    u, dtype)
        del u
    states = states[:, :T].astype(np.int64)
    actions = actions[:, :T].astype(np.int64)
    return [
        Trajectory(states=states[i], actions=actions[i], seed=config.seed)
        for i in range(d)
    ]


def _check_codes(values, name, size):
    """values are integer codes in 0..size - 1."""
    if values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.intp):
        raise ValidationError(f"{name}s have dtype {values.dtype}, not integer codes")
    if not values.size:
        return
    lo, hi = values.min(), values.max()
    if lo < 0 or hi >= size:
        raise ValidationError(f"{name} {lo if lo < 0 else hi} is outside 0..{size - 1}")


def _joined(arrays):
    """The arrays end to end, without copying a single one: a trajectory
    of a chunk or more comes alone."""
    return np.asarray(arrays[0]) if len(arrays) == 1 else np.concatenate(arrays)


def _step_chunks(arrays):
    """The non-empty arrays, in order, joined into chunks of at most
    _CHUNK_STEPS entries; an array longer than that comes alone, uncopied."""
    chunk, size = [], 0
    for a in arrays:
        if not len(a):
            continue
        if chunk and size + len(a) > _CHUNK_STEPS:
            yield _joined(chunk)
            chunk, size = [], 0
        chunk.append(a)
        size += len(a)
    if chunk:
        yield _joined(chunk)


def estimate_mean_field(trajectories, n_states):
    """Time-and-trajectory average of state visit indicators over the
    model's n_states states. The states are counted with np.bincount chunk
    by chunk (_step_chunks), so no copy of every step is made; the counts
    are integers, so the chunking leaves the bits alone.
    """
    if not trajectories:
        raise EmptyData("no trajectories")
    counts, total = np.zeros(n_states, dtype=np.intp), 0
    for states in _step_chunks([t.states for t in trajectories]):
        _check_codes(states, "state", n_states)
        # A fresh count per chunk: adding in place (`counts += ...`) read 81.7
        # against 80.9 MB median peak RSS on the estimate benchmark.
        grown = np.bincount(states, minlength=n_states)
        grown += counts
        counts, total = grown, total + states.size
    if not total:
        raise EmptyData("the trajectories have no steps")
    return counts / total


def _discounted_rows(f, d, members):
    """d @ f[t.states, t.actions] for each of the members, which all have
    len(d) steps, from one flat gather and one stacked matmul; its BLAS
    call per trajectory is the one d @ f[t.states, t.actions] makes. The
    gathered features are freed on return, before the next chunk's."""
    X, A, k = f.shape
    states = _joined([t.states for t in members])
    actions = _joined([t.actions for t in members])
    _check_codes(states, "state", X)
    _check_codes(actions, "action", A)
    # In intp, so that codes of a narrow type do not wrap.
    flat = np.multiply(states, A, dtype=np.intp) + actions
    gathered = np.take(f.reshape(X * A, k), flat, axis=0)
    return np.matmul(d, gathered.reshape(len(members), len(d), k))


def estimate_feature_expectation(spec, trajectories, mu_hat, beta):
    """Truncated discounted feature sum averaged over trajectories.

    Returns (estimate, tail_bound) where tail_bound is the worst-case mass
    beyond the simulation horizon, beta^T * max ||f|| / (1 - beta).

    The result has the bits of a loop that adds d @ f[states, actions],
    d = beta ** arange(T), to a zero total one trajectory at a time.
    Trajectories of one length are taken in chunks of about _CHUNK_STEPS
    steps (_discounted_rows). Their rows are stored in trajectory order
    after a zero row and added up with np.add.accumulate, which runs in
    order; np.add.reduce would sum pairwise when the features are one
    column. Trajectories without steps keep their zero rows.
    """
    if not 0.0 < beta < 1.0:
        raise ValidationError(f"beta must lie in (0,1), got {beta}")
    if not trajectories:
        raise EmptyData("no trajectories")
    lengths = [len(t.states) for t in trajectories]
    n_actions = [len(t.actions) for t in trajectories]
    if n_actions != lengths:
        i = next(i for i, (n, m) in enumerate(zip(lengths, n_actions)) if n != m)
        raise ValidationError(
            f"trajectory {i} has {lengths[i]} states but {n_actions[i]} actions")
    if not max(lengths):
        raise EmptyData("the trajectories have no steps")
    f = feature_table(spec, mu_hat)  # [x, a, j]
    rows = np.zeros((len(trajectories) + 1, spec.feature_dim))
    by_length = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(np.take(lengths, by_length))) + 1
    for group in np.split(by_length, cuts):
        T = lengths[group[0]]
        if not T:
            continue
        d = beta ** np.arange(T)
        batch = max(1, _CHUNK_STEPS // T)
        for start in range(0, len(group), batch):
            ids = group[start:start + batch]
            rows[ids + 1] = _discounted_rows(f, d, [trajectories[i] for i in ids.tolist()])
    estimate = np.add.accumulate(rows, axis=0)[-1] / len(trajectories)
    f_max = float(np.linalg.norm(f, axis=2).max())
    tail = beta**max(lengths) * f_max / (1.0 - beta)
    return estimate, tail
