"""Per-trajectory rows of an estimation.Trajectories batch, for tests that
compare the package with loops over trajectories, and batches built from
such rows."""

import numpy as np

from mfgsolver import estimation


def per_trajectory(trajs):
    """(states, actions) of each trajectory of the batch, in order: views
    of its flat arrays."""
    return [(trajs.states[s:s + n], trajs.actions[s:s + n])
            for s, n in zip(trajs.starts.tolist(), trajs.lengths.tolist())]


def batch(rows, dtype=np.int64):
    """The Trajectories of a list of (states, actions) pairs, as codes of
    dtype."""
    states, actions = ([np.asarray(row[j], dtype=dtype) for row in rows] for j in (0, 1))
    empty = np.zeros(0, dtype=dtype)
    return estimation.Trajectories(np.concatenate([empty, *states]),
                                   np.concatenate([empty, *actions]),
                                   np.array([len(x) for x in states], dtype=np.int64))
