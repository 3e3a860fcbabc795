"""Finite mean-field game instances.

A model is a finite state/action space with transition probabilities and
reward features that are affine in the mean-field term mu:

    p(y|x,a,mu) = P0[y,x,a] + sum_z P1[y,x,a,z] * mu[z]
    f(x,a,mu)   = F0[x,a]   + F1[x,a] @ mu          (each component in R^k)

Costs follow the minimization convention c = <theta, f>; reward-maximizing
callers negate. Includes a JSON file format and the two built-in malware
spread models (2-state and 10-state).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, MissingTheta, ParseError, ValidationError

SIMPLEX_TOL = 1e-9
KERNEL_CLAMP = 1e-12


def check_simplex(v, name="mu", size=None):
    """Validate and return a probability vector as a float array, of
    length size when size is given: a distribution on a model's size
    states."""
    v = np.asarray(v, dtype=float)
    if size is not None and v.shape != (size,):
        raise ValidationError(f"{name} has shape {v.shape}, expected {(size,)}")
    if v.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if np.any(v < -KERNEL_CLAMP):
        raise ValidationError(f"{name} has negative entry {v.min():.3e}")
    if not abs(v.sum() - 1.0) <= SIMPLEX_TOL:  # also rejects NaN
        raise ValidationError(f"{name} sums to {v.sum():.12f}, expected 1")
    return np.clip(v, 0.0, None)


def check_policy(spec, pi):
    """Validate a policy table: shape (n_states, n_actions), every row a
    probability vector. The rows are screened all at once with check_simplex's
    rules, and the first row that fails raises check_simplex's error. Returns
    pi as a float array, unclipped."""
    pi = np.asarray(pi, dtype=float)
    shape = (spec.n_states, spec.n_actions)
    if pi.shape != shape:
        raise ValidationError(f"pi has shape {pi.shape}, expected {shape}")
    bad = (pi < -KERNEL_CLAMP).any(axis=1) | ~(abs(pi.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    for x in np.flatnonzero(bad):
        check_simplex(pi[x], f"pi row {x}")
    return pi


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of a finite MFG instance.

    Tensor index order matches the file schema: P0[y][x][a], P1[y][x][a][z],
    F0[x][a][j], F1[x][a][j][z].
    """

    n_states: int
    n_actions: int
    feature_dim: int
    beta: float
    P0: np.ndarray
    P1: np.ndarray
    F0: np.ndarray
    F1: np.ndarray
    theta: np.ndarray | None = None
    state_labels: np.ndarray | None = None
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        X, A, k = self.n_states, self.n_actions, self.feature_dim
        object.__setattr__(self, "P0", np.asarray(self.P0, dtype=float))
        object.__setattr__(self, "P1", np.asarray(self.P1, dtype=float))
        object.__setattr__(self, "F0", np.asarray(self.F0, dtype=float))
        object.__setattr__(self, "F1", np.asarray(self.F1, dtype=float))
        if self.theta is not None:
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        if self.state_labels is not None:
            object.__setattr__(
                self, "state_labels", np.asarray(self.state_labels, dtype=float)
            )
        self._validate(X, A, k)

    def _validate(self, X, A, k):
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must lie in (0,1), got {self.beta}")
        if self.P0.shape != (X, X, A):
            raise ValidationError(f"P0 has shape {self.P0.shape}, expected {(X, X, A)}")
        if self.P1.shape != (X, X, A, X):
            raise ValidationError(
                f"P1 has shape {self.P1.shape}, expected {(X, X, A, X)}"
            )
        if self.F0.shape != (X, A, k):
            raise ValidationError(f"F0 has shape {self.F0.shape}, expected {(X, A, k)}")
        if self.F1.shape != (X, A, k, X):
            raise ValidationError(
                f"F1 has shape {self.F1.shape}, expected {(X, A, k, X)}"
            )
        if self.theta is not None and self.theta.shape != (k,):
            raise ValidationError(
                f"theta has shape {self.theta.shape}, expected {(k,)}"
            )
        if self.state_labels is not None and self.state_labels.shape != (X,):
            raise ValidationError("state_labels length must equal n_states")
        for tensor, label in ((self.P0, "P0"), (self.P1, "P1"),
                              (self.F0, "F0"), (self.F1, "F1")):
            if not np.all(np.isfinite(tensor)):
                raise ValidationError(f"{label} contains non-finite entries")
        # Affinity in mu means validity over the whole simplex is equivalent
        # to validity at every vertex e_z: each vertex kernel P0 + P1[..., z]
        # must be nonnegative with columns over y summing to 1.
        for z in range(X):
            vertex = self.P0 + self.P1[:, :, :, z]
            if vertex.min() < -KERNEL_CLAMP:
                y, x, a = np.unravel_index(vertex.argmin(), vertex.shape)
                raise ValidationError(
                    f"p({y}|x={x},a={a},e_{z}) = {vertex[y, x, a]:.6g} is negative"
                )
            sums = vertex.sum(axis=0)
            bad = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
            if abs(sums[bad] - 1.0) > SIMPLEX_TOL:
                x, a = bad
                raise ValidationError(
                    f"p(.|x={x},a={a},e_{z}) sums to {sums[bad]:.6g}"
                )


def transition_kernel(spec, mu):
    """Kernel table p[y][x][a] at the given mean-field term.

    Columns over y are probability vectors; tiny negative values produced
    by the affine evaluation are clamped to 0.
    """
    return _kernel(spec, check_simplex(mu, "mu", spec.n_states))


def feature_table(spec, mu):
    """Feature table f[x][a] in R^k at the given mean-field term."""
    return _features(spec, check_simplex(mu, "mu", spec.n_states))


def cost_table(spec, mu):
    """Cost table c[x][a] = <theta, f(x,a,mu)>."""
    if spec.theta is None:
        raise MissingTheta("model has no reward weights")
    return feature_table(spec, mu) @ spec.theta


def frozen_tables(spec, mu):
    """The cost table and the kernel of the frozen-mu MDP, (cost_table,
    transition_kernel) at mu, from one check of mu."""
    if spec.theta is None:
        raise MissingTheta("model has no reward weights")
    mu = check_simplex(mu, "mu", spec.n_states)
    return _features(spec, mu) @ spec.theta, _kernel(spec, mu)


def _kernel(spec, mu):
    """transition_kernel at a mu that check_simplex has passed."""
    p = spec.P0 + np.einsum("yxaz,z->yxa", spec.P1, mu)
    return np.where((p > -KERNEL_CLAMP) & (p < 0.0), 0.0, p)


def _features(spec, mu):
    """feature_table at a mu that check_simplex has passed."""
    return spec.F0 + np.einsum("xajz,z->xaj", spec.F1, mu)


def builtin_malware(n_states, theta, q=None, beta=0.8):
    """The two malware spread models.

    2-state: action 0 from the healthy state infects with probability q,
    action 1 repairs to state 0; features (x, x*mu(1), a).
    10-state: states labelled 0.0..0.9; action 0 moves uniformly over the
    current and all worse states, action 1 resets to 0; features
    (x, x*mu_av, a) with mu_av the label-weighted mean.
    """
    theta = None if theta is None else np.asarray(theta, dtype=float)
    if n_states == 2:
        if q is None or not 0.0 < q < 1.0:
            raise BadParameter(f"2-state model needs q in (0,1), got {q}")
        X, A, k = 2, 2, 3
        P0 = np.zeros((X, X, A))
        P0[:, 0, 0] = [1.0 - q, q]
        P0[:, 1, 0] = [0.0, 1.0]
        P0[:, :, 1] = [[1.0, 1.0], [0.0, 0.0]]
        labels = np.array([0.0, 1.0])
        F1_weights = np.array([0.0, 1.0])  # x * mu(1)
        name = "malware2"
    elif n_states == 10:
        X, A, k = 10, 2, 3
        P0 = np.zeros((X, X, A))
        for x in range(X):
            P0[x:, x, 0] = 1.0 / (X - x)
            P0[0, x, 1] = 1.0
        labels = np.arange(X) / 10.0
        F1_weights = labels  # x * mu_av with mu_av = <labels, mu>
        name = "malware10"
    else:
        raise BadParameter(f"unsupported n_states {n_states}; use 2 or 10")

    # Neither kernel depends on mu, but both are stored in the degree-one
    # form p(y|x,a,mu) = sum_z mu(z) p0(y|x,a) instead of a constant P0
    # block. Both forms agree on the simplex; off the simplex the
    # degree-one form scales with the mass of mu, which pins every root of
    # the equilibrium KKT system to mass one. Under the constant encoding
    # the KKT system also has spurious roots of total mass far above one
    # and the interior-point iteration reliably runs into them.
    P1 = np.repeat(P0[:, :, :, None], X, axis=3)
    P0 = np.zeros((X, X, A))
    F0 = np.zeros((X, A, k))
    F1 = np.zeros((X, A, k, X))
    for x in range(X):
        for a in range(A):
            F0[x, a] = [labels[x], 0.0, float(a)]
            F1[x, a, 1] = labels[x] * F1_weights
    return ModelSpec(
        n_states=X, n_actions=A, feature_dim=k, beta=beta,
        P0=P0, P1=P1, F0=F0, F1=F1, theta=theta, state_labels=labels, name=name,
    )


def dump_model(spec):
    """Serialize a ModelSpec to the JSON document format."""
    doc = {
        "n_states": spec.n_states,
        "n_actions": spec.n_actions,
        "feature_dim": spec.feature_dim,
        "beta": spec.beta,
        "P0": spec.P0.tolist(),
        "P1": spec.P1.tolist(),
        "F0": spec.F0.tolist(),
        "F1": spec.F1.tolist(),
    }
    if spec.theta is not None:
        doc["theta"] = spec.theta.tolist()
    if spec.state_labels is not None:
        doc["state_labels"] = spec.state_labels.tolist()
    return json.dumps(doc, indent=2)


def load_model(document):
    """Parse and validate a model document (JSON text)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    try:
        X = int(doc["n_states"])
        A = int(doc["n_actions"])
        k = int(doc["feature_dim"])
        beta = float(doc["beta"])
        P0 = np.asarray(doc["P0"], dtype=float)
        F0 = np.asarray(doc["F0"], dtype=float)
    except KeyError as exc:
        raise ParseError(f"missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed field: {exc}") from exc
    try:
        P1 = (np.asarray(doc["P1"], dtype=float) if "P1" in doc
              else np.zeros((X, X, A, X)))
        F1 = (np.asarray(doc["F1"], dtype=float) if "F1" in doc
              else np.zeros((X, A, k, X)))
        theta = np.asarray(doc["theta"], dtype=float) if "theta" in doc else None
        labels = (np.asarray(doc["state_labels"], dtype=float)
                  if "state_labels" in doc else None)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed field: {exc}") from exc
    return ModelSpec(
        n_states=X, n_actions=A, feature_dim=k, beta=beta,
        P0=P0, P1=P1, F0=F0, F1=F1, theta=theta, state_labels=labels,
    )
