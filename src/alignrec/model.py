"""Trainable parameters and the representation-building forward pass.

The computation graph is fixed:

    h_id          = mean of L+1 propagation layers of the ID embeddings
                    over the normalized bipartite adjacency [[0, R], [R^T, 0]],
                    R = inter_norm: users take R @ items, items take R^T @ users
    h_con[i]      = item_emb[i] * logistic(mlp(feat[i]))   (elementwise gate)
    h_mm_items    = sim @ h_con                            (one layer)
    h_mm_users    = inter_norm @ h_mm_items
    h_items       = h_mm_items + h_id_items
    h_users       = h_mm_users + h_id_users

ForwardPass caches the intermediates so losses can push gradients with
respect to any representation back to the parameters through `backward`.
The bipartite adjacency is symmetric, which lets the backward pass reuse the
same propagation routine for the embedding gradient. Every R^T and sim^T
product is taken implicitly from the matrix's own rows (R.tdot, sim.tdot),
adding in the row order of the explicit transpose, so it keeps the bits of
R^T's rows while reading the dense operand in order. Each propagation layer
runs R^T @ h_u, then R @ h_i, on the calling thread; the package starts no
thread of its own.
`forward` computes the user side at sorted distinct users U from the slice
R[U], which `backward` reuses for its user-side R^T products: a train batch's
users, keeping each row's bits, or for the full pass that rankings take
(users=None) all users, with R itself as the slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from .errors import DimensionError
from .features import FeatureMatrix
from .graphs import GraphBundle
from .sparse import SparseMatrix

PARAM_NAMES = ("user_emb", "item_emb", "gate_w1", "gate_b1", "gate_w2", "gate_b2")


@dataclass
class ModelParams:
    user_emb: np.ndarray  # num_users x d_e
    item_emb: np.ndarray  # num_items x d_e
    gate_w1: np.ndarray   # d_f x d_h
    gate_b1: np.ndarray   # d_h
    gate_w2: np.ndarray   # d_h x d_e
    gate_b2: np.ndarray   # d_e

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: getattr(self, name).copy() for name in PARAM_NAMES})

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(getattr(self, name))) for name in PARAM_NAMES)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(num_users: int, num_items: int, d_e: int, d_f: int, d_h: int,
                rng: np.random.Generator) -> ModelParams:
    """Seed-controlled Xavier-uniform matrices, zero biases."""
    return ModelParams(
        user_emb=xavier_uniform(rng, (num_users, d_e)),
        item_emb=xavier_uniform(rng, (num_items, d_e)),
        gate_w1=xavier_uniform(rng, (d_f, d_h)),
        gate_b1=np.zeros(d_h),
        gate_w2=xavier_uniform(rng, (d_h, d_e)),
        gate_b2=np.zeros(d_e),
    )


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}


@dataclass
class Representations:
    """The representations of a forward pass; a zeroed instance is also the
    one gradient accumulator in representation space, which the losses of an
    objective add their weighted gradients into before one `backward` call
    chains the total to the parameters."""

    h_id_users: np.ndarray
    h_id_items: np.ndarray
    h_mm_items: np.ndarray
    h_mm_users: np.ndarray
    h_users: np.ndarray
    h_items: np.ndarray


def lightgcn_propagate(inter_norm: SparseMatrix, users: np.ndarray, items: np.ndarray,
                       layers: int,
                       user_rows: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the (users, items) embeddings and their `layers` successive
    propagations over [[0, R], [R^T, 0]]: (h_u, h_i) <- (R @ h_i, R^T @ h_u),
    on the calling thread; each layer takes R^T @ h_u first (R.tdot, the bits
    of the explicit transpose) and drops h_u before R @ h_i makes its
    successor. With user_rows = (U, R[U]), U sorted distinct users (all
    users, with R, by default), a full-size `users` gives the user mean at U
    (last R product from R[U]); the rows U of a `users` zero elsewhere give
    it full size (first R^T product from R[U])."""
    scatter = user_rows is not None and users.shape[0] != inter_norm.rows
    rows, r_rows = user_rows or (np.arange(len(users)), inter_norm)
    if scatter:
        acc_u = np.zeros((inter_norm.rows, users.shape[1]))
        acc_u[rows] = users
    else:
        acc_u = users[rows]
    acc_i = items.copy()
    h_u, h_i = users, items
    for layer in range(layers):
        last = not scatter and layer == layers - 1
        h_t = (r_rows if scatter and not layer else inter_norm).tdot(h_u)
        del h_u  # one user-side array at a time besides the mean
        h_u, h_i = (r_rows if last else inter_norm).dot(h_i), h_t
        acc_u += h_u if len(h_u) == len(acc_u) else h_u[rows]
        acc_i += h_i
    acc_u /= layers + 1
    acc_i /= layers + 1
    return acc_u, acc_i


def content_gate(params: ModelParams, feat: FeatureMatrix) -> np.ndarray:
    """item_emb gated by logistic(mlp(feature)); convenience wrapper that
    discards the cache."""
    if feat.dim != params.gate_w1.shape[0]:
        raise DimensionError(
            f"feature dim {feat.dim} does not match gate input {params.gate_w1.shape[0]}")
    return _gate_forward(params, feat.data)[0]


def _gate_forward(params: ModelParams, feat_data: np.ndarray):
    z1 = feat_data @ params.gate_w1 + params.gate_b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.gate_w2 + params.gate_b2
    gate = expit(z2)
    h_con = params.item_emb * gate
    return h_con, a1, gate


def item_multimodal(sim: SparseMatrix, h_con_items: np.ndarray) -> np.ndarray:
    return sim.dot(h_con_items)


def user_multimodal(inter_norm: SparseMatrix, h_mm_items: np.ndarray) -> np.ndarray:
    return inter_norm.dot(h_mm_items)


def _check_shapes(params: ModelParams, graphs: GraphBundle, feat: FeatureMatrix) -> None:
    """Raise DimensionError unless every tensor fits the graphs' users and
    items, the feature width and the d_e and d_h the biases imply."""
    d_e, d_h = params.gate_b2.size, params.gate_b1.size
    need = [(graphs.inter_norm.rows, d_e), (graphs.inter_norm.cols, d_e), (feat.dim, d_h),
            (d_h,), (d_h, d_e), (d_e,)]
    for name, shape in zip(PARAM_NAMES, need):
        if getattr(params, name).shape != shape:
            raise DimensionError(f"parameter {name} has shape "
                                 f"{getattr(params, name).shape}, the data needs {shape}")


@dataclass
class ForwardPass:
    """Representations plus everything needed to run the backward pass."""

    reps: Representations
    params: ModelParams
    graphs: GraphBundle
    feat: FeatureMatrix
    layers: int
    _user_rows: tuple = field(repr=False)  # (U, R[U]): the user side at U
    _a1: np.ndarray = field(repr=False)
    _gate: np.ndarray = field(repr=False)

    def zero_rep_grads(self) -> Representations:
        return Representations(**{f.name: np.zeros(getattr(self.reps, f.name).shape)
                                  for f in fields(Representations)})

    def user_rows(self, users: np.ndarray) -> np.ndarray:
        """The rows of the user-side representations that hold `users`."""
        return np.searchsorted(self._user_rows[0], users)

    def backward(self, g: Representations) -> dict[str, np.ndarray]:
        """Chain representation-space gradients back to parameter space."""
        p = self.params
        d_mm_users = g.h_mm_users + g.h_users
        d_id_users = g.h_id_users + g.h_users
        d_mm_items = g.h_mm_items + g.h_items + self._user_rows[1].tdot(d_mm_users)
        d_id_items = g.h_id_items + g.h_items
        d_con = self.graphs.sim.tdot(d_mm_items)
        # propagation path; [[0, R], [R^T, 0]] is symmetric, so the
        # transposed chain is the same propagation applied to the output
        # gradient. It runs before the gradients are allocated, so the
        # full-size user arrays it makes are not held beside them.
        d_users, d_items = lightgcn_propagate(self.graphs.inter_norm, d_id_users, d_id_items,
                                              self.layers, self._user_rows)
        grads = zero_grads(p)

        # gate path
        grads["item_emb"] += self._gate * d_con
        d_z2 = (p.item_emb * d_con) * self._gate * (1.0 - self._gate)
        grads["gate_w2"] += self._a1.T @ d_z2
        grads["gate_b2"] += d_z2.sum(axis=0)
        d_a1 = d_z2 @ p.gate_w2.T
        d_z1 = d_a1 * (self._a1 > 0.0)  # a1 = max(z1, 0) > 0 exactly where z1 > 0
        grads["gate_w1"] += self.feat.data.T @ d_z1
        grads["gate_b1"] += d_z1.sum(axis=0)

        grads["user_emb"] += d_users
        grads["item_emb"] += d_items
        return grads


def forward(params: ModelParams, graphs: GraphBundle, feat: FeatureMatrix,
            layers: int, users: np.ndarray | None = None) -> ForwardPass:
    """The representation pipeline and its intermediates, the user side at
    `users` (all users if None)."""
    if layers < 0:
        raise DimensionError(f"layer count must be >= 0, got {layers}")
    _check_shapes(params, graphs, feat)
    R = graphs.inter_norm
    rows = (np.arange(R.rows), R) if users is None else (users, R.take_rows(users))
    h_id_users, h_id_items = lightgcn_propagate(R, params.user_emb, params.item_emb,
                                                layers, rows)

    h_con, a1, gate = _gate_forward(params, feat.data)
    h_mm_items = item_multimodal(graphs.sim, h_con)
    h_mm_users = user_multimodal(rows[1], h_mm_items)

    reps = Representations(
        h_id_users=h_id_users, h_id_items=h_id_items,
        h_mm_items=h_mm_items, h_mm_users=h_mm_users,
        h_users=h_mm_users + h_id_users, h_items=h_mm_items + h_id_items)
    return ForwardPass(reps=reps, params=params, graphs=graphs, feat=feat, layers=layers,
                       _user_rows=rows, _a1=a1, _gate=gate)
