"""Sparse operators the model propagates over.

Two matrices are derived from a dataset and its feature matrix:

* inter_norm (R): user-rows by item-cols matrix of train edges, entry
  (u, i) = 1 / sqrt(deg(u) * deg(i)). It is the off-diagonal block of the
  symmetric degree-normalized bipartite adjacency [[0, R], [R^T, 0]], so R
  and R^T together apply that adjacency to user and item halves; R^T is
  stored as inter_t.
* sim: item-item similarity graph. Cosine similarities per row are pruned to
  the k' largest off-diagonal entries (ties to the lower index), negatives
  clamped to zero, then symmetrically normalized by row-sum degrees. Pruning
  is per row, so sim is not symmetric in general. The cosines are the
  canonical row sums np.sum(unit[j] * unit[i]) of the unit feature rows, and
  `sparse.score_top_k` selects them, as it does for the feature protocols.

All three are built once from frozen inputs and never updated during
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, InternalInvariantError
from .features import FeatureMatrix, unit_rows
from .sparse import SparseMatrix, score_top_k

# rows per product block of the kept weights (8 x k' x d floats)
_WEIGHT_ROWS = 8


@dataclass(frozen=True)
class GraphBundle:
    inter_norm: SparseMatrix  # num_users x num_items
    inter_t: SparseMatrix     # inter_norm transposed, num_items x num_users
    sim: SparseMatrix         # num_items x num_items


def build_norm_interaction(ds: Dataset) -> SparseMatrix:
    """Symmetric normalization D_u^-1/2 A D_i^-1/2 of the 0/1 train
    interaction matrix A."""
    users = ds.train[:, 0]
    items = ds.train[:, 1]
    deg_u = np.bincount(users, minlength=ds.num_users).astype(np.float64)
    deg_i = np.bincount(items, minlength=ds.num_items).astype(np.float64)
    if np.any(deg_u == 0) or np.any(deg_i == 0):
        raise InternalInvariantError("isolated node in train interactions")
    w = 1.0 / np.sqrt(deg_u[users] * deg_i[items])
    return SparseMatrix.from_coo(ds.num_users, ds.num_items, users, items, w)


def build_knn_similarity(feat: FeatureMatrix, k_prime: int) -> SparseMatrix:
    """Pruned and normalized item-item cosine graph.

    Selection keeps the k' largest off-diagonal canonical cosines per row
    before any clamping, ties to the lower index, so a row whose best
    candidates are all nonpositive ends up empty. The weights do not depend
    on the BLAS kernel or on any block shape.
    """
    n = feat.rows
    if n < 2:
        raise ConfigError(f"similarity graph needs at least 2 items, got {n}")
    if k_prime < 1:
        raise ConfigError(f"k_prime must be >= 1, got {k_prime}")
    if k_prime >= n:
        raise ConfigError(f"k_prime {k_prime} must be smaller than the item count {n}")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        unit, norms, _ = unit_rows(feat.data)
    bad = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if bad.size:
        what = "zero" if norms[bad[0]] == 0.0 else "overflowing"
        raise DataError(f"{what} L2 norm of the feature row for item {int(bad[0])}")

    cols = np.array(score_top_k(unit, unit, np.arange(n)[:, None], k_prime))
    vals_t = np.empty((k_prime, n))  # rank-major: the products broadcast over the leading axis
    for start in range(0, n, _WEIGHT_ROWS):
        stop = start + _WEIGHT_ROWS
        terms = unit[cols[start:stop].T]
        terms *= unit[start:stop]  # in place: the bits of unit[j] * unit[i]
        vals_t[:, start:stop] = terms.sum(axis=2)
    vals = vals_t.T
    pos = vals > 0.0
    rows_arr = np.repeat(np.arange(n), pos.sum(axis=1))
    cols_arr, vals_arr = cols[pos], vals[pos]

    deg = np.bincount(rows_arr, weights=vals_arr, minlength=n)  # added in order, as np.add.at
    inv_sqrt = np.zeros(n, dtype=np.float64)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    # a kept positive weight implies both endpoint degrees are positive
    scaled = vals_arr * inv_sqrt[rows_arr] * inv_sqrt[cols_arr]
    return SparseMatrix.from_coo(n, n, rows_arr, cols_arr, scaled)


def build_graphs(ds: Dataset, feat: FeatureMatrix, k_prime: int) -> GraphBundle:
    if feat.rows != ds.num_items:
        raise DataError(f"feature matrix has {feat.rows} rows for {ds.num_items} items")
    inter = build_norm_interaction(ds)
    sim = build_knn_similarity(feat, k_prime)
    return GraphBundle(inter_norm=inter, inter_t=inter.transpose(), sim=sim)
