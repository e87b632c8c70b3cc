"""Sparse operators the model propagates over.

Two matrices are derived from a dataset and its feature matrix, and each is
stored together with its transpose:

* inter_norm (R): user-rows by item-cols matrix of train edges, entry
  (u, i) = 1 / sqrt(deg(u) * deg(i)). It is the off-diagonal block of the
  symmetric degree-normalized bipartite adjacency [[0, R], [R^T, 0]], so R
  and R^T together apply that adjacency to user and item halves.
* sim: item-item similarity graph. Cosine similarities per row are pruned to
  the k' largest off-diagonal entries (ties to the lower index), negatives
  clamped to zero, then symmetrically normalized by row-sum degrees. Pruning
  is per row, so sim is not symmetric in general. The cosines come from one
  GEMM per 512-row block, and `sparse.block_top_k` (this build's alone) keeps
  in each row exactly what `top_k` keeps, with the row's own item excluded.

All four are built once from frozen inputs and never updated during
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, InternalInvariantError
from .features import FeatureMatrix
from .sparse import SparseMatrix, block_top_k

_SIM_CHUNK = 512


@dataclass(frozen=True)
class GraphBundle:
    inter_norm: SparseMatrix  # num_users x num_items
    inter_t: SparseMatrix     # inter_norm transposed, num_items x num_users
    sim: SparseMatrix         # num_items x num_items
    sim_t: SparseMatrix       # sim transposed


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

    Selection keeps the k' largest off-diagonal cosines per row before any
    clamping, ties to the lower index, so a row whose best candidates are
    all nonpositive ends up empty. The cosines come a 512-row block at a
    time from one GEMM, and `sparse.block_top_k` selects the whole block
    with each row's own item excluded: the result equals `top_k` on every
    row, bit for bit.
    """
    n = feat.rows
    if n < 2:
        raise ConfigError(f"similarity graph needs at least 2 items, got {n}")
    if k_prime < 1:
        raise ConfigError(f"k_prime must be >= 1, got {k_prime}")
    if k_prime >= n:
        raise ConfigError(f"k_prime {k_prime} must be smaller than the item count {n}")
    norms = np.linalg.norm(feat.data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"zero-norm feature row for item {int(zero[0])}")
    unit = feat.data / norms[:, None]

    rows_out, cols_out, vals_out = [], [], []
    for start in range(0, n, _SIM_CHUNK):
        stop = min(start + _SIM_CHUNK, n)
        block = unit[start:stop] @ unit.T
        cols = np.array(block_top_k(block, np.arange(start, stop)[:, None], k_prime))
        vals = np.take_along_axis(block, cols, axis=1)
        pos = vals > 0.0
        rows_out.append(np.repeat(np.arange(start, stop), pos.sum(axis=1)))
        cols_out.append(cols[pos])
        vals_out.append(vals[pos])
    rows_arr = np.concatenate(rows_out)
    cols_arr = np.concatenate(cols_out)
    vals_arr = np.concatenate(vals_out)

    deg = np.zeros(n, dtype=np.float64)
    np.add.at(deg, rows_arr, vals_arr)
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
    return GraphBundle(inter_norm=inter, inter_t=inter.transpose(),
                       sim=sim, sim_t=sim.transpose())
