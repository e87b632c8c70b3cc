"""Feature-quality protocols that rank with raw features and no trained
parameters.

zero-shot
    Temporal split required: the held-out most recent item per user is the
    target, so a split with more than one test item for a user is rejected.
    A user's feature is the unweighted mean of the history items' rows;
    candidates are all items except the history, ranked by cosine.

item-CF
    Co-occurrence cosine between item user-sets over train interactions is
    the reference signal. For each item the highest-scoring partner is the
    target; candidates are all other items ranked by feature cosine.

mask-modality
    Replaces a seeded uniform sample of item rows with externally supplied
    single-modality rows, then reruns one of the base protocols on the
    composite matrix.

Zero-shot and item-CF build their unit-norm query rows into one matrix and
rank them against the unit item rows with sparse.score_top_k. The cosine of
an item is its canonical score np.sum(unit[i] * query): it does not depend on
the BLAS kernel or its thread count, and the GEMM that screens the candidates
runs on the BLAS threads. The Recall@K / NDCG@K report comes from the
evaluator's ranked_report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Dataset, items_by_user
from .errors import ConfigError, DimensionError
from .evaluator import EvalReport, check_ks, ranked_report
from .features import FeatureMatrix, unit_rows
from .sparse import SparseMatrix, score_top_k


@dataclass(frozen=True)
class ProtocolConfig:
    ks: tuple[int, ...] = (10, 20, 50)
    mask_ratio: float = 0.5
    mask_seed: int = 2024

    def __post_init__(self):
        check_ks(self.ks, "[protocol] ks")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1], got {self.mask_ratio}")
        if self.mask_seed < 0:
            raise ConfigError(f"mask_seed must be >= 0, got {self.mask_seed}")


def zero_shot_eval(feat: FeatureMatrix, ds: Dataset, cfg: ProtocolConfig) -> EvalReport:
    """Recall of each user's held-out item among feature-similar candidates."""
    if feat.rows != ds.num_items:
        raise DimensionError(f"feature rows {feat.rows} != items {ds.num_items}")
    per_user = np.bincount(ds.test[:, 0], minlength=ds.num_users)
    if per_user.size and per_user.max() > 1:
        u = int(np.argmax(per_user))
        raise ConfigError(
            "zero-shot needs one test item per user (a temporal-leave-one-out split), "
            f"but user '{ds.user_keys[u]}' has {per_user[u]}")
    target = {int(u): int(i) for u, i in ds.test}
    ranked = np.zeros(ds.num_users, dtype=bool)
    ranked[ds.test[:, 0]] = True
    train_items = items_by_user(ds.train[ranked[ds.train[:, 0]]], ds.num_users)
    users = [u for u in range(ds.num_users) if u in target and train_items[u]]
    # canonical order: the mean must not depend on interaction order
    history = [sorted(train_items[u]) for u in users]
    queries = np.zeros((len(users), feat.dim))
    for row, items in zip(queries, history):
        user_feat = feat.data[items].mean(axis=0)
        norm = np.linalg.norm(user_feat)
        row[:] = user_feat / norm if norm > 0.0 else user_feat
    tops = score_top_k(queries, unit_rows(feat.data)[0], history, max(cfg.ks))
    report = ranked_report(tops, ({target[u]} for u in users), cfg.ks,
                           skipped=ds.num_users - len(users))
    report.extras["protocol"] = "zero_shot"
    return report


def itemcf_score(ds: Dataset) -> SparseMatrix:
    """Co-occurrence cosine |U_i & U_j| / sqrt(|U_i| |U_j|) over train
    interactions, diagonal excluded."""
    r = sp.csr_matrix(
        (np.ones(len(ds.train)), (ds.train[:, 0], ds.train[:, 1])),
        shape=(ds.num_users, ds.num_items))
    co = sp.csr_matrix(r.T @ r)  # the CSC to CSR conversion sorts each row
    co.sort_indices()
    rows = np.repeat(np.arange(ds.num_items), np.diff(co.indptr))
    keep = co.indices != rows
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    indptr = kept_before[co.indptr]
    rows, cols = rows[keep], co.indices[keep].astype(np.int64)
    deg = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
    values = co.data[keep] / np.sqrt(deg[rows] * deg[cols])
    return SparseMatrix(ds.num_items, ds.num_items, indptr, cols, values)


def itemcf_eval(feat: FeatureMatrix, ds: Dataset, cfg: ProtocolConfig) -> EvalReport:
    """Recall of each item's best co-occurrence partner among feature-similar
    candidates."""
    if feat.rows != ds.num_items:
        raise DimensionError(f"feature rows {feat.rows} != items {ds.num_items}")
    scores_cf = itemcf_score(ds)
    target: dict[int, int] = {}
    for j in range(ds.num_items):
        cols, vals = scores_cf.row(j)
        if cols.size:
            target[j] = int(cols[np.argmax(vals)])  # columns sorted, so ties hit the lower index
    unit = unit_rows(feat.data)[0]
    js = list(target)
    tops = score_top_k(unit[js], unit, [(j,) for j in js], max(cfg.ks))
    report = ranked_report(tops, ({target[j]} for j in js), cfg.ks,
                           skipped=ds.num_items - len(target))
    report.extras["protocol"] = "item_cf"
    return report


# the protocols that rank with the unmasked matrix; mask_modality reruns one
BASE_PROTOCOLS = {"zero_shot": zero_shot_eval, "item_cf": itemcf_eval}


def compose_masked(primary: FeatureMatrix, masked: FeatureMatrix,
                   mask_ratio: float, mask_seed: int) -> tuple[FeatureMatrix, int]:
    if masked.data.shape != primary.data.shape:
        raise DimensionError(
            f"masked feature shape {masked.data.shape} != primary {primary.data.shape}")
    n_mask = int(np.floor(mask_ratio * primary.rows))
    data = primary.data.copy()
    if n_mask > 0:
        rng = np.random.default_rng(mask_seed)
        rows = rng.choice(primary.rows, size=n_mask, replace=False)
        data[rows] = masked.data[rows]
    return FeatureMatrix(data), n_mask


def mask_modality_eval(primary: FeatureMatrix, masked: FeatureMatrix,
                       cfg: ProtocolConfig, base: str, ds: Dataset) -> EvalReport:
    """Run a base protocol on the primary matrix with a seeded fraction of
    rows swapped for the masked-modality rows."""
    if base not in BASE_PROTOCOLS:
        raise ConfigError(f"unknown base protocol '{base}'")
    composite, n_mask = compose_masked(primary, masked, cfg.mask_ratio, cfg.mask_seed)
    report = BASE_PROTOCOLS[base](composite, ds, cfg)
    report.extras["protocol"] = f"mask_modality:{base}"
    report.extras["mask_ratio"] = cfg.mask_ratio
    report.extras["mask_seed"] = cfg.mask_seed
    report.extras["masked_rows"] = n_mask
    return report
