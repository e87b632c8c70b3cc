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

Zero-shot (a block of users at a time) and item-CF build unit-norm query rows
and rank them against the unit item rows with sparse.score_top_k. The cosine of
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
from .sparse import score_top_k


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
    target = np.full(ds.num_users, -1)
    target[ds.test[:, 0]] = ds.test[:, 1]
    ranked = target >= 0
    indptr, items = items_by_user(ds.train[ranked[ds.train[:, 0]]], ds.num_users)
    users = np.flatnonzero(ranked & (np.diff(indptr) > 0))
    unit, tops = unit_rows(feat.data)[0], []
    for start in range(0, len(users), 2048):  # query rows: 12 MB at a time at 768-d
        # ascending items: the mean must not depend on interaction order
        history = [items[indptr[u]:indptr[u + 1]] for u in users[start:start + 2048]]
        queries = np.zeros((len(history), feat.dim))
        for row, seen in zip(queries, history):
            user_feat = feat.data[seen].mean(axis=0)
            norm = np.linalg.norm(user_feat)
            row[:] = user_feat / norm if norm > 0.0 else user_feat
        tops += score_top_k(queries, unit, history, max(cfg.ks))
    report = ranked_report(tops, target[users, None], cfg.ks,
                           skipped=ds.num_users - len(users))
    report.extras["protocol"] = "zero_shot"
    return report


_ITEM_BLOCK = 512  # items per sparse block R[:, block]^T R


def itemcf_score(ds: Dataset) -> np.ndarray:
    """Each item's partner: the argmax over j != i of the train co-occurrence
    cosine |U_i & U_j| / sqrt(|U_i| |U_j|), ties to the lower index, -1 if
    all are 0. The rows R[:, block]^T R of the user-item matrix come a block
    of items at a time, as CSR; each row's maximum and its lowest column are
    reduced over the row's stored entries, the only nonzero cosines."""
    r = sp.csr_matrix((np.ones(len(ds.train)), (ds.train[:, 0], ds.train[:, 1])),
                      shape=(ds.num_users, ds.num_items))
    r_cols = r.tocsc()
    deg = np.bincount(ds.train[:, 1], minlength=ds.num_items).astype(np.float64)
    partner = np.full(ds.num_items, -1)
    for start in range(0, ds.num_items, _ITEM_BLOCK):
        co = r_cols[:, start:start + _ITEM_BLOCK].T @ r  # CSR
        sizes = np.diff(co.indptr)
        rows = np.repeat(np.arange(start, start + sizes.size), sizes)
        cols, cosine = co.indices, co.data
        cosine /= np.sqrt(deg[rows] * deg[cols])
        cosine[cols == rows] = 0.0
        filled = np.flatnonzero(sizes)  # an item with no train user has an empty row
        best = np.maximum.reduceat(cosine, co.indptr[filled])
        at_best = cosine == np.repeat(best, sizes[filled])
        lowest = np.minimum.reduceat(np.where(at_best, cols, ds.num_items), co.indptr[filled])
        partner[start + filled[best > 0.0]] = lowest[best > 0.0]
    return partner


def itemcf_eval(feat: FeatureMatrix, ds: Dataset, cfg: ProtocolConfig) -> EvalReport:
    """Recall of each item's best co-occurrence partner among feature-similar
    candidates."""
    if feat.rows != ds.num_items:
        raise DimensionError(f"feature rows {feat.rows} != items {ds.num_items}")
    partner = itemcf_score(ds)
    unit = unit_rows(feat.data)[0]
    tops = score_top_k(unit, unit, np.arange(ds.num_items)[:, None], max(cfg.ks))
    js = np.flatnonzero(partner >= 0)
    report = ranked_report([tops[j] for j in js], partner[js, None], cfg.ks,
                           skipped=ds.num_items - len(js))
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
