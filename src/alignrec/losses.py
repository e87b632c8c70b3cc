"""Training losses and their gradients with respect to the model parameters.

Each public loss returns (value, grads) where grads is a dict keyed like
ModelParams. Internally every loss adds its weighted gradient in
representation space into one accumulator, a zeroed Representations,
touching only the rows it uses (_row_sums adds a repeated row's terms from
+0.0 in order, as np.add.at into zeros); ForwardPass.backward chains the accumulator
to the parameters. The combined objective has its four losses add into the
same accumulator and runs a single backward pass, which by linearity equals
the weighted sum of the component parameter gradients.

Conventions fixed here:

* All batch reductions are arithmetic means, so loss weights do not change
  meaning with batch size.
* The ranking loss is the negative log-sigmoid of the score margin
  (softplus of the negated margin), minimized.
* The alignment InfoNCE operates on L2-normalized vectors; the temperature
  only has a stable meaning on a bounded similarity scale. Candidate sets
  are the distinct positive items and distinct users of the batch, positives
  included in the denominator.
* The similarity regularizer averages over all distinct unordered item
  pairs in the batch; the feature-side cosine is input data and receives no
  gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import sorted_distinct
from .errors import ConfigError, DataError
from .features import FeatureMatrix, unit_rows
from .model import ForwardPass, Representations


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.01    # content-category alignment
    beta: float = 0.1      # user-item alignment
    lambda_: float = 0.1   # similarity regularizer
    tau: float = 0.2       # InfoNCE temperature

    def __post_init__(self):
        # alpha/beta/lambda may be zero for ablation runs; tau must not be
        # NaN fails every chained comparison, inf fails the upper bound
        for name in ("alpha", "beta", "lambda_"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"loss weight {name} must be finite and >= 0, "
                                  f"got {getattr(self, name)}")
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.tau}")


@dataclass(frozen=True)
class BatchSample:
    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __post_init__(self):
        if not (len(self.users) == len(self.pos_items) == len(self.neg_items)):
            raise DataError("batch index arrays must have equal length")
        if len(self.users) == 0:
            raise DataError("empty batch")

    def __len__(self) -> int:
        return len(self.users)

    distinct_users = cached_property(lambda self: sorted_distinct(self.users))
    distinct_items = cached_property(lambda self: sorted_distinct(self.pos_items))


def _row_sums(index: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `index` and the sum of each one's `rows`, added from
    +0.0 in order of appearance by a unit-weight CSR product, as np.add.at into zeros."""
    unique, counts = np.unique(index, return_counts=True)
    picks = sp.csr_matrix((np.ones(len(index)), np.argsort(index, kind="stable"),
                           np.append(0, np.cumsum(counts))), shape=(len(unique), len(index)))
    return unique, picks @ rows


def _bpr_rep(fp: ForwardPass, batch: BatchSample, g: Representations) -> float:
    reps = fp.reps
    u, i, j = fp.user_rows(batch.users), batch.pos_items, batch.neg_items
    hu = reps.h_users[u]
    hi = reps.h_items[i]
    hj = reps.h_items[j]
    margin = np.sum(hi * hu, axis=1) - np.sum(hj * hu, axis=1)
    value = float(np.mean(np.logaddexp(0.0, -margin)))
    d_margin = -expit(-margin) / len(batch)
    unique, sums = _row_sums(u, d_margin[:, None] * (hi - hj))
    g.h_users[unique] += sums
    d_hu = d_margin[:, None] * hu  # -(d * hu) has the bits of (-d) * hu
    unique, sums = _row_sums(np.concatenate([i, j]), np.concatenate([d_hu, -d_hu]))
    g.h_items[unique] += sums
    return value


def _normalize_backward(d_unit, unit, norms, nz) -> np.ndarray:
    out = np.zeros_like(d_unit)
    inner = np.sum(unit[nz] * d_unit[nz], axis=1, keepdims=True)
    out[nz] = (d_unit[nz] - inner * unit[nz]) / norms[nz, None]
    return out


def _infonce_side(x: np.ndarray, y: np.ndarray, tau: float, x_rows=None):
    """Cross-entropy of matching row a of x to row a of y among all rows.

    Returns the mean loss and gradients with respect to the raw (pre
    normalization) inputs. x_rows, if given, is unit_rows(x).
    """
    n = x.shape[0]
    diag = np.arange(n)
    x_unit, x_norms, x_nz = unit_rows(x) if x_rows is None else x_rows
    y_unit, y_norms, y_nz = unit_rows(y)
    # every n x n pass runs in place on the one GEMM output
    logits = x_unit @ y_unit.T
    logits /= tau
    logits -= logits.max(axis=1, keepdims=True)
    target = logits[diag, diag]
    d_logits = np.exp(logits, out=logits)
    row_sum = d_logits.sum(axis=1)
    value = float(-np.mean(target - np.log(row_sum)))
    # d loss / d logits = (softmax - one-hot target) / n
    d_logits /= row_sum[:, None]
    d_logits[diag, diag] -= 1.0
    d_logits /= n
    d_x_unit = (d_logits @ y_unit) / tau
    d_y_unit = (d_logits.T @ x_unit) / tau
    return value, _normalize_backward(d_x_unit, x_unit, x_norms, x_nz), \
        _normalize_backward(d_y_unit, y_unit, y_norms, y_nz)


def _cca_rep(fp: ForwardPass, batch: BatchSample, tau: float,
             g: Representations, weight: float, mm_rows=None) -> float:
    reps = fp.reps
    items = batch.distinct_items
    users = fp.user_rows(batch.distinct_users)
    v_items, d_mm_i, d_id_i = _infonce_side(reps.h_mm_items[items],
                                            reps.h_id_items[items], tau, mm_rows)
    v_users, d_mm_u, d_id_u = _infonce_side(reps.h_mm_users[users],
                                            reps.h_id_users[users], tau)
    g.h_mm_items[items] += weight * d_mm_i
    g.h_id_items[items] += weight * d_id_i
    g.h_mm_users[users] += weight * d_mm_u
    g.h_id_users[users] += weight * d_id_u
    return v_items + v_users


def _reg_rep(fp: ForwardPass, feat: FeatureMatrix, batch: BatchSample,
             g: Representations, weight: float, mm_rows=None) -> float:
    reps = fp.reps
    items = batch.distinct_items
    n = items.shape[0]
    if n < 2:
        return 0.0
    x = reps.h_mm_items[items]
    x_unit, x_norms, x_nz = unit_rows(x) if mm_rows is None else mm_rows
    f_unit, _, f_nz = unit_rows(feat.data[items])
    if not np.all(f_nz):
        raise DataError("zero-norm feature row among batch items")
    cos_x = x_unit @ x_unit.T
    m = n * (n - 1) // 2
    # diff = cos_x - cos_f, over cos_f; the mask picks triu_indices' cells in order
    diff = f_unit @ f_unit.T
    np.subtract(cos_x, diff, out=diff)
    value = float(np.sum(np.abs(diff[np.triu(np.ones((n, n), dtype=bool), 1)])) / m)

    w = np.sign(diff, out=diff)
    w /= m
    np.fill_diagonal(w, 0.0)
    w[~x_nz, :] = 0.0
    w[:, ~x_nz] = 0.0
    # d/dx_c of sum_{a<b} w_ab cos(x_a, x_b):
    #   ( [w @ x_unit]_c  -  sum_b w_cb cos_cb * x_unit_c ) / |x_c|
    row_mix = w @ x_unit
    diag_coef = np.sum(np.multiply(w, cos_x, out=cos_x), axis=1, keepdims=True)
    d_x = np.zeros_like(x)
    d_x[x_nz] = (row_mix[x_nz] - diag_coef[x_nz] * x_unit[x_nz]) / x_norms[x_nz, None]
    g.h_mm_items[items] += weight * d_x
    return value


def _uia_rep(fp: ForwardPass, batch: BatchSample, g: Representations, weight: float,
             counters: dict | None = None) -> float:
    reps = fp.reps
    u, i = fp.user_rows(batch.users), batch.pos_items
    hu = reps.h_users[u]
    hi = reps.h_items[i]
    ru = np.linalg.norm(hu, axis=1)
    ri = np.linalg.norm(hi, axis=1)
    ok = (ru > 0.0) & (ri > 0.0)
    if counters is not None and np.any(~ok):
        counters["uia_zero_norm"] = counters.get("uia_zero_norm", 0) + int(np.sum(~ok))
    cos = np.zeros(len(batch))
    cos[ok] = np.sum(hu[ok] * hi[ok], axis=1) / (ru[ok] * ri[ok])
    value = float(np.mean(1.0 - cos))

    scale = -1.0 / len(batch)
    d_hu = np.zeros_like(hu)
    d_hi = np.zeros_like(hi)
    d_hu[ok] = scale * (hi[ok] / (ru[ok] * ri[ok])[:, None]
                        - (cos[ok] / ru[ok] ** 2)[:, None] * hu[ok])
    d_hi[ok] = scale * (hu[ok] / (ru[ok] * ri[ok])[:, None]
                        - (cos[ok] / ri[ok] ** 2)[:, None] * hi[ok])
    # a repeated user or item sums its terms first; the weight scales the total
    for dst, index, rows in ((g.h_users, u, d_hu), (g.h_items, i, d_hi)):
        unique, total = _row_sums(index, rows)
        dst[unique] += weight * total
    return value


def bpr_loss(fp: ForwardPass, batch: BatchSample):
    g = fp.zero_rep_grads()
    return _bpr_rep(fp, batch, g), fp.backward(g)


def cca_infonce(fp: ForwardPass, batch: BatchSample, tau: float):
    g = fp.zero_rep_grads()
    return _cca_rep(fp, batch, tau, g, 1.0), fp.backward(g)


def reg_similarity(fp: ForwardPass, feat: FeatureMatrix, batch: BatchSample):
    g = fp.zero_rep_grads()
    return _reg_rep(fp, feat, batch, g, 1.0), fp.backward(g)


def uia_cosine(fp: ForwardPass, batch: BatchSample, counters: dict | None = None):
    g = fp.zero_rep_grads()
    return _uia_rep(fp, batch, g, 1.0, counters), fp.backward(g)


def total_loss(fp: ForwardPass, feat: FeatureMatrix, batch: BatchSample,
               weights: LossWeights, counters: dict | None = None):
    """Weighted objective. Returns (value, grads, per-component values)."""
    g = fp.zero_rep_grads()
    mm_rows = unit_rows(fp.reps.h_mm_items[batch.distinct_items])
    # BPR has weight 1 and adds first, straight into the zeroed accumulator
    v_bpr = _bpr_rep(fp, batch, g)
    v_cca = _cca_rep(fp, batch, weights.tau, g, weights.alpha, mm_rows)
    v_uia = _uia_rep(fp, batch, g, weights.beta, counters)
    v_reg = _reg_rep(fp, feat, batch, g, weights.lambda_, mm_rows)
    value = v_bpr + weights.alpha * v_cca + weights.beta * v_uia + weights.lambda_ * v_reg
    parts = {"bpr": v_bpr, "cca": v_cca, "uia": v_uia, "reg": v_reg}
    return value, fp.backward(g), parts
