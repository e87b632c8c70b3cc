"""Mini-batch optimization loop with negative sampling and early stopping.

An epoch is one pass over the shuffled train interactions. After every epoch
the validation split is scored with all-ranking Recall@20; the parameters
returned by fit are the ones from the best validation epoch (first epoch on
ties), not the last.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, TrainingDivergedError
from .evaluator import evaluate
from .features import FeatureMatrix
from .graphs import GraphBundle
from .losses import BatchSample, LossWeights, total_loss
from .model import ModelParams, forward, init_params
from .optim import make_optimizer


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 2048
    max_epochs: int = 1000
    patience: int = 20
    weights: LossWeights = field(default_factory=LossWeights)
    gcn_layers: int = 2
    k_prime: int = 10
    d_e: int = 64
    d_h: int = 64
    seed: int = 2024
    optimizer: str = "adam"
    lr_decay: float = 1.0   # per-epoch multiplicative factor; 1.0 keeps lr constant

    def __post_init__(self):
        # a zero learning rate is allowed so smoke configs can verify the null
        # update; d_e and d_h are the [train] keys embed_dim and mlp_hidden
        for name, low in (("batch_size", 1), ("patience", 1), ("learning_rate", 0),
                          ("max_epochs", 1), ("gcn_layers", 0), ("k_prime", 1),
                          ("d_e", 1), ("d_h", 1), ("lr_decay", 0), ("seed", 0)):
            # the chained form is false for NaN, so NaN and inf both fail
            if not low <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= {low}, got {getattr(self, name)}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer '{self.optimizer}'")


@dataclass
class TrainState:
    params: ModelParams
    optimizer: object
    rng: np.random.Generator
    epoch: int = 0
    best_metric: float = -np.inf
    best_epoch: int = -1
    counters: dict = field(default_factory=dict)


def sample_batch(ds: Dataset, rng: np.random.Generator, batch_size: int,
                 user_train: np.ndarray | None = None) -> BatchSample:
    """Draw batch_size train interactions without replacement plus one
    rejection-sampled negative each."""
    n = len(ds.train)
    if n == 0:
        raise DataError("train split is empty")
    if user_train is None:
        user_train = ds.user_train_items()
    rows = rng.choice(n, size=min(batch_size, n), replace=False)
    return _batch_at(ds, rows, rng, user_train)


def _batch_at(ds: Dataset, rows: np.ndarray, rng: np.random.Generator,
              user_train: np.ndarray) -> BatchSample:
    """The train interactions at `rows`, each with a uniform negative whose key
    user * num_items + item is not in the sorted ban list `user_train`. Rows take
    draws from one stream in order, a banned draw used up: the values and RNG
    state of one scalar rng.integers per try, as numpy's rng.integers(n, size=k)
    equals k scalar calls. Each refill draws one value per row still open, never
    more than the rows need. Draws are checked 128 at a time."""
    users = ds.train[rows, 0]
    n = ds.num_items
    base = users * n
    full = np.searchsorted(user_train, base + n) - np.searchsorted(user_train, base) >= n
    if full.any():
        raise DataError(f"user {users[full][0]} interacts with every item; cannot sample a negative")
    neg = np.empty(len(rows), dtype=np.int64)
    r = 0
    while r < len(rows):
        draws = rng.integers(n, size=len(rows) - r)
        d = 0
        while d < len(draws):
            cand = draws[d:d + 128]
            keys = base[r:r + len(cand)] + cand
            banned = np.searchsorted(user_train, keys, "right") > np.searchsorted(user_train, keys)
            q = int(banned.argmax()) if banned.any() else len(cand)
            neg[r:r + q] = cand[:q]
            r += q
            d += min(q + 1, len(cand))  # a banned draw is used up
    return BatchSample(users=users, pos_items=ds.train[rows, 1], neg_items=neg)


def _epoch_batches(ds: Dataset, rng: np.random.Generator, batch_size: int,
                   user_train: np.ndarray):
    perm = rng.permutation(len(ds.train))
    for start in range(0, len(perm), batch_size):
        yield _batch_at(ds, perm[start:start + batch_size], rng, user_train)


def train_epoch(state: TrainState, ds: Dataset, graphs: GraphBundle,
                feat: FeatureMatrix, cfg: TrainConfig,
                user_train: np.ndarray | None = None) -> dict:
    """One optimization pass; returns the per-loss epoch means."""
    if user_train is None:
        user_train = ds.user_train_items()
    state.optimizer.lr = cfg.learning_rate * cfg.lr_decay ** state.epoch
    sums = {"total": 0.0, "bpr": 0.0, "cca": 0.0, "uia": 0.0, "reg": 0.0}
    seen = 0
    for b, batch in enumerate(_epoch_batches(ds, state.rng, cfg.batch_size, user_train)):
        # overflow inside a diverging step is reported through the explicit
        # check below, not as a numpy warning
        with np.errstate(all="ignore"):
            fp = forward(state.params, graphs, feat, cfg.gcn_layers, batch.distinct_users)
            value, grads, parts = total_loss(fp, feat, batch, cfg.weights, state.counters)
        if not np.isfinite(value) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            raise TrainingDivergedError(
                f"non-finite loss or gradient at epoch {state.epoch} batch {b}")
        state.optimizer.step(state.params, grads)
        sums["total"] += value * len(batch)
        for name in ("bpr", "cca", "uia", "reg"):
            sums[name] += parts[name] * len(batch)
        seen += len(batch)
    if not state.params.all_finite():
        raise TrainingDivergedError(f"non-finite parameter after epoch {state.epoch}")
    state.epoch += 1
    return {f"loss_{k}": v / seen for k, v in sums.items()}


def fit(ds: Dataset, graphs: GraphBundle, feat: FeatureMatrix, cfg: TrainConfig,
        checkpoint_hook=None) -> tuple[ModelParams, list[dict]]:
    """Train until max_epochs or patience exhausted; return the parameters of
    the best validation epoch and the per-epoch log records.

    checkpoint_hook(tag, params, state) is invoked with tag "best" whenever
    validation improves and with "final" or "failed" on exit.
    """
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, sample_ss = ss.spawn(2)
    params = init_params(ds.num_users, ds.num_items, cfg.d_e, feat.dim, cfg.d_h,
                         np.random.default_rng(init_ss))
    state = TrainState(params=params,
                       optimizer=make_optimizer(cfg.optimizer, params, cfg.learning_rate),
                       rng=np.random.default_rng(sample_ss))
    user_train = ds.user_train_items()
    best_params = params.copy()
    log: list[dict] = []
    try:
        for _ in range(cfg.max_epochs):
            t0 = time.perf_counter()
            record = train_epoch(state, ds, graphs, feat, cfg, user_train)
            fp = forward(state.params, graphs, feat, cfg.gcn_layers)
            report = evaluate(fp.reps, ds, "val", (20,))
            record.update({
                "epoch": state.epoch,
                "val_recall@20": report.recall[20],
                "val_ndcg@20": report.ndcg[20],
                "wall_time": time.perf_counter() - t0,
            })
            log.append(record)
            if report.recall[20] > state.best_metric:
                state.best_metric = report.recall[20]
                state.best_epoch = state.epoch
                best_params = state.params.copy()
                if checkpoint_hook is not None:
                    checkpoint_hook("best", best_params, state)
            if state.epoch - state.best_epoch >= cfg.patience:
                break
    except TrainingDivergedError:
        if checkpoint_hook is not None:
            checkpoint_hook("failed", state.params, state)
        raise
    if checkpoint_hook is not None:
        checkpoint_hook("final", state.params, state)
    return best_params, log


def format_log_record(record: dict, include_timing: bool = False) -> str:
    """Render one epoch record as a key=value line. Timing is kept out of the
    persisted log so repeated runs produce identical bytes."""
    keys = ["epoch", "loss_total", "loss_bpr", "loss_cca", "loss_uia", "loss_reg",
            "val_recall@20", "val_ndcg@20"]
    if include_timing:
        keys.append("wall_time")
    parts = []
    for key in keys:
        value = record[key]
        parts.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return " ".join(parts)
