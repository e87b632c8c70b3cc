"""All-ranking top-K evaluation: Recall@K, NDCG@K, and the long-tail slice.

A ranked query is a score over all items, a set of excluded items and a set
of relevant items; its top is the first K non-excluded items by descending
score, ties to the lower item index. evaluate and longtail_evaluate score
each user by the inner product and select with rank_all, the exact partial
top-K of sparse.top_k (it partitions to the K-th value and sorts only the
items that reach it, so its output is the prefix of the full sort); chunks of
users are spread over a thread pool. The feature protocols rank their
queries with sparse.score_top_k and pass the tops to ranked_report. Either
way one loop turns each top into per-K recall and NDCG values. Seen
positives are masked: the train split is always excluded from the candidate
set, and the validation split is additionally excluded when scoring the test
split.

Per-user metric values are accumulated with exactly-rounded summation
(math.fsum) so reported means are reproducible bit for bit and can be checked
against an independent implementation without tolerance.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, items_by_user
from .errors import ConfigError
from .model import Representations
from .sparse import top_k

_CHUNK = 256


def max_workers() -> int:
    """Thread cap from ALIGNREC_THREADS; 0 or unset means automatic."""
    raw = os.environ.get("ALIGNREC_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"ALIGNREC_THREADS must be an integer, got '{raw}'") from None
    if value < 0:
        raise ConfigError("ALIGNREC_THREADS must be >= 0")
    if value == 0:
        return min(os.cpu_count() or 1, 8)
    return value


@dataclass
class EvalReport:
    recall: dict[int, float]
    ndcg: dict[int, float]
    users_evaluated: int
    slice_label: str = "full"
    skipped: int = 0
    extras: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"slice = {self.slice_label}",
                 f"users_evaluated = {self.users_evaluated}"]
        if self.skipped:
            lines.append(f"skipped = {self.skipped}")
        for key in sorted(self.extras):
            lines.append(f"{key} = {self.extras[key]}")
        for k in sorted(self.recall):
            lines.append(f"recall@{k} = {self.recall[k]!r}")
            lines.append(f"ndcg@{k} = {self.ndcg[k]!r}")
        return "\n".join(lines) + "\n"

    def to_line(self, tag: str) -> str:
        parts = [f"eval={tag}", f"slice={self.slice_label}",
                 f"users={self.users_evaluated}"]
        for k in sorted(self.recall):
            parts.append(f"recall@{k}={self.recall[k]!r}")
            parts.append(f"ndcg@{k}={self.ndcg[k]!r}")
        return " ".join(parts)


# the ranking kernel of evaluate; _evaluate_users calls it through this module global
rank_all = top_k


def recall_at_k(ranked, relevant: set[int], k: int) -> float:
    if not relevant:
        return 0.0
    hits = sum(1 for item in ranked[:k] if int(item) in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked, relevant: set[int], k: int) -> float:
    """Binary gain, 1/log2(rank+1) discount with ranks starting at 1, ideal
    normalization truncated at k."""
    if not relevant:
        return 0.0
    dcg = math.fsum(1.0 / math.log2(rank + 1.0)
                    for rank, item in enumerate(ranked[:k], start=1)
                    if int(item) in relevant)
    ideal = math.fsum(1.0 / math.log2(rank + 1.0)
                      for rank in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal if ideal > 0.0 else 0.0


def check_ks(ks, name: str) -> None:
    """Raise ConfigError unless `ks` holds one or more distinct positive K."""
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"{name}: needs positive K values, got {ks}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"{name}: repeated K in {ks}")


def _sorted_ks(ks) -> tuple[int, ...]:
    """The distinct K ascending; raises ConfigError unless all are positive."""
    ks = tuple(sorted(set(ks)))
    check_ks(ks, "ks")
    return ks


def _rank_metrics(tops, relevant, ks):
    """Per-K recall and NDCG lists over ranked tops, each at least ks[-1]
    long where the candidates allow, and their relevant sets; ks sorted
    ascending."""
    rec = {k: [] for k in ks}
    ndcg = {k: [] for k in ks}
    for top, rel in zip(tops, relevant):
        top = top.tolist()
        for k in ks:
            rec[k].append(recall_at_k(top[:k], rel, k))
            ndcg[k].append(ndcg_at_k(top[:k], rel, k))
    return rec, ndcg


def _report(results, ks, **fields) -> EvalReport:
    """Per-K means over the (recall, ndcg) lists of every result; zeros when
    no query was ranked."""
    recall = {k: [v for rec, _ in results for v in rec[k]] for k in ks}
    ndcg = {k: [v for _, nd in results for v in nd[k]] for k in ks}
    count = len(recall[ks[0]])

    def mean(values):
        return math.fsum(values) / count if count else 0.0

    return EvalReport(recall={k: mean(recall[k]) for k in ks},
                      ndcg={k: mean(ndcg[k]) for k in ks},
                      users_evaluated=count, **fields)


def ranked_report(tops, relevant, ks, **fields) -> EvalReport:
    """Serial report over ranked tops, each the first max(ks) candidates of
    its query or all of them, and the queries' relevant sets."""
    ks = _sorted_ks(ks)
    return _report([_rank_metrics(tops, relevant, ks)], ks, **fields)


def _split_sets(ds: Dataset, split: str) -> tuple[list[set[int]], list[set[int]]]:
    """Per-user exclusion and relevance sets for ranking a split: train is
    always excluded, and val too when ranking test."""
    seen = ds.train if split == "val" else np.concatenate([ds.train, ds.val])
    return (items_by_user(seen, ds.num_users),
            items_by_user(ds.split(split), ds.num_users))


def _evaluate_users(reps, users, exclude, relevant, ks, **fields) -> EvalReport:
    """Report over the users' inner-product rankings, chunks spread over the
    thread pool."""
    ks = _sorted_ks(ks)

    def chunk_metrics(chunk):
        tops = (rank_all(reps.h_items @ reps.h_users[u], exclude[u], ks[-1]) for u in chunk)
        return _rank_metrics(tops, (relevant[u] for u in chunk), ks)

    chunks = [users[s:s + _CHUNK] for s in range(0, len(users), _CHUNK)]
    workers = max_workers() if chunks else 1
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(chunk_metrics, chunks))
    else:
        results = [chunk_metrics(c) for c in chunks]
    return _report(results, ks, **fields)


def evaluate(reps: Representations, ds: Dataset, split: str,
             ks=(10, 20, 50)) -> EvalReport:
    """Per-user mean Recall@K / NDCG@K over users with interactions in the
    split."""
    if split not in ("val", "test"):
        raise ConfigError(f"evaluation split must be val or test, got '{split}'")
    exclude, relevant = _split_sets(ds, split)
    users = [u for u in range(ds.num_users) if relevant[u]]
    return _evaluate_users(reps, users, exclude, relevant, ks)


def longtail_evaluate(reps: Representations, ds: Dataset, ks=(10, 20, 50),
                      threshold: float = 4) -> EvalReport:
    """Test-split evaluation restricted to items with a train interaction
    count strictly below the threshold."""
    exclude, relevant = _split_sets(ds, "test")
    degrees = ds.item_train_degree
    restricted = [{i for i in rel if degrees[i] < threshold} for rel in relevant]
    users = [u for u in range(ds.num_users) if restricted[u]]
    skipped = sum(1 for u in range(ds.num_users) if relevant[u] and not restricted[u])
    return _evaluate_users(reps, users, exclude, restricted, ks,
                           slice_label="longtail", skipped=skipped)
