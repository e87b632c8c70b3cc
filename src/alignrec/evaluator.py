"""All-ranking top-K evaluation: Recall@K, NDCG@K, and the long-tail slice.

A ranked query is a score over all items, a set of excluded items and a set
of relevant items; its top is the first K non-excluded items by descending
score, ties to the lower item index. evaluate and longtail_evaluate score
each user by the inner product and select with rank_all, the exact partial
top-K of sparse.top_k (it partitions to the K-th value and sorts only the
items that reach it, so its output is the prefix of the full sort); a thread
pool ranks chunks of users and hands their tops back in user order. The
feature protocols rank their queries with sparse.score_top_k. Every ranking
ends in ranked_report, one loop that turns each top into per-K recall and
NDCG values. Seen positives are masked: the train split is always excluded
from the candidate set, and the validation split is additionally excluded
when scoring the test split.

Per-user metric values are accumulated with exactly-rounded summation
(math.fsum) so reported means are reproducible bit for bit and can be checked
against an independent implementation without tolerance.
"""

from __future__ import annotations

import itertools
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
    """Threads of the evaluator's pool: the CPUs this process may run on, at
    most 8."""
    return min(len(os.sched_getaffinity(0)), 8)


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


def _hit_ranks(ranked, relevant: set[int]) -> list[int]:
    """The ranks, starting at 1, at which `ranked` holds a relevant item."""
    return [rank for rank, item in enumerate(ranked, start=1) if int(item) in relevant]


def _recall_ndcg(hits: list[int], relevant: set[int], k: int) -> tuple[float, float]:
    """Recall@k and NDCG@k of a ranking from its hit ranks. NDCG has binary
    gain, 1/log2(rank+1) discount with ranks starting at 1, ideal
    normalization truncated at k."""
    if not relevant:
        return 0.0, 0.0
    hits = [rank for rank in hits if rank <= k]
    dcg = math.fsum(1.0 / math.log2(rank + 1.0) for rank in hits)
    ideal = math.fsum(1.0 / math.log2(rank + 1.0)
                      for rank in range(1, min(k, len(relevant)) + 1))
    return len(hits) / len(relevant), dcg / ideal if ideal > 0.0 else 0.0


def recall_at_k(ranked, relevant: set[int], k: int) -> float:
    return _recall_ndcg(_hit_ranks(ranked[:k], relevant), relevant, k)[0]


def ndcg_at_k(ranked, relevant: set[int], k: int) -> float:
    return _recall_ndcg(_hit_ranks(ranked[:k], relevant), relevant, k)[1]


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


def ranked_report(tops, relevant, ks, **fields) -> EvalReport:
    """Per-K mean recall and NDCG over ranked tops, each the first max(ks)
    candidates of its query or all of them, and the queries' relevant sets;
    zeros when no query was ranked."""
    ks = _sorted_ks(ks)
    recall = {k: [] for k in ks}
    ndcg = {k: [] for k in ks}
    for top, rel in zip(tops, relevant):
        hits = _hit_ranks(top.tolist(), rel)
        for k in ks:
            r, n = _recall_ndcg(hits, rel, k)
            recall[k].append(r)
            ndcg[k].append(n)
    count = len(recall[ks[0]])

    def mean(values):
        return math.fsum(values) / count if count else 0.0

    return EvalReport(recall={k: mean(recall[k]) for k in ks},
                      ndcg={k: mean(ndcg[k]) for k in ks},
                      users_evaluated=count, **fields)


def _split_sets(ds: Dataset, split: str) -> tuple[list[set[int]], list[set[int]]]:
    """Per-user exclusion and relevance sets for ranking a split: train is
    always excluded, and val too when ranking test."""
    seen = ds.train if split == "val" else np.concatenate([ds.train, ds.val])
    return (items_by_user(seen, ds.num_users),
            items_by_user(ds.split(split), ds.num_users))


def _evaluate_users(reps, users, exclude, relevant, ks, **fields) -> EvalReport:
    """Report over the users' inner-product rankings; the pool ranks chunks of
    users and the calling thread scores their tops in user order."""
    k = _sorted_ks(ks)[-1]

    def chunk_tops(chunk):
        return [rank_all(reps.h_items @ reps.h_users[u], exclude[u], k) for u in chunk]

    chunks = [users[s:s + _CHUNK] for s in range(0, len(users), _CHUNK)]
    with ThreadPoolExecutor(max_workers()) as pool:
        tops = itertools.chain.from_iterable(pool.map(chunk_tops, chunks))
        return ranked_report(tops, (relevant[u] for u in users), ks, **fields)


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
