"""All-ranking top-K evaluation: Recall@K, NDCG@K, and the long-tail slice.

A ranked query is a score over all items, an int array of excluded items and
an ascending one of relevant items, slices of data.items_by_user's per-user
CSR lists; its top is the first K non-excluded items by descending score,
ties to the lower item index. evaluate and longtail_evaluate rank the inner
products h_items @ h_users[u] with rank_all, sparse.gemv_top_k, a block of
128 users a call: one GEMM screens the block, and a row whose order the gap
test cannot prove is ranked by its own GEMV and sparse.top_k, so each top
has the bits of the per-user GEMV ranking. Zero-shot ranks its queries
against the raw feature rows and their norms with sparse.score_top_k;
item-CF counts each item's partner's place with sparse.self_rank. Every
ranking ends in hit_report, which turns the (query, rank) hits of all
queries at once into per-K recall and NDCG values; ranked_report finds the
hits of a list of tops. Seen positives are masked: the train
split is always excluded from the candidate set, and the validation split is
additionally excluded when scoring the test split.

Per-user metric values are accumulated with exactly-rounded summation
(math.fsum) so reported means are reproducible bit for bit and can be checked
against an independent implementation without tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, items_by_user
from .errors import ConfigError, InternalInvariantError
from .model import Representations
from .sparse import gemv_top_k

_USER_BLOCK = 128  # users per rank_all call: one GEMM block of gemv_top_k


def max_workers() -> int:  # usable CPUs, at most 8: read by perfbench/machine.py alone
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


# the block ranking of evaluate; _evaluate_users calls it through this module global
rank_all = gemv_top_k


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


def _prefix_fsums(values: list[float]) -> list[float]:
    """math.fsum of each prefix of `values`, in one pass: Shewchuk's
    non-overlapping partials hold each prefix's exact sum, and math.fsum
    rounds them once, as it rounds the prefix itself."""
    partials, sums = [], []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        sums.append(math.fsum(partials))
    return sums


def ranked_report(tops, relevant, ks, **fields) -> EvalReport:
    """hit_report over the sequence of ranked tops, int arrays of the first
    max(ks) candidates of each query or all of them, and the queries'
    relevant items, ascending int arrays without repeats."""
    count = len(tops)
    if not count:
        none = np.zeros(0, dtype=np.int64)
        return hit_report(none, none, none, ks, **fields)
    top_len = np.fromiter(map(len, tops), np.int64, count)
    rel_len = np.fromiter(map(len, relevant), np.int64, count)
    # (query, item) keys: ascending over the relevant items, in rank order over
    # the tops; a last relevant key above all of them gives every top a place
    keys, rel = np.concatenate(tops), np.concatenate(relevant)
    base = max(int(keys.max(initial=0)), int(rel.max(initial=0))) + 1
    keys += np.repeat(np.arange(count) * base, top_len)
    rel_keys = np.append(rel + np.repeat(np.arange(count) * base, rel_len), count * base)
    hit = np.flatnonzero(rel_keys[np.searchsorted(rel_keys, keys)] == keys)
    query = keys[hit] // base
    return hit_report(query, hit - (np.cumsum(top_len) - top_len)[query] + 1, rel_len, ks,
                      **fields)


def hit_report(query, rank, rel_len, ks, **fields) -> EvalReport:
    """Per-K mean recall and NDCG over len(rel_len) queries from their hits:
    the query of each hit, ascending, and its rank from 1, ascending within
    a query, with rel_len the queries' relevant counts; zeros when no query
    was ranked. NDCG has binary gain, 1/log2(rank+1) discount, ideal
    normalization truncated at K. Each per-query value has the bits of
    math.fsum over its terms: one or two hit discounts add with +, which
    rounds once as fsum does; more go through math.fsum."""
    ks = _sorted_ks(ks)
    count = len(rel_len)
    if not count:
        return EvalReport({k: 0.0 for k in ks}, {k: 0.0 for k in ks}, 0, **fields)
    # discounts and ideal DCGs past the deepest hit or relevant list are never read
    most_rel = min(ks[-1], int(rel_len.max()))
    depth = max(min(ks[-1], int(rank.max(initial=0))), most_rel)
    disc = np.array([0.0] + [1.0 / math.log2(r + 1.0) for r in range(1, depth + 1)])
    # ideal DCG by min(K, relevant count); 1.0 for none, where the DCG is 0.0
    ideal = np.array([1.0] + _prefix_fsums(disc[1:most_rel + 1].tolist()))
    recall, ndcg = {}, {}
    for k in ks:
        in_k = rank <= k
        q, terms = query[in_k], disc[rank[in_k]]
        hits = np.bincount(q, minlength=count)
        dcg = np.bincount(q, weights=terms, minlength=count)  # adds in rank order
        many = np.flatnonzero(hits >= 3)
        for u, start in zip(many.tolist(), np.searchsorted(q, many).tolist()):
            dcg[u] = math.fsum(terms[start:start + hits[u]].tolist())
        recall[k] = math.fsum((hits / np.maximum(rel_len, 1)).tolist()) / count
        ndcg[k] = math.fsum((dcg / ideal[np.minimum(k, rel_len)]).tolist()) / count
    return EvalReport(recall=recall, ndcg=ndcg, users_evaluated=count, **fields)


def _split_items(reps: Representations, ds: Dataset, split: str):
    """Per-user CSR lists (indptr, items) of the excluded and the relevant
    items of a split: train is excluded, and val too when ranking test."""
    if reps.h_users.shape[0] != ds.num_users:  # a train step's partial pass
        raise InternalInvariantError(f"cannot rank {reps.h_users.shape[0]} of {ds.num_users} users")
    seen = ds.train if split == "val" else np.concatenate([ds.train, ds.val])
    return (items_by_user(seen, ds.num_users),
            items_by_user(ds.split(split), ds.num_users))


def _evaluate_users(reps, users, exclude, relevant, ks, **fields) -> EvalReport:
    """Report over the inner-product rankings of `users`, with per-user CSR
    lists, ranked a block of users per rank_all call."""
    k = _sorted_ks(ks)[-1]
    ex_ptr, ex_items = exclude
    tops = []
    for start in range(0, len(users), _USER_BLOCK):
        block = users[start:start + _USER_BLOCK]
        tops += rank_all(reps.h_users[block], reps.h_items,
                         [ex_items[ex_ptr[u]:ex_ptr[u + 1]] for u in block], k)
    rel_ptr, rel_items = relevant
    return ranked_report(tops, [rel_items[rel_ptr[u]:rel_ptr[u + 1]] for u in users],
                         ks, **fields)


def evaluate(reps: Representations, ds: Dataset, split: str,
             ks=(10, 20, 50)) -> EvalReport:
    """Per-user mean Recall@K / NDCG@K over users with interactions in the
    split."""
    if split not in ("val", "test"):
        raise ConfigError(f"evaluation split must be val or test, got '{split}'")
    exclude, relevant = _split_items(reps, ds, split)
    users = np.flatnonzero(np.diff(relevant[0]))
    return _evaluate_users(reps, users, exclude, relevant, ks)


def longtail_evaluate(reps: Representations, ds: Dataset, ks=(10, 20, 50),
                      threshold: float = 4) -> EvalReport:
    """Test-split evaluation restricted to items with a train interaction
    count strictly below the threshold."""
    exclude, (indptr, items) = _split_items(reps, ds, "test")
    keep = ds.item_train_degree[items] < threshold
    restricted = np.concatenate([[0], np.cumsum(keep)])[indptr]
    has_kept = np.diff(restricted) > 0
    skipped = int(np.count_nonzero((np.diff(indptr) > 0) & ~has_kept))
    return _evaluate_users(reps, np.flatnonzero(has_kept), exclude,
                           (restricted, items[keep]), ks,
                           slice_label="longtail", skipped=skipped)
