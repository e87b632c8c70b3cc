"""Output checks: an independent brute-force ranking and a per-seed store of
result fingerprints that must repeat bit for bit across runs."""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
from pathlib import Path

import numpy as np


def bruteforce_means(h_users: np.ndarray, h_items: np.ndarray, users, train_items,
                     val_items, test_items, ks) -> dict[str, tuple[dict, dict]]:
    """Mean Recall@K / NDCG@K on val and on test by a plain Python selection
    of the smallest (-score, item index) pairs, so ties go to the lower index.
    Val excludes the user's train items, test also the val items; a user
    without items in a split does not count for it, as in the evaluator.
    Scores use the same inner product the evaluator uses, so the comparison
    can be exact."""
    top_k = max(ks)
    per_user = {split: ({k: [] for k in ks}, {k: [] for k in ks}) for split in ("val", "test")}
    for u in users:
        scores = (h_items @ h_users[u]).tolist()
        banned = train_items[u]
        # enough candidates that top_k remain once the val items are dropped
        ranked = [i for _, i in heapq.nsmallest(
            top_k + len(val_items[u]),
            ((-score, i) for i, score in enumerate(scores) if i not in banned))]
        for split, rel, also_banned in (("val", val_items[u], ()),
                                        ("test", test_items[u], val_items[u])):
            if not rel:
                continue
            top = [i for i in ranked if i not in also_banned][:top_k]
            rec, ndcg = per_user[split]
            for k in ks:
                hits = [rank for rank, i in enumerate(top[:k], start=1) if i in rel]
                rec[k].append(len(hits) / len(rel))
                dcg = math.fsum(1.0 / math.log2(rank + 1.0) for rank in hits)
                ideal = math.fsum(1.0 / math.log2(rank + 1.0)
                                  for rank in range(1, min(k, len(rel)) + 1))
                ndcg[k].append(dcg / ideal)
    return {split: tuple({k: math.fsum(v[k]) / len(v[k]) for k in ks} for v in means)
            for split, means in per_user.items()}


def code_hash(*dirs: Path) -> str:
    """Hash of every Python source under the given directories, so a stored
    fingerprint is only compared against runs of the same code."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).rglob("*.py")):
            h.update(str(path.relative_to(d)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class FingerprintStore:
    """JSON map from "<workload>:<seed>:<code hash>:<name>" to a value. The
    first run of a seed records it; every later run must reproduce it."""

    def __init__(self, path: Path, prefix: str):
        self.path = Path(path)
        self.prefix = prefix

    def check(self, name: str, value: str) -> bool:
        try:
            table = json.loads(self.path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            table = {}
        key = f"{self.prefix}:{name}"
        if key in table:
            return table[key] == value
        table[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        return True
