"""Planted-structure corpus for end-to-end checks and demos.

Users and items are assigned round-robin to latent clusters. Item features
are the cluster centroid plus Gaussian noise; each user interacts with a
random subset of the items in their own cluster, timestamps recording draw
order. A model that learns anything useful must rank in-cluster items above
out-of-cluster ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import RawInteractions
from .features import write_item_list, save_features


@dataclass(frozen=True)
class SyntheticCorpus:
    raw: RawInteractions
    features: np.ndarray      # item-key order, keys sorted
    item_keys: list[str]
    user_cluster: np.ndarray
    item_cluster: np.ndarray


def make_corpus(num_users: int = 200, num_items: int = 100, clusters: int = 4,
                feat_dim: int = 32, per_user: int = 16, noise: float = 0.05,
                seed: int = 0) -> SyntheticCorpus:
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(clusters, feat_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    item_cluster = np.arange(num_items) % clusters
    user_cluster = np.arange(num_users) % clusters
    features = centroids[item_cluster] + noise * rng.normal(size=(num_items, feat_dim))

    width = len(str(num_items - 1))
    item_keys = [f"i{n:0{width}d}" for n in range(num_items)]
    uwidth = len(str(num_users - 1))
    records = []
    cluster_items = [np.flatnonzero(item_cluster == c) for c in range(clusters)]
    for u in range(num_users):
        pool = cluster_items[user_cluster[u]]
        take = min(per_user, pool.size)
        chosen = rng.choice(pool, size=take, replace=False)
        ukey = f"u{u:0{uwidth}d}"
        for ts, item in enumerate(chosen):
            records.append((ukey, item_keys[int(item)], ts))
    return SyntheticCorpus(raw=RawInteractions.from_records(records), features=features,
                           item_keys=item_keys, user_cluster=user_cluster,
                           item_cluster=item_cluster)


def write_corpus(corpus: SyntheticCorpus, out_dir) -> dict[str, Path]:
    """Materialize the corpus in the on-disk formats the CLI consumes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "interactions": out / "interactions.tsv",
        "features": out / "features.afea",
        "item_list": out / "items.txt",
    }
    with open(paths["interactions"], "w", encoding="utf-8") as fh:
        fh.write("# synthetic planted-cluster corpus\n")
        for u, i, ts in corpus.raw.records():
            fh.write(f"{u}\t{i}\t{ts}\n")
    save_features(paths["features"], corpus.features)
    write_item_list(paths["item_list"], corpus.item_keys)
    return paths
