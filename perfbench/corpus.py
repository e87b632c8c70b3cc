"""Seeded corpora for the benchmark, owned by the benchmark.

`alignrec.synthetic.make_corpus` gives every user the same activity and every
item roughly the same popularity, so at M scale k-core filtering finishes in
one round and no item is rare enough for the long-tail slice. The corpora
here keep its planted clusters (features are a cluster centroid plus noise,
and most of a user's interactions stay inside the user's cluster) but add:

* skewed item popularity: Zipf weights over a seeded permutation of items;
* varied user activity: log-normal interaction counts, some below the
  5-core threshold, so filtering drops records over several rounds;
* repeated (user, item) draws, which `load_interactions` collapses.

Everything is a function of the shape and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from alignrec.features import save_features, write_item_list


@dataclass(frozen=True)
class CorpusShape:
    users: int
    items: int
    clusters: int
    feat_dim: int
    mean_activity: float
    activity_sigma: float = 0.8
    min_activity: int = 3
    max_activity: int = 300
    zipf: float = 1.3
    zipf_offset: float = 20.0
    in_cluster: float = 0.8
    noise: float = 0.03


# M: about the scale of the paper's Amazon Baby set (20k users, 5k items,
# ~320k train edges after 5-core filtering and an 80/10/10 split); features
# are as wide as a base-size vision-language encoder's.
M = CorpusShape(users=21000, items=5500, clusters=24, feat_dim=768, mean_activity=29.0)
# S: the smoke scale of the whole train command.
S = CorpusShape(users=2100, items=1100, clusters=8, feat_dim=768, mean_activity=29.0)


@dataclass(frozen=True)
class Corpus:
    users: np.ndarray       # record user index
    items: np.ndarray       # record item index
    times: np.ndarray       # record timestamp
    features: np.ndarray    # items x feat_dim, row n for item key n
    item_cluster: np.ndarray
    user_cluster: np.ndarray


def make_corpus(shape: CorpusShape, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, shape.users, shape.items])
    n_u, n_i, c = shape.users, shape.items, shape.clusters

    item_cluster = rng.integers(c, size=n_i)
    user_cluster = rng.integers(c, size=n_u)
    popularity = np.empty(n_i)
    popularity[rng.permutation(n_i)] = (np.arange(1, n_i + 1) + shape.zipf_offset) ** -shape.zipf

    # log-normal activity with the requested mean
    mu = np.log(shape.mean_activity) - shape.activity_sigma ** 2 / 2
    activity = np.clip(np.rint(rng.lognormal(mu, shape.activity_sigma, size=n_u)),
                       shape.min_activity, shape.max_activity).astype(np.int64)
    users = np.repeat(np.arange(n_u), activity)
    n = users.size
    items = np.empty(n, dtype=np.int64)

    inside = rng.random(n) < shape.in_cluster
    outside = np.flatnonzero(~inside)
    items[outside] = _draw(rng, np.arange(n_i), popularity, outside.size)
    for k in range(c):
        pool = np.flatnonzero(item_cluster == k)
        slots = np.flatnonzero(inside & (user_cluster[users] == k))
        items[slots] = _draw(rng, pool, popularity[pool], slots.size)
    times = rng.integers(0, 2 ** 40, size=n)

    centroids = rng.normal(size=(c, shape.feat_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    features = centroids[item_cluster] + shape.noise * rng.normal(size=(n_i, shape.feat_dim))
    return Corpus(users=users, items=items, times=times, features=features,
                  item_cluster=item_cluster, user_cluster=user_cluster)


def _draw(rng, pool: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    cdf = np.cumsum(weights)
    picks = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return pool[np.minimum(picks, pool.size - 1)]


def write_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write the corpus in the on-disk formats the CLI reads."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"interactions": out / "interactions.tsv",
             "features": out / "features.afea",
             "item_list": out / "items.txt"}
    uw = len(str(corpus.user_cluster.size - 1))
    iw = len(str(corpus.item_cluster.size - 1))
    lines = [f"u{u:0{uw}d}\ti{i:0{iw}d}\t{t}\n"
             for u, i, t in zip(corpus.users.tolist(), corpus.items.tolist(),
                                corpus.times.tolist())]
    with open(paths["interactions"], "w", encoding="utf-8") as fh:
        fh.write("# benchmark corpus\n")
        fh.writelines(lines)
    save_features(paths["features"], corpus.features)
    write_item_list(paths["item_list"],
                    [f"i{i:0{iw}d}" for i in range(corpus.item_cluster.size)])
    return paths
