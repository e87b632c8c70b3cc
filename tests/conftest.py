import numpy as np
import pytest

from alignrec.data import split_dataset
from alignrec.features import FeatureMatrix
from alignrec.graphs import build_graphs
from alignrec.losses import BatchSample
from alignrec.model import init_params
from alignrec.trainer import sample_batch

from oracles import raw_from_records


def random_instance(rng, num_users=6, num_items=7, d_e=4, d_f=5, d_h=3,
                    per_user=4, k_prime=3, layers=2):
    """Small random dataset + graphs + params + a valid batch."""
    records = []
    for u in range(num_users):
        chosen = rng.choice(num_items, size=min(per_user, num_items), replace=False)
        for ts, i in enumerate(chosen):
            records.append((f"u{u:03d}", f"i{i:03d}", int(ts)))
    raw = raw_from_records(records)
    ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=int(rng.integers(1 << 30)),
                       strategy="random")
    feat = FeatureMatrix(rng.normal(size=(ds.num_items, d_f)))
    graphs = build_graphs(ds, feat, k_prime=min(k_prime, ds.num_items - 1))
    params = init_params(ds.num_users, ds.num_items, d_e, d_f, d_h, rng)
    batch = sample_batch(ds, rng, batch_size=min(8, len(ds.train)))
    return ds, feat, graphs, params, batch


def manual_batch(users, pos, neg):
    return BatchSample(users=np.asarray(users, dtype=np.int64),
                       pos_items=np.asarray(pos, dtype=np.int64),
                       neg_items=np.asarray(neg, dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
