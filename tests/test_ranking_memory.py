"""Peak traced allocations of the ranking paths, the kNN graph build among them,
on a synthetic of 3000 items with 256-d features, as multiples of the feature
matrix's bytes (6.1 MB).

numpy reports its array allocations to tracemalloc, so the peak covers every
temporary the call makes and returns. The blocks are sized in rows, not in
bytes: at 3000 items a 128-query block of GEMM scores is half the feature
matrix. Item-CF's 512-item blocks of the item-item matrix are sparse; it
keeps no dense cosine block. evaluate's peak is a multiple of its own
128-user block of scores.
"""

import tracemalloc

import numpy as np
import pytest

from alignrec.data import split_dataset
from alignrec.evaluator import evaluate
from alignrec.features import FeatureMatrix, unit_rows
from alignrec.graphs import build_knn_similarity
from alignrec.model import Representations
from alignrec.protocols import ProtocolConfig, itemcf_eval
from alignrec.sparse import score_top_k
from alignrec.synthetic import make_corpus


@pytest.fixture(scope="module")
def made():
    return make_corpus(num_users=4000, num_items=3000, clusters=8, feat_dim=256,
                       per_user=20, noise=0.05, seed=3)


@pytest.fixture(scope="module")
def corpus(made):
    ds = split_dataset(made.raw, (1.0, 0.0, 0.0), seed=0)
    assert ds.num_items == made.features.shape[0] == 3000
    return ds, made.features


def _peak_multiple(call, nbytes) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


def test_unit_rows_allocates_only_its_result(corpus):
    # the unit matrix itself, plus norms and one 512-row block of squares
    _, x = corpus
    assert _peak_multiple(lambda: unit_rows(x), x.nbytes) <= 1.25


def test_score_top_k_holds_one_query_block(corpus):
    # one block of GEMM scores (0.5x) and the tops: no |U| and no partitioned copy
    _, x = corpus
    unit = unit_rows(x)[0]
    exclude = np.arange(len(unit))[:, None]
    assert _peak_multiple(lambda: score_top_k(unit, unit, exclude, 50), x.nbytes) <= 1.0


def test_knn_build_holds_one_query_block(corpus):
    # the unit rows (1x), score_top_k's block of GEMM scores (0.5x), the kept
    # columns and the graph's COO arrays: never a 512-row block of cosines
    _, x = corpus
    feat = FeatureMatrix(x)
    assert _peak_multiple(lambda: build_knn_similarity(feat, 10), x.nbytes) <= 2.0


def test_evaluate_holds_one_user_block(made):
    # one 128-user block of GEMM scores (1x) with its 16-row partitions, the
    # CSR item lists and the tops: never the users-by-items score matrix
    ds = split_dataset(made.raw, (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(0)
    h_users, h_items = rng.normal(size=(ds.num_users, 64)), rng.normal(size=(ds.num_items, 64))
    zu, zi = np.zeros_like(h_users), np.zeros_like(h_items)
    reps = Representations(h_id_users=zu, h_id_items=zi, h_mm_items=zi, h_mm_users=zu,
                           h_users=h_users, h_items=h_items)
    block = 128 * ds.num_items * 8
    assert _peak_multiple(lambda: evaluate(reps, ds, "test", (10,)), block) <= 2.0


def test_itemcf_eval_holds_no_item_item_matrix(corpus):
    # a sparse co-occurrence block with the user-item matrix, then the unit
    # rows (1x) with score_top_k's block
    ds, x = corpus
    feat = FeatureMatrix(x)
    peak = _peak_multiple(lambda: itemcf_eval(feat, ds, ProtocolConfig()), x.nbytes)
    assert peak <= 4.0
