"""Peak traced allocations of the ranking paths, the kNN graph build among them,
on a synthetic of 3000 items with 256-d features, as multiples of the feature
matrix's bytes (6.1 MB). The rankings take the raw rows and their norms, so
none of them holds a unit copy of the matrix (1x).

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
from alignrec.features import FeatureMatrix, row_norms, unit_rows
from alignrec.graphs import build_knn_similarity
from alignrec.model import Representations
from alignrec.protocols import ProtocolConfig, itemcf_eval, zero_shot_eval
from alignrec.sparse import score_top_k, self_rank
from alignrec.synthetic import make_corpus

from oracles import raw_from_records


@pytest.fixture(scope="module")
def made():
    return make_corpus(num_users=4000, num_items=3000, clusters=8, feat_dim=256,
                       per_user=20, noise=0.05, seed=3)


@pytest.fixture(scope="module")
def corpus(made):
    ds = split_dataset(raw_from_records(made.records), (1.0, 0.0, 0.0), seed=0)
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
    norms = row_norms(x)
    exclude = np.arange(len(x))[:, None]
    assert _peak_multiple(lambda: score_top_k(x, norms, x, norms, exclude, 50),
                          x.nbytes) <= 1.0


def test_knn_build_holds_one_query_block(corpus):
    # self_top_k's strip of GEMM values (0.5x), the running lists of k'+1
    # values, one 128-item chunk of their strip columns, the kept columns and
    # the graph's COO arrays: no unit rows, never a 512-row block of cosines
    # (0.71x measured; 0.72x with score_top_k's full rows)
    _, x = corpus
    feat = FeatureMatrix(x)
    assert _peak_multiple(lambda: build_knn_similarity(feat, 10), x.nbytes) <= 0.95


def test_evaluate_holds_one_user_block(made):
    # one 128-user block of GEMM scores (1x) with its 16-row partitions, the
    # CSR item lists and the tops: never the users-by-items score matrix
    ds = split_dataset(raw_from_records(made.records), (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(0)
    h_users, h_items = rng.normal(size=(ds.num_users, 64)), rng.normal(size=(ds.num_items, 64))
    zu, zi = np.zeros_like(h_users), np.zeros_like(h_items)
    reps = Representations(h_id_users=zu, h_id_items=zi, h_mm_items=zi, h_mm_users=zu,
                           h_users=h_users, h_items=h_items)
    block = 128 * ds.num_items * 8
    assert _peak_multiple(lambda: evaluate(reps, ds, "test", (10,)), block) <= 2.0


def test_self_rank_holds_one_strip(corpus):
    # one strip of GEMM values (0.5x) and its compares: no unit rows and no
    # lists (0.64x measured)
    _, x = corpus
    norms = row_norms(x)
    target = (np.arange(len(x)) + 7) % len(x)
    assert _peak_multiple(lambda: self_rank(x, norms, target), x.nbytes) <= 0.8


def test_itemcf_eval_holds_no_item_item_matrix(corpus):
    # a sparse co-occurrence block with the user-item matrix, the peak (1.29x
    # measured), then self_rank's strip (0.64x): no unit rows
    ds, x = corpus
    feat = FeatureMatrix(x)
    peak = _peak_multiple(lambda: itemcf_eval(feat, ds, ProtocolConfig()), x.nbytes)
    assert peak <= 1.4


def test_zero_shot_eval_holds_one_block_of_queries(made):
    # one 2048-user block of unit query rows (0.67x) with their histories,
    # and score_top_k's block: no unit item rows (1.97x measured)
    ds = split_dataset(raw_from_records(made.records), (0.8, 0.1, 0.1), 0,
                       "temporal-leave-one-out")
    x = made.features
    feat = FeatureMatrix(x)
    peak = _peak_multiple(lambda: zero_shot_eval(feat, ds, ProtocolConfig()), x.nbytes)
    assert peak <= 2.2
