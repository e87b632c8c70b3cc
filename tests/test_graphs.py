import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from alignrec import graphs
from alignrec.data import split_dataset
from alignrec.errors import ConfigError, DataError
from alignrec.features import FeatureMatrix
from alignrec.graphs import build_graphs, build_knn_similarity, build_norm_interaction
from alignrec.sparse import score_top_k
from alignrec.synthetic import make_corpus

from oracles import (dense_knn_reference, dense_norm_adjacency, knn_full_sort_reference,
                     raw_from_records, to_dense)


def _ds_from_pairs(pairs, num_users, num_items):
    records = [(f"u{u:03d}", f"i{i:03d}", n) for n, (u, i) in enumerate(pairs)]
    # pad so every index exists
    users_seen = {u for u, _ in pairs}
    items_seen = {i for _, i in pairs}
    assert users_seen == set(range(num_users)) and items_seen == set(range(num_items))
    return split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)


class TestAdjacency:
    """inter_norm is the user-by-item block of the normalized adjacency."""

    def test_single_edge(self):
        ds = _ds_from_pairs([(0, 0)], 1, 1)
        inter = build_norm_interaction(ds)
        assert to_dense(inter).tolist() == [[1.0]]
        assert inter.nnz == 1

    def test_closed_form_degrees(self):
        ds = _ds_from_pairs([(0, 0), (0, 1), (1, 0)], 2, 2)
        dense = to_dense(build_norm_interaction(ds))
        # deg(u0)=2, deg(i0)=2 -> entry 1/sqrt(4)
        assert dense[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert dense[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert dense[1, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert dense[1, 1] == 0.0

    def test_symmetry_random(self, rng):
        # swapping the roles of users and items transposes the operator exactly
        pairs = _random_bipartite(rng, 20, 15)
        ds = _ds_from_pairs(pairs, 20, 15)
        swapped = SimpleNamespace(num_users=15, num_items=20, train=ds.train[:, ::-1])
        got = to_dense(build_norm_interaction(swapped))
        assert np.array_equal(got, to_dense(build_norm_interaction(ds)).T)

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            pairs = _random_bipartite(rng, 20, 15)
            ds = _ds_from_pairs(pairs, 20, 15)
            got = to_dense(build_norm_interaction(ds))
            want = dense_norm_adjacency(20, 15, ds.train)[:20, 20:]
            assert np.max(np.abs(got - want)) < 1e-12


def _random_bipartite(rng, num_users, num_items):
    pairs = set()
    for u in range(num_users):
        for i in rng.choice(num_items, size=3, replace=False):
            pairs.add((u, int(i)))
    for i in range(num_items):
        pairs.add((int(rng.integers(num_users)), i))
    return sorted(pairs)


class TestInteraction:
    def test_single_edge(self):
        ds = _ds_from_pairs([(0, 0)], 1, 1)
        inter = build_norm_interaction(ds)
        assert to_dense(inter)[0, 0] == 1.0

    def test_bundle_stores_transposes(self, rng):
        pairs = _random_bipartite(rng, 12, 9)
        ds = _ds_from_pairs(pairs, 12, 9)
        bundle = build_graphs(ds, FeatureMatrix(rng.normal(size=(9, 4))), k_prime=3)
        mat, mat_t = bundle.inter_norm, bundle.inter_t
        want = mat.transpose()
        assert np.array_equal(mat_t.indptr, want.indptr)
        assert np.array_equal(mat_t.indices, want.indices)
        assert np.array_equal(mat_t.data, want.data)
        assert np.array_equal(to_dense(mat_t), to_dense(mat).T)


class TestKnnSimilarity:
    def test_identical_pair(self):
        feat = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        sim = to_dense(build_knn_similarity(feat, 1))
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert sim[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert sim[0, 0] == 0.0

    def test_orthogonal_vectors_empty_graph(self):
        feat = FeatureMatrix(np.eye(3))
        sim = build_knn_similarity(feat, 1)
        assert sim.nnz == 0

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(5):
            feat = FeatureMatrix(rng.normal(size=(30, 8)))
            got = to_dense(build_knn_similarity(feat, 5))
            want = dense_knn_reference(feat.data, 5)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_row_cardinality_and_zero_diagonal(self, rng):
        feat = FeatureMatrix(rng.normal(size=(25, 6)))
        sim = build_knn_similarity(feat, 4)
        assert np.all(np.diff(sim.indptr) <= 4)
        assert np.all(np.diag(to_dense(sim)) == 0.0)

    def test_permutation_equivariance(self, rng):
        feat = rng.normal(size=(18, 5))
        perm = rng.permutation(18)
        s1 = to_dense(build_knn_similarity(FeatureMatrix(feat), 3))
        s2 = to_dense(build_knn_similarity(FeatureMatrix(feat[perm]), 3))
        assert np.max(np.abs(s2 - s1[np.ix_(perm, perm)])) < 1e-12

    @pytest.mark.parametrize("k_prime", [1, 10, 50])
    def test_exact_ties_match_full_sort_bitwise(self, k_prime):
        # one-hot and two-hot rows over 12 dims: cosines are exactly 0, 1/2,
        # 1/sqrt(2) or 1, so every row has large tie groups at its cut
        rng = np.random.default_rng(7)
        n, d = 1100, 12
        feat = np.zeros((n, d))
        first = rng.integers(d, size=n)
        feat[np.arange(n), first] = 1.0
        two = rng.random(n) < 0.5
        feat[np.flatnonzero(two), (first[two] + rng.integers(1, d, size=two.sum())) % d] = 1.0
        # duplicates on both sides of rows 512 and 1024, which are also
        # boundaries of score_top_k's 128-row query blocks
        feat[[509, 510, 513, 514, 1022, 1025]] = feat[511]
        feat[[512, 1023, 1024]] = feat[0]
        got = build_knn_similarity(FeatureMatrix(feat), k_prime)
        want = knn_full_sort_reference(feat, k_prime)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    def test_wide_rows_match_full_sort_bitwise(self, rng):
        # d above numpy's 128-element pairwise-summation block: each kept
        # weight has the bits of the row's canonical np.sum
        feat = rng.normal(size=(300, 300))
        got = build_knn_similarity(FeatureMatrix(feat), 7)
        want = knn_full_sort_reference(feat, 7)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    def test_cut_ties_on_both_sides_of_a_block_boundary(self):
        rng = np.random.default_rng(3)
        n, d, k_prime = 1100, 12, 3
        feat = rng.normal(size=(n, d))
        # one-hot copies score each other exactly 1.0 in any summation order:
        # five such neighbours for three places, on both sides of rows 512
        # and 1024 (boundaries of score_top_k's 128-row query blocks) ...
        feat[[505, 509, 511, 512, 515, 1030]] = np.eye(d)[0]
        # ... and exactly three, a tie inside the selection but no cut
        feat[[1020, 1023, 1024, 1099]] = np.eye(d)[1]
        # Gaussian copies, whose scores with each other may or may not tie
        feat[[100, 510, 513, 900]] = feat[50]
        unit = feat / np.linalg.norm(feat, axis=1)[:, None]
        for r in (511, 512):
            assert np.count_nonzero(unit @ unit[r] == 1.0) - 1 > k_prime
        got = build_knn_similarity(FeatureMatrix(feat), k_prime)
        want = knn_full_sort_reference(feat, k_prime)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.indices[got.indptr[511]:got.indptr[512]].tolist() == [505, 509, 512]
        assert got.indices[got.indptr[512]:got.indptr[513]].tolist() == [505, 509, 511]

    @pytest.mark.parametrize("k_prime", [1, 10])
    def test_same_arrays_as_a_build_from_score_top_k(self, monkeypatch, k_prime):
        # planted clusters with copied rows across the 128-row strips: both
        # the merged screen and the rescoring path
        feat = make_corpus(num_items=600, clusters=6, feat_dim=20, seed=4).features
        feat[[10, 130, 300, 599]] = feat[70]
        got = build_knn_similarity(FeatureMatrix(feat), k_prime)

        def full_rows(x, norms, k):
            return score_top_k(x, norms, x, norms, np.arange(len(x))[:, None], k)
        monkeypatch.setattr(graphs, "self_top_k", full_rows)
        want = build_knn_similarity(FeatureMatrix(feat), k_prime)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_zero_norm_row_rejected(self):
        feat = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DataError, match="item 1"):
            build_knn_similarity(feat, 1)

    def test_overflowing_norm_row_rejected(self):
        # the squares overflow, so the norm is inf and the unit row would be
        # zero: the feature matrix itself rejects the row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflowing L2 norm .* item 2"):
                FeatureMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e200, 1e200, 0.0]]))

    def test_k_prime_too_large(self, rng):
        feat = FeatureMatrix(rng.normal(size=(4, 3)))
        with pytest.raises(ConfigError):
            build_knn_similarity(feat, 4)
