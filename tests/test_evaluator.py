import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import evaluator
from alignrec.data import Dataset
from alignrec.errors import ConfigError
from alignrec.evaluator import evaluate, longtail_evaluate, ranked_report
from alignrec.model import Representations
from alignrec.sparse import top_k

from oracles import bruteforce_evaluate, ndcg_at_k, recall_at_k


def _reps(h_users, h_items):
    zu = np.zeros_like(h_users)
    zi = np.zeros_like(h_items)
    return Representations(h_id_users=zu, h_id_items=zi, h_mm_items=zi, h_mm_users=zu,
                           h_users=np.asarray(h_users, dtype=float),
                           h_items=np.asarray(h_items, dtype=float))


def _dataset(num_users, num_items, train, val, test):
    def arr(pairs):
        return np.asarray(pairs, dtype=np.int64) if pairs else np.empty((0, 2), dtype=np.int64)
    return Dataset(num_users=num_users, num_items=num_items,
                   train=arr(train), val=arr(val), test=arr(test),
                   user_keys=[f"u{k}" for k in range(num_users)],
                   item_keys=[f"i{k}" for k in range(num_items)],
                   user_index={f"u{k}": k for k in range(num_users)},
                   item_index={f"i{k}": k for k in range(num_items)})


class TestRanking:
    def test_simple_order(self):
        order = top_k(np.array([0.5, 0.9, 0.1]), [], 3)
        assert order.tolist() == [1, 0, 2]

    def test_tie_breaks_by_index(self):
        order = top_k(np.array([1.0, 1.0, 1.0, 1.0]), [], 4)
        assert order.tolist() == [0, 1, 2, 3]

    def test_excluded_missing_from_output(self):
        order = top_k(np.array([0.5, 0.9, 0.1, 0.7]), np.array([1, 2]), 4)
        assert order.tolist() == [3, 0]

    def test_matches_full_sort_oracle(self, rng):
        scores = rng.normal(size=40)
        got = top_k(scores, np.array([3, 17]), len(scores))
        want = sorted((j for j in range(40) if j not in {3, 17}),
                      key=lambda j: (-scores[j], j))
        assert got.tolist() == want


# few distinct values, so most scores tie; signed zeros compare equal, and NaN
# sorts last in the full order
_TIE_POOL = [0.0, -0.0, 0.5, 0.5, -1.0, np.inf, -np.inf, np.nan]


@given(st.lists(st.sampled_from(_TIE_POOL), min_size=1, max_size=40), st.data())
@settings(max_examples=200, deadline=None)
def test_top_k_is_prefix_of_full_sort_under_ties(values, data):
    scores = np.array(values)
    n = scores.size
    exclude = data.draw(st.sets(st.integers(0, n - 1)))
    idx = np.array([j for j in range(n) if j not in exclude], dtype=np.int64)
    full = idx[np.lexsort((idx, -scores[idx]))].tolist()
    for k in range(1, n + 2):
        assert top_k(scores, np.array(sorted(exclude), dtype=np.int64), k).tolist() == full[:k]


class TestMetrics:
    def test_recall_hit_at_rank_one(self):
        assert recall_at_k([5, 1, 2], {5}, 10) == 1.0

    def test_recall_miss_past_k(self):
        ranked = list(range(30))
        assert recall_at_k(ranked, {10}, 10) == 0.0

    def test_recall_random_matches_set_oracle(self, rng):
        ranked = list(rng.permutation(50))
        relevant = set(rng.choice(50, size=7, replace=False).tolist())
        k = 12
        want = len(set(ranked[:k]) & relevant) / len(relevant)
        assert recall_at_k(ranked, relevant, k) == want

    def test_ndcg_rank_one(self):
        assert ndcg_at_k([3, 0, 1], {3}, 10) == 1.0

    def test_ndcg_rank_two_closed_form(self):
        got = ndcg_at_k([0, 3, 1], {3}, 5)
        assert got == pytest.approx(1.0 / math.log2(3.0), abs=1e-15)

    def test_ndcg_three_relevant_formula_oracle(self, rng):
        ranked = list(rng.permutation(20))
        relevant = set(rng.choice(20, size=3, replace=False).tolist())
        k = 8
        dcg = sum(1.0 / math.log2(pos + 1)
                  for pos, item in enumerate(ranked[:k], start=1) if item in relevant)
        ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, 3) + 1))
        assert ndcg_at_k(ranked, relevant, k) == pytest.approx(dcg / ideal, abs=1e-12)

    def test_monotone_in_k(self, rng):
        ranked = list(rng.permutation(40))
        relevant = set(rng.choice(40, size=5, replace=False).tolist())
        recalls = [recall_at_k(ranked, relevant, k) for k in range(1, 41)]
        ndcgs = [ndcg_at_k(ranked, relevant, k) for k in range(1, 41)]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert all(b >= a - 1e-15 for a, b in zip(ndcgs, ndcgs[1:]))


class TestEvaluate:
    def test_rigged_scores_give_perfect_metrics(self):
        # every user's held-out item gets the top score
        num_users, num_items = 4, 6
        h_users = np.eye(4)
        h_items = np.zeros((6, 4))
        train = [[u, (u + 1) % 6] for u in range(4)]
        test = [[u, u] for u in range(4)]
        for u in range(4):
            h_items[u, u] = 10.0
        ds = _dataset(num_users, num_items, train, [], test)
        report = evaluate(_reps(h_users, h_items), ds, "test", (1, 5))
        assert report.recall == {1: 1.0, 5: 1.0}
        assert report.ndcg == {1: 1.0, 5: 1.0}
        assert report.users_evaluated == 4

    def test_matches_bruteforce_bitwise(self, rng):
        for _ in range(5):
            num_users, num_items = 10, 20
            pairs = set()
            for u in range(num_users):
                for i in rng.choice(num_items, size=6, replace=False):
                    pairs.add((u, int(i)))
            pairs = sorted(pairs)
            rng.shuffle(pairs)
            n = len(pairs)
            train, val, test = pairs[:n - 12], pairs[n - 12:n - 6], pairs[n - 6:]
            users_in_train = {u for u, _ in train}
            train += [p for p in val + test if p[0] not in users_in_train]
            ds = _dataset(num_users, num_items, train, val, test)
            h_users = rng.normal(size=(num_users, 5))
            h_items = rng.normal(size=(num_items, 5))
            reps = _reps(h_users, h_items)
            for split in ("val", "test"):
                report = evaluate(reps, ds, split, (3, 7))
                recall, ndcg, count = bruteforce_evaluate(h_users, h_items, ds,
                                                          split, (3, 7))
                assert report.users_evaluated == count
                for k in (3, 7):
                    assert report.recall[k] == recall[k]
                    assert report.ndcg[k] == ndcg[k]

    def test_score_scale_invariance(self, rng):
        num_users, num_items = 6, 12
        train = [[u, u] for u in range(6)]
        test = [[u, (u + 3) % 12] for u in range(6)]
        ds = _dataset(num_users, num_items, train, [], test)
        h_users = rng.normal(size=(6, 4))
        h_items = rng.normal(size=(12, 4))
        a = evaluate(_reps(h_users, h_items), ds, "test", (5,))
        b = evaluate(_reps(3.0 * h_users, 3.0 * h_items), ds, "test", (5,))
        assert a.recall == b.recall and a.ndcg == b.ndcg

    def test_repeated_k_counts_each_user_once(self, rng):
        train = [[u, u] for u in range(6)]
        test = [[u, (u + 3) % 12] for u in range(6)]
        ds = _dataset(6, 12, train, [], test)
        reps = _reps(rng.normal(size=(6, 4)), rng.normal(size=(12, 4)))
        assert evaluate(reps, ds, "test", (20, 20)) == evaluate(reps, ds, "test", (20,))
        assert evaluate(reps, ds, "test", (20, 5, 20)) == evaluate(reps, ds, "test", (5, 20))
        assert (longtail_evaluate(reps, ds, (5, 5), threshold=2)
                == longtail_evaluate(reps, ds, (5,), threshold=2))


    @pytest.mark.parametrize("ks", [(-5,), (0,), (5, 0)])
    def test_non_positive_k_rejected(self, rng, ks):
        ds = _dataset(6, 12, [[u, u] for u in range(6)], [], [[u, (u + 3) % 12] for u in range(6)])
        reps = _reps(rng.normal(size=(6, 4)), rng.normal(size=(12, 4)))
        for report in (lambda: evaluate(reps, ds, "test", ks),
                       lambda: longtail_evaluate(reps, ds, ks),
                       lambda: ranked_report([], [], ks)):
            with pytest.raises(ConfigError, match="needs positive K values"):
                report()


class TestLongtail:
    def _setup(self, rng):
        # item 4 has a single train interaction, others are popular
        train = [[u, i] for u in range(4) for i in range(4)] + [[0, 4]]
        test = [[1, 4], [2, 3], [3, 4]]
        ds = _dataset(4, 5, train, [], test)
        h_users = rng.normal(size=(4, 3))
        h_items = rng.normal(size=(5, 3))
        return ds, _reps(h_users, h_items)

    def test_threshold_zero_empty_slice(self, rng):
        ds, reps = self._setup(rng)
        report = longtail_evaluate(reps, ds, (2,), threshold=0)
        assert report.users_evaluated == 0

    def test_threshold_infinity_equals_full_test(self, rng):
        ds, reps = self._setup(rng)
        full = evaluate(reps, ds, "test", (2, 4))
        lt = longtail_evaluate(reps, ds, (2, 4), threshold=float("inf"))
        assert lt.recall == full.recall and lt.ndcg == full.ndcg
        assert lt.users_evaluated == full.users_evaluated

    def test_hand_built_slice(self, rng):
        ds, reps = self._setup(rng)
        # only item 4 (train degree 1) is long-tail under the default threshold
        report = longtail_evaluate(reps, ds, (5,), threshold=4)
        assert report.users_evaluated == 2  # users 1 and 3
        assert report.skipped == 1          # user 2 had only popular relevants
        hits = []
        for u in (1, 3):
            exclude = [i for uu, i in ds.train.tolist() if uu == u]
            ranked = top_k(reps.h_items @ reps.h_users[u], exclude, ds.num_items)
            hits.append(1.0 if 4 in ranked[:5].tolist() else 0.0)
        assert report.recall[5] == pytest.approx(sum(hits) / 2, abs=1e-15)


def test_thread_cap_does_not_change_results(rng, monkeypatch):
    # enough users to span several chunks
    num_users, num_items = 600, 30
    train = [[u, u % num_items] for u in range(num_users)]
    test = [[u, (u + 7) % num_items] for u in range(num_users)]
    ds = _dataset(num_users, num_items, train, [], test)
    reps = _reps(rng.normal(size=(num_users, 4)), rng.normal(size=(num_items, 4)))
    monkeypatch.setattr(evaluator, "max_workers", lambda: 1)
    serial = evaluate(reps, ds, "test", (5, 10))
    monkeypatch.setattr(evaluator, "max_workers", lambda: 4)
    threaded = evaluate(reps, ds, "test", (5, 10))
    assert serial.recall == threaded.recall
    assert serial.ndcg == threaded.ndcg


def _ranked_instance(rng, num_users=300, num_items=40):
    """More users than one pool task and not a multiple of a block; items 7,
    8 and 9 copy item 3 and item 20 copies item 11, so their GEMV scores tie
    or split by the kernel's row path; user 0 has all but 4 items in train
    and user 1 all but 8."""
    h_items = rng.normal(size=(num_items, 6))
    h_items[[7, 8, 9]] = h_items[3]
    h_items[20] = h_items[11]
    h_users = rng.normal(size=(num_users, 6))
    h_users[2] = 0.0  # every score ties
    train, val, test = [], [], []
    for u in range(num_users):
        order = rng.permutation(num_items).tolist()
        held = {0: 4, 1: 8}.get(u, int(rng.integers(2, 10)))
        train += [[u, i] for i in order[held:]]
        val += [[u, i] for i in order[:held // 2]]
        test += [[u, i] for i in order[held // 2:held]]
    return _dataset(num_users, num_items, train, val, test), _reps(h_users, h_items)


def test_block_ranking_matches_bruteforce(rng):
    ds, reps = _ranked_instance(rng)
    ks = (1, 3, 7, 10)
    for split in ("val", "test"):
        report = evaluate(reps, ds, split, ks)
        recall, ndcg, count = bruteforce_evaluate(reps.h_users, reps.h_items, ds, split, ks)
        assert report.users_evaluated == count == ds.num_users
        assert report.recall == recall and report.ndcg == ndcg


def test_block_longtail_matches_bruteforce_on_the_slice(rng):
    ds, reps = _ranked_instance(rng)
    threshold = float(np.median(ds.item_train_degree))
    report = longtail_evaluate(reps, ds, (1, 3, 7, 10), threshold=threshold)
    kept = ds.test[ds.item_train_degree[ds.test[:, 1]] < threshold].tolist()
    sliced = _dataset(ds.num_users, ds.num_items, ds.train.tolist(), ds.val.tolist(), kept)
    recall, ndcg, count = bruteforce_evaluate(reps.h_users, reps.h_items, sliced, "test",
                                              (1, 3, 7, 10))
    assert 0 < report.users_evaluated == count < ds.num_users
    assert report.recall == recall and report.ndcg == ndcg


@pytest.mark.parametrize("num_items, dim", [(1003, 64), (37, 5), (13, 768)])
def test_gemv_into_a_buffer_row_has_the_plain_product_bits(rng, num_items, dim):
    # the evaluator writes each user's scores into a row of a reused buffer
    h_items, h_users = rng.normal(size=(num_items, dim)), rng.normal(size=(40, dim))
    buffer = np.empty((evaluator._BLOCK, num_items))
    for u in range(40):
        row = buffer[u % evaluator._BLOCK]
        np.matmul(h_items, h_users[u], out=row)
        assert row.tobytes() == (h_items @ h_users[u]).tobytes()


def test_report_text_roundtrip_fields(rng):
    ds = _dataset(2, 4, [[0, 0], [1, 1]], [], [[0, 2], [1, 3]])
    reps = _reps(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)))
    report = evaluate(reps, ds, "test", (2,))
    text = report.to_text()
    assert "slice = full" in text and "recall@2 = " in text
    line = report.to_line("test")
    assert line.startswith("eval=test") and "recall@2=" in line


def test_ranked_report_by_hit_count_matches_bruteforce(rng):
    # h_items is the identity, so a user's scores are its own row; three users
    # for each count of hits in the top 10: 0, 1, 2, 3, 4 and 7
    num_items, counts = 90, [0, 1, 2, 3, 4, 7]
    users = [h for h in counts for _ in range(3)]
    h_users = rng.normal(size=(len(users), num_items))
    train, test = [], []
    for u, hits in enumerate(users):
        order = np.argsort(-h_users[u], kind="stable")
        train += [[u, int(i)] for i in order[20:23]]
        relevant = rng.choice(order[:10], size=hits, replace=False).tolist()
        relevant += order[40:40 + int(rng.integers(1, 4))].tolist()  # ranked past 10
        test += [[u, int(i)] for i in relevant]
    ds = _dataset(len(users), num_items, train, [], test)
    reps = _reps(h_users, np.eye(num_items))
    ks = (1, 2, 3, 5, 10, 50)
    report = evaluate(reps, ds, "test", ks)
    recall, ndcg, count = bruteforce_evaluate(reps.h_users, reps.h_items, ds, "test", ks)
    assert report.users_evaluated == count == len(users)
    assert report.recall == recall and report.ndcg == ndcg
    for u, hits in enumerate(users):
        top = top_k(h_users[u], ds.train[ds.train[:, 0] == u, 1], 10).tolist()
        assert sum(1 for i in top if [u, i] in test) == hits


def test_ranked_report_queries_without_relevant_items():
    tops = [np.array([4, 1, 0]), np.array([2, 3]), np.array([], dtype=np.int64)]
    relevant = [np.array([1, 4]), np.array([], dtype=np.int64), np.array([0])]
    report = ranked_report(tops, relevant, (1, 3))
    assert report.users_evaluated == 3
    assert report.recall == {1: 0.5 / 3, 3: 1.0 / 3}
    assert report.ndcg == {1: 1.0 / 3, 3: 1.0 / 3}
