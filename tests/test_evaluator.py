import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import evaluator, sparse
from alignrec.data import Dataset
from alignrec.errors import ConfigError
from alignrec.evaluator import evaluate, longtail_evaluate, ranked_report
from alignrec.model import Representations
from alignrec.sparse import gemv_top_k, top_k

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


    def test_k_past_the_item_count_costs_what_the_item_count_does(self, rng):
        # the discounts stop at the longest top and the ideal DCG at the
        # longest relevant list, so a huge K is no slower than K = item count
        ds, reps = _ranked_instance(rng)
        for report in (lambda ks: evaluate(reps, ds, "val", ks),
                       lambda ks: evaluate(reps, ds, "test", ks),
                       lambda ks: longtail_evaluate(reps, ds, ks, threshold=300)):
            start = time.perf_counter()
            huge = report((10**7,))
            assert time.perf_counter() - start < 1.0
            full = report((ds.num_items,))
            assert huge.users_evaluated == full.users_evaluated > 0
            assert huge.recall[10**7] == full.recall[ds.num_items]
            assert huge.ndcg[10**7] == full.ndcg[ds.num_items]

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


def test_several_user_blocks_match_bruteforce(rng, monkeypatch):
    # 600 users: five rank_all calls, the last one short
    num_users, num_items = 600, 30
    train = [[u, u % num_items] for u in range(num_users)]
    test = [[u, (u + 7) % num_items] for u in range(num_users)]
    ds = _dataset(num_users, num_items, train, [], test)
    reps = _reps(rng.normal(size=(num_users, 4)), rng.normal(size=(num_items, 4)))
    calls = []
    monkeypatch.setattr(evaluator, "rank_all",
                        lambda Q, *args: calls.append(len(Q)) or gemv_top_k(Q, *args))
    report = evaluate(reps, ds, "test", (5, 10))
    assert calls == [128, 128, 128, 128, 88]
    recall, ndcg, count = bruteforce_evaluate(reps.h_users, reps.h_items, ds, "test", (5, 10))
    assert report.users_evaluated == count == num_users
    assert report.recall == recall and report.ndcg == ndcg


def _ranked_instance(rng, num_users=300, num_items=40):
    """More users than two blocks and not a multiple of one; items 7, 8 and 9
    copy item 3 and item 20 copies item 11, so their GEMV scores tie or split
    by the kernel's row path; user 0 has all but 4 items in train and user 1
    all but 8."""
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


def _spy_fallbacks(monkeypatch):
    """The (scores, exclude, top) of every top_k call the GEMV fallback makes."""
    calls = []

    def spy(scores, exclude, k):
        calls.append((scores, np.asarray(exclude), top_k(scores, exclude, k)))
        return calls[-1][2]
    monkeypatch.setattr(sparse, "top_k", spy)
    return calls


def test_separated_rows_take_no_fallback(rng, monkeypatch):
    # distinct random scores and at least 36 candidates a user: every row's
    # order is proven by the GEMM alone
    num_users, num_items = 300, 60
    train, val, test = [], [], []
    for u in range(num_users):
        order = rng.permutation(num_items).tolist()
        train += [[u, i] for i in order[:20]]
        val += [[u, i] for i in order[20:22]]
        test += [[u, i] for i in order[22:24]]
    ds = _dataset(num_users, num_items, train, val, test)
    reps = _reps(rng.normal(size=(num_users, 6)), rng.normal(size=(num_items, 6)))
    calls = _spy_fallbacks(monkeypatch)
    for split in ("val", "test"):
        report = evaluate(reps, ds, split, (1, 5, 10))
        recall, ndcg, _ = bruteforce_evaluate(reps.h_users, reps.h_items, ds, split, (1, 5, 10))
        assert report.recall == recall and report.ndcg == ndcg
    assert calls == []


def test_rows_with_copied_items_near_the_cut_fall_back(rng, monkeypatch):
    ds, reps = _ranked_instance(rng)
    k = 3
    calls = _spy_fallbacks(monkeypatch)
    report = evaluate(reps, ds, "val", (1, k))
    recall, ndcg, _ = bruteforce_evaluate(reps.h_users, reps.h_items, ds, "val", (1, k))
    assert report.recall == recall and report.ndcg == ndcg
    # each fallback ranked its user's plain GEMV without its train items
    gemv = {(reps.h_items @ h).tobytes(): u for u, h in enumerate(reps.h_users)}
    fallen = set()
    for scores, exclude, top in calls:
        u = gemv[scores.tobytes()]
        assert exclude.tolist() == sorted(ds.train[ds.train[:, 0] == u, 1].tolist())
        assert top.tolist() == top_k(reps.h_items @ reps.h_users[u], exclude, k).tolist()
        fallen.add(u)
    # two copies among a user's k+1 best candidates sit within the band width
    copied = {}
    for u in range(ds.num_users):
        best = set(top_k(reps.h_items @ reps.h_users[u], ds.train[ds.train[:, 0] == u, 1],
                         k + 1).tolist())
        copied[u] = len(best & {3, 7, 8, 9}) >= 2 or {11, 20} <= best
    must = {u for u, c in copied.items() if c}
    assert len(must) >= 10 and must | {2} <= fallen < set(range(ds.num_users))


@pytest.mark.parametrize("num_items, dim, near", [(1003, 64, 300), (60, 16, 20), (40, 6, 10)])
def test_items_an_ulp_apart_rank_by_their_gemv(rng, num_items, dim, near):
    # the last `near` item rows move their sources by about an ulp, and the
    # first `near` users sit close to the sources: GEMM and GEMV order such
    # pairs differently, so only the band width keeps those rows off the GEMM order
    h_items = rng.normal(size=(num_items, dim))
    source = rng.choice(num_items - near, size=near, replace=False)
    h_items[-near:] = h_items[source] + rng.normal(size=(near, dim)) * 1e-16
    h_users = rng.normal(size=(300, dim))
    h_users[:near] = 3 * h_items[source] + rng.normal(size=(near, dim)) * 0.01
    exclude = [rng.choice(num_items, size=3, replace=False) for _ in range(300)]
    tops = gemv_top_k(h_users, h_items, exclude, 10)
    for top, h, ex in zip(tops, h_users, exclude):
        assert top.tolist() == top_k(h_items @ h, ex, 10).tolist()


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
def test_a_non_finite_item_sends_every_row_to_the_fallback(rng, monkeypatch, special):
    # excluded from every user, so no GEMM value shows it; max|U| still does
    h_items, h_users = rng.normal(size=(30, 4)), rng.normal(size=(10, 4))
    h_items[5, 2] = special
    calls = _spy_fallbacks(monkeypatch)
    with np.errstate(invalid="ignore"):
        gemv_top_k(h_users, h_items, [np.array([5])] * 10, 3)
    assert len(calls) == 10


@pytest.mark.parametrize("num_items, dim", [(1003, 64), (37, 5), (13, 768)])
def test_gemv_into_a_buffer_row_has_the_plain_product_bits(rng, monkeypatch, num_items, dim):
    # the fallback takes each user's GEMV from a row of the gathered user block
    h_items, h_users = rng.normal(size=(num_items, dim)), rng.normal(size=(40, dim))
    users = rng.permutation(40)
    calls = _spy_fallbacks(monkeypatch)
    # k >= n: every row falls back
    gemv_top_k(h_users[users], h_items, [np.empty(0, np.int64)] * 40, num_items)
    assert len(calls) == 40
    for u, (scores, _, _) in zip(users, calls):
        assert scores.tobytes() == (h_items @ h_users[u]).tobytes()


# entries drawn to defeat the GEMM screen, at three magnitudes
_SPECIALS = [np.nan, np.inf, -np.inf]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_and_longtail_match_bruteforce_on_drawn_instances(data):
    num_users, num_items = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 12))
    dim, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    h_users, h_items = rng.normal(size=(num_users, dim)), rng.normal(size=(num_items, dim))
    if data.draw(st.booleans()):  # duplicated item rows
        h_items[data.draw(st.integers(0, num_items - 1))] = h_items[0]
    if data.draw(st.booleans()):  # an all-zero user row: every score ties
        h_users[data.draw(st.integers(0, num_users - 1))] = 0.0
    scale = data.draw(st.sampled_from([1.0, 1e-160, 1e150]))
    h_users, h_items = h_users * scale, h_items * scale
    for _ in range(data.draw(st.integers(0, 2))):  # NaN or +-inf in either matrix
        target = data.draw(st.sampled_from([h_users, h_items]))
        target[data.draw(st.integers(0, len(target) - 1)),
               data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(_SPECIALS))
    # each user's items in a random order: the first `held` split between val
    # and test, the rest in train, so a user may have fewer than K candidates
    train, val, test = [], [], []
    for u in range(num_users):
        order = rng.permutation(num_items).tolist()
        held = data.draw(st.integers(2 if u == 0 else 0, num_items))
        train += [[u, i] for i in order[held:]]
        val += [[u, i] for i in order[:held // 2]]
        test += [[u, i] for i in order[held // 2:held]]
    ks = tuple(data.draw(st.lists(st.integers(1, num_items + 2), min_size=1, max_size=3,
                                  unique=True)))  # K >= num_items too
    ds, reps = _dataset(num_users, num_items, train, val, test), _reps(h_users, h_items)
    threshold = data.draw(st.sampled_from([1, 2, 4, float("inf")]))
    kept = ds.test[ds.item_train_degree[ds.test[:, 1]] < threshold].tolist()
    sliced = _dataset(num_users, num_items, train, val, kept)
    with np.errstate(all="ignore"):
        reports = [(evaluate(reps, ds, "val", ks), ds, "val"),
                   (evaluate(reps, ds, "test", ks), ds, "test"),
                   (longtail_evaluate(reps, ds, ks, threshold), sliced, "test")]
        for report, truth, split in reports:
            if not len(truth.split(split)):
                assert report.users_evaluated == 0
                continue
            recall, ndcg, count = bruteforce_evaluate(h_users, h_items, truth, split, ks)
            assert report.users_evaluated == count
            assert report.recall == recall and report.ndcg == ndcg


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300),
                max_size=60))
def test_prefix_fsums_equal_fsum_of_each_prefix(values):
    got = evaluator._prefix_fsums(values)
    want = [math.fsum(values[:m]) for m in range(1, len(values) + 1)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_ideal_dcg_of_a_long_relevant_list_is_linear():
    # 10,000 relevant items, every other one of a 20,000-item top: the ideal
    # DCG runs to 10,000 prefixes, which one fsum per prefix makes quadratic
    tops, relevant = [np.arange(20000)], [np.arange(0, 20000, 2)]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        report = ranked_report(tops, relevant, (10**7,))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2
    disc = [1.0 / math.log2(r + 1.0) for r in range(1, 20001)]
    dcg, ideal = math.fsum(disc[0::2]), math.fsum(disc[:10000])
    assert report.recall == {10**7: 1.0}
    assert report.ndcg == {10**7: dcg / ideal}
