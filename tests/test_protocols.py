import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import protocols
from alignrec.data import Dataset, split_dataset
from alignrec.errors import ConfigError, DimensionError
from alignrec.features import FeatureMatrix
from alignrec.protocols import (ProtocolConfig, compose_masked, itemcf_eval,
                                itemcf_score, mask_modality_eval,
                                zero_shot_eval)

from oracles import (itemcf_protocol_reference, itemcf_reference, raw_from_records,
                     zero_shot_protocol_reference)


def _temporal_ds(records):
    return split_dataset(raw_from_records(records), (0.8, 0.1, 0.1), seed=0,
                         strategy="temporal-leave-one-out")


def _random_temporal(rng, num_users=8, num_items=12, per_user=4):
    records = []
    for u in range(num_users):
        items = rng.choice(num_items, size=per_user, replace=False)
        for ts, i in enumerate(items):
            records.append((f"u{u:02d}", f"i{i:02d}", ts))
    # make sure every item appears somewhere
    seen = {i for _, i, _ in records}
    for i in range(num_items):
        key = f"i{i:02d}"
        if key not in seen:
            records.append((f"u{u:02d}", key, 99))
    return _temporal_ds(records)


class TestZeroShot:
    def test_exact_match_retrieval(self):
        # u0 history = {i0}, target i1; i1's feature equals i0's
        records = [("u0", "i0", 0), ("u0", "i1", 5),
                   ("u1", "i2", 0), ("u1", "i0", 1)]
        ds = _temporal_ds(records)
        feat = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        data = np.zeros((ds.num_items, 2))
        for key, row in zip(["i0", "i1", "i2"], feat):
            data[ds.item_index[key]] = row
        report = zero_shot_eval(FeatureMatrix(data), ds, ProtocolConfig(ks=(1, 2)))
        u0_target_rank1 = report.recall[1]
        assert u0_target_rank1 >= 0.5  # u0 must recall its duplicate-feature target
        assert report.users_evaluated == 2

    def test_orthogonal_features_miss_until_k_exhausts(self):
        records = [("u0", "i0", 0), ("u0", "i1", 1),
                   ("u1", "i1", 0), ("u1", "i2", 1),
                   ("u2", "i2", 0), ("u2", "i0", 1)]
        ds = _temporal_ds(records)
        data = np.eye(3)[[ds.item_index[k] for k in ["i0", "i1", "i2"]]]
        data = np.eye(3)
        report = zero_shot_eval(FeatureMatrix(data), ds, ProtocolConfig(ks=(1, 2)))
        # candidates per user: 2 items, target similarity 0 -> K=2 always recalls
        assert report.recall[2] == 1.0

    def test_history_order_invariance(self, rng):
        base = [("u0", "i0", 0), ("u0", "i1", 1), ("u0", "i2", 2), ("u0", "i3", 9),
                ("u1", "i1", 0), ("u1", "i0", 1), ("u1", "i3", 2), ("u1", "i2", 9)]
        swapped = [base[2], base[0], base[1], base[3],
                   base[6], base[5], base[4], base[7]]
        feat = FeatureMatrix(rng.normal(size=(4, 6)))
        r1 = zero_shot_eval(feat, _temporal_ds(base), ProtocolConfig(ks=(2,)))
        r2 = zero_shot_eval(feat, _temporal_ds(swapped), ProtocolConfig(ks=(2,)))
        assert r1.recall == r2.recall and r1.ndcg == r2.ndcg

    def test_empty_history_users_skipped(self):
        records = [("u0", "i0", 0),
                   ("u1", "i0", 0), ("u1", "i1", 1)]
        ds = _temporal_ds(records)
        # u0 kept its single interaction in train, so it has no target
        report = zero_shot_eval(FeatureMatrix(np.eye(2)), ds, ProtocolConfig(ks=(1,)))
        assert report.users_evaluated == 1
        assert report.skipped == 1

    def test_candidate_row_scale_invariance(self, rng):
        # the user feature is a raw mean over history rows, so invariance is
        # a candidate-side property: scale an item that is in no history
        ds = _random_temporal(rng)
        in_history = set(ds.train[:, 1].tolist())
        outside = [i for i in range(ds.num_items) if i not in in_history]
        if not outside:
            pytest.skip("every item landed in some history")
        data = rng.normal(size=(ds.num_items, 5))
        r1 = zero_shot_eval(FeatureMatrix(data.copy()), ds, ProtocolConfig(ks=(3,)))
        data[outside[0]] *= 16.0
        r2 = zero_shot_eval(FeatureMatrix(data), ds, ProtocolConfig(ks=(3,)))
        assert r1.recall == r2.recall

    def test_matches_independent_implementation(self, rng):
        for _ in range(5):
            ds = _random_temporal(rng, num_users=10, num_items=14, per_user=5)
            features = rng.normal(size=(ds.num_items, 6))
            report = zero_shot_eval(FeatureMatrix(features), ds,
                                    ProtocolConfig(ks=(1, 3, 7)))
            want_recall, want_ndcg, want_count = zero_shot_protocol_reference(
                features, ds, (1, 3, 7))
            assert report.users_evaluated == want_count
            for k in (1, 3, 7):
                assert report.recall[k] == want_recall[k]
                assert report.ndcg[k] == want_ndcg[k]

    def test_users_past_one_query_block(self, rng):
        # more users than the 2048 whose query rows are built at a time
        ds = _random_temporal(rng, num_users=2100, num_items=30, per_user=4)
        features = rng.normal(size=(ds.num_items, 6))
        report = zero_shot_eval(FeatureMatrix(features), ds, ProtocolConfig(ks=(1, 5)))
        want_recall, want_ndcg, want_count = zero_shot_protocol_reference(features, ds, (1, 5))
        assert report.users_evaluated == want_count == 2100
        assert report.recall == want_recall and report.ndcg == want_ndcg

    def test_random_split_rejected(self, rng):
        # ten items per user: the random split holds out two of them for test
        records = [(f"u{u}", f"i{(u + j) % 12:02d}", j) for u in range(6) for j in range(10)]
        ds = split_dataset(raw_from_records(records), (0.6, 0.2, 0.2), seed=0)
        feat = FeatureMatrix(rng.normal(size=(ds.num_items, 4)))
        cfg = ProtocolConfig(ks=(3,), mask_ratio=0.5)
        message = (r"zero-shot needs one test item per user \(a temporal-leave-one-out "
                   r"split\), but user 'u0' has 2")
        with pytest.raises(ConfigError, match=message):
            zero_shot_eval(feat, ds, cfg)
        with pytest.raises(ConfigError, match=message):
            mask_modality_eval(feat, feat, cfg, "zero_shot", ds)

    def test_itemcf_row_scale_invariance(self, rng):
        ds = _random_temporal(rng)
        data = rng.normal(size=(ds.num_items, 5))
        r1 = itemcf_eval(FeatureMatrix(data.copy()), ds, ProtocolConfig(ks=(3,)))
        data[4] *= 16.0
        r2 = itemcf_eval(FeatureMatrix(data), ds, ProtocolConfig(ks=(3,)))
        assert r1.recall == r2.recall


@pytest.mark.parametrize("evaluate", [zero_shot_eval, itemcf_eval])
def test_k_past_the_item_count_costs_what_the_item_count_does(rng, evaluate):
    ds = _random_temporal(rng, num_users=40, num_items=30, per_user=6)
    feat = FeatureMatrix(rng.normal(size=(ds.num_items, 6)))
    start = time.perf_counter()
    huge = evaluate(feat, ds, ProtocolConfig(ks=(10**7,)))
    assert time.perf_counter() - start < 1.0
    full = evaluate(feat, ds, ProtocolConfig(ks=(ds.num_items,)))
    assert huge.users_evaluated == full.users_evaluated > 0
    assert huge.recall[10**7] == full.recall[ds.num_items]
    assert huge.ndcg[10**7] == full.ndcg[ds.num_items]


def _reference_partners(ds):
    """The first maximum of each row of the reference cosine matrix, -1 for
    an all-zero row."""
    scores = itemcf_reference(ds)
    return np.where(scores.max(axis=1) > 0.0, np.argmax(scores, axis=1), -1)


def _train_only(num_users, num_items, pairs):
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    empty = np.empty((0, 2), dtype=np.int64)
    return Dataset(num_users=num_users, num_items=num_items, train=pairs, val=empty,
                   test=empty, user_keys=[f"u{u}" for u in range(num_users)],
                   item_keys=[f"i{i}" for i in range(num_items)],
                   user_index={f"u{u}": u for u in range(num_users)},
                   item_index={f"i{i}": i for i in range(num_items)})


class TestItemCfScore:
    def test_identical_user_sets(self):
        records = [("u0", "iA", 0), ("u0", "iB", 1),
                   ("u1", "iA", 2), ("u1", "iB", 3)]
        ds = split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)
        a, b = ds.item_index["iA"], ds.item_index["iB"]
        partner = itemcf_score(ds)
        assert partner[a] == b and partner[b] == a
        assert partner.tolist() == _reference_partners(ds).tolist()

    def test_disjoint_user_sets(self):
        records = [("u0", "iA", 0), ("u0", "iB", 1),
                   ("u1", "iC", 2), ("u1", "iD", 3),
                   ("u2", "iE", 4)]
        ds = split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)
        partner = itemcf_score(ds)
        index = ds.item_index
        assert partner[index["iA"]] == index["iB"] and partner[index["iC"]] == index["iD"]
        assert partner[index["iE"]] == -1  # shares its only user with no item
        assert partner.tolist() == _reference_partners(ds).tolist()

    def test_matches_bruteforce_oracle_exactly(self, rng):
        for _ in range(5):
            ds = _random_temporal(rng, num_users=9, num_items=10, per_user=4)
            assert itemcf_score(ds).tolist() == _reference_partners(ds).tolist()

    def test_symmetry(self):
        # items paired by identical user sets score 1.0 with each other only,
        # so each is the other's partner
        pairs = [(u, i) for i in range(8) for u in (2 * (i // 2), 2 * (i // 2) + 1)]
        ds = _train_only(8, 8, pairs)
        assert itemcf_score(ds).tolist() == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_ties_across_item_blocks(self):
        # item i has users {i, i + 1}, so its two neighbours tie at 1/2; the
        # group items share exactly the users 2000 and 2001 and tie at 1.0,
        # with members in the first three 512-item blocks
        n, group = 1100, [510, 511, 512, 513, 1030]
        pairs = [(u, i) for i in range(n) if i not in group for u in (i, i + 1)]
        pairs += [(u, i) for i in group for u in (2000, 2001)]
        ds = _train_only(2002, n, pairs)
        partner = itemcf_score(ds)
        assert partner[group].tolist() == [511, 510, 510, 510, 510]
        assert partner[[0, 5, 509, 514, 1099]].tolist() == [1, 4, 508, 515, 1098]
        assert partner.tolist() == _reference_partners(ds).tolist()


    def test_diagonal_only_row_unused_item_and_ties(self):
        # item 0's one user has no other item, so its row holds only the
        # diagonal; item 5 has no train user; items 1, 2 and 3 share users
        # {1, 2} and tie at 1.0; item 4 ties at 1/2 with each of them and item 6
        pairs = [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3),
                 (1, 4), (3, 4), (3, 6), (4, 6)]
        ds = _train_only(5, 7, pairs)
        for block in (1, 2, 3, 512):
            with mock.patch.object(protocols, "_ITEM_BLOCK", block):
                assert itemcf_score(ds).tolist() == [-1, 2, 1, 1, 1, -1, 4]
        assert _reference_partners(ds).tolist() == [-1, 2, 1, 1, 1, -1, 4]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=30, unique=True),
           st.sampled_from([1, 3, 4, 512]))
    @settings(max_examples=120, deadline=None)
    def test_drawn_instances_match_reference(self, pairs, block):
        # few users, so partners tie often; items 10 and 11 never have a user
        ds = _train_only(6, 12, pairs)
        with mock.patch.object(protocols, "_ITEM_BLOCK", block):
            assert itemcf_score(ds).tolist() == _reference_partners(ds).tolist()


class TestItemCfEval:
    def test_perfect_correlation_features(self):
        # two item blocks with identical user sets inside each block
        records = []
        for u in (0, 1):
            for i in (0, 1, 2):
                records.append((f"u{u}", f"i{i}", i))
        for u in (2, 3):
            for i in (3, 4, 5):
                records.append((f"u{u}", f"i{i}", i))
        ds = split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)
        features = itemcf_reference(ds)
        report = itemcf_eval(FeatureMatrix(features), ds, ProtocolConfig(ks=(1,)))
        assert report.recall[1] == 1.0
        assert report.users_evaluated == 6

    def test_matches_independent_implementation(self, rng):
        ds = _random_temporal(rng, num_users=10, num_items=12, per_user=4)
        features = rng.normal(size=(ds.num_items, 6))
        report = itemcf_eval(FeatureMatrix(features), ds, ProtocolConfig(ks=(2, 5)))
        want_recall, want_ndcg, want_count = itemcf_protocol_reference(features, ds, (2, 5))
        assert report.users_evaluated == want_count
        for k in (2, 5):
            assert report.recall[k] == want_recall[k]
            assert report.ndcg[k] == want_ndcg[k]


class TestMaskModality:
    def _fixtures(self, rng):
        ds = _random_temporal(rng)
        primary = FeatureMatrix(rng.normal(size=(ds.num_items, 5)))
        masked = FeatureMatrix(rng.normal(size=(ds.num_items, 5)))
        return ds, primary, masked

    def test_zero_ratio_equals_base_bitwise(self, rng):
        ds, primary, masked = self._fixtures(rng)
        cfg = ProtocolConfig(ks=(2, 4), mask_ratio=0.0, mask_seed=3)
        base = zero_shot_eval(primary, ds, cfg)
        got = mask_modality_eval(primary, masked, cfg, "zero_shot", ds)
        assert got.recall == base.recall and got.ndcg == base.ndcg

    def test_full_ratio_equals_masked_matrix(self, rng):
        ds, primary, masked = self._fixtures(rng)
        cfg = ProtocolConfig(ks=(2, 4), mask_ratio=1.0, mask_seed=3)
        base = zero_shot_eval(masked, ds, cfg)
        got = mask_modality_eval(primary, masked, cfg, "zero_shot", ds)
        assert got.recall == base.recall and got.ndcg == base.ndcg

    def test_seeded_determinism(self, rng):
        ds, primary, masked = self._fixtures(rng)
        cfg = ProtocolConfig(ks=(3,), mask_ratio=0.5, mask_seed=11)
        a = mask_modality_eval(primary, masked, cfg, "item_cf", ds)
        b = mask_modality_eval(primary, masked, cfg, "item_cf", ds)
        assert a.recall == b.recall and a.ndcg == b.ndcg

    def test_mask_count_floor(self, rng):
        ds, primary, masked = self._fixtures(rng)
        composite, n_mask = compose_masked(primary, masked, 0.5, 7)
        assert n_mask == int(np.floor(0.5 * primary.rows))
        changed = np.flatnonzero(np.any(composite.data != primary.data, axis=1))
        assert len(changed) == n_mask

    def test_shape_mismatch_rejected(self, rng):
        ds, primary, _ = self._fixtures(rng)
        bad = FeatureMatrix(rng.normal(size=(primary.rows, primary.dim + 1)))
        with pytest.raises(DimensionError):
            mask_modality_eval(primary, bad, ProtocolConfig(mask_ratio=0.5), "zero_shot", ds)
