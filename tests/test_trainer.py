import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from alignrec.data import Dataset, split_dataset
from alignrec.errors import DataError
from alignrec.losses import total_loss
from alignrec.model import PARAM_NAMES, forward, init_params
from alignrec.optim import Adam, SGD
from alignrec.trainer import (TrainConfig, TrainState, _batch_at, fit, sample_batch,
                              train_epoch)

from conftest import random_instance
from oracles import ScalarAdam, negatives_reference, raw_from_records


def _train_only_dataset(train, num_items):
    num_users = int(train[:, 0].max()) + 1
    return Dataset(num_users=num_users, num_items=num_items, train=train,
                   val=train[:0], test=train[:0],
                   user_keys=[f"u{u}" for u in range(num_users)],
                   item_keys=[f"i{i}" for i in range(num_items)], user_index={}, item_index={})


def _tiny_setup(rng, **kwargs):
    ds, feat, graphs, params, _ = random_instance(rng, **kwargs)
    return ds, feat, graphs


class TestSampling:
    def test_forced_negative(self):
        raw = raw_from_records([("u0", "iA", 0), ("u0", "iB", 1)])
        ds = split_dataset(raw, (1.0, 0.0, 0.0), seed=0)
        # drop the iB edge: the only train row is (u0, iA), so iB is forced
        keep = ds.train[:, 1] == ds.item_index["iA"]
        ds.train = ds.train[keep]
        ds.item_train_degree = np.bincount(ds.train[:, 1], minlength=ds.num_items)
        rng = np.random.default_rng(0)
        for _ in range(10):
            batch = sample_batch(ds, rng, 1)
            assert batch.pos_items[0] == ds.item_index["iA"]
            assert batch.neg_items[0] == ds.item_index["iB"]

    def test_every_item_interacted_raises(self):
        raw = raw_from_records([("u0", "iA", 0), ("u0", "iB", 1),
                                ("u1", "iA", 2), ("u1", "iB", 3)])
        ds = split_dataset(raw, (1.0, 0.0, 0.0), seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="user"):
            sample_batch(ds, rng, 4)

    def test_full_user_error_names_first_in_row_order(self):
        # users 1 and 2 have every item; user 2's row comes first
        train = np.array([[0, 0], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2]],
                         dtype=np.int64)
        ds = _train_only_dataset(train, num_items=3)
        with pytest.raises(DataError) as err:
            _batch_at(ds, np.array([0, 5, 1, 2]), np.random.default_rng(0),
                      ds.user_train_items())
        assert str(err.value) == "user 2 interacts with every item; cannot sample a negative"

    @settings(max_examples=150, deadline=None)
    @given(num_items=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["all_but_one"] * 3 + ["random"] * 3 + ["full"]),
                          min_size=1, max_size=8),
           sizes=st.lists(st.integers(1, 300), min_size=1, max_size=3))
    def test_vectorized_negatives_equal_per_row_loop(self, num_items, seed, kinds, sizes):
        """Per batch, the same negatives, the same DataError and the same
        RNG state after it as the scalar loop in oracles.py; the batches
        run past the 128-draw window and users leave one item free."""
        rng = np.random.default_rng(seed)
        pairs = []
        for u, kind in enumerate(kinds):
            k = {"all_but_one": num_items - 1, "full": num_items,
                 "random": int(rng.integers(1, num_items + 1))}[kind]
            pairs += [[u, i] for i in rng.choice(num_items, size=k, replace=False)]
        if not pairs:
            return  # num_items == 1 and every user left their item free
        ds = _train_only_dataset(np.array(pairs, dtype=np.int64), num_items)
        banned = ds.user_train_items()
        got, want = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for size in sizes:
            rows = rng.integers(len(ds.train), size=size)
            try:
                expected = negatives_reference(ds, rows, want)
            except DataError as exc:
                with pytest.raises(DataError, match=f"^{exc}$"):
                    _batch_at(ds, rows, got, banned)
                return
            batch = _batch_at(ds, rows, got, banned)
            assert np.array_equal(batch.neg_items, expected)
            assert batch.neg_items.dtype == np.int64
            assert got.bit_generator.state == want.bit_generator.state

    def test_sparse_bans_over_many_windows(self, rng):
        # most windows of 128 draws pass clean; user 0 bans all items but one
        num_items = 300
        pairs = [[0, i] for i in range(num_items - 1)]
        pairs += [[u, i] for u in range(1, 60) for i in rng.choice(num_items, 8, replace=False)]
        ds = _train_only_dataset(np.array(pairs, dtype=np.int64), num_items)
        banned = ds.user_train_items()
        got, want = np.random.default_rng(4), np.random.default_rng(4)
        for size in (2048, 700, 129):
            rows = rng.integers(num_items - 1, len(ds.train), size=size)
            rows[[5, size // 2]] = 0  # two rows of user 0
            batch = _batch_at(ds, rows, got, banned)
            assert np.array_equal(batch.neg_items, negatives_reference(ds, rows, want))
            assert got.bit_generator.state == want.bit_generator.state

    def test_fixed_seed_reproduces_batches(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        a = sample_batch(ds, np.random.default_rng(9), 6)
        b = sample_batch(ds, np.random.default_rng(9), 6)
        assert np.array_equal(a.users, b.users)
        assert np.array_equal(a.pos_items, b.pos_items)
        assert np.array_equal(a.neg_items, b.neg_items)

    def test_negative_distribution_uniform(self):
        # one user, 5 items, 2 positives: negatives uniform over 3 items
        records = [("u0", f"i{k}", k) for k in range(5)]
        records += [("u1", f"i{k}", 5 + k) for k in range(5)]
        ds = split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)
        ds.train = np.array([[0, 0], [0, 1]] + [[1, k] for k in range(5)], dtype=np.int64)
        ds.item_train_degree = np.bincount(ds.train[:, 1], minlength=5)
        draws = 10_000
        rows = np.zeros(draws, dtype=np.int64)  # user 0's first train row, every time
        neg = _batch_at(ds, rows, np.random.default_rng(31), ds.user_train_items()).neg_items
        assert np.array_equal(neg, negatives_reference(ds, rows, np.random.default_rng(31)))
        counts = np.bincount(neg, minlength=5)
        assert counts[0] == 0 and counts[1] == 0
        observed = counts[2:]
        chi2 = float(((observed - draws / 3) ** 2 / (draws / 3)).sum())
        # 3 sigma on a chi-square with 2 dof
        assert chi2 < stats.chi2.ppf(0.9973, df=2)


class TestEpoch:
    def test_zero_learning_rate_is_null_update(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        cfg = TrainConfig(learning_rate=0.0, batch_size=4, max_epochs=1,
                          d_e=4, d_h=3, seed=5, optimizer="sgd")
        params = init_params(ds.num_users, ds.num_items, 4, feat.dim, 3,
                             np.random.default_rng(0))
        before = params.copy()
        state = TrainState(params=params, optimizer=SGD(params, 0.0),
                           rng=np.random.default_rng(1))
        train_epoch(state, ds, graphs, feat, cfg)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(params, name), getattr(before, name))

    def test_single_sgd_step_matches_hand_update(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        cfg = TrainConfig(learning_rate=0.05, batch_size=len(ds.train),
                          max_epochs=1, d_e=4, d_h=3, seed=5, optimizer="sgd")
        params = init_params(ds.num_users, ds.num_items, 4, feat.dim, 3,
                             np.random.default_rng(0))
        start = params.copy()
        state = TrainState(params=params, optimizer=SGD(params, cfg.learning_rate),
                           rng=np.random.default_rng(77))
        train_epoch(state, ds, graphs, feat, cfg)

        # replay the same rng stream to reconstruct the one batch
        from alignrec.losses import BatchSample
        rng2 = np.random.default_rng(77)
        perm = rng2.permutation(len(ds.train))
        users = ds.train[perm, 0]
        pos = ds.train[perm, 1]
        neg = negatives_reference(ds, perm, rng2)
        batch = BatchSample(users=users, pos_items=pos, neg_items=neg)
        fp = forward(start, graphs, feat, cfg.gcn_layers)
        _, grads, _ = total_loss(fp, feat, batch, cfg.weights)
        for name in PARAM_NAMES:
            want = getattr(start, name) - cfg.learning_rate * grads[name]
            assert np.max(np.abs(getattr(params, name) - want)) < 1e-15

    def test_loss_trend_on_tiny_instance(self, rng):
        ds, feat, graphs = _tiny_setup(rng, num_users=8, num_items=8, per_user=5)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=50,
                          patience=50, d_e=8, d_h=4, seed=3)
        params = init_params(ds.num_users, ds.num_items, 8, feat.dim, 4,
                             np.random.default_rng(2))
        state = TrainState(params=params, optimizer=Adam(params, cfg.learning_rate),
                           rng=np.random.default_rng(4))
        losses = [train_epoch(state, ds, graphs, feat, cfg)["loss_total"]
                  for _ in range(50)]
        trailing = [float(np.mean(losses[k:k + 10])) for k in range(0, 41, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(trailing, trailing[1:]))


class TestFit:
    def test_patience_stops_and_returns_first_best(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        # zero learning rate keeps the metric flat, so epoch 1 stays best
        cfg = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=10,
                          patience=1, d_e=4, d_h=3, seed=5)
        params, log = fit(ds, graphs, feat, cfg)
        assert len(log) == 2
        init = init_params(ds.num_users, ds.num_items, 4, feat.dim, 3,
                           np.random.default_rng(np.random.SeedSequence(5).spawn(2)[0]))
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(params, name), getattr(init, name))

    def test_fit_deterministic_log(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=5,
                          patience=5, d_e=4, d_h=3, seed=21)
        params_a, log_a = fit(ds, graphs, feat, cfg)
        params_b, log_b = fit(ds, graphs, feat, cfg)
        for name in PARAM_NAMES:
            assert np.array_equal(getattr(params_a, name), getattr(params_b, name))
        keys = ["epoch", "loss_total", "loss_bpr", "loss_cca", "loss_uia",
                "loss_reg", "val_recall@20", "val_ndcg@20"]
        assert [[r[k] for k in keys] for r in log_a] == \
            [[r[k] for k in keys] for r in log_b]

    def test_best_epoch_is_argmax_of_log(self, rng):
        ds, feat, graphs = _tiny_setup(rng, num_users=8, num_items=8, per_user=5)
        cfg = TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=12,
                          patience=12, d_e=8, d_h=4, seed=13)
        params, log = fit(ds, graphs, feat, cfg)
        metrics = [r["val_recall@20"] for r in log]
        best_epoch = int(np.argmax(metrics)) + 1
        fp = forward(params, graphs, feat, cfg.gcn_layers)
        from alignrec.evaluator import evaluate
        got = evaluate(fp.reps, ds, "val", (20,)).recall[20]
        assert got == metrics[best_epoch - 1] == max(metrics)


class TestAdam:
    def test_matches_scalar_reference_on_quadratic(self, rng):
        # minimize 0.5 * (theta - 3)^2 through the user_emb slot
        params = init_params(1, 1, 1, 1, 1, rng)
        params.user_emb[0, 0] = 0.0
        opt = Adam(params, lr=0.1)
        ref = ScalarAdam(lr=0.1)
        theta_ref = 0.0
        for _ in range(100):
            grads = {name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES}
            grads["user_emb"][0, 0] = params.user_emb[0, 0] - 3.0
            grad_ref = theta_ref - 3.0
            opt.step(params, grads)
            theta_ref = ref.step(theta_ref, grad_ref)
            assert abs(params.user_emb[0, 0] - theta_ref) < 1e-12

    def test_lr_decay_schedule(self, rng):
        ds, feat, graphs = _tiny_setup(rng)
        cfg = TrainConfig(learning_rate=1e-2, lr_decay=0.5, batch_size=8,
                          max_epochs=3, patience=3, d_e=4, d_h=3, seed=5)
        params = init_params(ds.num_users, ds.num_items, 4, feat.dim, 3,
                             np.random.default_rng(0))
        state = TrainState(params=params, optimizer=Adam(params, cfg.learning_rate),
                           rng=np.random.default_rng(1))
        for epoch, want in enumerate([1e-2, 5e-3, 2.5e-3]):
            train_epoch(state, ds, graphs, feat, cfg)
            assert state.optimizer.lr == pytest.approx(want, rel=1e-12)
