"""The train step's kernels, bit for bit against the frozen serial and
out-of-place references in oracles.py: the batch-sized R^T product, the
implicit sim^T product, the two-lane propagation, the forward pass sized to
a batch's users, the in-place InfoNCE side, similarity regularizer and Adam,
and a few train_epoch steps whose batches each cover a strict subset of the
users."""

import threading

from types import SimpleNamespace

import numpy as np
import pytest

from alignrec import losses, model, trainer
from alignrec.errors import DimensionError, InternalInvariantError
from alignrec.evaluator import evaluate, longtail_evaluate
from alignrec.features import FeatureMatrix
from alignrec.graphs import build_knn_similarity
from alignrec.losses import _infonce_side, _reg_rep
from alignrec.model import PARAM_NAMES, ForwardPass, init_params, lightgcn_propagate
from alignrec.optim import Adam
from alignrec.sparse import SparseMatrix
from alignrec.trainer import TrainConfig, TrainState, train_epoch

from conftest import manual_batch, random_instance
from oracles import (AdamReference, backward_reference, forward_reference,
                     infonce_side_reference, lightgcn_reference, reg_rep_reference,
                     tdot_reference)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _interactions(rng, users=40, items=15):
    """A normalized-looking interaction matrix with users 3 and 17 empty and
    weights spread over many binades."""
    dense = rng.random((users, items)) < 0.3
    dense[[3, 17]] = False
    weights = np.exp(rng.normal(scale=4.0, size=(users, items)))
    return SparseMatrix.from_scipy(np.where(dense, weights, 0.0))


class TestTdot:
    @pytest.mark.parametrize("case", ["empty", "all", "one", "first", "last",
                                      "some", "empty_matrix_rows"])
    def test_restricted_product_matches_explicit_transpose(self, rng, case):
        R = _interactions(rng)
        n = R.rows
        rows = {"empty": [], "all": range(n), "one": [7], "first": [0],
                "last": [n - 1], "some": [0, 2, 5, 11, 30, n - 1],
                "empty_matrix_rows": [3, 4, 17]}[case]
        rows = np.asarray(rows, dtype=np.int64)
        x = rng.normal(size=(n, 4))
        outside = np.setdiff1d(np.arange(n), rows)
        x[outside] = 0.0
        x[outside[::2]] = -0.0  # signed zeros in the rows left out
        if rows.size:
            x[rows[0], 1] = 0.0
            x[rows[-1]] = -0.0  # a kept row of -0.0 only
        got = R.take_rows(rows).tdot(x[rows])
        assert _same_bytes(got, tdot_reference(R, x))
        assert _same_bytes(got, R._scipy.T @ x)
        assert not np.signbit(got[got == 0.0]).any()  # sums start at +0.0

    def test_any_nonzero_rows_of_random_sparse_inputs(self, rng):
        R = _interactions(rng, users=300, items=40)
        for _ in range(20):
            x = np.where(rng.random((300, 1)) < 0.2, rng.normal(size=(300, 8)), -0.0)
            rows = np.flatnonzero(x.any(axis=1))
            assert _same_bytes(R.take_rows(rows).tdot(x[rows]), tdot_reference(R, x))

    def test_knn_sim_product_matches_explicit_transpose(self, rng):
        # backward's sim^T product: item 4's feature is orthogonal to every
        # other row, so its row and column of sim are empty
        feat = rng.normal(size=(40, 6))
        feat[:, 0] = 0.0
        feat[4] = np.eye(6)[0]
        sim = build_knn_similarity(FeatureMatrix(feat), 5)
        dense = sim._scipy.toarray()
        assert not dense[4].any() and not dense[:, 4].any()
        for _ in range(10):
            x = rng.normal(size=(40, 8))
            x[rng.random(40) < 0.3] = 0.0
            x[rng.random((40, 8)) < 0.2] = -0.0
            assert _same_bytes(sim.tdot(x), tdot_reference(sim, x))


class TestInfonceSide:
    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("tau", [0.2, 0.01])
    def test_matches_out_of_place_reference(self, rng, n, tau):
        x = rng.normal(size=(n, 5))
        y = rng.normal(size=(n, 5))
        got, want = _infonce_side(x, y, tau), infonce_side_reference(x, y, tau)
        assert _same_bytes(got[0], want[0])
        assert _same_bytes(got[1], want[1]) and _same_bytes(got[2], want[2])

    @pytest.mark.parametrize("tau", [0.2, 0.01])
    def test_zero_norm_rows(self, rng, tau):
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 4))
        x[[0, 3]] = 0.0
        y[3] = -0.0
        y[5] = 0.0
        got, want = _infonce_side(x, y, tau), infonce_side_reference(x, y, tau)
        for a, b in zip(got, want):
            assert _same_bytes(a, b)

    def test_large_logits_at_small_tau(self, rng):
        # near-equal rows: logits near 1/tau = 100 in every cell, so the
        # shift by the row max carries the whole computation
        base = rng.normal(size=(1, 8))
        x = base + 1e-3 * rng.normal(size=(30, 8))
        y = base + 1e-3 * rng.normal(size=(30, 8))
        got, want = _infonce_side(x, y, 0.01), infonce_side_reference(x, y, 0.01)
        for a, b in zip(got, want):
            assert _same_bytes(a, b)

    def test_target_whose_exp_underflows(self, rng):
        # y_a = -x_a: each target logit is -1/tau = -1000 before the shift,
        # so its exp is 0.0 and the loss reads the shifted logit itself
        x = rng.normal(size=(12, 6))
        got, want = _infonce_side(x, -x, 0.001), infonce_side_reference(x, -x, 0.001)
        assert np.isfinite(got[0])
        for a, b in zip(got, want):
            assert _same_bytes(a, b)


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_backward_matches_full_products_on_disjoint_user_rows(rng, layers):
    # each user-side gradient is nonzero on its own rows, with -0.0 rows
    # between them, so neither row set covers the other
    ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
    fp = model.forward(params, graphs, feat, layers)
    g = fp.zero_rep_grads()
    for name, users in (("h_mm_users", [1, 4]), ("h_id_users", [4, 9, 29]),
                        ("h_users", [0, 20])):
        getattr(g, name)[users] = rng.normal(size=(len(users), g.h_users.shape[1]))
    g.h_id_users[[5, 6]] = -0.0
    g.h_items[:] = rng.normal(size=g.h_items.shape)
    g.h_mm_items[3] = rng.normal(size=g.h_items.shape[1])
    got, want = fp.backward(g), backward_reference(fp, g)
    for name in PARAM_NAMES:
        assert _same_bytes(got[name], want[name])


def _user_sets(n, rng):
    """Sorted distinct user sets: every user, one user, the first, the last,
    a random batch's users and none."""
    return {"all": np.arange(n), "one": np.array([n // 2]), "first": np.array([0]),
            "last": np.array([n - 1]), "batch": np.unique(rng.integers(n, size=n // 2)),
            "empty": np.array([], dtype=np.int64)}


class TestTwoLanePropagation:
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_full_products_match_serial_reference(self, rng, layers):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
        got = lightgcn_propagate(graphs.inter_norm, graphs.inter_t,
                                 params.user_emb, params.item_emb, layers)
        want = lightgcn_reference(graphs.inter_norm, graphs.inter_t,
                                  params.user_emb, params.item_emb, layers)
        assert all(_same_bytes(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_user_mean_at_rows_matches_serial_reference(self, rng, layers):
        R = _interactions(rng)
        Rt = R.transpose()
        users, items = rng.normal(size=(R.rows, 5)), rng.normal(size=(R.cols, 5))
        want_u, want_i = lightgcn_reference(R, Rt, users, items, layers)
        for case, rows in _user_sets(R.rows, rng).items():
            got_u, got_i = lightgcn_propagate(R, Rt, users, items, layers,
                                              (rows, R.take_rows(rows)))
            assert _same_bytes(got_u, want_u[rows]), case
            assert _same_bytes(got_i, want_i), case

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_input_at_rows_matches_serial_reference(self, rng, layers):
        # the rows of an input that is zero outside them, as the backward
        # pass hands over its user-side gradient; kept rows hold -0.0 too
        R = _interactions(rng)
        Rt = R.transpose()
        items = rng.normal(size=(R.cols, 5))
        for case, rows in _user_sets(R.rows, rng).items():
            users = np.zeros((R.rows, 5))
            users[rows] = rng.normal(size=(len(rows), 5))
            if rows.size:
                users[rows[-1]] = -0.0
            got = lightgcn_propagate(R, Rt, users[rows], items, layers,
                                     (rows, R.take_rows(rows)))
            want = lightgcn_reference(R, Rt, users, items, layers)
            assert all(_same_bytes(a, b) for a, b in zip(got, want)), case

    def test_error_on_the_helper_comes_back_typed(self, rng):
        R = _interactions(rng)
        Rt = R.transpose()
        items = rng.normal(size=(R.cols, 3))
        bad = rng.normal(size=(R.rows + 1, 3))  # only the R^T half rejects it
        with pytest.raises(DimensionError) as serial:
            Rt.dot(bad)
        with pytest.raises(DimensionError) as helper:
            lightgcn_propagate(R, Rt, bad, items, 2)
        assert str(helper.value) == str(serial.value)
        # the helper goes on serving later layers
        users = rng.normal(size=(R.rows, 3))
        got = lightgcn_propagate(R, Rt, users, items, 2)
        assert all(_same_bytes(a, b) for a, b in
                   zip(got, lightgcn_reference(R, Rt, users, items, 2)))

    def test_one_helper_thread_after_many_forwards(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
        for n in range(40):
            users = np.unique(rng.integers(ds.num_users, size=5)) if n % 2 else None
            model.forward(params, graphs, feat, 1 + n % 3, users)
        helpers = [t for t in threading.enumerate() if t.name.startswith("alignrec-propagate")]
        assert len(helpers) == 1 and helpers[0].is_alive()


class TestBatchForward:
    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_rows_at_users_match_full_forward(self, rng, layers):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
        full = model.forward(params, graphs, feat, layers).reps
        ref = forward_reference(params, graphs, feat, layers).reps
        for name in ("h_id_users", "h_id_items", "h_mm_items", "h_mm_users",
                     "h_users", "h_items"):
            assert _same_bytes(getattr(full, name), getattr(ref, name))
        for case, users in _user_sets(ds.num_users, rng).items():
            if not users.size:
                continue  # a batch has at least one user
            fp = model.forward(params, graphs, feat, layers, users)
            assert np.array_equal(fp.user_rows(users), np.arange(len(users))), case
            for name in ("h_id_users", "h_mm_users", "h_users"):
                assert _same_bytes(getattr(fp.reps, name), getattr(full, name)[users]), case
            for name in ("h_id_items", "h_mm_items", "h_items"):
                assert _same_bytes(getattr(fp.reps, name), getattr(full, name)), case

    @pytest.mark.parametrize("layers", [0, 1, 2, 3])
    def test_total_loss_matches_full_forward(self, rng, layers):
        # the losses read and the backward pass chains the user side at the
        # batch's rows; values, parts and all six gradients keep their bits
        ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
        weights = losses.LossWeights()
        for size in (1, 7, 40):
            rows = rng.integers(len(ds.train), size=size)
            batch = manual_batch(ds.train[rows, 0], ds.train[rows, 1],
                                 rng.integers(ds.num_items, size=size))
            for users in (batch.distinct_users, np.arange(ds.num_users)):
                got = losses.total_loss(model.forward(params, graphs, feat, layers, users),
                                        feat, batch, weights)
                want = losses.total_loss(forward_reference(params, graphs, feat, layers),
                                         feat, batch, weights)
                assert _same_bytes(got[0], want[0])
                assert all(_same_bytes(got[2][k], want[2][k]) for k in want[2])
                assert all(_same_bytes(got[1][k], want[1][k]) for k in PARAM_NAMES)

    def test_partial_representations_are_never_ranked(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=30, num_items=12)
        reps = model.forward(params, graphs, feat, 2, np.arange(0, 30, 3)).reps
        for rank in (lambda: evaluate(reps, ds, "val", (5,)),
                     lambda: evaluate(reps, ds, "test", (5,)),
                     lambda: longtail_evaluate(reps, ds, (5,))):
            with pytest.raises(InternalInvariantError, match="cannot rank 10 of 30 users"):
                rank()


def _reg_case(x_rows, f_rows):
    """A forward pass, features and a batch for _reg_rep over items 0..n-1."""
    n = len(x_rows)
    fp = SimpleNamespace(reps=SimpleNamespace(h_mm_items=np.array(x_rows, dtype=float)))
    feat = FeatureMatrix(np.array(f_rows, dtype=float))
    batch = manual_batch(np.zeros(n, dtype=np.int64), np.arange(n)[::-1], np.zeros(n))
    return fp, feat, batch


def _reg_both(fp, feat, batch, weight=0.1):
    g_got = SimpleNamespace(h_mm_items=np.zeros_like(fp.reps.h_mm_items))
    g_want = SimpleNamespace(h_mm_items=np.zeros_like(fp.reps.h_mm_items))
    got = _reg_rep(fp, feat, batch, g_got, weight)
    want = reg_rep_reference(fp, feat, batch, g_want, weight)
    return _same_bytes(got, want) and _same_bytes(g_got.h_mm_items, g_want.h_mm_items)


class TestRegRep:
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_matches_out_of_place_reference(self, rng, n):
        assert _reg_both(*_reg_case(rng.normal(size=(n, 4)), rng.normal(size=(n, 6))))

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_zero_norm_rows_of_x(self, rng, n):
        x = rng.normal(size=(n, 4))
        x[0] = 0.0
        x[-1] = -0.0
        assert _reg_both(*_reg_case(x, rng.normal(size=(n, 6))))

    def test_exact_zeros_in_diff(self, rng):
        # x rows equal to the feature rows: every cosine difference is an
        # exact zero, and np.sign keeps its sign bit
        f = rng.normal(size=(5, 4))
        assert _reg_both(*_reg_case(f, f))
        x = rng.normal(size=(5, 4))
        x[[1, 3]] = f[[1, 3]]  # the (1, 3) difference alone is exactly zero
        assert _reg_both(*_reg_case(x, f))


class TestAdamInPlace:
    @pytest.mark.parametrize("kind", ["random", "zero", "lr0"])
    def test_five_steps_match_out_of_place_reference(self, rng, kind):
        params = init_params(7, 5, 3, 4, 2, rng)
        ref_params = params.copy()
        lr = 0.0 if kind == "lr0" else 0.01
        opt, ref = Adam(params, lr), AdamReference(ref_params, lr)
        for _ in range(5):
            grads = {name: rng.normal(size=getattr(params, name).shape) * 1e-3
                     for name in PARAM_NAMES}
            if kind == "zero":
                grads = {name: np.zeros_like(g) for name, g in grads.items()}
            grads["gate_b1"][0] = -0.0
            opt.step(params, {name: g.copy() for name, g in grads.items()})
            ref.step(ref_params, grads)
            for name in PARAM_NAMES:
                assert _same_bytes(getattr(params, name), getattr(ref_params, name))
                assert _same_bytes(opt.m[name], ref.m[name])
                assert _same_bytes(opt.v[name], ref.v[name])
        assert opt.t == ref.t == 5


    def test_rows_past_one_block_match_reference(self, rng):
        # 4100 user rows: two full 2048-row blocks and a short one
        params = init_params(4100, 5, 3, 4, 2, rng)
        ref_params = params.copy()
        opt, ref = Adam(params, 0.01), AdamReference(ref_params, 0.01)
        for _ in range(3):
            grads = {name: rng.normal(size=getattr(params, name).shape) * 1e-3
                     for name in PARAM_NAMES}
            opt.step(params, {name: g.copy() for name, g in grads.items()})
            ref.step(ref_params, grads)
        for name in PARAM_NAMES:
            assert _same_bytes(getattr(params, name), getattr(ref_params, name))
            assert _same_bytes(opt.m[name], ref.m[name])
            assert _same_bytes(opt.v[name], ref.v[name])


def _add_at_sums(index, rows):
    """np.add.at into zeros, the scatter _row_sums replaced."""
    total = np.zeros((int(index.max()) + 1, rows.shape[1]))
    np.add.at(total, index, rows)
    unique = np.unique(index)
    return unique, total[unique]


class TestRowSums:
    def _check(self, index, rows):
        unique, sums = losses._row_sums(np.asarray(index, dtype=np.int64), rows)
        want_unique, want = _add_at_sums(np.asarray(index, dtype=np.int64), rows)
        assert _same_bytes(unique, want_unique)
        assert _same_bytes(sums, want)
        assert not np.signbit(sums[sums == 0.0]).any()  # sums start at +0.0

    def test_negative_zeros(self, rng):
        rows = rng.normal(size=(9, 3))
        rows[[0, 4]] = -0.0  # index 2 sums -0.0 rows only
        rows[5, 1] = -0.0
        self._check([2, 7, 1, 7, 2, 1, 0, 7, 3], rows)

    def test_subnormal_rows(self, rng):
        tiny = np.finfo(float).smallest_subnormal
        rows = rng.integers(-50, 50, size=(40, 4)) * tiny
        rows[::7] *= 1e300  # large terms between subnormal ones: the order shows
        self._check(rng.integers(0, 5, size=40), rows)

    def test_one_index(self, rng):
        rows = rng.normal(size=(86, 5)) * np.exp(rng.normal(scale=20.0, size=(86, 1)))
        self._check(np.full(86, 11), rows)
        self._check([0], rows[:1])

    def test_zipf_repeats(self, rng):
        index = np.minimum(rng.zipf(1.3, size=2048), 20124) - 1
        assert np.bincount(index).max() > 50
        self._check(index, rng.normal(size=(2048, 64)) * np.exp(rng.normal(scale=8.0, size=(2048, 1))))

    def test_positives_then_negatives(self, rng):
        pos, neg = rng.integers(0, 30, size=200), rng.integers(0, 30, size=200)
        d = rng.normal(size=(200, 6))
        unique, sums = losses._row_sums(np.concatenate([pos, neg]), np.concatenate([d, -d]))
        want = np.zeros((30, 6))
        np.add.at(want, pos, d)
        np.add.at(want, neg, -d)
        assert _same_bytes(unique, np.unique(np.concatenate([pos, neg])))
        assert _same_bytes(sums, want[unique])

    def test_bpr_accumulator_matches_add_at_scatter(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=8, num_items=9)
        fp = model.forward(params, graphs, feat, 2)
        # users repeat, and items 1 and 4 are both positive and negative
        batch = manual_batch([0, 3, 0, 5, 3, 0], [1, 4, 2, 1, 4, 6], [4, 1, 7, 8, 1, 4])
        g = fp.zero_rep_grads()
        value = losses._bpr_rep(fp, batch, g)
        u, i, j = batch.users, batch.pos_items, batch.neg_items
        hu, hi, hj = fp.reps.h_users[u], fp.reps.h_items[i], fp.reps.h_items[j]
        margin = np.sum(hi * hu, axis=1) - np.sum(hj * hu, axis=1)
        d_margin = -losses.expit(-margin) / len(batch)
        want = fp.zero_rep_grads()
        np.add.at(want.h_users, u, d_margin[:, None] * (hi - hj))
        np.add.at(want.h_items, i, d_margin[:, None] * hu)
        np.add.at(want.h_items, j, -d_margin[:, None] * hu)
        assert _same_bytes(value, np.mean(np.logaddexp(0.0, -margin)))
        assert _same_bytes(g.h_users, want.h_users)
        assert _same_bytes(g.h_items, want.h_items)


def _run_steps(ds, feat, graphs, cfg, reference: bool, monkeypatch):
    """One train_epoch from a fixed start; returns the state, each step's
    loss parts and the users of each batch."""
    params = init_params(ds.num_users, ds.num_items, cfg.d_e, feat.dim, cfg.d_h,
                         np.random.default_rng(3))
    opt = (AdamReference if reference else Adam)(params, cfg.learning_rate)
    state = TrainState(params=params, optimizer=opt, rng=np.random.default_rng(8))
    steps, restricted = [], []
    total_loss = trainer.total_loss

    def recorded(fp, feat, batch, weights, counters=None):
        value, grads, parts = total_loss(fp, feat, batch, weights, counters)
        steps.append((value, parts, np.unique(batch.users)))
        return value, grads, parts

    step = opt.step

    def checked(params, grads):
        step(params, grads)
        # no moment shares memory with a parameter, a gradient or another moment
        moments = list(opt.m.values()) + list(opt.v.values())
        arrays = list(params.as_dict().values()) + list(grads.values()) + moments
        for moment in moments:
            assert not any(np.shares_memory(moment, a) for a in arrays if a is not moment)

    opt.step = checked

    take_rows = SparseMatrix.take_rows

    def spied(self, rows):
        restricted.append(rows)
        return take_rows(self, rows)

    with monkeypatch.context() as m:
        m.setattr(trainer, "total_loss", recorded)
        if reference:
            m.setattr(losses, "_infonce_side", infonce_side_reference)
            m.setattr(losses, "_reg_rep", reg_rep_reference)
            m.setattr(trainer, "forward", forward_reference)
            m.setattr(ForwardPass, "backward", backward_reference)
        m.setattr(SparseMatrix, "take_rows", spied)
        moments = [id(opt.m[n]) for n in PARAM_NAMES] + [id(opt.v[n]) for n in PARAM_NAMES]
        train_epoch(state, ds, graphs, feat, cfg)
    if not reference:
        # updated in place: the same arrays as before the epoch
        assert moments == [id(opt.m[n]) for n in PARAM_NAMES] + [id(opt.v[n]) for n in PARAM_NAMES]
    return state, steps, restricted


def test_train_epoch_trajectory_matches_reference_bitwise(rng, monkeypatch):
    ds, feat, graphs, _, _ = random_instance(rng, num_users=40, num_items=25, d_e=6,
                                             d_f=7, d_h=5, per_user=6, k_prime=4)
    cfg = TrainConfig(learning_rate=0.05, batch_size=24, d_e=6, d_h=5)
    state, steps, restricted = _run_steps(ds, feat, graphs, cfg, False, monkeypatch)
    ref_state, ref_steps, ref_restricted = _run_steps(ds, feat, graphs, cfg, True, monkeypatch)

    assert len(steps) >= 3 and not ref_restricted
    # every batch leaves users out, and each step sliced R once, at its
    # batch's users, for the forward's and the backward's user-side products
    assert all(users.size < ds.num_users for _, _, users in steps)
    assert len(restricted) == len(steps)
    for (_, _, users), rows in zip(steps, restricted):
        assert np.array_equal(rows, users)
    for (value, parts, _), (ref_value, ref_parts, _) in zip(steps, ref_steps):
        assert _same_bytes(value, ref_value)
        assert all(_same_bytes(parts[k], ref_parts[k]) for k in ref_parts)
    opt, ref = state.optimizer, ref_state.optimizer
    assert opt.t == ref.t == len(steps)
    for name in PARAM_NAMES:
        assert _same_bytes(getattr(state.params, name), getattr(ref_state.params, name))
        assert _same_bytes(opt.m[name], ref.m[name])
        assert _same_bytes(opt.v[name], ref.v[name])
    # the trajectory moved the parameters: the comparison is not vacuous
    assert not np.array_equal(state.params.user_emb,
                              init_params(ds.num_users, ds.num_items, 6, 7, 5,
                                          np.random.default_rng(3)).user_emb)
