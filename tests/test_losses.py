import math

import numpy as np
import pytest

from alignrec.errors import ConfigError
from alignrec.features import FeatureMatrix
from alignrec.losses import (BatchSample, LossWeights, _bpr_rep, _cca_rep, _reg_rep,
                             _uia_rep, bpr_loss, cca_infonce, reg_similarity,
                             total_loss, uia_cosine)
from alignrec.model import PARAM_NAMES, forward
from alignrec.trainer import sample_batch

from conftest import manual_batch, random_instance
from oracles import finite_diff_grads, max_relative_error


def _fd_check(rng, loss_fn, **instance_kwargs):
    ds, feat, graphs, params, batch = random_instance(rng, **instance_kwargs)

    def value_of(p):
        fp = forward(p, graphs, feat, 2)
        return loss_fn(fp, feat, batch)[0]

    fp = forward(params, graphs, feat, 2)
    value, grads = loss_fn(fp, feat, batch)[:2]
    assert np.isfinite(value)
    fd = finite_diff_grads(value_of, params)
    assert max_relative_error(grads, fd) < 1e-6
    return value


class TestBpr:
    def test_equal_scores_is_ln2(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_items[1] = fp.reps.h_items[2]
        batch = manual_batch([0], [1], [2])
        value, _ = bpr_loss(fp, batch)
        assert value == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_margin_vanishes(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_users[0] = np.zeros(params.user_emb.shape[1])
        fp.reps.h_users[0][0] = 1.0
        fp.reps.h_items[1] = np.zeros(params.user_emb.shape[1])
        fp.reps.h_items[1][0] = 1e4
        fp.reps.h_items[2] = -fp.reps.h_items[1]
        value, _ = bpr_loss(fp, manual_batch([0], [1], [2]))
        assert value < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        _fd_check(rng, lambda fp, feat, batch: bpr_loss(fp, batch))


class TestCca:
    def test_single_item_single_user_is_zero(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        value, _ = cca_infonce(fp, manual_batch([0, 0], [1, 1], [2, 3]), tau=0.2)
        assert value == 0.0

    def test_uniform_logits_give_ln2(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        shared = np.zeros(params.user_emb.shape[1])
        shared[0] = 1.0
        fp.reps.h_id_items[0] = shared
        fp.reps.h_id_items[1] = shared
        fp.reps.h_mm_items[0] = np.arange(params.user_emb.shape[1], dtype=float) + 1.0
        fp.reps.h_mm_items[1] = np.ones(params.user_emb.shape[1])
        value, _ = cca_infonce(fp, manual_batch([0, 0], [0, 1], [2, 3]), tau=0.2)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        ds, feat, graphs, params, batch = random_instance(
            rng, num_users=8, num_items=8, per_user=5)
        fp = forward(params, graphs, feat, 2)
        tau = 0.2
        value, _ = cca_infonce(fp, batch, tau)

        def side(x_raw, y_raw):
            x = x_raw / np.linalg.norm(x_raw, axis=1, keepdims=True)
            y = y_raw / np.linalg.norm(y_raw, axis=1, keepdims=True)
            total = 0.0
            n = x.shape[0]
            for a in range(n):
                denom = sum(math.exp(float(np.dot(x[a], y[b])) / tau) for b in range(n))
                total += -math.log(math.exp(float(np.dot(x[a], y[a])) / tau) / denom)
            return total / n

        items = np.unique(batch.pos_items)
        users = np.unique(batch.users)
        want = side(fp.reps.h_mm_items[items], fp.reps.h_id_items[items]) + \
            side(fp.reps.h_mm_users[users], fp.reps.h_id_users[users])
        assert value == pytest.approx(want, abs=1e-10)

    def test_gradient_matches_finite_differences(self, rng):
        _fd_check(rng, lambda fp, feat, batch: cca_infonce(fp, batch, tau=0.2))

    def test_temperature_monotonicity(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=4, num_items=5,
                                                      per_user=3)
        fp = forward(params, graphs, feat, 2)
        d = params.user_emb.shape[1]
        # orthogonal matched pairs: the positive dot strictly dominates each row
        for k in range(4):
            fp.reps.h_mm_items[k] = np.eye(d)[k]
            fp.reps.h_id_items[k] = np.eye(d)[k]
            fp.reps.h_mm_users[k % 3] = np.eye(d)[k % 3]
            fp.reps.h_id_users[k % 3] = np.eye(d)[k % 3]
        batch = manual_batch([0, 1, 2], [0, 1, 2], [3, 3, 3])
        values = [cca_infonce(fp, batch, tau)[0] for tau in (0.05, 0.1, 0.2, 0.5)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ConfigError):
            LossWeights(tau=0.0)


class TestReg:
    def test_matching_cosines_zero(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, d_f=4, d_e=4)
        fp = forward(params, graphs, feat, 2)
        batch = manual_batch([0, 0], [0, 1], [2, 3])
        fp.reps.h_mm_items[0] = feat.data[0]
        fp.reps.h_mm_items[1] = feat.data[1]
        value, grads = reg_similarity(fp, feat, batch)
        assert value == 0.0

    def test_orthogonal_vs_identical_is_one(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, d_f=4, d_e=4)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_mm_items[0] = np.array([1.0, 0.0, 0.0, 0.0])
        fp.reps.h_mm_items[1] = np.array([0.0, 1.0, 0.0, 0.0])
        crafted = FeatureMatrix(np.ones((ds.num_items, 4)))
        value, _ = reg_similarity(fp, crafted, manual_batch([0, 0], [0, 1], [2, 3]))
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_single_item_batch(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        value, grads = reg_similarity(fp, feat, manual_batch([0], [1], [2]))
        assert value == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_gradient_matches_finite_differences(self, rng):
        _fd_check(rng, lambda fp, feat, batch: reg_similarity(fp, feat, batch))


class TestUia:
    def test_identical_vectors_zero(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_items[1] = fp.reps.h_users[0]
        value, _ = uia_cosine(fp, manual_batch([0], [1], [2]))
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_opposite_vectors_two(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_items[1] = -fp.reps.h_users[0]
        value, _ = uia_cosine(fp, manual_batch([0], [1], [2]))
        assert value == pytest.approx(2.0, abs=1e-15)

    def test_zero_norm_counts_and_zero_gradient(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        fp.reps.h_users[0] = 0.0 * fp.reps.h_users[0]
        counters = {}
        value, grads = uia_cosine(fp, manual_batch([0], [1], [2]), counters)
        assert value == 1.0
        assert counters["uia_zero_norm"] == 1

    def test_gradient_matches_finite_differences(self, rng):
        _fd_check(rng, lambda fp, feat, batch: uia_cosine(fp, batch))


class TestTotal:
    def test_zero_weights_reduce_to_bpr(self, rng):
        ds, feat, graphs, params, batch = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        weights = LossWeights(alpha=0.0, beta=0.0, lambda_=0.0)
        v_total, g_total, parts = total_loss(fp, feat, batch, weights)
        v_bpr, g_bpr = bpr_loss(fp, batch)
        assert v_total == v_bpr
        for name in PARAM_NAMES:
            assert np.array_equal(g_total[name], g_bpr[name])

    def test_value_linearity(self, rng):
        ds, feat, graphs, params, batch = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        weights = LossWeights(alpha=1.0, beta=1.0, lambda_=1.0)
        v_total, _, parts = total_loss(fp, feat, batch, weights)
        assert v_total == pytest.approx(
            parts["bpr"] + parts["cca"] + parts["uia"] + parts["reg"], abs=1e-14)

    def test_gradient_of_sum_equals_sum_of_gradients(self, rng):
        ds, feat, graphs, params, batch = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        w = LossWeights(alpha=0.3, beta=0.7, lambda_=0.5, tau=0.2)
        _, g_total, _ = total_loss(fp, feat, batch, w)
        _, g_b = bpr_loss(fp, batch)
        _, g_c = cca_infonce(fp, batch, w.tau)
        _, g_u = uia_cosine(fp, batch)
        _, g_r = reg_similarity(fp, feat, batch)
        for name in PARAM_NAMES:
            want = g_b[name] + w.alpha * g_c[name] + w.beta * g_u[name] + w.lambda_ * g_r[name]
            assert np.max(np.abs(g_total[name] - want)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        w = LossWeights(alpha=0.3, beta=0.7, lambda_=0.5, tau=0.2)
        _fd_check(rng, lambda fp, feat, batch: total_loss(fp, feat, batch, w))

    def test_one_accumulator_matches_separate_merge_bitwise(self, rng):
        # reference: one accumulator per loss at weight 1, merged as
        # combined += weight * other over whole arrays, then one backward
        for w in (LossWeights(), LossWeights(alpha=0.3, beta=0.7, lambda_=0.5, tau=0.2)):
            for _ in range(3):
                ds, feat, graphs, params, _ = random_instance(rng)
                batch = sample_batch(ds, rng, batch_size=len(ds.train))
                assert np.unique(batch.users).size < len(batch)
                assert np.unique(batch.pos_items).size < len(batch)
                fp = forward(params, graphs, feat, 2)
                combined = fp.zero_rep_grads()
                v_bpr = _bpr_rep(fp, batch, combined)
                values = {"bpr": v_bpr}
                for name, weight, add in (
                        ("cca", w.alpha, lambda g: _cca_rep(fp, batch, w.tau, g, 1.0)),
                        ("uia", w.beta, lambda g: _uia_rep(fp, batch, g, 1.0)),
                        ("reg", w.lambda_, lambda g: _reg_rep(fp, feat, batch, g, 1.0))):
                    g = fp.zero_rep_grads()
                    values[name] = add(g)
                    for field_name, dst in vars(combined).items():
                        dst += weight * getattr(g, field_name)
                want = fp.backward(combined)

                value, grads, parts = total_loss(fp, feat, batch, w)
                assert parts == values
                assert value == (values["bpr"] + w.alpha * values["cca"]
                                 + w.beta * values["uia"] + w.lambda_ * values["reg"])
                for name in PARAM_NAMES:
                    assert np.array_equal(grads[name], want[name]), name


class TestProperties:
    def test_all_values_finite_and_nonnegative(self, rng):
        for _ in range(5):
            ds, feat, graphs, params, batch = random_instance(rng)
            fp = forward(params, graphs, feat, 2)
            v_b, _ = bpr_loss(fp, batch)
            v_c, _ = cca_infonce(fp, batch, tau=0.2)
            v_u, _ = uia_cosine(fp, batch)
            v_r, _ = reg_similarity(fp, feat, batch)
            for v in (v_b, v_c, v_u, v_r):
                assert np.isfinite(v) and v >= 0.0
            assert v_u <= 2.0

    def test_batch_permutation_invariance(self, rng):
        ds, feat, graphs, params, batch = random_instance(rng)
        fp = forward(params, graphs, feat, 2)
        perm = rng.permutation(len(batch))
        shuffled = BatchSample(users=batch.users[perm],
                               pos_items=batch.pos_items[perm],
                               neg_items=batch.neg_items[perm])
        w = LossWeights(alpha=0.3, beta=0.7, lambda_=0.5)
        v1, _, parts1 = total_loss(fp, feat, batch, w)
        v2, _, parts2 = total_loss(fp, feat, shuffled, w)
        assert v1 == pytest.approx(v2, abs=1e-12)
        for key in parts1:
            assert parts1[key] == pytest.approx(parts2[key], abs=1e-12)
