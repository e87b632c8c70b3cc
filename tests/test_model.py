import re

import numpy as np
import pytest
import scipy.sparse as sp

from alignrec.errors import DimensionError
from alignrec.features import FeatureMatrix
from alignrec.model import (PARAM_NAMES, content_gate, forward, init_params,
                            item_multimodal, lightgcn_propagate, user_multimodal)
from alignrec.sparse import SparseMatrix

from conftest import random_instance
from oracles import (dense_forward_reference, dense_lightgcn, dense_norm_adjacency,
                     gate_reference_scalar, to_dense, to_scipy)


def _params_for(ds_users, ds_items, d_e, d_f, d_h, rng):
    return init_params(ds_users, ds_items, d_e, d_f, d_h, rng)


class TestLightGCN:
    def test_zero_layers_identity(self, rng):
        inter = SparseMatrix.from_coo(1, 1, [0], [0], [1.0])
        users, items = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        out_u, out_i = lightgcn_propagate(inter, users, items, 0)
        assert np.array_equal(out_u, users) and np.array_equal(out_i, items)

    def test_single_edge_hand_propagation(self):
        # one user, one item, one edge of weight 1: a layer swaps the halves
        inter = SparseMatrix.from_coo(1, 1, [0], [0], [1.0])
        users, items = np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]])
        out_u, out_i = lightgcn_propagate(inter, users, items, 1)
        assert np.allclose(out_u[0], [0.5, 1.0], atol=1e-15)
        assert np.allclose(out_i[0], [0.5, 1.0], atol=1e-15)

    def test_matches_dense_matrix_power_oracle(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=20, num_items=15,
                                                      per_user=5)
        got = lightgcn_propagate(graphs.inter_norm, params.user_emb, params.item_emb, 2)
        adj = dense_norm_adjacency(ds.num_users, ds.num_items, ds.train)
        want = dense_lightgcn(adj, np.concatenate([params.user_emb, params.item_emb]), 2)
        assert np.max(np.abs(np.concatenate(got) - want)) < 1e-10

    def test_matches_block_operator_bitwise(self, rng):
        # each CSR row of [[0, R], [R^T, 0]] holds the entries of the matching
        # row of R or R^T in the same order, so the results agree bit for bit
        ds, feat, graphs, params, _ = random_instance(rng, num_users=20, num_items=15,
                                                      per_user=5)
        block = SparseMatrix.from_scipy(
            sp.bmat([[None, to_scipy(graphs.inter_norm)],
                     [to_scipy(graphs.inter_t), None]]))
        for layers in range(4):
            got = lightgcn_propagate(graphs.inter_norm, params.user_emb, params.item_emb,
                                     layers)
            acc = h = np.concatenate([params.user_emb, params.item_emb])
            for _ in range(layers):
                h = block.dot(h)
                acc = acc + h
            assert np.array_equal(np.concatenate(got), acc / (layers + 1))


class TestContentGate:
    def test_zero_mlp_gates_at_half(self, rng):
        params = _params_for(2, 3, 4, 5, 6, rng)
        params.gate_w1[...] = 0.0
        params.gate_w2[...] = 0.0
        feat = FeatureMatrix(rng.normal(size=(3, 5)))
        out = content_gate(params, feat)
        assert np.allclose(out, 0.5 * params.item_emb, atol=1e-15)

    def test_zero_embedding_absorbs(self, rng):
        params = _params_for(2, 3, 4, 5, 6, rng)
        params.item_emb[1, :] = 0.0
        feat = FeatureMatrix(rng.normal(size=(3, 5)))
        assert np.all(content_gate(params, feat)[1] == 0.0)

    def test_matches_scalar_reference(self, rng):
        params = _params_for(1, 1, 2, 4, 2, rng)
        feat = FeatureMatrix(rng.normal(size=(1, 4)))
        got = content_gate(params, feat)
        want = gate_reference_scalar(params.item_emb, params.gate_w1, params.gate_b1,
                                     params.gate_w2, params.gate_b2, feat.data)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_gate_strictly_inside_unit_interval(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        fp = forward(params, graphs, feat, 1)
        assert np.all(fp._gate > 0.0) and np.all(fp._gate < 1.0)


class TestAggregation:
    def test_empty_graph_zeroes(self, rng):
        sim = SparseMatrix.from_coo(3, 3, [], [], [])
        h_con = rng.normal(size=(3, 4))
        assert np.all(item_multimodal(sim, h_con) == 0.0)

    def test_single_entry_copies_neighbor(self, rng):
        sim = SparseMatrix.from_coo(3, 3, [0], [1], [1.0])
        h_con = rng.normal(size=(3, 4))
        out = item_multimodal(sim, h_con)
        assert np.array_equal(out[0], h_con[1])
        assert np.all(out[1:] == 0.0)

    def test_random_matches_dense(self, rng):
        dense = rng.normal(size=(7, 7)) * (rng.random(size=(7, 7)) < 0.4)
        sim = SparseMatrix.from_scipy(dense)
        h_con = rng.normal(size=(7, 3))
        assert np.max(np.abs(item_multimodal(sim, h_con) - dense @ h_con)) < 1e-12

    def test_user_side_unit_weight(self, rng):
        inter = SparseMatrix.from_coo(2, 3, [0], [2], [1.0])
        h_mm = rng.normal(size=(3, 4))
        out = user_multimodal(inter, h_mm)
        assert np.array_equal(out[0], h_mm[2])
        assert np.all(out[1] == 0.0)

    def test_user_side_zero_matrix(self, rng):
        inter = SparseMatrix.from_coo(2, 3, [], [], [])
        assert np.all(user_multimodal(inter, rng.normal(size=(3, 4))) == 0.0)


class TestFuse:
    def test_trivials(self, rng):
        # forward's fused representations hold the bits of h_mm + h_id; a zero
        # item table zeroes the content path, which leaves the ID parts
        _, feat, graphs, params, _ = random_instance(rng, num_users=6, num_items=7)
        reps = forward(params, graphs, feat, 2).reps
        assert reps.h_users.tobytes() == (reps.h_mm_users + reps.h_id_users).tobytes()
        assert reps.h_items.tobytes() == (reps.h_mm_items + reps.h_id_items).tobytes()
        params.item_emb[:] = 0.0
        reps = forward(params, graphs, feat, 2).reps
        assert not reps.h_mm_users.any() and not reps.h_mm_items.any()
        assert np.array_equal(reps.h_users, reps.h_id_users)
        assert np.array_equal(reps.h_items, reps.h_id_items)


class TestForward:
    def test_fusion_invariant_exact(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng, num_users=2, num_items=3,
                                                      per_user=2, k_prime=1)
        fp = forward(params, graphs, feat, 2)
        assert np.array_equal(fp.reps.h_items, fp.reps.h_mm_items + fp.reps.h_id_items)
        assert np.array_equal(fp.reps.h_users, fp.reps.h_mm_users + fp.reps.h_id_users)

    def test_zero_features_zero_mlp_composition(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        params.gate_w1[...] = 0.0
        params.gate_b1[...] = 0.0
        params.gate_w2[...] = 0.0
        params.gate_b2[...] = 0.0
        zero_feat = FeatureMatrix(np.zeros_like(feat.data))
        fp = forward(params, graphs, zero_feat, 2)
        want_mm = to_dense(graphs.sim) @ (0.5 * params.item_emb)
        assert np.max(np.abs(fp.reps.h_mm_items - want_mm)) < 1e-12
        assert np.max(np.abs(fp.reps.h_items - (fp.reps.h_id_items + want_mm))) < 1e-12

    def test_matches_dense_reference(self, rng):
        for _ in range(3):
            ds, feat, graphs, params, _ = random_instance(rng, num_users=12,
                                                          num_items=10, per_user=4)
            fp = forward(params, graphs, feat, 2)
            adj = dense_norm_adjacency(ds.num_users, ds.num_items, ds.train)
            want = dense_forward_reference(
                params.user_emb, params.item_emb, params.gate_w1, params.gate_b1,
                params.gate_w2, params.gate_b2, adj, adj[:ds.num_users, ds.num_users:],
                to_dense(graphs.sim), feat.data, 2)
            for name in want:
                # the gated content embedding is not kept in the representations
                got = (content_gate(params, feat) if name == "h_con_items"
                       else getattr(fp.reps, name))
                assert np.max(np.abs(got - want[name])) < 1e-10, name

    def test_forced_zero_multimodal_leaves_id(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        params.item_emb[...] = 0.0
        fp = forward(params, graphs, feat, 2)
        assert np.all(fp.reps.h_mm_items == 0.0)
        assert np.array_equal(fp.reps.h_items, fp.reps.h_id_items)

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_mis_shaped_parameter_named(self, rng, name):
        ds, feat, graphs, params, _ = random_instance(rng)
        good = getattr(params, name)
        # one extra row; a bias gains a leading axis, so d_e and d_h keep
        bad = good[None] if good.ndim == 1 else np.concatenate([good, good[:1]])
        setattr(params, name, bad)
        with pytest.raises(DimensionError, match=re.escape(
                f"parameter {name} has shape {bad.shape}, the data needs {good.shape}")):
            forward(params, graphs, feat, 2)


class TestScore:
    """The user-item score every ranking path uses: h_items @ h_users[u]."""

    def test_orthogonal(self):
        h_items = np.array([[0.0, 3.0], [1.0, 0.0]])
        assert (h_items @ np.array([1.0, 0.0]))[0] == 0.0

    def test_unit_self(self):
        v = np.array([0.6, 0.8])
        assert (v[None, :] @ v)[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_loop_oracle(self, rng):
        ds, feat, graphs, params, _ = random_instance(rng)
        reps = forward(params, graphs, feat, 2).reps
        scores = reps.h_items @ reps.h_users[1]
        for i in range(ds.num_items):
            want = sum(float(reps.h_items[i, k]) * float(reps.h_users[1, k])
                       for k in range(params.user_emb.shape[1]))
            assert scores[i] == pytest.approx(want, abs=1e-12)


def test_parameter_count_formula(rng):
    params = init_params(11, 7, 5, 9, 3, rng)
    want = (11 + 7) * 5 + 9 * 3 + 3 + 3 * 5 + 5
    assert sum(a.size for a in params.as_dict().values()) == want


def test_params_copy_is_deep(rng):
    params = init_params(2, 2, 3, 4, 2, rng)
    clone = params.copy()
    clone.user_emb[0, 0] += 1.0
    assert params.user_emb[0, 0] != clone.user_emb[0, 0]
