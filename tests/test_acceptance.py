"""Acceptance suite. Each criterion is one test that prints a PASS line with
the measured quantities; run with `pytest -s tests/test_acceptance.py` to see
them. Criteria tied to external datasets skip when the data is not present.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from alignrec.cli import main as cli_main
from alignrec.data import kcore_filter, load_interactions, split_dataset
from alignrec.errors import EmptyAfterFilterError
from alignrec.evaluator import evaluate
from alignrec.features import FeatureMatrix
from alignrec.graphs import build_graphs
from alignrec.losses import (LossWeights, bpr_loss, cca_infonce,
                             reg_similarity, total_loss, uia_cosine)
from alignrec.model import content_gate, forward, init_params
from alignrec.optim import make_optimizer
from alignrec.protocols import (ProtocolConfig, itemcf_score,
                                mask_modality_eval, zero_shot_eval)
from alignrec.synthetic import make_corpus, write_corpus
from alignrec.trainer import TrainConfig, TrainState, sample_batch, train_epoch

from oracles import (bruteforce_evaluate, dense_forward_reference,
                     dense_norm_adjacency, finite_diff_grads, itemcf_reference, kcore_reference,
                     max_relative_error, raw_from_records, records_of, to_dense,
                     uniform_recall_baseline)


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS  {detail}", flush=True)


def _random_dataset(rng, num_users, num_items, per_user):
    records = []
    for u in range(num_users):
        chosen = rng.choice(num_items, size=min(per_user, num_items), replace=False)
        for ts, i in enumerate(chosen):
            records.append((f"u{u:03d}", f"i{i:03d}", int(ts)))
    return split_dataset(raw_from_records(records), (0.8, 0.1, 0.1),
                         seed=int(rng.integers(1 << 30)), strategy="random")


def _random_model_instance(rng):
    num_users = int(rng.integers(4, 9))
    num_items = int(rng.integers(4, 9))
    d_e = int(rng.integers(2, 6))
    d_f = int(rng.integers(3, 6))
    d_h = int(rng.integers(2, 4))
    ds = _random_dataset(rng, num_users, num_items, per_user=3)
    feat = FeatureMatrix(rng.normal(size=(ds.num_items, d_f)))
    graphs = build_graphs(ds, feat, k_prime=min(3, ds.num_items - 1))
    params = init_params(ds.num_users, ds.num_items, d_e, d_f, d_h, rng)
    batch = sample_batch(ds, rng, batch_size=min(6, len(ds.train)))
    return ds, feat, graphs, params, batch


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    tau = 0.2
    weights = LossWeights(alpha=0.3, beta=0.7, lambda_=0.5, tau=tau)
    losses = {
        "bpr": lambda fp, feat, batch: bpr_loss(fp, batch),
        "cca": lambda fp, feat, batch: cca_infonce(fp, batch, tau),
        "uia": lambda fp, feat, batch: uia_cosine(fp, batch),
        "reg": lambda fp, feat, batch: reg_similarity(fp, feat, batch),
        "total": lambda fp, feat, batch: total_loss(fp, feat, batch, weights),
    }
    start = time.perf_counter()
    worst = {name: 0.0 for name in losses}
    instances = 20
    for _ in range(instances):
        ds, feat, graphs, params, batch = _random_model_instance(rng)
        for name, loss in losses.items():
            fp = forward(params, graphs, feat, 2)
            value, grads = loss(fp, feat, batch)[:2]
            assert np.isfinite(value)

            def value_of(p, loss=loss):
                return loss(forward(p, graphs, feat, 2), feat, batch)[0]

            fd = finite_diff_grads(value_of, params, step=1e-5)
            err = max_relative_error(grads, fd, floor=1e-8)
            worst[name] = max(worst[name], err)
            assert err < 1e-5, f"{name}: relative error {err}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(1, f"gradients vs finite differences on {instances} instances per loss: "
               f"max rel err {detail}; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_forward_oracle_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    instances = 20
    worst = 0.0
    for _ in range(instances):
        num_users = int(rng.integers(5, 26))
        num_items = int(rng.integers(5, 25))
        if num_users + num_items > 50:
            num_items = 50 - num_users
        ds = _random_dataset(rng, num_users, num_items, per_user=4)
        d_f = int(rng.integers(3, 7))
        feat = FeatureMatrix(rng.normal(size=(ds.num_items, d_f)))
        graphs = build_graphs(ds, feat, k_prime=min(4, ds.num_items - 1))
        params = init_params(ds.num_users, ds.num_items, 6, d_f, 4, rng)
        layers = int(rng.integers(0, 4))
        fp = forward(params, graphs, feat, layers)
        adj = dense_norm_adjacency(ds.num_users, ds.num_items, ds.train)
        want = dense_forward_reference(
            params.user_emb, params.item_emb, params.gate_w1, params.gate_b1,
            params.gate_w2, params.gate_b2, adj, adj[:ds.num_users, ds.num_users:],
            to_dense(graphs.sim), feat.data, layers)
        for name, expected in want.items():
            # the gated content embedding is not kept in the representations
            got = (content_gate(params, feat) if name == "h_con_items"
                   else getattr(fp.reps, name))
            diff = float(np.max(np.abs(got - expected)))
            worst = max(worst, diff)
            assert diff < 1e-10, f"{name}: max abs diff {diff}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"forward stages vs dense reference on {instances} instances: "
               f"max abs diff {worst:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(5150)
    instances = 50
    checked = 0
    for _ in range(instances):
        num_users = int(rng.integers(5, 51))
        num_items = int(rng.integers(20, 101))
        # at least 10 interactions per user so val and test are populated
        ds = _random_dataset(rng, num_users, num_items,
                             per_user=int(rng.integers(10, 16)))
        assert len(ds.val) > 0 and len(ds.test) > 0
        d = int(rng.integers(3, 8))
        h_users = rng.normal(size=(ds.num_users, d))
        h_items = rng.normal(size=(ds.num_items, d))
        from alignrec.model import Representations
        reps = Representations(
            h_id_users=np.zeros_like(h_users), h_id_items=np.zeros_like(h_items),
            h_mm_items=np.zeros_like(h_items),
            h_mm_users=np.zeros_like(h_users), h_users=h_users, h_items=h_items)
        ks = (5, 10, 20)
        for split in ("val", "test"):
            if len(ds.split(split)) == 0:
                continue
            report = evaluate(reps, ds, split, ks)
            recall, ndcg, count = bruteforce_evaluate(h_users, h_items, ds, split, ks)
            assert report.users_evaluated == count
            for k in ks:
                assert report.recall[k] == recall[k], (split, k)
                assert report.ndcg[k] == ndcg[k], (split, k)
            checked += 1
    _report(3, f"evaluator bitwise-equal to brute-force oracle on {instances} "
               f"instances ({checked} split evaluations)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_kcore_correctness():
    baby_log = os.environ.get("ALIGNREC_BABY_LOG", "")
    if baby_log and Path(baby_log).exists():
        raw = load_interactions(baby_log)
        assert len(raw) == 915_446
        # every key in a table is used by some record
        assert len(raw.user_keys) == 531_890
        assert len(raw.item_keys) == 71_317
        filtered = kcore_filter(raw, 5)
        assert len(filtered) == 160_792
        assert len(filtered.user_keys) == 19_445
        assert len(filtered.item_keys) == 7_050
        _report(4, "5-core on the raw Baby log reproduces the published counts")
        return
    rng = np.random.default_rng(303)
    graphs_checked = 100
    for _ in range(graphs_checked):
        num_users = int(rng.integers(3, 12))
        num_items = int(rng.integers(3, 12))
        density = float(rng.uniform(0.15, 0.6))
        records = []
        ts = 0
        for u in range(num_users):
            for i in range(num_items):
                if rng.random() < density:
                    records.append((f"u{u}", f"i{i}", ts))
                    ts += 1
        k = int(rng.integers(1, 5))
        expected = kcore_reference(records, k)
        try:
            got = records_of(kcore_filter(raw_from_records(records), k))
        except EmptyAfterFilterError:
            got = []
        assert got == expected
    _report(4, f"k-core equals the fixpoint oracle exactly on {graphs_checked} "
               f"random graphs (Baby log not supplied; set ALIGNREC_BABY_LOG to check it)")


# ------------------------------------------------------- criteria 5 and 6

SYNTH_SEEDS = (7, 11, 13)
SYNTH_EPOCHS = 120  # within the <= 200 budget


def _train_synthetic(seed, alpha=0.01, beta=0.1):
    """Train on the planted corpus with the default hyper-parameters for the
    full epoch budget; returns the final-epoch test Recall@20."""
    corpus = make_corpus(num_users=200, num_items=100, clusters=4,
                         feat_dim=32, per_user=16, noise=0.05, seed=seed)
    raw = kcore_filter(raw_from_records(corpus.records), 5)
    ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=seed, strategy="random")
    feat = FeatureMatrix(corpus.features)
    cfg = TrainConfig(max_epochs=SYNTH_EPOCHS, patience=SYNTH_EPOCHS, seed=seed,
                      weights=LossWeights(alpha=alpha, beta=beta))
    graphs = build_graphs(ds, feat, cfg.k_prime)
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, sample_ss = ss.spawn(2)
    params = init_params(ds.num_users, ds.num_items, cfg.d_e, feat.dim, cfg.d_h,
                         np.random.default_rng(init_ss))
    state = TrainState(params=params,
                       optimizer=make_optimizer(cfg.optimizer, params, cfg.learning_rate),
                       rng=np.random.default_rng(sample_ss))
    user_train = ds.user_train_items()
    for _ in range(SYNTH_EPOCHS):
        train_epoch(state, ds, graphs, feat, cfg, user_train)
    fp = forward(state.params, graphs, feat, cfg.gcn_layers)
    report = evaluate(fp.reps, ds, "test", (20,))
    return report.recall[20], ds.num_items


@pytest.fixture(scope="module")
def synthetic_runs():
    runs = {}
    for seed in SYNTH_SEEDS:
        runs[("full", seed)] = _train_synthetic(seed)
        runs[("alpha0", seed)] = _train_synthetic(seed, alpha=0.0)
        runs[("beta0", seed)] = _train_synthetic(seed, beta=0.0)
    return runs


def test_criterion_5_end_to_end_learning(synthetic_runs):
    start = time.perf_counter()
    recall, num_items = _train_synthetic(SYNTH_SEEDS[0])
    elapsed = time.perf_counter() - start
    baseline = uniform_recall_baseline(20, num_items)
    assert recall >= 5.0 * baseline, (recall, baseline)
    assert elapsed < 300.0
    _report(5, f"planted-corpus test Recall@20 {recall:.4f} vs analytic uniform "
               f"baseline {baseline:.4f} (x{recall / baseline:.2f} >= 5); {elapsed:.0f}s")


def test_criterion_6_ablation_direction(synthetic_runs):
    full = float(np.mean([synthetic_runs[("full", s)][0] for s in SYNTH_SEEDS]))
    no_cca = float(np.mean([synthetic_runs[("alpha0", s)][0] for s in SYNTH_SEEDS]))
    no_uia = float(np.mean([synthetic_runs[("beta0", s)][0] for s in SYNTH_SEEDS]))
    assert no_cca <= full, (no_cca, full)
    assert no_uia <= full, (no_uia, full)
    _report(6, f"3-seed mean test Recall@20: full {full:.4f}, alpha=0 {no_cca:.4f}, "
               f"beta=0 {no_uia:.4f} (ablations <= full)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_protocol_sanity():
    ratios = []
    for seed in SYNTH_SEEDS:
        corpus = make_corpus(num_users=200, num_items=100, clusters=4,
                             feat_dim=32, per_user=16, noise=0.05, seed=seed)
        raw = kcore_filter(raw_from_records(corpus.records), 5)
        ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=seed,
                           strategy="temporal-leave-one-out")
        cfg = ProtocolConfig(ks=(20,))
        planted = zero_shot_eval(FeatureMatrix(corpus.features), ds, cfg).recall[20]
        rng = np.random.default_rng(seed + 1)
        shuffled_rows = corpus.features[rng.permutation(corpus.features.shape[0])]
        shuffled = zero_shot_eval(FeatureMatrix(shuffled_rows), ds, cfg).recall[20]
        assert planted >= 3.0 * shuffled, (seed, planted, shuffled)
        ratios.append(planted / shuffled)

        reference = itemcf_reference(ds)
        best = np.where(reference.max(axis=1) > 0.0, np.argmax(reference, axis=1), -1)
        assert np.array_equal(itemcf_score(ds), best)

        masked = FeatureMatrix(shuffled_rows)
        base = zero_shot_eval(FeatureMatrix(corpus.features), ds,
                              ProtocolConfig(ks=(10, 20)))
        noop = mask_modality_eval(FeatureMatrix(corpus.features), masked,
                                  ProtocolConfig(ks=(10, 20), mask_ratio=0.0,
                                                 mask_seed=5),
                                  "zero_shot", ds)
        assert noop.recall == base.recall and noop.ndcg == base.ndcg
    _report(7, f"zero-shot planted/shuffled recall ratios {['%.2f' % r for r in ratios]} "
               f"(all >= 3); item-CF partners exact; mask x=0 bitwise equal to base")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_published_results_conditional():
    data_dir = os.environ.get("ALIGNREC_BABY_DIR", "")
    if not data_dir or not Path(data_dir).exists():
        print("\n[criterion 8] SKIP  released Baby features not supplied "
              "(set ALIGNREC_BABY_DIR with interactions.tsv, features.afea, items.txt)",
              flush=True)
        pytest.skip("Baby feature release not available")
    base = Path(data_dir)
    config = f"""\
[paths]
interactions = {base / 'interactions.tsv'}
features = {base / 'features.afea'}
item_list = {base / 'items.txt'}
output_dir = {base / 'out'}

[split]
k_core = 5
seed = 2024
"""
    cfg_path = base / "accept.ini"
    cfg_path.write_text(config, encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    report = (base / "out" / "report_test.txt").read_text()
    recall20 = float(next(line.split(" = ")[1] for line in report.splitlines()
                          if line.startswith("recall@20")))
    assert abs(recall20 - 0.1046) / 0.1046 <= 0.15
    assert cli_main(["intermediate", "--config", str(cfg_path)]) == 0
    zs = (base / "out" / "report_zero_shot.txt").read_text()
    recall50 = float(next(line.split(" = ")[1] for line in zs.splitlines()
                          if line.startswith("recall@50")))
    assert abs(recall50 - 0.0470) / 0.0470 <= 0.15
    _report(8, f"Baby reproduction: Recall@20 {recall20:.4f} (target 0.1046 +-15%), "
               f"zero-shot R@50 {recall50:.4f} (target 0.0470 +-15%)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_bitwise_determinism(tmp_path):
    corpus = make_corpus(num_users=60, num_items=40, clusters=4, feat_dim=16,
                         per_user=8, noise=0.05, seed=3)
    write_corpus(corpus, tmp_path)
    config = """\
[paths]
interactions = interactions.tsv
features = features.afea
item_list = items.txt
output_dir = out

[split]
k_core = 2
seed = 13

[train]
max_epochs = 30
patience = 30
batch_size = 256
embed_dim = 16
mlp_hidden = 8
k_prime = 5
seed = 13

[eval]
ks = 10,20
"""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(config, encoding="utf-8")
    names = ("checkpoint_best.ackp", "checkpoint_final.ackp",
             "train_log.txt", "report_test.txt")
    out = tmp_path / "out"
    artifacts = []
    for _ in range(2):
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        artifacts.append({name: (out / name).read_bytes() for name in names})
    mismatch = [name for name in names if artifacts[0][name] != artifacts[1][name]]
    assert not mismatch, f"non-identical artifacts: {mismatch}"
    _report(9, "two cmd_train runs with identical config and seed produced "
               "bit-identical checkpoints, logs, and reports")
