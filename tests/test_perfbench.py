"""Guards for the benchmark's traced runs, reading perfbench/ and
BENCHMARK.json only.

A traced run times the engine by replacing the functions that
`workloads.patch_targets` names, and it drops every per-layer metric whose
span never fired. A deleted, renamed or no-longer-called target therefore
loses its metric without any error. These tests pin which targets may be
missing, that every other target is still called, and that every timed
metric the benchmark lists has a span.
"""

import json
from pathlib import Path

from alignrec import cli
from alignrec.data import kcore_filter, load_interactions, split_dataset
from alignrec.features import FeatureMatrix, align_features
from alignrec.graphs import build_graphs
from alignrec.protocols import ProtocolConfig, itemcf_eval
from alignrec.synthetic import make_corpus, write_corpus
from perfbench import workloads
from perfbench.tracer import Tracer

from conftest import random_instance

ROOT = Path(__file__).resolve().parent.parent


def test_patch_targets_resolve_but_the_deleted_norm_adjacency():
    tracer = Tracer()
    with tracer.patched(workloads.patch_targets()):
        assert tracer.absent == {"graphs.norm_adjacency"}


def test_graph_build_fires_its_spans(rng):
    ds, feat, _, _, _ = random_instance(rng)
    tracer = Tracer()
    with tracer.patched(workloads.patch_targets()):
        build_graphs(ds, feat, 3)
    fired = {name for _, name, *_ in tracer.spans}
    assert {"graphs.knn_similarity", "graphs.norm_interaction", "sparse.transpose"} <= fired


def test_every_patch_target_is_still_called(tmp_path):
    corpus = make_corpus(num_users=40, num_items=24, clusters=2, feat_dim=8,
                         per_user=10, seed=3)
    paths = write_corpus(corpus, tmp_path)
    config = tmp_path / "run.ini"
    config.write_text(
        f"[paths]\ninteractions = {paths['interactions']}\nfeatures = {paths['features']}\n"
        f"item_list = {paths['item_list']}\noutput_dir = {tmp_path / 'out'}\n\n"
        "[split]\nk_core = 2\n\n[train]\nmax_epochs = 1\nbatch_size = 64\n"
        "embed_dim = 8\nmlp_hidden = 4\nk_prime = 4\n", encoding="utf-8")
    tracer = Tracer()
    with tracer.patched(workloads.patch_targets()):
        assert cli.main(["train", "--config", str(config)]) == 0
        ds = split_dataset(kcore_filter(load_interactions(paths["interactions"]), 2),
                           (0.8, 0.1, 0.1), 2024, "temporal-leave-one-out")
        feat = align_features(FeatureMatrix(corpus.features), corpus.item_keys, ds)
        itemcf_eval(feat, ds, ProtocolConfig(ks=(5,)))
    fired = {name for _, name, *_ in tracer.spans}
    targets = {name for _, _, name in workloads.patch_targets()}
    assert targets - fired == {"graphs.norm_adjacency"}


def test_every_timed_metric_has_a_span():
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    stems = {m["name"].removesuffix("_ms") for m in listed if m["name"].endswith("_ms")}
    assert stems <= set(workloads.TIMED_SPANS)
