"""Guards for the benchmark's traced runs, reading perfbench/ only.

A traced run times the engine by replacing the functions that
`workloads.patch_targets` names, and it drops every per-layer metric whose
span never fired. A deleted, renamed or no-longer-called target therefore
loses its metric without any error. These tests pin which targets may be
missing and that the set-up's graph spans still fire.
"""

from alignrec.graphs import build_graphs
from perfbench import workloads
from perfbench.tracer import Tracer

from conftest import random_instance


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
