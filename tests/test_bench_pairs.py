"""scripts/bench_pairs.py's summary and JSON writer, on a synthetic series;
its fault count and its traced-run checks, on stand-in benchmark scripts."""

import json
import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import (BOUNDS, PER_LAYER, run_once, summarize, traced,  # noqa: E402
                         traced_failures, write_series)

MACHINE = {"nproc": 2, "affinity": [0, 1], "numpy": "2.4.6", "scipy": "1.17.1"}


def _run(work, setup, rss, named=None):
    return {"values": {"work_per_s": work, "setup_s": setup, "peak_rss_mb": rss},
            "named": named or {}, "record": MACHINE, "failures": []}


@pytest.fixture
def runs():
    parent = [_run(100.0, 2.0, 420.0, {"eval_users_per_s": 50.0}),
              _run(110.0, 1.8, 424.0, {"eval_users_per_s": 55.0}),
              _run(90.0, 2.2, 418.0, {"eval_users_per_s": 45.0}),
              _run(105.0, 1.9, 430.0, {"eval_users_per_s": 0.0})]
    change = [_run(120.0, 1.9, 330.0, {"eval_users_per_s": 60.0}),
              _run(100.0, 1.7, 335.0, {"eval_users_per_s": 66.0}),
              _run(130.0, 2.3, 328.0, {"eval_users_per_s": 54.0}),
              _run(125.0, 1.8, 331.0)]
    return {"parent": parent, "change": change}


def test_summary_medians_iqr_and_wins(runs):
    summary = summarize(runs)
    work = summary["end_to_end"]["work_per_s"]
    assert work["median_parent"] == statistics.median([100.0, 110.0, 90.0, 105.0])
    q1, _, q3 = statistics.quantiles([100.0, 110.0, 90.0, 105.0], n=4)
    assert work["iqr_parent"] == q3 - q1
    assert work["median_change"] == statistics.median([120.0, 100.0, 130.0, 125.0])
    assert work["median_ratio"] == statistics.median([1.2, 100 / 110, 130 / 90, 125 / 105])
    assert (work["change_wins"], work["pairs"]) == (3, 4)
    # lower is better for these two
    assert summary["end_to_end"]["setup_s"]["change_wins"] == 3
    assert summary["end_to_end"]["peak_rss_mb"]["change_wins"] == 4
    # 3 of 4 pairs is below nine tenths; 4 of 4 with a fall of 91.5 MB
    # against the parent's IQR of a few MB meets the claim rule
    assert [summary["end_to_end"][m]["claim_met"]
            for m in ("work_per_s", "setup_s", "peak_rss_mb")] == [False, False, True]
    assert all(row["within_bound"] for row in summary["end_to_end"].values())
    # a pair whose parent value is 0 or whose change lacks the metric is left out
    assert summary["named"]["eval_users_per_s"] == {
        "median_ratio": statistics.median([1.2, 1.2, 1.2]), "pairs": 3}


def _series(parent, change, metric="work_per_s"):
    """Runs whose `metric` takes the given values and whose other end-to-end
    metrics are equal in every pair."""
    def runs(values):
        return [{"values": {"work_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 100.0,
                            metric: v}, "named": {}, "record": MACHINE, "failures": []}
                for v in values]
    return {"parent": runs(parent), "change": runs(change)}


@pytest.mark.parametrize("change, met", [
    ([110.0] * 9 + [90.0], True),                   # 9 of 10, a gain past the IQR
    ([110.0] * 8 + [90.0] * 2, False),              # 8 of 10
    ([102.0] * 9 + [90.0], False),                  # 9 of 10, a gain inside the IQR
    ([110.0] * 5 + [100.0] * 5, False)])            # ties count for neither side
def test_claim_rule(change, met):
    parent = [96.0, 98.0, 99.0, 100.0, 100.0, 100.0, 101.0, 102.0, 103.0, 100.0]
    row = summarize(_series(parent, change))["end_to_end"]["work_per_s"]
    assert row["iqr_parent"] > 2.0
    assert row["claim_met"] is met


@pytest.mark.parametrize("metric, share, within", [
    ("work_per_s", -0.24, True), ("work_per_s", -0.26, False), ("work_per_s", 0.5, True),
    ("setup_s", 0.24, True), ("setup_s", 0.26, False),
    ("peak_rss_mb", 0.14, True), ("peak_rss_mb", 0.16, False), ("peak_rss_mb", -0.3, True)])
def test_bound_from_benchmark_json(metric, share, within):
    # the change's median moved by `share` of the parent's; BENCHMARK.json
    # bounds work_per_s and setup_s at 0.25 and peak_rss_mb at 0.15
    assert BOUNDS == {"work_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.15}
    base = {"work_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 100.0}[metric]
    runs = _series([base] * 10, [base * (1 + share)] * 10, metric)
    assert summarize(runs)["end_to_end"][metric]["within_bound"] is within


def test_written_series_holds_pairs_records_and_summary(runs, tmp_path):
    meta = {"workload": "eval-m", "seed": 11, "run_seconds": 8,
            "parent": "a" * 40, "change": "b" * 40}
    path = tmp_path / "BENCH_0.json"
    write_series(path, meta, runs)
    write_series(path, dict(meta, workload="fit-s"), runs)
    series = json.loads(path.read_text(encoding="utf-8"))["series"]
    assert [s["workload"] for s in series] == ["eval-m", "fit-s"]
    doc = series[0]
    assert {k: doc[k] for k in meta} == meta
    assert [p["pair"] for p in doc["pairs"]] == [1, 2, 3, 4]
    assert doc["pairs"][2]["change"]["values"]["work_per_s"] == 130.0
    assert doc["pairs"][2]["ratios"]["work_per_s"] == 130.0 / 90.0
    assert all(p[side]["record"] == MACHINE for p in doc["pairs"] for side in ("parent", "change"))
    assert doc["summary"] == json.loads(json.dumps(summarize(runs)))
    assert not list(tmp_path.glob("*.tmp"))


# a stand-in perfbench/run.py: touches `pages` fresh pages, then prints the
# record line, with its own minor faults so far, and a result line
FAKE_RUN = """
import json, mmap, resource
pages = {pages}
buf = mmap.mmap(-1, max(pages, 1) * 4096)
for p in range(pages):
    buf[p * 4096] = 1
own = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print("record " + json.dumps({{"named_metrics": {{"own_faults": {{"value": own}}}}, "errors": []}}))
print(json.dumps({{"correct": True, "failed": 0, "metrics": {{"work_per_s": {{"value": 5.0}}}}}}))
"""


def _checkout(root: Path, script: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(script, encoding="utf-8")
    return root


def test_minor_faults_are_the_runs_own(tmp_path):
    args = SimpleNamespace(workload="train-m", seed=11)
    runs = [run_once(_checkout(tmp_path / str(pages), FAKE_RUN.format(pages=pages)), args)
            for pages in (0, 20000)]
    for run in runs:
        assert run["failures"] == [] and run["values"] == {"work_per_s": 5.0}
        # the count covers the whole child, so at least what it saw itself
        assert run["named"]["minor_faults"] >= run["named"]["own_faults"] > 0
    summary = summarize({"parent": runs[:1], "change": runs[1:]})
    assert summary["named"]["minor_faults"]["median_ratio"] == (
        runs[1]["named"]["minor_faults"] / runs[0]["named"]["minor_faults"])


def _traced_output(metrics, correct=True):
    record = {"absent_spans": ["graphs.norm_adjacency"], "absent_metrics": [], "errors": []}
    result = {"correct": correct, "failed": 0,
              "metrics": {m: {"value": v, "unit": "ms"} for m, v in metrics.items()}}
    return "record " + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def test_traced_result_with_every_per_layer_metric_passes():
    assert "sparse.transpose_ms" in PER_LAYER
    assert traced_failures(_traced_output({m: 1.0 for m in PER_LAYER})) == []


def test_traced_result_without_a_per_layer_metric_fails():
    metrics = {m: 1.0 for m in PER_LAYER if m != "sparse.transpose_ms"}
    assert traced_failures(_traced_output(metrics)) == ["metrics lack sparse.transpose_ms"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_traced_result_with_a_non_finite_value_fails(value):
    out = _traced_output(dict({m: 1.0 for m in PER_LAYER}, **{"trace.overhead_pct": value}))
    failures = traced_failures(out)
    assert len(failures) == 1 and "no strict JSON result" in failures[0]


@pytest.mark.parametrize("stdout, failure", [
    ("", "no strict JSON result"), ("record {}\nnot json\n", "no strict JSON result"),
    ("[1, 2]\n", "no JSON object")])
def test_traced_output_without_a_result_fails(stdout, failure):
    failures = traced_failures(stdout)
    assert len(failures) == 1 and failure in failures[0]


def test_traced_result_marked_incorrect_fails():
    out = _traced_output({m: 1.0 for m in PER_LAYER}, correct=False)
    assert traced_failures(out) == ["correct is not true"]


def test_traced_exits_one_if_either_tree_fails(tmp_path, capsys):
    good = _traced_output({m: 1.0 for m in PER_LAYER})
    bad = _traced_output({m: math.nan for m in PER_LAYER})
    sides = [(side, _checkout(tmp_path / side, f"print({out!r}, end='')"))
             for side, out in (("parent", good), ("change", bad), ("third", good))]
    args = SimpleNamespace(workload="train-m", seed=11)
    assert traced(sides[:1], args) == 0
    assert traced(sides, args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("parent traced train-m seed 11: absent_spans "
                        "['graphs.norm_adjacency'] absent_metrics []")
    assert [line.split()[0] for line in lines if "FAILED" in line] == ["change"]
