"""scripts/bench_pairs.py's summary and JSON writer, on a synthetic series."""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import BOUNDS, summarize, write_series  # noqa: E402

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
