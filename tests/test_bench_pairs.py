"""scripts/bench_pairs.py's summary and JSON writer, on a synthetic series."""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import summarize, write_series  # noqa: E402

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
    # a pair whose parent value is 0 or whose change lacks the metric is left out
    assert summary["named"]["eval_users_per_s"] == {
        "median_ratio": statistics.median([1.2, 1.2, 1.2]), "pairs": 3}


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
