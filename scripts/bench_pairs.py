#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py --parent <rev> --workload eval-m --seed 11

Exports the committed files of <rev> into a temporary directory, then runs
`perfbench/run.py --workload W --seed S --seconds T` there and in this
working tree back to back for N pairs (10 by default), with T the
`run_seconds` that BENCHMARK.json fixes, the parent first in odd pairs and
second in even ones. On a shared machine the drift between runs is as large
as many changes, so a speed claim rests on such pairs, not on two separate
series (perfbench/BASELINE.md).

Prints each run's end-to-end metrics and the workload's other named metrics
(from the `record` line, say eval-m's `eval_users_per_s` and
`protocol_queries_per_s`, which show which calls moved), each pair's
change/parent ratios, per end-to-end metric the medians, the parent's
interquartile range, the median ratio and the number of pairs the change
won, and per named metric the median ratio. A failed check is printed under
the run that failed it. Exits 1 if any run failed, at once if a run printed
no result (an unknown workload, a crash). perfbench/ is only read; the
temporary directory is removed at the end.

With --out BENCH_<n>.json the series is also appended to that JSON file's
"series" list, so one file holds a change's series on several workloads:
the workload, the seed, both revisions, every pair's metrics and ratios,
each run's machine record (nproc, CPU affinity, numpy and scipy versions),
and the summary printed at the end (medians, the parent's IQR, the median
ratio and the win count per end-to-end metric; the median ratio per named
metric).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# end-to-end metrics, +1 where higher is better
METRICS = {"work_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def export_revision(rev: str, dest: Path) -> None:
    """The committed tree of `rev`, as the benchmark sees a parent commit."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=blob, check=True)


def run_once(checkout: Path, args) -> dict:
    """One benchmark run: its metric values, its failed checks and its
    machine record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(RUN_SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].removeprefix("record "))
    except (IndexError, ValueError):
        return {"values": {}, "named": {}, "record": {},
                "failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    named = {m: v["value"] for m, v in record.get("named_metrics", {}).items()
             if m not in METRICS}
    failures = [str(e) for e in record.get("errors", [])]
    if "error" in record:
        failures.append(record["error"])
    if not result["correct"] and not failures:
        failures.append(f"{result['failed']} failed operations")
    # the run inherits this process's CPU affinity
    machine = dict(record.get("machine", {}), affinity=sorted(os.sched_getaffinity(0)))
    return {"values": {m: result["metrics"][m]["value"] for m in METRICS
                       if m in result["metrics"]},
            "named": named, "record": machine, "failures": failures}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(runs: dict) -> dict:
    """The end-of-series summary of {"parent": [run, ...], "change": [run, ...]}
    with runs paired by position: per end-to-end metric the medians, the
    parent's IQR, the median change/parent ratio and the pairs the change won;
    per named metric the median ratio."""
    out = {"end_to_end": {}, "named": {}}
    for m, sign in METRICS.items():
        pairs = [(p["values"][m], c["values"][m]) for p, c in zip(runs["parent"], runs["change"])
                 if m in p["values"] and m in c["values"]]
        if not pairs:
            continue
        parents = [p for p, _ in pairs]
        out["end_to_end"][m] = {
            "median_parent": statistics.median(parents),
            "iqr_parent": iqr(parents),
            "median_change": statistics.median(c for _, c in pairs),
            "median_ratio": statistics.median(c / p for p, c in pairs),
            "change_wins": sum(1 for p, c in pairs if sign * (c - p) > 0),
            "pairs": len(pairs)}
    for m in sorted({m for run in runs["parent"] for m in run["named"]}):
        ratios = [c["named"][m] / p["named"][m] for p, c in zip(runs["parent"], runs["change"])
                  if m in c["named"] and p["named"].get(m)]
        if ratios:
            out["named"][m] = {"median_ratio": statistics.median(ratios), "pairs": len(ratios)}
    return out


def revision(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", f"{rev}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def write_series(path: Path, meta: dict, runs: dict) -> None:
    """Append the series to the JSON file's "series" list, creating the file
    if needed: `meta` (workload, seed, revisions), the runs pair by pair with
    their change/parent ratios, and summarize(runs)."""
    pairs = []
    for n, (p, c) in enumerate(zip(runs["parent"], runs["change"]), start=1):
        ratios = {m: c["values"][m] / p["values"][m] for m in METRICS
                  if m in c["values"] and p["values"].get(m)}
        pairs.append({"pair": n, "parent": p, "change": c, "ratios": ratios})
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"series": []}
    doc["series"].append(dict(meta, pairs=pairs, summary=summarize(runs)))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also append the series to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    dirty = subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", "HEAD"]).returncode
    meta = {"workload": args.workload, "seed": args.seed, "run_seconds": RUN_SECONDS,
            "parent": revision(args.parent),
            "change": revision("HEAD") + (" with uncommitted changes" if dirty else "")}

    runs = {"parent": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        export_revision(args.parent, parent_dir)
        sides = (("parent", parent_dir), ("change", ROOT))
        for pair in range(1, args.pairs + 1):
            for side, checkout in sides if pair % 2 else sides[::-1]:
                run = run_once(checkout, args)
                runs[side].append(run)
                shown = "  ".join(f"{m}={run['values'][m]:.4g}"
                                  for m in METRICS if m in run["values"])
                shown += "".join(f"  {m}={v:.4g}" for m, v in sorted(run["named"].items()))
                print(f"pair {pair} {side:6s} {shown}", flush=True)
                for failure in run["failures"]:
                    failed = True
                    print(f"pair {pair} {side:6s} FAILED {failure}", flush=True)
                if not run["values"]:
                    return 1  # the run printed no result: a bad argument or a crash
            last = {side: runs[side][-1]["values"] for side in runs}
            ratios = "  ".join(f"{m}={last['change'][m] / last['parent'][m]:.3f}"
                               for m in METRICS if m in last["change"] and m in last["parent"])
            print(f"pair {pair} change/parent {ratios}", flush=True)

    summary = summarize(runs)
    for m, row in summary["end_to_end"].items():
        print(f"{m}: median parent {row['median_parent']:.4g} (IQR {row['iqr_parent']:.4g}), "
              f"median change {row['median_change']:.4g}, "
              f"median change/parent {row['median_ratio']:.3f}, "
              f"change better in {row['change_wins']} of {row['pairs']} pairs")
    for m, row in summary["named"].items():
        print(f"{m}: median change/parent {row['median_ratio']:.3f} over {row['pairs']} pairs")
    if args.out:
        write_series(args.out, meta, runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
