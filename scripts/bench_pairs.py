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
"""

from __future__ import annotations

import argparse
import json
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
    """One benchmark run: its metric values and its failed checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(RUN_SECONDS)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].removeprefix("record "))
    except (IndexError, ValueError):
        return {"values": {}, "named": {},
                "failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    named = {m: v["value"] for m, v in record.get("named_metrics", {}).items()
             if m not in METRICS}
    failures = [str(e) for e in record.get("errors", [])]
    if "error" in record:
        failures.append(record["error"])
    if not result["correct"] and not failures:
        failures.append(f"{result['failed']} failed operations")
    return {"values": {m: result["metrics"][m]["value"] for m in METRICS
                       if m in result["metrics"]},
            "named": named, "failures": failures}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    runs = {"parent": [], "change": []}
    named = {"parent": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        export_revision(args.parent, parent_dir)
        sides = (("parent", parent_dir), ("change", ROOT))
        for pair in range(1, args.pairs + 1):
            for side, checkout in sides if pair % 2 else sides[::-1]:
                run = run_once(checkout, args)
                runs[side].append(run["values"])
                named[side].append(run["named"])
                shown = "  ".join(f"{m}={run['values'][m]:.4g}"
                                  for m in METRICS if m in run["values"])
                shown += "".join(f"  {m}={v:.4g}" for m, v in sorted(run["named"].items()))
                print(f"pair {pair} {side:6s} {shown}", flush=True)
                for failure in run["failures"]:
                    failed = True
                    print(f"pair {pair} {side:6s} FAILED {failure}", flush=True)
                if not run["values"]:
                    return 1  # the run printed no result: a bad argument or a crash
            ratios = "  ".join(f"{m}={runs['change'][-1][m] / runs['parent'][-1][m]:.3f}"
                               for m in METRICS
                               if m in runs["change"][-1] and m in runs["parent"][-1])
            print(f"pair {pair} change/parent {ratios}", flush=True)

    for m, sign in METRICS.items():
        pairs = [(p[m], c[m]) for p, c in zip(runs["parent"], runs["change"])
                 if m in p and m in c]
        if not pairs:
            continue
        parents = [p for p, _ in pairs]
        changes = [c for _, c in pairs]
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        print(f"{m}: median parent {statistics.median(parents):.4g} (IQR {iqr(parents):.4g}), "
              f"median change {statistics.median(changes):.4g}, "
              f"median change/parent {statistics.median(c / p for p, c in pairs):.3f}, "
              f"change better in {wins} of {len(pairs)} pairs")
    for m in sorted({m for run in named["parent"] for m in run}):
        ratios = [c[m] / p[m] for p, c in zip(named["parent"], named["change"])
                  if m in c and p.get(m)]
        if ratios:
            print(f"{m}: median change/parent {statistics.median(ratios):.3f} "
                  f"over {len(ratios)} pairs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
