#!/usr/bin/env python3
"""Benchmark for the alignrec engine.

    python3 perfbench/run.py --workload <train-m|eval-m|fit-s> --seed <n>
                             --seconds <n> --trace <0|1>

Run from the root of a checkout. The corpus is generated from --seed into
.bench_work/ and removed afterwards. Every end-to-end run reports
`setup_s`, `work_per_s` and `peak_rss_mb`; what one unit of work is depends
on the workload (see perfbench/BASELINE.md). A traced run (--trace 1) reports
the per-layer metrics instead and writes its spans to
.bench_work/traces/<workload>-<seed>.json.

Before the result, one line `record {...}` gives the machine, the corpus
shape, the workload's own named metrics with units, and any failed checks.
The last line is the JSON result. The exit code is 0 only when every
operation and check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# each end-to-end workload's main rate, reported as work_per_s
WORK_METRIC = {"train-m": "train_samples_per_s",
               "eval-m": "ranked_queries_per_s",
               "fit-s": "train_samples_per_s"}


def _import_program():
    src = ROOT / "src"
    if not (src / "alignrec" / "__init__.py").is_file():
        print(f"no alignrec sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import alignrec

    if Path(alignrec.__file__).resolve().parent != (src / "alignrec").resolve():
        print(f"imported alignrec from {alignrec.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_METRIC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from alignrec.errors import AlignRecError
    from perfbench import corpus, workloads
    from perfbench.checks import FingerprintStore, code_hash
    from perfbench.machine import machine_record, peak_rss_mb
    from perfbench.tracer import Tracer

    shape, run_e2e = workloads.WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    code = code_hash(ROOT / "src" / "alignrec", ROOT / "perfbench")
    prefix = f"{args.workload}:{args.seed}:{code}"
    ctx = workloads.Context(workload=args.workload, seed=args.seed, seconds=args.seconds,
                            work_dir=work_dir,
                            store=FingerprintStore(WORK / "fingerprints.json", prefix),
                            ops=workloads.Ops(),
                            tracer=Tracer() if args.trace else None)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_record()}
    metrics = {}
    try:
        t0 = time.perf_counter()
        paths = corpus.write_corpus(corpus.make_corpus(shape, args.seed), work_dir)
        record["corpus_write_s"] = time.perf_counter() - t0
        if args.trace:
            layer, extra = workloads.run_traced(ctx, paths)
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
            ctx.tracer.dump(WORK / "traces" / f"{args.workload}-{args.seed}.json")
        else:
            named, extra = run_e2e(ctx, paths)
            rss = peak_rss_mb()
            named["peak_rss_mb"] = (rss, "MB")
            record["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
            metrics = {"setup_s": named["setup_s"],
                       "work_per_s": (named[WORK_METRIC[args.workload]][0], "1/s"),
                       "peak_rss_mb": (rss, "MB")}
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record.update(extra)
    except AlignRecError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = ctx.ops
    record["errors"] = ops.errors
    correct = ops.failed == 0 and "error" not in record
    print("record " + json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
