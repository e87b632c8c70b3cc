#!/usr/bin/env python3
"""Byte-for-byte comparison of every CLI command against a parent revision.

    python3 scripts/same_bytes.py --parent <rev> [--expect-diff NAME ...]

Exports the committed files of <rev> into a temporary directory (as
scripts/bench_pairs.py does) and builds one seeded workspace: a
planted-cluster corpus of 600 users and 600 items in which two items share
one feature row (so a few rows of the kNN graph and of each feature
protocol meet tied scores and are rescored, and the others keep their
screened order), a seeded masked-feature file, both feature files and the item
list in one seeded shuffled order (so every command aligns more than one
512-row block of rows that are not in dataset order), and a config with a
random split, the long-tail slice, all three feature protocols and a
[grid] over two k_prime values. Each tree writes the workspace with its
own `alignrec.synthetic`, in a child process, and its three corpus files are
compared as `corpus/<file>`. Then runs `prepare`, `train`, `eval`,
`intermediate`, `recommend` and `grid` on the parent tree and on this working
tree, both in this tree's workspace directory, each command into a fresh
output directory.

Every file a command writes and every line it prints is compared byte for
byte; the only exception is the `wall_time=` field of train's epoch lines.
One verdict line per artifact, named `<command>/<file>`, `<command>/stdout`
or `corpus/<file>`. A change that a PR means to make is declared by that name
with --expect-diff; the declared artifact must then differ, and nothing else
is loosened. Exits 1 if a command fails on either side, an undeclared
artifact differs or a declared one does not; 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision

SEED = 7
CLUSTERS = 4
CONFIG = """\
[paths]
interactions = interactions.tsv
features = features.afea
item_list = items.txt
masked_features = masked.afea
output_dir = out

[split]
strategy = random
seed = 5

[train]
max_epochs = 3
patience = 3
batch_size = 128
embed_dim = 16
mlp_hidden = 8
k_prime = 4
seed = 3

[eval]
ks = 5,10,20
longtail = true

[protocol]
ks = 5,10
protocols = zero_shot,item_cf,mask_modality
mask_ratio = 0.5
mask_seed = 11
mask_base = item_cf

[grid]
k_prime = 3,6
"""
USER = "u000"  # the first of 600 users, keyed u000 to u599
TWIN = 2 * CLUSTERS  # the item whose feature row copies that of item TWIN - CLUSTERS
# (command, extra arguments); eval and recommend read train's best checkpoint
COMMANDS = (("prepare", ()), ("train", ()), ("eval", ("--checkpoint", "{ckpt}")),
            ("intermediate", ()), ("recommend", ("--checkpoint", "{ckpt}", "--user", USER)),
            ("grid", ()))
WALL_TIME = re.compile(rb" wall_time=\S*")
CORPUS_FILES = ("interactions.tsv", "features.afea", "items.txt")


def build_workspace(work) -> None:
    """The workspace, written by the alignrec package that imports first."""
    import numpy as np

    from alignrec.features import save_features, write_item_list
    from alignrec.synthetic import make_corpus, write_corpus

    work = Path(work)
    corpus = make_corpus(num_users=600, num_items=600, clusters=CLUSTERS, feat_dim=16,
                         per_user=12, seed=SEED)
    # two items of one cluster (item n + CLUSTERS is in item n's cluster)
    # share one feature row: the rankings that meet their tied scores are
    # rescored, and the others keep their screened order
    corpus.features[TWIN] = corpus.features[TWIN - CLUSTERS]
    write_corpus(corpus, work)
    masked = np.random.default_rng(SEED + 1).normal(size=corpus.features.shape)
    # both feature files and the item list in one seeded shuffled order, so
    # every command aligns rows that are not in dataset order
    order = np.random.default_rng(SEED + 2).permutation(len(corpus.item_keys))
    save_features(work / "features.afea", corpus.features[order])
    save_features(work / "masked.afea", masked[order])
    write_item_list(work / "items.txt", [corpus.item_keys[i] for i in order])
    (work / "run.ini").write_text(CONFIG, encoding="utf-8")


def write_workspace(tree: Path, work: Path, results: Path) -> None:
    """build_workspace in a child process that imports `tree`'s package; its
    corpus files are copied to results/corpus/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "scripts")]))
    subprocess.run([sys.executable, "-c", "import sys, same_bytes; "
                    "same_bytes.build_workspace(sys.argv[1])", str(work)], env=env, check=True)
    (results / "corpus").mkdir(parents=True)
    for name in CORPUS_FILES:
        shutil.copy(work / name, results / "corpus" / name)


def run_tree(tree: Path, work: Path, results: Path) -> list[str]:
    """Runs every command with `tree`'s package; each command's output
    directory and stdout end up in results/<command>/. Returns the failures."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failures = []
    for command, extra in COMMANDS:
        ckpt = results / "train" / "checkpoint_best.ackp"
        argv = [sys.executable, "-m", "alignrec.cli", command,
                "--config", str(work / "run.ini")] + [a.format(ckpt=ckpt) for a in extra]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        dest = results / command
        if (work / "out").exists():
            shutil.move(work / "out", dest)
        dest.mkdir(parents=True, exist_ok=True)
        (dest / "stdout").write_bytes(WALL_TIME.sub(b"", proc.stdout))
        if proc.returncode != 0:
            failures.append(f"{command} exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace').strip()[-500:]}")
    return failures


def first_difference(a: bytes, b: bytes, name: str) -> str:
    if name.endswith("stdout"):
        lines_a, lines_b = a.splitlines(), b.splitlines()
        for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            if x != y:
                return f"line {n}: parent {x[:120]!r}, change {y[:120]!r}"
        return f"{len(lines_a)} lines against {len(lines_b)}"
    n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first difference at byte {n} of {len(a)} (parent) and {len(b)} (change)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="NAME",
                        help="an artifact, <command>/<file>, <command>/stdout or "
                             "corpus/<file>, that must differ")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        parent_tree, work, runs = tmp / "parent_tree", tmp / "work", tmp / "runs"
        parent_work = tmp / "parent_work"
        for directory in (parent_tree, work, parent_work):
            directory.mkdir()
        export_revision(args.parent, parent_tree)
        write_workspace(parent_tree, parent_work, runs / "parent")
        write_workspace(ROOT, work, runs / "change")
        failures = []
        for side, tree in (("parent", parent_tree), ("change", ROOT)):
            failures += [f"{side}: {f}" for f in run_tree(tree, work, runs / side)]
        names = sorted({str(p.relative_to(runs / side)) for side in ("parent", "change")
                        for p in (runs / side).rglob("*") if p.is_file()})
        unknown = sorted(set(args.expect_diff) - set(names))
        if unknown:
            parser.error(f"--expect-diff names no artifact: {', '.join(unknown)}")
        bad = len(failures)
        for failure in failures:
            print(f"FAILED     {failure}")
        for name in names:
            a, b = (runs / side / name for side in ("parent", "change"))
            declared = name in args.expect_diff
            if not (a.is_file() and b.is_file()):
                verdict, detail = "MISSING", f"only in {'parent' if a.is_file() else 'change'}"
            elif a.read_bytes() == b.read_bytes():
                verdict, detail = "identical", ""
            else:
                verdict = "different"
                detail = first_difference(a.read_bytes(), b.read_bytes(), name)
            if declared:
                ok = verdict != "identical"
                verdict = f"{verdict} (declared)" if ok else "identical, but declared different"
            else:
                ok = verdict == "identical"
            bad += not ok
            print(f"{verdict:10s} {name}" + (f"  {detail}" if detail else ""))
    print(f"{len(names)} artifacts, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
