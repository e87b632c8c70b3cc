#!/usr/bin/env python3
"""Generate a planted-cluster corpus plus a ready-to-run config file.

The emitted directory contains interactions.tsv, features.afea, items.txt,
and run.ini; `alignrec train --config <dir>/run.ini` works directly on it.
"""

import argparse
from pathlib import Path

from alignrec.synthetic import make_corpus, write_corpus

CONFIG_TEMPLATE = """\
[paths]
interactions = interactions.tsv
features = features.afea
item_list = items.txt
output_dir = out

[split]
seed = {seed}

[train]
max_epochs = 200
patience = 200
seed = {seed}

[grid]
lambda = 0.1,0.2,0.3
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data/synthetic")
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--items", type=int, default=100)
    parser.add_argument("--clusters", type=int, default=4)
    parser.add_argument("--feat-dim", type=int, default=32)
    parser.add_argument("--per-user", type=int, default=16)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    corpus = make_corpus(num_users=args.users, num_items=args.items,
                         clusters=args.clusters, feat_dim=args.feat_dim,
                         per_user=args.per_user, noise=args.noise, seed=args.seed)
    out = Path(args.out)
    paths = write_corpus(corpus, out)
    (out / "run.ini").write_text(CONFIG_TEMPLATE.format(seed=args.seed),
                                 encoding="utf-8")
    print(f"wrote {len(corpus.raw)} interactions for {args.users} users / "
          f"{args.items} items to {out}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    print(f"  config: {out / 'run.ini'}")


if __name__ == "__main__":
    main()
