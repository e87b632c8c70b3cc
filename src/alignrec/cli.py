"""Command-line entry point.

    alignrec <prepare|train|eval|intermediate|recommend|grid>
        --config <path> [--checkpoint <path>] [--user <key>] [--k <n>]
        [--seed <n>]

Exit codes: 0 success, 2 configuration or validation error, 3 data error,
4 training divergence.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .config import RunConfig, load_config, parse_train, require_features
from .data import (file_sha256, kcore_filter, load_interactions, save_splits,
                   split_dataset, write_manifest)
from .errors import (AlignRecError, ConfigError, DataError,
                     TrainingDivergedError)
from .evaluator import evaluate, longtail_evaluate, rank_all
from .features import align_features, load_features, read_item_list
from .graphs import build_graphs
from .model import forward
from .protocols import BASE_PROTOCOLS, mask_modality_eval
from .trainer import fit, format_log_record


def _prepare_dataset(cfg: RunConfig, strategy: str | None = None):
    raw = load_interactions(cfg.interactions)
    filtered = kcore_filter(raw, cfg.k_core)
    return split_dataset(filtered, cfg.ratios, cfg.split_seed,
                         strategy or cfg.strategy)


def _load_aligned_features(cfg: RunConfig, ds):
    require_features(cfg)
    keys = read_item_list(cfg.item_list)
    feat = load_features(cfg.features, expected_items=len(keys))
    return align_features(feat, keys, ds)


def cmd_prepare(cfg: RunConfig) -> int:
    ds = _prepare_dataset(cfg)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    save_splits(ds, out)
    write_manifest(out / "manifest.txt", {
        "interactions_sha256": file_sha256(cfg.interactions),
        "k_core": cfg.k_core,
        "ratios": ",".join(repr(r) for r in cfg.ratios),
        "strategy": cfg.strategy,
        "seed": cfg.split_seed,
        "num_users": ds.num_users,
        "num_items": ds.num_items,
        "num_train": len(ds.train),
        "num_val": len(ds.val),
        "num_test": len(ds.test),
    })
    print(f"prepared {ds.num_users} users, {ds.num_items} items: "
          f"{len(ds.train)}/{len(ds.val)}/{len(ds.test)} train/val/test -> {out}")
    return 0


def _checkpoint_hook(out_dir: Path, config_text: str):
    def hook(tag: str, params, state):
        # one file per tag (best, final, failed), so a diverged run cannot
        # overwrite the final checkpoint of an earlier run
        status = "failed" if tag == "failed" else "ok"
        ckpt.save_checkpoint(out_dir / f"checkpoint_{tag}.ackp", params, config_text,
                             rng_state=state.rng.bit_generator.state, status=status)
    return hook


def cmd_train(cfg: RunConfig) -> int:
    ds = _prepare_dataset(cfg)
    feat = _load_aligned_features(cfg, ds)
    graphs = build_graphs(ds, feat, cfg.train.k_prime)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    params, log = fit(ds, graphs, feat, cfg.train,
                      checkpoint_hook=_checkpoint_hook(out, cfg.text))
    with open(out / "train_log.txt", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(format_log_record(record) + "\n")
    for record in log:
        print(format_log_record(record, include_timing=True))

    fp = forward(params, graphs, feat, cfg.train.gcn_layers)
    report = evaluate(fp.reps, ds, "test", cfg.eval_ks)
    (out / "report_test.txt").write_text(report.to_text(), encoding="utf-8")
    with open(out / "train_log.txt", "a", encoding="utf-8") as fh:
        fh.write(report.to_line("test") + "\n")
    print(report.to_line("test"))
    return 0


def cmd_eval(cfg: RunConfig, checkpoint_path: str) -> int:
    if not checkpoint_path:
        raise ConfigError("eval requires --checkpoint")
    loaded = ckpt.load_checkpoint(checkpoint_path)
    ds = _prepare_dataset(cfg)
    feat = _load_aligned_features(cfg, ds)
    graphs = build_graphs(ds, feat, cfg.train.k_prime)
    fp = forward(loaded.params, graphs, feat, cfg.train.gcn_layers)
    report = evaluate(fp.reps, ds, "test", cfg.eval_ks)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "report_test.txt").write_text(report.to_text(), encoding="utf-8")
    print(report.to_text(), end="")
    if cfg.longtail:
        lt = longtail_evaluate(fp.reps, ds, cfg.eval_ks, cfg.longtail_threshold)
        (out / "report_longtail.txt").write_text(lt.to_text(), encoding="utf-8")
        print(lt.to_text(), end="")
    return 0


def cmd_intermediate(cfg: RunConfig) -> int:
    # the zero-shot target needs time order, so all protocols share one
    # temporal split
    ds = _prepare_dataset(cfg, strategy="temporal-leave-one-out")
    feat = _load_aligned_features(cfg, ds)
    feat_hash = file_sha256(cfg.features)
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name in cfg.protocols:
        if name in BASE_PROTOCOLS:
            report = BASE_PROTOCOLS[name](feat, ds, cfg.protocol)
        else:
            if cfg.masked_features is None or not cfg.masked_features.exists():
                raise ConfigError("[paths] masked_features is required for mask_modality")
            keys = read_item_list(cfg.item_list)
            masked = align_features(
                load_features(cfg.masked_features, expected_items=len(keys)), keys, ds)
            report = mask_modality_eval(feat, masked, cfg.protocol, cfg.mask_base, ds)
            report.extras["masked_features_sha256"] = file_sha256(cfg.masked_features)
        report.extras["features_sha256"] = feat_hash
        (out / f"report_{name}.txt").write_text(report.to_text(), encoding="utf-8")
        print(report.to_line(name))
    return 0


def cmd_recommend(cfg: RunConfig, checkpoint_path: str, user_key: str, k: int) -> int:
    if not checkpoint_path:
        raise ConfigError("recommend requires --checkpoint")
    if not user_key:
        raise ConfigError("recommend requires --user")
    if k < 1:
        raise ConfigError(f"recommend requires --k >= 1, got {k}")
    loaded = ckpt.load_checkpoint(checkpoint_path)
    ds = _prepare_dataset(cfg)
    if user_key not in ds.user_index:
        raise DataError(f"unknown user key '{user_key}'")
    feat = _load_aligned_features(cfg, ds)
    graphs = build_graphs(ds, feat, cfg.train.k_prime)
    fp = forward(loaded.params, graphs, feat, cfg.train.gcn_layers)
    user = ds.user_index[user_key]
    scores = fp.reps.h_items @ fp.reps.h_users[user]
    seen = ds.train[ds.train[:, 0] == user, 1]
    for item in rank_all(scores, seen, k):
        print(f"{ds.item_keys[item]}\t{float(scores[item])!r}")
    return 0


def cmd_grid(cfg: RunConfig) -> int:
    if not cfg.grid:
        raise ConfigError("grid command needs a [grid] section")
    keys = sorted(cfg.grid)
    # every point is parsed and validated before anything is trained
    points = [(values, parse_train(cfg.train, dict(zip(keys, values)), "grid"))
              for values in itertools.product(*(cfg.grid[k] for k in keys))]
    ds = _prepare_dataset(cfg)
    feat = _load_aligned_features(cfg, ds)
    # fit only reads the graphs, so points that share k_prime share them
    graphs_by_k = {k: build_graphs(ds, feat, k)
                   for k in sorted({train_cfg.k_prime for _, train_cfg in points})}
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    header = "\t".join(keys + ["val_recall@20"]
                       + [f"test_recall@{k}" for k in cfg.eval_ks]
                       + [f"test_ndcg@{k}" for k in cfg.eval_ks])
    lines.append(header)
    for values, train_cfg in points:
        graphs = graphs_by_k[train_cfg.k_prime]
        params, log = fit(ds, graphs, feat, train_cfg)
        best_val = max(rec["val_recall@20"] for rec in log)
        fp = forward(params, graphs, feat, train_cfg.gcn_layers)
        report = evaluate(fp.reps, ds, "test", cfg.eval_ks)
        row = "\t".join(list(values)
                        + [repr(best_val)]
                        + [repr(report.recall[k]) for k in cfg.eval_ks]
                        + [repr(report.ndcg[k]) for k in cfg.eval_ks])
        lines.append(row)
        print(row)
    (out / "grid_results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alignrec")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prepare", "train", "eval", "intermediate", "recommend", "grid"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--user", default=None)
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "intermediate":
            return cmd_intermediate(cfg)
        if args.command == "recommend":
            return cmd_recommend(cfg, args.checkpoint, args.user, args.k)
        if args.command == "grid":
            return cmd_grid(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AlignRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
