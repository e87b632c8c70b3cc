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

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, check_file, load_config, parse_config, parse_train
from .data import (file_sha256, kcore_filter, load_interactions, save_splits,
                   split_dataset, write_manifest)
from .errors import (AlignRecError, ConfigError, DataError, ParseError,
                     TrainingDivergedError)
from .evaluator import evaluate, longtail_evaluate
from .features import align_features, load_features, read_item_list
from .graphs import build_graphs
from .model import forward
from .protocols import BASE_PROTOCOLS, mask_modality_eval
from .sparse import top_k
from .trainer import fit, format_log_record


def _check_inputs(cfg: RunConfig, args) -> None:
    """Raise ConfigError unless every file the command reads is set, exists and
    is not a directory, and a writing command's output_dir is absent or a directory."""
    files = {"[paths] interactions": cfg.interactions}
    if args.command != "prepare":
        files.update({"[paths] features": cfg.features, "[paths] item_list": cfg.item_list})
    if args.command == "intermediate" and "mask_modality" in cfg.protocols:
        files["[paths] masked_features"] = cfg.masked_features
    if args.command in ("eval", "recommend"):
        files["--checkpoint"] = args.checkpoint and Path(args.checkpoint)
    for name, path in files.items():
        if not path:
            raise ConfigError(f"{args.command} requires {name}")
        check_file(path, name)
    if args.command != "recommend" and cfg.output_dir.exists() and not cfg.output_dir.is_dir():
        raise ConfigError(f"[paths] output_dir {cfg.output_dir} is not a directory")


def _dataset(cfg: RunConfig, raw, strategy: str | None = None):
    filtered = kcore_filter(raw, cfg.k_core)
    return split_dataset(filtered, cfg.ratios, cfg.split_seed, strategy or cfg.strategy)


def _load(cfg: RunConfig, strategy: str | None = None, masked: bool = False):
    """The split dataset, its aligned features and its aligned masked features
    (None unless `masked`)."""
    ds = _dataset(cfg, load_interactions(cfg.interactions), strategy)
    keys = read_item_list(cfg.item_list)

    def aligned(path):
        return align_features(load_features(path, expected_items=len(keys)), keys, ds)

    return ds, aligned(cfg.features), aligned(cfg.masked_features) if masked else None


# the keys that fix what a checkpoint's parameters mean: the graphs, the
# propagation depth and the split. The seeds are left out, as --seed
# overrides them and the checkpoint stores only the config file's text.
_MODEL_KEYS = {
    "[train] gcn_layers": lambda c: c.train.gcn_layers,
    "[train] k_prime": lambda c: c.train.k_prime,
    "[split] k_core": lambda c: c.k_core,
    "[split] ratios": lambda c: c.ratios,
    "[split] strategy": lambda c: c.strategy,
}


def _restore(cfg: RunConfig, args):
    """The dataset and the representations of the --checkpoint parameters.
    Raises DataError for a checkpoint of a failed run, with a non-finite
    tensor or with shapes that do not fit the data; then ConfigError if a
    model key of its stored config differs from `cfg`'s (a checkpoint that
    stores no config text is not compared)."""
    saved = ckpt.load_checkpoint(args.checkpoint)
    if saved.status != "ok":
        raise DataError(f"{args.checkpoint}: checkpoint has status '{saved.status}', not 'ok'")
    for name, tensor in saved.params.as_dict().items():
        if not np.isfinite(tensor).all():
            raise DataError(f"{args.checkpoint}: tensor '{name}' holds a non-finite value")
    ds, feat, _ = _load(cfg)
    graphs = build_graphs(ds, feat, cfg.train.k_prime)
    reps = forward(saved.params, graphs, feat, cfg.train.gcn_layers).reps
    if saved.config_text:
        try:
            trained = parse_config(saved.config_text, f"{args.checkpoint}: stored config")
        except ConfigError as exc:
            raise ParseError(str(exc)) from None
        for key, value in _MODEL_KEYS.items():
            if value(trained) != value(cfg):
                raise ConfigError(f"{args.checkpoint} was trained with {key} = "
                                  f"{value(trained)}, the config has {value(cfg)}")
    return ds, reps


def _test_report(cfg: RunConfig, params, ds, feat, graphs, layers: int):
    """The test-split report of `params`."""
    return evaluate(forward(params, graphs, feat, layers).reps, ds, "test", cfg.eval_ks)


def _output_dir(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


def _write_report(out: Path, name: str, report) -> str:
    text = report.to_text()
    (out / f"report_{name}.txt").write_text(text, encoding="utf-8")
    return text


def cmd_prepare(cfg: RunConfig, args) -> int:
    raw = load_interactions(cfg.interactions)
    ds = _dataset(cfg, raw)
    out = _output_dir(cfg)
    save_splits(ds, out)
    write_manifest(out / "manifest.txt", {
        "interactions_sha256": raw.sha256,
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


def cmd_train(cfg: RunConfig, args) -> int:
    ds, feat, _ = _load(cfg)
    graphs = build_graphs(ds, feat, cfg.train.k_prime)
    out = _output_dir(cfg)
    params, log = fit(ds, graphs, feat, cfg.train,
                      checkpoint_hook=_checkpoint_hook(out, cfg.text))
    for record in log:
        print(format_log_record(record, include_timing=True))
    report = _test_report(cfg, params, ds, feat, graphs, cfg.train.gcn_layers)
    lines = [format_log_record(record) + "\n" for record in log] + [report.to_line("test") + "\n"]
    (out / "train_log.txt").write_text("".join(lines), encoding="utf-8")
    _write_report(out, "test", report)
    print(report.to_line("test"))
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    ds, reps = _restore(cfg, args)
    report = evaluate(reps, ds, "test", cfg.eval_ks)
    out = _output_dir(cfg)
    print(_write_report(out, "test", report), end="")
    if cfg.longtail:
        lt = longtail_evaluate(reps, ds, cfg.eval_ks, cfg.longtail_threshold)
        print(_write_report(out, "longtail", lt), end="")
    return 0


def cmd_intermediate(cfg: RunConfig, args) -> int:
    # the zero-shot target needs time order, so all protocols share a temporal split
    ds, feat, masked = _load(cfg, "temporal-leave-one-out",
                             masked="mask_modality" in cfg.protocols)
    feat_hash = file_sha256(cfg.features)
    out = _output_dir(cfg)
    for name in cfg.protocols:
        if name in BASE_PROTOCOLS:
            report = BASE_PROTOCOLS[name](feat, ds, cfg.protocol)
        else:
            report = mask_modality_eval(feat, masked, cfg.protocol, cfg.mask_base, ds)
            report.extras["masked_features_sha256"] = file_sha256(cfg.masked_features)
        report.extras["features_sha256"] = feat_hash
        _write_report(out, name, report)
        print(report.to_line(name))
    return 0


def cmd_recommend(cfg: RunConfig, args) -> int:
    if not args.user:
        raise ConfigError("recommend requires --user")
    if args.k < 1:
        raise ConfigError(f"recommend requires --k >= 1, got {args.k}")
    ds, reps = _restore(cfg, args)
    if args.user not in ds.user_index:
        raise DataError(f"unknown user key '{args.user}'")
    user = ds.user_index[args.user]
    scores = reps.h_items @ reps.h_users[user]
    seen = ds.train[ds.train[:, 0] == user, 1]
    for item in top_k(scores, seen, args.k):
        print(f"{ds.item_keys[item]}\t{float(scores[item])!r}")
    return 0


def cmd_grid(cfg: RunConfig, args) -> int:
    if not cfg.grid:
        raise ConfigError("grid command needs a [grid] section")
    keys = sorted(cfg.grid)
    # every point is parsed and validated before anything is trained
    points = [(values, parse_train(cfg.train, dict(zip(keys, values)), "grid"))
              for values in itertools.product(*(cfg.grid[k] for k in keys))]
    ds, feat, _ = _load(cfg)
    # fit only reads the graphs, so points that share k_prime share them
    graphs_by_k = {k: build_graphs(ds, feat, k)
                   for k in sorted({train_cfg.k_prime for _, train_cfg in points})}
    out = _output_dir(cfg)
    lines = ["\t".join(keys + ["val_recall@20"] + [f"test_recall@{k}" for k in cfg.eval_ks]
                       + [f"test_ndcg@{k}" for k in cfg.eval_ks])]
    for values, train_cfg in points:
        graphs = graphs_by_k[train_cfg.k_prime]
        params, log = fit(ds, graphs, feat, train_cfg)
        best_val = max(rec["val_recall@20"] for rec in log)
        report = _test_report(cfg, params, ds, feat, graphs, train_cfg.gcn_layers)
        lines.append("\t".join(list(values) + [repr(best_val)]
                               + [repr(report.recall[k]) for k in cfg.eval_ks]
                               + [repr(report.ndcg[k]) for k in cfg.eval_ks]))
        print(lines[-1])
    (out / "grid_results.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


COMMANDS = {"prepare": cmd_prepare, "train": cmd_train, "eval": cmd_eval,
            "intermediate": cmd_intermediate, "recommend": cmd_recommend,
            "grid": cmd_grid}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alignrec")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        _check_inputs(cfg, args)
        return COMMANDS[args.command](cfg, args)
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
