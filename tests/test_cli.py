import hashlib
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from alignrec.checkpoint import load_checkpoint, save_checkpoint
from alignrec import cli
from alignrec.cli import main
from alignrec.config import _SCHEMA, load_config
from alignrec.data import kcore_filter, load_interactions, split_dataset
from alignrec.features import (align_features, load_features, read_item_list,
                               save_features)
from alignrec.graphs import build_graphs
from alignrec.model import forward, init_params
from alignrec.protocols import ProtocolConfig
from alignrec.synthetic import make_corpus, write_corpus
from alignrec.trainer import TrainConfig

from oracles import read_manifest

BASE_CONFIG = """\
[paths]
interactions = interactions.tsv
features = features.afea
item_list = items.txt
masked_features = masked.afea
output_dir = out

[split]
k_core = 2
seed = 9

[train]
max_epochs = 3
patience = 3
batch_size = 64
embed_dim = 8
mlp_hidden = 4
k_prime = 4
seed = 9

[eval]
ks = 5,10

[protocol]
ks = 5
protocols = zero_shot,item_cf,mask_modality
mask_ratio = 0.5
mask_seed = 3
mask_base = zero_shot
"""


@pytest.fixture
def workspace(tmp_path):
    corpus = make_corpus(num_users=30, num_items=20, clusters=2, feat_dim=8,
                         per_user=10, noise=0.05, seed=5)
    write_corpus(corpus, tmp_path)
    rng = np.random.default_rng(1)
    shuffled = corpus.features[rng.permutation(corpus.features.shape[0])]
    save_features(tmp_path / "masked.afea", shuffled)
    (tmp_path / "run.ini").write_text(BASE_CONFIG, encoding="utf-8")
    return tmp_path


def _run(workspace, *argv):
    return main(list(argv) + ["--config", str(workspace / "run.ini")])


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _section_config(section, line):
    """BASE_CONFIG with `line` as the only setting of its key in [section]."""
    key = line.partition("=")[0].strip()
    head, _, rest = BASE_CONFIG.partition(f"[{section}]\n")
    body, sep, tail = rest.partition("\n[")
    kept = [row for row in body.splitlines(keepends=True)
            if row.partition("=")[0].strip() != key]
    return f"{head}[{section}]\n{line}\n{''.join(kept)}{sep}{tail}"


def _train_config(line):
    """BASE_CONFIG with `line` as the only setting of its [train] key."""
    return _section_config("train", line)


# a value other than the default for every [train] key
NON_DEFAULT = {
    "learning_rate": "0.01", "batch_size": "16", "max_epochs": "7",
    "patience": "3", "gcn_layers": "1", "k_prime": "5", "embed_dim": "16",
    "mlp_hidden": "8", "optimizer": "sgd", "lr_decay": "0.9", "seed": "7",
    "alpha": "0.5", "beta": "0.2", "lambda": "0.3", "tau": "0.5",
}


# a value other than the default for every key of the other sections, and
# the value it must parse to; a [paths] value is relative to the config file
SECTION_NON_DEFAULT = {
    ("paths", "interactions"): ("other.tsv", "other.tsv"),
    ("paths", "features"): ("f.afea", "f.afea"),
    ("paths", "item_list"): ("list.txt", "list.txt"),
    ("paths", "masked_features"): ("m.afea", "m.afea"),
    ("paths", "output_dir"): ("results", "results"),
    ("split", "k_core"): ("3", 3),
    ("split", "ratios"): ("0.6, 0.3, 0.1", (0.6, 0.3, 0.1)),
    ("split", "strategy"): ("temporal-leave-one-out", "temporal-leave-one-out"),
    ("split", "seed"): ("7", 7),
    ("eval", "ks"): ("5,1", (5, 1)),
    ("eval", "longtail_threshold"): ("-2.5", -2.5),
    ("eval", "longtail"): ("yes", True),
    ("protocol", "protocols"): ("mask_modality, zero_shot", ("mask_modality", "zero_shot")),
    ("protocol", "ks"): ("3", (3,)),
    ("protocol", "mask_ratio"): ("0.25", 0.25),
    ("protocol", "mask_seed"): ("0", 0),
    ("protocol", "mask_base"): ("item_cf", "item_cf"),
}

# one invalid value per range check outside [train]
INVALID_LINES = [
    ("paths", "output_dir ="), ("paths", "output_dir = out\x00x"),
    ("split", "k_core = 0"), ("split", "ratios = 0.5,0.5,0.5"),
    ("split", "ratios = nan,0.5,0.5"), ("split", "ratios = 0.8,nan,0.1"),
    ("split", "ratios = 0.9,0.1"), ("split", "strategy = bogus"), ("split", "seed = -1"),
    ("eval", "ks = 0,5"), ("eval", "longtail_threshold = nan"),
    ("eval", "longtail = maybe"),
    ("protocol", "protocols = bogus"), ("protocol", "mask_base = bogus"),
    ("protocol", "mask_base = mask_modality"), ("protocol", "mask_seed = -1"),
    ("protocol", "mask_ratio = nan"), ("protocol", "ks = 0"),
]


def _leaves(tree, path=()):
    """The leaves of a nested dict, keyed by their path of keys."""
    if not isinstance(tree, dict):
        return {path: tree}
    return {leaf: value for key, sub in tree.items()
            for leaf, value in _leaves(sub, path + (key,)).items()}


def _no_load(path):
    raise AssertionError("data loaded before the config and inputs were checked")


def _input_cases():
    """(command, input, kind) for every input a command reads under
    BASE_CONFIG, set unset, to a missing path and to a directory; and for
    every command that writes, an output_dir that names a file or lies below one."""
    cases = []
    for command in cli.COMMANDS:
        names = ["--config", "interactions"]
        if command != "prepare":
            names += ["features", "item_list"]
        if command == "intermediate":  # BASE_CONFIG lists mask_modality
            names.append("masked_features")
        if command in ("eval", "recommend"):
            names.append("--checkpoint")
        cases += [(command, name, kind) for name in names
                  for kind in ("unset", "missing", "directory")
                  if (name, kind) != ("--config", "unset")]
        if command != "recommend":
            cases += [(command, "output_dir", "file"), (command, "output_dir", "below_file")]
    return cases


# `recommend --user u00 --k <k>` on the workspace corpus with rigged scores,
# as printed by the full-sort ranking before the partial top-K selection
RECOMMEND_TIE_STDOUT = {
    "6": "i01\t1.0\ni07\t1.0\ni03\t0.5\ni05\t0.5\ni09\t0.5\ni11\t0.5\n",
    "10": ("i01\t1.0\ni07\t1.0\ni03\t0.5\ni05\t0.5\ni09\t0.5\ni11\t0.5\n"
           "i13\t0.25\ni19\t0.25\ni04\t0.0\ni06\t0.0\n"),
}


class _Captured(Exception):
    pass


class TestPrepare:
    def test_writes_artifacts(self, workspace, capsys):
        assert _run(workspace, "prepare") == 0
        out = workspace / "out"
        for name in ("train.tsv", "val.tsv", "test.tsv", "users.tsv",
                     "items.tsv", "manifest.txt"):
            assert (out / name).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "strategy = random" in manifest
        assert "seed = 9" in manifest

    def test_idempotent_bytes(self, workspace):
        assert _run(workspace, "prepare") == 0
        first = _snapshot(workspace / "out")
        assert _run(workspace, "prepare") == 0
        assert _snapshot(workspace / "out") == first

    def test_manifest_hashes_log_read_from_pipe(self, workspace):
        # a second read of a pipe would hash nothing (e3b0c442...)
        log = (workspace / "interactions.tsv").read_bytes()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, log)  # fits the pipe buffer
            os.close(write_end)
            (workspace / "run.ini").write_text(
                _section_config("paths", f"interactions = /dev/fd/{read_end}"), encoding="utf-8")
            assert _run(workspace, "prepare") == 0
        finally:
            os.close(read_end)
        manifest = read_manifest(workspace / "out" / "manifest.txt")
        assert manifest["interactions_sha256"] == hashlib.sha256(log).hexdigest()


class TestTrain:
    def test_outputs_and_determinism(self, workspace):
        assert _run(workspace, "train") == 0
        out = workspace / "out"
        assert (out / "checkpoint_best.ackp").exists()
        assert (out / "checkpoint_final.ackp").exists()
        assert (out / "report_test.txt").exists()
        log = (out / "train_log.txt").read_text().splitlines()
        assert len(log) == 4  # three epochs plus the test record
        assert log[0].startswith("epoch=1 ")
        assert "wall_time" not in log[0]
        first = _snapshot(out)
        assert _run(workspace, "train") == 0
        assert _snapshot(out) == first

    def test_seed_override_changes_model(self, workspace):
        assert _run(workspace, "train") == 0
        a = (workspace / "out" / "checkpoint_best.ackp").read_bytes()
        assert _run(workspace, "train", "--seed", "123") == 0
        b = (workspace / "out" / "checkpoint_best.ackp").read_bytes()
        assert a != b

    def test_zero_lr_smoke_run_keeps_initialization(self, workspace):
        cfg = BASE_CONFIG.replace("max_epochs = 3",
                                  "max_epochs = 2\nlearning_rate = 0")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "train") == 0
        best = load_checkpoint(workspace / "out" / "checkpoint_best.ackp")
        final = load_checkpoint(workspace / "out" / "checkpoint_final.ackp")
        for name in ("user_emb", "item_emb", "gate_w1", "gate_b1",
                     "gate_w2", "gate_b2"):
            assert np.array_equal(getattr(best.params, name),
                                  getattr(final.params, name))

    def test_divergence_exit_code(self, workspace):
        assert _run(workspace, "train") == 0
        final_before = (workspace / "out" / "checkpoint_final.ackp").read_bytes()
        bad = BASE_CONFIG.replace("max_epochs = 3",
                                  "max_epochs = 3\nlearning_rate = 1e30\noptimizer = sgd")
        (workspace / "run.ini").write_text(bad, encoding="utf-8")
        assert _run(workspace, "train") == 4
        failed = load_checkpoint(workspace / "out" / "checkpoint_failed.ackp")
        assert failed.status == "failed"
        assert (workspace / "out" / "checkpoint_final.ackp").read_bytes() == final_before


class TestEval:
    def test_eval_from_checkpoint(self, workspace, capsys):
        assert _run(workspace, "train") == 0
        report_after_train = (workspace / "out" / "report_test.txt").read_text()
        code = _run(workspace, "eval", "--checkpoint",
                    str(workspace / "out" / "checkpoint_best.ackp"))
        assert code == 0
        assert (workspace / "out" / "report_test.txt").read_text() == report_after_train

    def test_eval_requires_checkpoint(self, workspace):
        assert _run(workspace, "eval") == 2

    def test_longtail_report(self, workspace):
        cfg = BASE_CONFIG.replace("ks = 5,10", "ks = 5,10\nlongtail = true\nlongtail_threshold = 100")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "train") == 0
        assert _run(workspace, "eval", "--checkpoint",
                    str(workspace / "out" / "checkpoint_best.ackp")) == 0
        text = (workspace / "out" / "report_longtail.txt").read_text()
        assert "slice = longtail" in text

    def test_broken_checkpoint_is_data_error(self, workspace, capsys, monkeypatch):
        assert _run(workspace, "train") == 0
        good = load_checkpoint(workspace / "out" / "checkpoint_best.ackp")
        failed = workspace / "failed.ackp"
        save_checkpoint(failed, good.params, good.config_text, status="failed")
        cases = [(failed, "checkpoint has status 'failed', not 'ok'")]
        for name, value in (("user_emb", np.nan), ("gate_b2", np.inf), ("gate_w1", -np.inf)):
            params = good.params.copy()
            getattr(params, name).flat[-1] = value
            path = workspace / f"{name}.ackp"
            save_checkpoint(path, params, good.config_text)
            cases.append((path, f"tensor '{name}' holds a non-finite value"))
        longer = workspace / "longer.ackp"
        longer.write_bytes((workspace / "out" / "checkpoint_best.ackp").read_bytes() + b"junk")
        cases.append((longer, "4 bytes after the payload"))
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        capsys.readouterr()
        for path, message in cases:
            for command in ("eval", "recommend"):
                assert _run(workspace, command, "--checkpoint", str(path), "--user", "u00") == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"data error: {path}: {message}\n"

    def test_checkpoint_config_byte_not_utf8(self, workspace, capsys, monkeypatch):
        assert _run(workspace, "train") == 0
        blob = bytearray((workspace / "out" / "checkpoint_best.ackp").read_bytes())
        # the config text follows magic, version and its u64 length
        header = bytes(blob[16:16 + int.from_bytes(blob[8:16], "little")])
        at = header.index(b"\n", header.index(b"\n") + 1) + 1  # the third line
        blob[16 + at] = 0xFF
        path = workspace / "c.ackp"
        path.write_bytes(bytes(blob))
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        capsys.readouterr()
        for command in ("eval", "recommend"):
            assert _run(workspace, command, "--checkpoint", str(path), "--user", "u00") == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"data error: {path}:3: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize("section, line, message", [
        ("train", "gcn_layers = 1", "[train] gcn_layers = 2, the config has 1"),
        ("train", "k_prime = 5", "[train] k_prime = 4, the config has 5"),
        ("split", "k_core = 3", "[split] k_core = 2, the config has 3"),
        ("split", "ratios = 0.7, 0.2, 0.1",
         "[split] ratios = (0.8, 0.1, 0.1), the config has (0.7, 0.2, 0.1)"),
        ("split", "strategy = temporal-leave-one-out",
         "[split] strategy = random, the config has temporal-leave-one-out"),
    ])
    def test_model_key_mismatch_is_config_error(self, workspace, capsys, section, line,
                                                message):
        assert _run(workspace, "train") == 0
        report = (workspace / "out" / "report_test.txt").read_bytes()
        path = workspace / "out" / "checkpoint_best.ackp"
        (workspace / "run.ini").write_text(_section_config(section, line), encoding="utf-8")
        capsys.readouterr()
        for command in ("eval", "recommend"):
            assert _run(workspace, command, "--checkpoint", str(path), "--user", "u00") == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: {path} was trained with {message}\n"
        assert (workspace / "out" / "report_test.txt").read_bytes() == report

    def test_other_keys_and_seeds_are_not_compared(self, workspace, capsys):
        assert _run(workspace, "train") == 0
        report = (workspace / "out" / "report_test.txt").read_bytes()
        path = str(workspace / "out" / "checkpoint_best.ackp")
        config = _train_config("learning_rate = 0.5").replace("max_epochs = 3", "max_epochs = 9")
        (workspace / "run.ini").write_text(config, encoding="utf-8")
        assert _run(workspace, "eval", "--checkpoint", path) == 0
        assert (workspace / "out" / "report_test.txt").read_bytes() == report
        # --seed moves the split, so the report changes, but nothing is refused
        assert _run(workspace, "eval", "--checkpoint", path, "--seed", "4") == 0
        assert _run(workspace, "recommend", "--checkpoint", path, "--user", "u00",
                    "--seed", "4") == 0

    def test_unparsable_stored_config_is_data_error(self, workspace, capsys):
        assert _run(workspace, "train") == 0
        good = load_checkpoint(workspace / "out" / "checkpoint_best.ackp")
        path = workspace / "bogus.ackp"
        save_checkpoint(path, good.params, good.config_text + "[bogus]\nx = 1\n")
        capsys.readouterr()
        assert _run(workspace, "eval", "--checkpoint", str(path)) == 3
        assert capsys.readouterr().err == (f"data error: {path}: stored config: "
                                           f"unknown section [bogus]\n")


class TestIntermediate:
    def test_all_protocols_run(self, workspace, capsys):
        assert _run(workspace, "intermediate") == 0
        out = workspace / "out"
        for name in ("zero_shot", "item_cf", "mask_modality"):
            text = (out / f"report_{name}.txt").read_text()
            assert "recall@5 = " in text
            assert "features_sha256 = " in text

    def test_mask_requires_masked_features(self, workspace):
        cfg = BASE_CONFIG.replace("masked_features = masked.afea\n", "")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "intermediate") == 2

    def test_features_with_trailing_bytes_is_data_error(self, workspace, capsys):
        path = workspace / "features.afea"
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        assert _run(workspace, "intermediate") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {path}: 8 bytes after the payload\n"
        assert not (workspace / "out").exists()

    def test_overflowing_feature_row_is_data_error(self, workspace, capsys):
        # finite values whose squares overflow: the row's norm is inf, and
        # normalizing it would zero the row without a word
        data = load_features(workspace / "features.afea", 20).data.copy()
        data[3] = 1e200
        save_features(workspace / "features.afea", data)
        assert _run(workspace, "intermediate") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "data error: overflowing L2 norm of the feature row for item 3\n"
        assert not (workspace / "out").exists()


class TestRecommend:
    def test_prints_k_items(self, workspace, capsys):
        assert _run(workspace, "train") == 0
        capsys.readouterr()
        code = _run(workspace, "recommend", "--checkpoint",
                    str(workspace / "out" / "checkpoint_best.ackp"),
                    "--user", "u00", "--k", "3")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            key, score = line.split("\t")
            assert key.startswith("i")
            float(score)

    def test_matches_bruteforce_top_k(self, workspace, capsys):
        assert _run(workspace, "train") == 0
        path = workspace / "out" / "checkpoint_best.ackp"
        capsys.readouterr()
        assert _run(workspace, "recommend", "--checkpoint", str(path),
                    "--user", "u00", "--k", "7") == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = load_config(workspace / "run.ini")
        ds = split_dataset(kcore_filter(load_interactions(cfg.interactions), cfg.k_core),
                           cfg.ratios, cfg.split_seed, cfg.strategy)
        keys = read_item_list(cfg.item_list)
        feat = align_features(load_features(cfg.features, expected_items=len(keys)),
                              keys, ds)
        graphs = build_graphs(ds, feat, cfg.train.k_prime)
        reps = forward(load_checkpoint(path).params, graphs, feat,
                       cfg.train.gcn_layers).reps
        user = ds.user_index["u00"]
        scores = reps.h_items @ reps.h_users[user]
        seen = {i for u, i in ds.train.tolist() if u == user}
        ranking = sorted((j for j in range(ds.num_items) if j not in seen),
                         key=lambda j: (-scores[j], j))
        assert seen and len(ranking) > 7
        assert lines == [f"{ds.item_keys[j]}\t{float(scores[j])!r}" for j in ranking[:7]]

    @pytest.mark.parametrize("k", sorted(RECOMMEND_TIE_STDOUT))
    def test_stdout_pinned_with_tie_at_cut(self, workspace, capsys, monkeypatch, tmp_path, k):
        # scores from a small pool with repeats and both signed zeros: the
        # 0.5 group straddles the cut at k = 6 and the zero group the cut at
        # k = 10; the user's train items hold some of the best scores, so any
        # leak of them shows
        pool = np.array([0.5, 1.0, 0.25, 0.5, -0.0, 0.5, 0.0, 1.0, 0.25, 0.5, -0.5])

        def rigged(params, graphs, feat, layers):
            h_items = np.resize(pool, feat.rows)[:, None]
            h_users = np.ones((graphs.inter_norm.rows, 1))
            return SimpleNamespace(reps=SimpleNamespace(h_users=h_users, h_items=h_items))

        monkeypatch.setattr(cli, "forward", rigged)
        path = tmp_path / "any.ackp"
        save_checkpoint(path, init_params(1, 1, 1, 1, 1, np.random.default_rng(0)), "")
        assert _run(workspace, "recommend", "--checkpoint", str(path),
                    "--user", "u00", "--k", k) == 0
        assert capsys.readouterr().out == RECOMMEND_TIE_STDOUT[k]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_config_error(self, workspace, capsys, k):
        assert _run(workspace, "train") == 0
        capsys.readouterr()
        code = _run(workspace, "recommend", "--checkpoint",
                    str(workspace / "out" / "checkpoint_best.ackp"),
                    "--user", "u00", "--k", k)
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_unknown_user_is_data_error(self, workspace):
        assert _run(workspace, "train") == 0
        code = _run(workspace, "recommend", "--checkpoint",
                    str(workspace / "out" / "checkpoint_best.ackp"),
                    "--user", "nobody", "--k", "3")
        assert code == 3


class TestGrid:
    def test_two_point_sweep(self, workspace, capsys):
        cfg = BASE_CONFIG + "\n[grid]\nlambda = 0.1,0.3\n"
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "grid") == 0
        table = (workspace / "out" / "grid_results.txt").read_text().splitlines()
        assert table[0].startswith("lambda\t")
        assert len(table) == 3

    def test_graphs_built_once_per_k_prime(self, workspace, capsys, monkeypatch):
        def arrays(bundle):
            return [a.copy() for m in (bundle.inter_norm, bundle.inter_t, bundle.sim)
                    for a in (m.indptr, m.indices, m.data)]

        built = []

        def counting(ds, feat, k_prime):
            bundle = build_graphs(ds, feat, k_prime)
            built.append((k_prime, bundle, arrays(bundle)))
            return bundle

        monkeypatch.setattr(cli, "build_graphs", counting)
        cfg = BASE_CONFIG + "\n[grid]\nlambda = 0.1,0.3\nk_prime = 3,4\n"
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "grid") == 0
        assert len((workspace / "out" / "grid_results.txt").read_text().splitlines()) == 5
        assert [k for k, _, _ in built] == [3, 4]
        # fit leaves the shared graphs as they were built
        for _, bundle, before in built:
            assert all(np.array_equal(a, b) for a, b in zip(arrays(bundle), before))

    @pytest.mark.parametrize("line", ["lambda = 0.1,abc", "batch_size = 8,0",
                                      "embed_dim = 8,-1"])
    def test_bad_point_fails_before_training(self, workspace, capsys, line):
        cfg = BASE_CONFIG + f"\n[grid]\n{line}\n"
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "grid") == 2
        assert capsys.readouterr().out == ""
        assert not (workspace / "out" / "grid_results.txt").exists()

    def test_huge_grid_checks_each_value_once(self, workspace, capsys, monkeypatch):
        # 10**8 points; the only bad value is alpha's last, and itertools.product
        # varies alpha, the first key in sorted order, slowest
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        tens = ",".join(str(n) for n in range(1, 11))
        grid = "".join(f"{key} = {tens}\n" for key in (
            "batch_size", "beta", "embed_dim", "lambda", "learning_rate", "max_epochs",
            "mlp_hidden"))
        (workspace / "run.ini").write_text(
            BASE_CONFIG + f"\n[grid]\nalpha = {tens[:-3]},-1\n{grid}", encoding="utf-8")
        start = time.perf_counter()
        assert _run(workspace, "grid") == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: loss weight alpha must be finite and >= 0, got -1.0\n"
        assert not (workspace / "out").exists()


class TestConfigValidation:
    def test_unknown_key_rejected(self, workspace):
        cfg = BASE_CONFIG.replace("[train]", "[train]\nalpa = 0.5")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "train") == 2

    def test_unknown_section_rejected(self, workspace):
        (workspace / "run.ini").write_text(BASE_CONFIG + "\n[extra]\nx = 1\n",
                                           encoding="utf-8")
        assert _run(workspace, "prepare") == 2

    def test_missing_interactions_path(self, workspace):
        cfg = BASE_CONFIG.replace("interactions.tsv", "missing.tsv")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "prepare") == 2

    def test_defaults_match_documented_values(self, workspace):
        minimal = "[paths]\ninteractions = interactions.tsv\n"
        path = workspace / "minimal.ini"
        path.write_text(minimal, encoding="utf-8")
        cfg = load_config(path)
        # every field of every config dataclass, so a moved default fails here
        assert asdict(cfg) == {
            "interactions": workspace / "interactions.tsv",
            "features": None,
            "item_list": None,
            "output_dir": workspace / "out",
            "masked_features": None,
            "k_core": 5,
            "ratios": (0.8, 0.1, 0.1),
            "strategy": "random",
            "split_seed": 2024,
            "train": {
                "learning_rate": 3e-4,
                "batch_size": 2048,
                "max_epochs": 1000,
                "patience": 20,
                "weights": {"alpha": 0.01, "beta": 0.1, "lambda_": 0.1, "tau": 0.2},
                "gcn_layers": 2,
                "k_prime": 10,
                "d_e": 64,
                "d_h": 64,
                "seed": 2024,
                "optimizer": "adam",
                "lr_decay": 1.0,
            },
            "eval_ks": (10, 20, 50),
            "longtail_threshold": 4.0,
            "longtail": False,
            "protocols": ("zero_shot", "item_cf"),
            "protocol": {"ks": (10, 20, 50), "mask_ratio": 0.5, "mask_seed": 2024},
            "mask_base": "zero_shot",
            "grid": {},
            "text": minimal,
        }

    def test_crlf_config_text_read_as_text_mode(self, workspace):
        # the text goes into every checkpoint, so its newlines must not vary
        (workspace / "run.ini").write_bytes(BASE_CONFIG.replace("\n", "\r\n").encode())
        assert load_config(workspace / "run.ini").text == BASE_CONFIG

    def test_library_defaults_are_config_defaults(self, workspace):
        path = workspace / "minimal.ini"
        path.write_text("[paths]\ninteractions = interactions.tsv\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.train == TrainConfig()
        assert cfg.protocol == ProtocolConfig()

    @pytest.mark.parametrize("line", ["embed_dim = -1", "embed_dim = 0", "mlp_hidden = -2",
                                      "mlp_hidden = 0", "gcn_layers = -1", "k_prime = 0",
                                      "lr_decay = -0.5", "seed = -1"])
    def test_train_value_out_of_range(self, workspace, capsys, line):
        (workspace / "run.ini").write_text(_train_config(line), encoding="utf-8")
        assert _run(workspace, "train") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:")
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("key, text", [("tau", "nan"), ("learning_rate", "nan"),
                                           ("lr_decay", "nan"), ("alpha", "inf")])
    def test_non_finite_train_float_rejected(self, workspace, capsys, monkeypatch, key, text):
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        (workspace / "run.ini").write_text(_train_config(f"{key} = {text}"), encoding="utf-8")
        assert _run(workspace, "train") == 2
        (workspace / "run.ini").write_text(
            BASE_CONFIG + f"\n[grid]\n{key} = {NON_DEFAULT[key]},{text}\n", encoding="utf-8")
        assert _run(workspace, "grid") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("config error:") == 2
        assert not (workspace / "out").exists()

    def test_negative_seed_is_config_error(self, workspace, capsys):
        # the --seed override sets both seeds; [split] seed reaches split_dataset
        assert _run(workspace, "train", "--seed", "-1") == 2
        cfg = BASE_CONFIG.replace("k_core = 2\nseed = 9", "k_core = 2\nseed = -1")
        (workspace / "run.ini").write_text(cfg, encoding="utf-8")
        assert _run(workspace, "prepare") == 2
        assert capsys.readouterr().out == ""
        assert not (workspace / "out").exists()

    def test_train_value_at_lower_bound_accepted(self, workspace):
        text = _train_config("gcn_layers = 0").replace("k_prime = 4", "k_prime = 1")
        (workspace / "run.ini").write_text(text, encoding="utf-8")
        cfg = load_config(workspace / "run.ini")
        assert (cfg.train.gcn_layers, cfg.train.k_prime) == (0, 1)

    @pytest.mark.parametrize("old, new", [("[eval]\nks = 5,10", "[eval]\nks = 20,20"),
                                          ("[protocol]\nks = 5", "[protocol]\nks = 5,10,5")],
                             ids=["eval", "protocol"])
    def test_repeated_k_rejected(self, workspace, capsys, old, new):
        (workspace / "run.ini").write_text(BASE_CONFIG.replace(old, new), encoding="utf-8")
        assert _run(workspace, "train") == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text, value", [("inf", math.inf), ("24", 24.0), ("0.5", 0.5)])
    def test_longtail_threshold_parsed_as_float(self, workspace, text, value):
        path = workspace / "lt.ini"
        path.write_text("[paths]\ninteractions = interactions.tsv\n"
                        f"[eval]\nlongtail_threshold = {text}\n", encoding="utf-8")
        assert load_config(path).longtail_threshold == value


class TestSchema:
    @pytest.mark.parametrize("section, line", INVALID_LINES,
                             ids=[f"{s}-{l}" for s, l in INVALID_LINES])
    def test_invalid_value_fails_before_data_loads(self, workspace, capsys, monkeypatch,
                                                   section, line):
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        (workspace / "run.ini").write_text(_section_config(section, line), encoding="utf-8")
        for command in cli.COMMANDS:
            assert _run(workspace, command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("config error:") == len(cli.COMMANDS)
        assert not (workspace / "out").exists()

    # a key without a NON_DEFAULT or SECTION_NON_DEFAULT value fails here
    # with KeyError
    @pytest.mark.parametrize("section, key", [(section, key) for section in _SCHEMA
                                              if section != "grid"
                                              for key in _SCHEMA[section]])
    def test_value_lands_in_named_field(self, workspace, section, key):
        minimal = workspace / "minimal.ini"
        minimal.write_text("[paths]\ninteractions = interactions.tsv\n", encoding="utf-8")
        default = _leaves(asdict(load_config(minimal)))
        owner, name, _ = _SCHEMA[section][key]
        prefix = {"RunConfig": (), "TrainConfig": ("train",),
                  "LossWeights": ("train", "weights"), "ProtocolConfig": ("protocol",)}
        field_path = prefix[owner.__name__] + (name,)
        if section == "train":
            text = NON_DEFAULT[key]
            expected = type(default[field_path])(text)
        else:
            text, expected = SECTION_NON_DEFAULT[(section, key)]
        if section == "paths":
            expected = workspace / expected
        (workspace / "other.tsv").write_bytes((workspace / "interactions.tsv").read_bytes())
        lines = [] if key == "interactions" else ["interactions = interactions.tsv"]
        if section != "paths":
            lines.append(f"[{section}]")
        path = workspace / "one_key.ini"
        path.write_text("\n".join(["[paths]"] + lines + [f"{key} = {text}"]) + "\n",
                        encoding="utf-8")
        got = _leaves(asdict(load_config(path)))
        changed = {leaf for leaf in got if got[leaf] != default[leaf]}
        assert changed == {field_path, ("text",)}
        assert got[field_path] == expected


class TestInputs:
    @pytest.mark.parametrize("command, name, kind", _input_cases(),
                             ids=["-".join(case) for case in _input_cases()])
    def test_bad_input_fails_before_data_loads(self, workspace, capsys, monkeypatch,
                                               command, name, kind):
        monkeypatch.setattr(cli, "load_interactions", _no_load)
        (workspace / "a_dir").mkdir()
        (workspace / "model.ackp").write_bytes(b"")
        bad = {"unset": "", "missing": workspace / "nope", "directory": workspace / "a_dir",
               "file": workspace / "items.txt", "below_file": workspace / "items.txt" / "out"}[kind]
        options = {"--config": workspace / "run.ini", "--checkpoint": workspace / "model.ackp"}
        text = BASE_CONFIG if name in options else _section_config("paths", f"{name} = {bad}")
        # a valid [grid], so that grid gets as far as the input check
        (workspace / "run.ini").write_text(text + "\n[grid]\nlambda = 0.1\n", encoding="utf-8")
        if name in options:
            options[name] = bad
        if command not in ("eval", "recommend"):
            del options["--checkpoint"]
        before = _snapshot(workspace)
        argv = [command, "--user", "u00"] + [str(v) for item in options.items() for v in item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert not (workspace / "out").exists()
        assert _snapshot(workspace) == before

    def test_os_error_is_exit_3_naming_the_path(self, workspace, capsys, monkeypatch):
        path = str(workspace / "interactions.tsv")

        def denied(name):
            raise PermissionError(13, "Permission denied", str(name))

        # as root no file can be made unreadable, so the loader raises instead
        monkeypatch.setattr(cli, "load_interactions", denied)
        for command in ("prepare", "train", "intermediate"):
            assert _run(workspace, command) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {command}: [Errno 13] Permission denied: {path!r}\n"

    def test_os_error_from_the_system_is_exit_3(self, workspace, capsys):
        # a file name past NAME_MAX: the system refuses it, whoever runs the test
        out = workspace / ("x" * 300)
        (workspace / "run.ini").write_text(_section_config("paths", f"output_dir = {out}"),
                                           encoding="utf-8")
        assert _run(workspace, "prepare") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: prepare: [Errno 36] File name too long")
        assert str(out) in captured.err and captured.err.count("\n") == 1

    def test_size_that_cannot_be_allocated_is_exit_3(self, workspace):
        # a child process under a 3 GB address-space cap: 30 users x 10**12
        # floats fail at allocation, never a size the machine could commit
        (workspace / "run.ini").write_text(_train_config("embed_dim = 1000000000000"),
                                           encoding="utf-8")
        cap = 3 << 30
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "alignrec.cli", "train", "--config", str(workspace / "run.ini")],
            capture_output=True, text=True, timeout=60, env=env, cwd=workspace,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: train: Unable to allocate")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert not (workspace / "out" / "checkpoint_final.ackp").exists()

    def test_dev_fd_input_accepted(self, workspace, capsys):
        log = (workspace / "interactions.tsv").read_bytes()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, log)  # fits the pipe buffer
            os.close(write_end)
            (workspace / "run.ini").write_text(
                _section_config("paths", f"interactions = /dev/fd/{read_end}"), encoding="utf-8")
            assert _run(workspace, "train") == 0
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("name, byte, code", [("interactions.tsv", b"\xff", 3),
                                                  ("items.txt", b"\xfe", 3),
                                                  ("run.ini", b"\xff", 2)])
    def test_non_utf8_byte_names_file_and_line(self, workspace, capsys, name, byte, code):
        path = workspace / name
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + [byte + lines[2]] + lines[3:]))
        assert _run(workspace, "train") == code
        captured = capsys.readouterr()
        assert captured.out == ""
        kind = "config" if code == 2 else "data"
        assert captured.err == f"{kind} error: {path}:3: byte 0x{byte.hex()} is not UTF-8\n"

    @pytest.mark.parametrize("layers", ["0", "2"])
    def test_checkpoint_from_other_corpus(self, workspace, capsys, layers):
        assert _run(workspace, "train") == 0
        path = str(workspace / "out" / "checkpoint_best.ackp")
        report = (workspace / "out" / "report_test.txt").read_bytes()
        log = (workspace / "interactions.tsv").read_text(encoding="utf-8").splitlines()
        (workspace / "half.tsv").write_text(
            "".join(line + "\n" for line in log if line.split("\t")[0] < "u15"),
            encoding="utf-8")
        config = _train_config(f"gcn_layers = {layers}")
        (workspace / "run.ini").write_text(
            config.replace("interactions.tsv", "half.tsv"), encoding="utf-8")
        capsys.readouterr()
        assert _run(workspace, "eval", "--checkpoint", path) == 3
        assert _run(workspace, "recommend", "--checkpoint", path, "--user", "u00") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("data error: parameter user_emb has shape (30, 8), "
                                "the data needs (15, 8)\n") * 2
        assert (workspace / "out" / "report_test.txt").read_bytes() == report


class TestTrainKeys:
    # a key without a NON_DEFAULT value fails here with KeyError
    @pytest.mark.parametrize("key", sorted(_SCHEMA["train"]))
    def test_train_and_grid_give_equal_configs(self, workspace, monkeypatch, key):
        paths = ("[paths]\ninteractions = interactions.tsv\nfeatures = features.afea\n"
                 "item_list = items.txt\n[split]\nk_core = 2\n")
        as_train = workspace / "as_train.ini"
        as_train.write_text(paths + f"[train]\n{key} = {NON_DEFAULT[key]}\n", encoding="utf-8")
        as_grid = workspace / "as_grid.ini"
        as_grid.write_text(paths + f"[grid]\n{key} = {NON_DEFAULT[key]}\n", encoding="utf-8")

        def capture(ds, graphs, feat, train_cfg, **kwargs):
            raise _Captured(train_cfg)

        monkeypatch.setattr(cli, "fit", capture)
        with pytest.raises(_Captured) as caught:
            main(["grid", "--config", str(as_grid)])
        from_train = load_config(as_train).train
        assert from_train != TrainConfig()
        assert caught.value.args[0] == from_train
