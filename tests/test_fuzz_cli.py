"""Bounded fuzz test of the command line: every command runs on byte
mutations of each input it reads (the interaction TSV, the AFEA features and
masked features, the item list, the config INI and the ACKP checkpoint) and
must end with exit code 0, 2, 3 or 4, with no exception escaping `main` and
no traceback on stderr.

A mutated config runs only if it still keeps sizes small and every path
inside the workspace; sizes that fail at allocation are the child-process
test in test_cli.py.
"""

import contextlib
import io
import math
import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from alignrec.cli import main
from alignrec.config import load_config
from alignrec.errors import AlignRecError
from alignrec.features import save_features
from alignrec.synthetic import make_corpus, write_corpus

CONFIG = """\
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
max_epochs = 2
patience = 2
batch_size = 64
embed_dim = 8
mlp_hidden = 4
k_prime = 4
seed = 9

[eval]
ks = 5,10
longtail = yes

[protocol]
ks = 5
protocols = zero_shot,item_cf,mask_modality
mask_ratio = 0.5
mask_seed = 3
mask_base = zero_shot
"""

CHECKPOINT = "checkpoint.ackp"
INPUTS = {
    "prepare": ("interactions.tsv", "run.ini"),
    "train": ("interactions.tsv", "features.afea", "items.txt", "run.ini"),
    "eval": ("interactions.tsv", "features.afea", "items.txt", "run.ini", CHECKPOINT),
    "intermediate": ("interactions.tsv", "features.afea", "items.txt", "masked.afea",
                     "run.ini"),
    "recommend": ("interactions.tsv", "features.afea", "items.txt", "run.ini", CHECKPOINT),
}

# header-sized fields and text tokens to write over a file's bytes
WORDS = ([struct.pack("<Q", v) for v in (0, 1, 2**31, 2**32 - 1, 2**63 - 1, 2**64 - 1)]
         + [struct.pack("<I", v) for v in (0, 2, 2**32 - 1)]
         + [struct.pack("<d", v) for v in (math.nan, math.inf, -0.0, 1e308)]
         + [b"\t", b"\n", b"\r", b"\x00", b"\xff", b"nan", b"-1", b" ", b"=", b"[", b","])

_POSITION = st.one_of(st.integers(0, 64), st.integers(0, 1 << 16))
MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("insert"), _POSITION, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _POSITION, st.integers(1, 16)),
    st.tuples(st.just("truncate"), _POSITION, st.just(0)),
    st.tuples(st.just("repeat"), _POSITION, st.integers(1, 64)),
    st.tuples(st.just("word"), _POSITION, st.sampled_from(WORDS)))


def mutate(blob: bytes, mutations) -> bytes:
    for kind, pos, arg in mutations:
        pos %= len(blob) + 1
        if kind == "flip" and pos < len(blob):
            blob = blob[:pos] + bytes([blob[pos] ^ arg]) + blob[pos + 1:]
        elif kind == "insert":
            blob = blob[:pos] + arg + blob[pos:]
        elif kind == "delete":
            blob = blob[:pos] + blob[pos + arg:]
        elif kind == "truncate":
            blob = blob[:pos]
        elif kind == "repeat":
            blob = blob[:pos + arg] + blob[pos:]
        elif kind == "word":
            blob = blob[:pos] + arg + blob[pos + len(arg):]
    return blob


def _run(workspace: Path, command: str) -> tuple[int, str]:
    argv = [command, "--config", str(workspace / "run.ini")]
    if command in ("eval", "recommend"):
        argv += ["--checkpoint", str(workspace / CHECKPOINT)]
    if command == "recommend":
        argv += ["--user", "u03", "--k", "5"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class Inputs(dict):
    """File name -> bytes; the repr keeps a failing example's report short."""

    def __repr__(self):
        return f"Inputs({sorted(self)})"


@pytest.fixture(scope="module")
def pristine():
    """Every input file's bytes, the checkpoint from a train run among them."""
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp)
        corpus = make_corpus(num_users=30, num_items=20, clusters=2, feat_dim=8,
                             per_user=10, noise=0.05, seed=5)
        write_corpus(corpus, workspace)
        save_features(workspace / "masked.afea", corpus.features[::-1])
        (workspace / "run.ini").write_text(CONFIG, encoding="utf-8")
        assert _run(workspace, "train") == (0, "")
        (workspace / "out" / "checkpoint_final.ackp").rename(workspace / CHECKPOINT)
        return Inputs({name: (workspace / name).read_bytes()
                       for name in {n for names in INPUTS.values() for n in names}})


def _small_and_inside(workspace: Path) -> bool:
    """False for a config that parses with a size above the base config's
    order or a path outside the workspace; a config that does not parse
    runs, as the command must reject it."""
    try:
        cfg = load_config(workspace / "run.ini")
    except AlignRecError:
        return True
    train = cfg.train
    paths = [cfg.interactions, cfg.features, cfg.item_list, cfg.masked_features,
             cfg.output_dir]
    return (train.max_epochs <= 2 and train.d_e <= 100 and train.d_h <= 100
            and train.gcn_layers <= 4 and train.k_prime <= 100
            and max(cfg.eval_ks + cfg.protocol.ks) <= 10**4
            and all(p is None or Path(os.path.normpath(p)).is_relative_to(workspace)
                    for p in paths))


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_end_in_a_typed_exit(pristine, data):
    command = data.draw(st.sampled_from(sorted(INPUTS)), label="command")
    target = data.draw(st.sampled_from(INPUTS[command]), label="input")
    mutations = data.draw(st.lists(MUTATION, min_size=1, max_size=4), label="mutations")
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp)
        for name, blob in pristine.items():
            (workspace / name).write_bytes(mutate(blob, mutations) if name == target else blob)
        if target == "run.ini":
            assume(_small_and_inside(workspace))
        code, stderr = _run(workspace, command)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr
