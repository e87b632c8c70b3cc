"""What the BLAS thread count must not change: the read-only commands.

On the benchmark's S corpus at seed 11, one checkpoint (seeded
`init_params`, so no training time) goes through `eval` (test and long-tail
reports), `intermediate` (both base protocols) and `recommend`, each in a
child process under OPENBLAS_NUM_THREADS=1 and =2. Every file written and
every line printed must be byte-equal between the two. Training is not
covered: its gradients take GEMMs whose bits depend on the thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alignrec.checkpoint import save_checkpoint
from alignrec.data import kcore_filter, load_interactions
from alignrec.model import init_params
from alignrec.trainer import TrainConfig
from perfbench.corpus import S, make_corpus, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG = """\
[paths]
interactions = interactions.tsv
features = features.afea
item_list = items.txt
output_dir = out

[eval]
longtail = true
"""
COMMANDS = (("eval", "--checkpoint", "init.ackp"), ("intermediate",),
            ("recommend", "--checkpoint", "init.ackp", "--user", "{user}", "--k", "50"))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    work = tmp_path_factory.mktemp("blas")
    paths = write_corpus(make_corpus(S, 11), work)
    (work / "run.ini").write_text(CONFIG, encoding="utf-8")
    raw = kcore_filter(load_interactions(paths["interactions"]), 5)
    train = TrainConfig()
    params = init_params(len(raw.user_keys), len(raw.item_keys), train.d_e, S.feat_dim,
                         train.d_h, np.random.default_rng(11))
    save_checkpoint(work / "init.ackp", params, CONFIG)
    return work, raw.user_keys[len(raw.user_keys) // 2]


def _outputs(work: Path, user: str, threads: str) -> dict[str, bytes]:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
    got = {}
    for command, *extra in COMMANDS:
        argv = [sys.executable, "-m", "alignrec.cli", command, "--config", "run.ini",
                *(a.format(user=user) for a in extra)]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        got[f"{command}/stdout"] = proc.stdout
        for path in sorted((work / "out").glob("*")):
            got[f"{command}/{path.name}"] = path.read_bytes()
            path.unlink()
    return got


def test_read_only_commands_do_not_depend_on_blas_threads(workspace):
    work, user = workspace
    one, two = _outputs(work, user, "1"), _outputs(work, user, "2")
    assert set(one) == set(two)
    assert {"eval/report_test.txt", "eval/report_longtail.txt",
            "intermediate/report_zero_shot.txt", "intermediate/report_item_cf.txt"} <= set(one)
    assert len(one["recommend/stdout"].splitlines()) == 50
    assert [name for name in one if one[name] != two[name]] == []
