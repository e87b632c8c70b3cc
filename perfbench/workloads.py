"""The benchmark's workloads, end-to-end and traced.

All workloads are closed loop: one caller in one process, each operation
starting after the previous one ended. The benchmark starts no threads; the
program keeps its defaults (OpenBLAS threads as shipped, ALIGNREC_THREADS
unset, every hyper-parameter at its config default).

train-m   training hot path at M scale: a fixed number of optimizer steps
          through `trainer.train_epoch` from a fixed `init_params` seed.
eval-m    read-only ranking at M scale: `evaluate` on val and test,
          `longtail_evaluate`, then `zero_shot_eval` and `itemcf_eval` on
          the temporal-leave-one-out split. No loss, backward or optimizer.
fit-s     the whole `alignrec train` command through `cli.main` at S scale,
          for a fixed number of epochs with a val eval and a best-checkpoint
          write every epoch.

End-to-end runs call only entry points the CLI itself uses. Traced runs
repeat the set-up, the training step and the ranking calls with spans
around every public function (see tracer.py), on the workload's own corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import alignrec.checkpoint as ckpt_mod
import alignrec.cli as cli_mod
import alignrec.evaluator as evaluator_mod
import alignrec.graphs as graphs_mod
import alignrec.losses as losses_mod
import alignrec.model as model_mod
import alignrec.optim as optim_mod
import alignrec.protocols as protocols_mod
import alignrec.sparse as sparse_mod
import alignrec.trainer as trainer_mod
from alignrec.data import Dataset, kcore_filter, load_interactions, split_dataset
from alignrec.errors import AlignRecError
from alignrec.evaluator import evaluate, longtail_evaluate
from alignrec.features import align_features, load_features, read_item_list
from alignrec.graphs import build_graphs
from alignrec.losses import BatchSample
from alignrec.model import forward, init_params
from alignrec.optim import make_optimizer
from alignrec.protocols import ProtocolConfig, itemcf_eval, zero_shot_eval
from alignrec.trainer import TrainConfig, TrainState

from . import corpus as corpus_mod
from .checks import FingerprintStore, bruteforce_means
from .tracer import Tracer

# program defaults, as `load_config` fills them in
K_CORE = 5
RATIOS = (0.8, 0.1, 0.1)
SPLIT_SEED = 2024
KS = (10, 20, 50)
LONGTAIL_THRESHOLD = 4
TRAIN = TrainConfig()
PROTOCOL = ProtocolConfig()

# setup_s is the median of this many set-ups; the measured work runs between
# them, so the samples cover the whole run. An S set-up takes about 0.5 s.
SETUP_REPEATS = {"train-m": 3, "eval-m": 3, "fit-s": 15}
TRAIN_STEPS = 12           # train-m: steps before the loss fingerprint
TEST_USERS = 1200          # eval-m: sampled users for evaluate on test
ZERO_SHOT_USERS = 1200     # eval-m: sampled users for zero_shot_eval
# eval-m: the ranking calls made after each set-up, about equal in time; once
# all have run, whole passes repeat until the calls have taken --seconds
EVAL_SPREAD = (("evaluator.val",),
               ("evaluator.test", "evaluator.longtail", "protocols.zero_shot"),
               ("protocols.itemcf",))
# users re-ranked by the brute-force check: more than two of the evaluator's
# 256-user chunks, so its worker pool and the merge across chunks are checked
CHECK_USERS = 600
FIT_EPOCHS = 2             # fit-s: epochs per train command
FIT_MIN_COMMANDS = 3       # fit-s: one after every fifth set-up
# fit-s: test Recall@20 must be at least this multiple of the uniform-random
# expectation K / num_items; the planted clusters give far more
FIT_RECALL_FLOOR_X = 3.0

TRACE_OVERHEAD_SECONDS = 4  # traced runs: time spent on the overhead comparison
TRACE_PIECE_STEPS = {"train-m": 3, "eval-m": 2, "fit-s": 2}


class Ops:
    """Counts operations attempted and failed; a failed check is a failed
    operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except AlignRecError as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    work_dir: Path
    store: FingerprintStore
    ops: Ops
    tracer: Tracer | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


@dataclass
class Prepared:
    raw_count: int
    kept_count: int
    ds: Dataset
    feat: object
    graphs: object
    temporal: Dataset | None = None
    fp: object = None


# ---------------------------------------------------------------- set-up

def prepare(ctx: Context, paths: dict, with_eval_inputs: bool) -> Prepared:
    """load_interactions -> kcore_filter -> split_dataset -> feature load and
    align -> build_graphs; for eval-m also the temporal split and one
    forward over fixed init_params."""
    with ctx.ops.op("setup"):
        with ctx.span("data.load_interactions"):
            raw = load_interactions(paths["interactions"])
        with ctx.span("data.kcore_filter"):
            filtered = kcore_filter(raw, K_CORE)
        with ctx.span("data.split_dataset"):
            ds = split_dataset(filtered, RATIOS, SPLIT_SEED, "random")
        with ctx.span("features.load_align"):
            keys = read_item_list(paths["item_list"])
            feat = align_features(load_features(paths["features"], len(keys)), keys, ds)
        with ctx.span("graphs.build_graphs"):
            graphs = build_graphs(ds, feat, TRAIN.k_prime)
        prep = Prepared(len(raw), len(filtered), ds, feat, graphs)
        if with_eval_inputs:
            with ctx.span("data.split_temporal"):
                prep.temporal = split_dataset(filtered, RATIOS, SPLIT_SEED,
                                              "temporal-leave-one-out")
            params = fixed_params(prep, ctx.seed)
            with ctx.span("model.forward"):
                prep.fp = forward(params, graphs, feat, TRAIN.gcn_layers)
    return prep


def timed_setups(ctx: Context, paths: dict, with_eval_inputs: bool,
                 after_each=None) -> tuple[list[float], Prepared]:
    """Seconds of each of the workload's SETUP_REPEATS set-ups (setup_s is
    their median) and the last set-up. after_each(prep, k), if given, runs
    after set-up k, so a workload can spread its measured work over the
    whole run instead of one stretch of it."""
    times, prep = [], None
    for k in range(SETUP_REPEATS[ctx.workload]):
        del prep  # so two set-ups never hold memory at once
        t0 = time.perf_counter()
        prep = prepare(ctx, paths, with_eval_inputs)
        times.append(time.perf_counter() - t0)
        if after_each is not None:
            after_each(prep, k)
    return times, prep


def fixed_params(prep: Prepared, seed: int):
    return init_params(prep.ds.num_users, prep.ds.num_items, TRAIN.d_e, prep.feat.dim,
                       TRAIN.d_h, np.random.default_rng([seed, 1]))


def corpus_record(prep: Prepared) -> dict:
    ds = prep.ds
    return {"users": ds.num_users, "items": ds.num_items, "train_edges": len(ds.train),
            "val_edges": len(ds.val), "test_edges": len(ds.test),
            "records_loaded": prep.raw_count, "records_kept": prep.kept_count,
            "longtail_users": len(longtail_users(ds))}


def longtail_users(ds: Dataset) -> np.ndarray:
    rare = ds.item_train_degree[ds.test[:, 1]] < LONGTAIL_THRESHOLD
    return np.unique(ds.test[rare, 0])


def _view(ds: Dataset, train=None, val=None, test=None) -> Dataset:
    """The dataset with some splits replaced; graphs, degrees and exclusions
    stay those of the full corpus."""
    return Dataset(num_users=ds.num_users, num_items=ds.num_items,
                   train=ds.train if train is None else train,
                   val=ds.val if val is None else val,
                   test=ds.test if test is None else test,
                   user_keys=ds.user_keys, item_keys=ds.item_keys,
                   user_index=ds.user_index, item_index=ds.item_index,
                   item_train_degree=ds.item_train_degree)


def _rows_of(split: np.ndarray, users: np.ndarray) -> np.ndarray:
    return split[np.isin(split[:, 0], users)]


# ---------------------------------------------------------------- train-m

def train_view(ds: Dataset, seed: int, step: int, batches: int) -> Dataset:
    """Train split cut to a seeded sample of `batches` full batches, so
    train_epoch runs a fixed number of optimizer steps; each step gets its own
    sample, as the batches of a real epoch differ."""
    rng = np.random.default_rng([seed, 2, step])
    rows = np.sort(rng.choice(len(ds.train), size=batches * TRAIN.batch_size, replace=False))
    return _view(ds, train=ds.train[rows])


def train_round(prep: Prepared, view: Dataset, seed: int) -> dict:
    """What fit does before and during its first epoch: ban lists from the
    full train split, then one train_epoch from fixed parameters."""
    user_train = prep.ds.user_train_items()
    return trainer_mod.train_epoch(fresh_state(prep, seed), view, prep.graphs, prep.feat,
                                   TRAIN, user_train)


def fresh_state(prep: Prepared, seed: int) -> TrainState:
    params = fixed_params(prep, seed)
    return TrainState(params=params,
                      optimizer=make_optimizer(TRAIN.optimizer, params, TRAIN.learning_rate),
                      rng=np.random.default_rng([seed, 3]))


def run_train_m(ctx: Context, paths: dict) -> tuple[dict, dict]:
    """One optimizer step per train_epoch call, each on a fresh seeded
    2048-row sample of the train split, on one state, so every step is timed
    on its own and the rate is a median over steps. The steps run in
    stretches, one after each set-up, and the last stretch goes on until the
    steps have taken --seconds. Every set-up yields equal inputs, so the
    trajectory is that of one uninterrupted run. The ban lists are built
    once, as fit builds them once per run."""
    rates, step_s, run = [], [], {}
    repeats = SETUP_REPEATS[ctx.workload]

    def steps(prep: Prepared, k: int) -> None:
        if not run:
            run.update(user_train=prep.ds.user_train_items(),
                       state=fresh_state(prep, ctx.seed))
        last = k == repeats - 1
        target = TRAIN_STEPS * (k + 1) // repeats
        while len(rates) < target or (last and sum(step_s) < ctx.seconds):
            view = train_view(prep.ds, ctx.seed, len(rates), 1)
            with ctx.ops.op("train_step"):
                t0 = time.perf_counter()
                record = trainer_mod.train_epoch(run["state"], view, prep.graphs,
                                                 prep.feat, TRAIN, run["user_train"])
                step_s.append(time.perf_counter() - t0)
            rates.append(len(view.train) / step_s[-1])
            ctx.ops.check("losses_finite", all(math.isfinite(v) for v in record.values()),
                          repr(record))
            if len(rates) == TRAIN_STEPS:
                run["final"] = record["loss_total"]

    setups, prep = timed_setups(ctx, paths, with_eval_inputs=False, after_each=steps)
    final = run["final"]
    ctx.ops.check("loss_repeats_across_runs",
                  ctx.store.check(f"loss_total@{TRAIN_STEPS}", repr(final)), repr(final))
    named = {"setup_s": (statistics.median(setups), "s"),
             "train_samples_per_s": (statistics.median(rates), "rows/s")}
    return named, {"corpus": corpus_record(prep), "setup_samples_s": setups,
                   "step_rates": rates, f"loss_total@{TRAIN_STEPS}": final}


# ---------------------------------------------------------------- eval-m

@dataclass
class EvalInputs:
    view: Dataset          # the full val split; test restricted to the sampled users
    temporal_view: Dataset  # temporal test restricted to the sampled users
    temporal: Dataset       # the full temporal split, for item-CF


def eval_inputs(prep: Prepared, seed: int) -> EvalInputs:
    """val is ranked in full, as a user of the program ranks it. test and
    zero-shot rank seeded user samples, to keep the run within its budget;
    the test sample always holds every long-tail user, so longtail_evaluate
    ranks its whole slice."""
    rng = np.random.default_rng([seed, 4])
    ds, tds = prep.ds, prep.temporal
    with_test = np.unique(ds.test[:, 0])
    picked = rng.choice(with_test, size=min(TEST_USERS, with_test.size), replace=False)
    users = np.union1d(picked, longtail_users(ds))
    view = _view(ds, test=_rows_of(ds.test, users))
    with_target = np.unique(tds.test[:, 0])
    zs_users = rng.choice(with_target, size=min(ZERO_SHOT_USERS, with_target.size),
                          replace=False)
    return EvalInputs(view, _view(tds, test=_rows_of(tds.test, zs_users)), tds)


RANKING_CALLS = {
    "evaluator.val": lambda reps, feat, inputs: evaluate(reps, inputs.view, "val", KS),
    "evaluator.test": lambda reps, feat, inputs: evaluate(reps, inputs.view, "test", KS),
    "evaluator.longtail": lambda reps, feat, inputs: longtail_evaluate(
        reps, inputs.view, KS, LONGTAIL_THRESHOLD),
    "protocols.zero_shot": lambda reps, feat, inputs: zero_shot_eval(
        feat, inputs.temporal_view, PROTOCOL),
    "protocols.itemcf": lambda reps, feat, inputs: itemcf_eval(feat, inputs.temporal,
                                                               PROTOCOL),
}


def ranking_pass(ctx: Context, reps, feat, inputs: EvalInputs,
                 names=tuple(RANKING_CALLS)) -> dict:
    """The named ranking calls eval-m makes, each one timed; returns the
    reports and per-call seconds."""
    out = {}
    for name in names:
        with ctx.ops.op(name), ctx.span(name):
            t0 = time.perf_counter()
            report = RANKING_CALLS[name](reps, feat, inputs)
            out[name] = (report, time.perf_counter() - t0)
    return out


def check_ranking(ctx: Context, prep: Prepared, inputs: EvalInputs, results: dict) -> None:
    ops = ctx.ops
    view, tview = inputs.view, inputs.temporal_view
    expect = {
        "evaluator.val": np.unique(view.val[:, 0]).size,
        "evaluator.test": np.unique(view.test[:, 0]).size,
        "evaluator.longtail": longtail_users(view).size,
        "protocols.zero_shot": np.unique(tview.test[:, 0]).size,
        "protocols.itemcf": items_with_partner(inputs.temporal),
    }
    for name, want in expect.items():
        got = results[name][0].users_evaluated
        ops.check(f"{name}.users_evaluated", got == want, f"{got} != {want}")
    ops.check("longtail_nonempty", expect["evaluator.longtail"] > 0)

    # exact agreement with a brute-force ranking on a seeded user sample
    reps, ds = prep.fp.reps, prep.ds
    rng = np.random.default_rng([ctx.seed, 5])
    users = np.sort(rng.choice(np.unique(ds.val[:, 0]), size=CHECK_USERS, replace=False))
    small = _view(ds, val=_rows_of(ds.val, users), test=_rows_of(ds.test, users))
    items = {}
    for split in ("train", "val", "test"):
        items[split] = [set() for _ in range(ds.num_users)]
        for u, i in (ds.train if split == "train" else small.split(split)):
            items[split][u].add(int(i))
    expected = bruteforce_means(reps.h_users, reps.h_items, users, items["train"],
                                items["val"], items["test"], KS)
    for split in ("val", "test"):
        report = evaluate(reps, small, split, KS)
        recall, ndcg = expected[split]
        ops.check(f"bruteforce.{split}", report.recall == recall and report.ndcg == ndcg,
                  f"{report.recall} {report.ndcg} vs {recall} {ndcg}")
    fingerprint = ";".join(f"{name}:{results[name][0].to_line(name)}" for name in sorted(results))
    ops.check("ranking_repeats_across_runs", ctx.store.check("ranking", fingerprint))


def items_with_partner(ds: Dataset) -> int:
    """Items sharing a train user with another item: item-CF has a target."""
    users, items = ds.train[:, 0], ds.train[:, 1]
    many = np.bincount(users, minlength=ds.num_users)[users] >= 2
    return int(np.count_nonzero(np.bincount(items[many], minlength=ds.num_items)))


def run_eval_m(ctx: Context, paths: dict) -> tuple[dict, dict]:
    """The calls of one ranking pass are spread over the set-ups (EVAL_SPREAD),
    so set-ups and ranking calls both sample the whole run; whole passes then
    repeat until the ranking calls have taken --seconds. Every set-up yields
    equal inputs, so the calls rank the same data."""
    calls = []

    def rank(prep: Prepared, k: int) -> None:
        calls.append(ranking_pass(ctx, prep.fp.reps, prep.feat, eval_inputs(prep, ctx.seed),
                                  EVAL_SPREAD[k]))

    setups, prep = timed_setups(ctx, paths, with_eval_inputs=True, after_each=rank)
    inputs = eval_inputs(prep, ctx.seed)
    first = {name: result for c in calls for name, result in c.items()}
    while sum(sec for c in calls for _, sec in c.values()) < ctx.seconds:
        calls.append(ranking_pass(ctx, prep.fp.reps, prep.feat, inputs))
    check_ranking(ctx, prep, inputs, first)

    def rate(names):
        done = [(report.users_evaluated, sec) for c in calls
                for name, (report, sec) in c.items() if name in names]
        return sum(n for n, _ in done) / sum(sec for _, sec in done)

    eval_names = ("evaluator.val", "evaluator.test", "evaluator.longtail")
    proto_names = ("protocols.zero_shot", "protocols.itemcf")
    named = {"setup_s": (statistics.median(setups), "s"),
             "ranked_queries_per_s": (rate(eval_names + proto_names), "queries/s"),
             "eval_users_per_s": (rate(eval_names), "users/s"),
             "protocol_queries_per_s": (rate(proto_names), "queries/s")}
    queries = {n: first[n][0].users_evaluated for n in eval_names + proto_names}
    seconds = {n: first[n][1] for n in eval_names + proto_names}
    return named, {"corpus": corpus_record(prep), "setup_samples_s": setups,
                   "calls": sum(len(c) for c in calls), "queries": queries, "call_s": seconds}


# ---------------------------------------------------------------- fit-s

FIT_CONFIG = """\
[paths]
interactions = {interactions}
features = {features}
item_list = {item_list}
output_dir = {output_dir}

[train]
max_epochs = {epochs}
patience = {epochs}
"""


def train_command(ctx: Context, paths: dict, n: int) -> tuple[float, Path, str]:
    out_dir = ctx.work_dir / f"fit-{n}"
    config = ctx.work_dir / f"fit-{n}.ini"
    config.write_text(FIT_CONFIG.format(output_dir=out_dir.name, epochs=FIT_EPOCHS,
                                        **{k: v.name for k, v in paths.items()}),
                      encoding="utf-8")
    stdout = io.StringIO()
    with ctx.ops.op("train_command"):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli_mod.main(["train", "--config", str(config)])
        elapsed = time.perf_counter() - t0
    ctx.ops.check("train_command_exit", code == 0, f"exit code {code}")
    return elapsed, out_dir, stdout.getvalue()


def check_fit(ctx: Context, prep: Prepared, out_dirs: list[Path]) -> float:
    logs = [(d / "train_log.txt").read_bytes() for d in out_dirs]
    ctx.ops.check("train_log_repeats_in_run", len(set(logs)) == 1)
    digest = hashlib.sha256(logs[0]).hexdigest()
    ctx.ops.check("train_log_repeats_across_runs", ctx.store.check("train_log", digest))
    report = (out_dirs[0] / "report_test.txt").read_text(encoding="utf-8")
    recall20 = float(re.search(r"^recall@20 = (\S+)$", report, re.M).group(1))
    floor = FIT_RECALL_FLOOR_X * 20 / prep.ds.num_items
    ctx.ops.check("test_recall20_floor", recall20 >= floor, f"{recall20} < {floor}")
    return recall20


def fit_epoch_seconds(stdout: str) -> list[float]:
    return [float(x) for x in re.findall(r"wall_time=(\S+)", stdout)]


def run_fit_s(ctx: Context, paths: dict) -> tuple[dict, dict]:
    """FIT_MIN_COMMANDS train commands, spread evenly between the set-ups;
    more follow until the commands have taken --seconds."""
    times, out_dirs, epochs = [], [], []
    every = SETUP_REPEATS[ctx.workload] // FIT_MIN_COMMANDS

    def command() -> None:
        elapsed, out_dir, stdout = train_command(ctx, paths, len(times))
        times.append(elapsed)
        out_dirs.append(out_dir)
        epochs.extend(fit_epoch_seconds(stdout))

    def after_setup(prep: Prepared, k: int) -> None:
        if (k + 1) % every == 0:
            command()

    setups, prep = timed_setups(ctx, paths, with_eval_inputs=False, after_each=after_setup)
    while len(times) < FIT_MIN_COMMANDS or sum(times) < ctx.seconds:
        command()
    recall20 = check_fit(ctx, prep, out_dirs)
    cmd_s = statistics.median(times)
    named = {"setup_s": (statistics.median(setups), "s"),
             "train_cmd_s": (cmd_s, "s"),
             "train_samples_per_s": (FIT_EPOCHS * len(prep.ds.train) / cmd_s, "rows/s")}
    return named, {"corpus": corpus_record(prep), "setup_samples_s": setups,
                   "commands": len(times), "epochs_per_command": FIT_EPOCHS,
                   "test_recall@20": recall20, "fit_log_epoch_s": epochs}


# ---------------------------------------------------------------- traced runs

def patch_targets():
    """(owner, attribute, span) for every public function the program calls
    internally that a traced run times. A missing attribute gives an absent
    span, never a crash."""
    return [
        (cli_mod, "load_interactions", "data.load_interactions"),
        (cli_mod, "kcore_filter", "data.kcore_filter"),
        (cli_mod, "split_dataset", "data.split_dataset"),
        (cli_mod, "build_graphs", "graphs.build_graphs"),
        (cli_mod, "fit", "trainer.fit"),
        (cli_mod, "forward", "model.forward"),
        (cli_mod, "evaluate", "evaluator.test"),
        (ckpt_mod, "save_checkpoint", "checkpoint.save"),
        (graphs_mod, "build_norm_adjacency", "graphs.norm_adjacency"),
        (graphs_mod, "build_norm_interaction", "graphs.norm_interaction"),
        (graphs_mod, "build_knn_similarity", "graphs.knn_similarity"),
        (sparse_mod.SparseMatrix, "transpose", "sparse.transpose"),
        (model_mod, "lightgcn_propagate", "model.propagate"),
        (model_mod, "item_multimodal", "model.multimodal"),
        (model_mod, "user_multimodal", "model.multimodal"),
        (model_mod.ForwardPass, "backward", "model.backward"),
        (trainer_mod, "train_epoch", "trainer.epoch"),
        (trainer_mod, "forward", "model.forward"),
        (trainer_mod, "total_loss", "losses.total_loss"),
        (trainer_mod, "evaluate", "evaluator.val"),
        (trainer_mod.Dataset, "user_train_items", "trainer.user_train_items"),
        (optim_mod.Adam, "step", "optim.step"),
        (evaluator_mod, "rank_all", "evaluator.rank_all"),
        (protocols_mod, "itemcf_score", "protocols.itemcf_score"),
    ]


def piece_steps(ctx: Context, prep: Prepared, state: TrainState, steps: int) -> dict:
    """Training steps built from the public pieces on one state: sample a
    batch, forward, each loss with its own backward, the combined objective,
    and the optimizer step. Returns in-batch candidate counts."""
    ds, tr = prep.ds, ctx.tracer
    user_train = ds.user_train_items()
    sample = getattr(trainer_mod, "sample_batch", None)
    counts = {"cca_items": [], "cca_users": []}
    for _ in range(steps):
        if sample is None:
            tr.absent.add("trainer.sample_batch")
            rows = state.rng.choice(len(ds.train), size=TRAIN.batch_size, replace=False)
            batch = BatchSample(ds.train[rows, 0], ds.train[rows, 1],
                                _negatives(state.rng, ds, rows, user_train))
        else:
            with tr.span("trainer.sample_batch"):
                batch = sample(ds, state.rng, TRAIN.batch_size, user_train)
        counts["cca_items"].append(np.unique(batch.pos_items).size)
        counts["cca_users"].append(np.unique(batch.users).size)
        w = TRAIN.weights
        with np.errstate(all="ignore"):
            with tr.span("model.forward"):
                fp = forward(state.params, prep.graphs, prep.feat, TRAIN.gcn_layers)
            with tr.span("model.gate"):
                model_mod.content_gate(state.params, prep.feat)
            with tr.span("losses.bpr"):
                losses_mod.bpr_loss(fp, batch)
            with tr.span("losses.cca"):
                losses_mod.cca_infonce(fp, batch, w.tau)
            with tr.span("losses.uia"):
                losses_mod.uia_cosine(fp, batch)
            with tr.span("losses.reg"):
                losses_mod.reg_similarity(fp, prep.feat, batch)
            _, grads, _ = trainer_mod.total_loss(fp, prep.feat, batch, w, state.counters)
        state.optimizer.step(state.params, grads)
    return counts


def _negatives(rng, ds: Dataset, rows, user_train) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.int64)
    for n, u in enumerate(ds.train[rows, 0]):
        while True:
            cand = int(rng.integers(ds.num_items))
            if cand not in user_train[u]:
                out[n] = cand
                break
    return out


def trace_overhead(ctx: Context, prep: Prepared) -> float:
    """Percent by which a one-batch train_epoch gets slower with the span
    wrappers installed. After a warm-up round, plain and traced rounds from
    identical states alternate as plain, traced, traced, plain until
    TRACE_OVERHEAD_SECONDS have passed; the result compares their medians.
    Every round must give the same losses."""
    view = train_view(prep.ds, ctx.seed, 0, 1)
    train_round(prep, view, ctx.seed)
    seconds = {False: [], True: []}
    records = []
    t_start = time.perf_counter()
    while not records or time.perf_counter() - t_start < TRACE_OVERHEAD_SECONDS:
        for traced in (False, True, True, False):
            t0 = time.perf_counter()
            with (ctx.tracer.patched(patch_targets()) if traced else nullcontext()):
                records.append(train_round(prep, view, ctx.seed))
            seconds[traced].append(time.perf_counter() - t0)
    ctx.ops.check("tracing_keeps_results", all(r == records[0] for r in records))
    plain = statistics.median(seconds[False])
    return 100.0 * (statistics.median(seconds[True]) - plain) / plain


def run_traced(ctx: Context, paths: dict) -> tuple[dict, dict]:
    tr = ctx.tracer
    extra = {}
    with tr.patched(patch_targets()):
        if ctx.workload == "fit-s":
            _, _, stdout = train_command(ctx, paths, 0)
            extra["fit_log_epoch_s"] = fit_epoch_seconds(stdout)
        prep = prepare(ctx, paths, with_eval_inputs=True)
    overhead = trace_overhead(ctx, prep)
    state = fresh_state(prep, ctx.seed)
    with tr.patched(patch_targets()):
        counts = piece_steps(ctx, prep, state, TRACE_PIECE_STEPS[ctx.workload])
        inputs = eval_inputs(prep, ctx.seed)
        results = ranking_pass(ctx, prep.fp.reps, prep.feat, inputs)
    check_ranking(ctx, prep, inputs, results)

    path = ctx.work_dir / "checkpoint.ackp"
    with ctx.span("checkpoint.save"):
        ckpt_mod.save_checkpoint(path, state.params, "", rng_state=None)
    nbytes = path.stat().st_size
    with ctx.span("checkpoint.load"):
        loaded = ckpt_mod.load_checkpoint(path)
    ctx.ops.check("checkpoint_roundtrip", all(
        np.array_equal(a, b) for a, b in zip(loaded.params.as_dict().values(),
                                             state.params.as_dict().values())))

    def med(name):
        values = tr.durations_ms(name)
        return (statistics.median(values), "ms") if values else None

    metrics = {f"{name}_ms": med(name) for name in TIMED_SPANS}
    if "fit_log_epoch_s" in extra:
        # fit-s reads its epochs from the fit log (train_epoch plus the val
        # eval); the one-batch epochs of the overhead comparison would mix in
        metrics["trainer.epoch_ms"] = (1e3 * statistics.median(extra["fit_log_epoch_s"]), "ms")
    metrics.update({
        "data.records_loaded": (prep.raw_count, "count"),
        "data.records_kept": (prep.kept_count, "count"),
        "graphs.sim_nnz": (prep.graphs.sim.nnz, "count"),
        "graphs.sim_fill": (prep.graphs.sim.nnz / (prep.ds.num_items * TRAIN.k_prime),
                            "ratio"),
        "losses.cca_items": (statistics.median(counts["cca_items"]), "count"),
        "losses.cca_users": (statistics.median(counts["cca_users"]), "count"),
        "losses.uia_zero_norm": (state.counters.get("uia_zero_norm", 0), "count"),
        "evaluator.users_val": (results["evaluator.val"][0].users_evaluated, "count"),
        "evaluator.users_test": (results["evaluator.test"][0].users_evaluated, "count"),
        "evaluator.users_longtail": (results["evaluator.longtail"][0].users_evaluated,
                                     "count"),
        "protocols.zero_shot_queries": (results["protocols.zero_shot"][0].users_evaluated,
                                        "count"),
        "protocols.itemcf_queries": (results["protocols.itemcf"][0].users_evaluated, "count"),
        "checkpoint.bytes": (nbytes, "bytes"),
        "trace.overhead_pct": (overhead, "%"),
    })
    absent = sorted(name for name, value in metrics.items() if value is None)
    metrics = {k: v for k, v in metrics.items() if v is not None}
    extra.update({"corpus": corpus_record(prep), "spans": len(tr.spans),
                  "absent_spans": sorted(tr.absent), "absent_metrics": absent})
    return metrics, extra


TIMED_SPANS = (
    "data.load_interactions", "data.kcore_filter", "data.split_dataset",
    "features.load_align",
    "graphs.build_graphs", "graphs.knn_similarity", "graphs.norm_interaction",
    "sparse.transpose",
    "trainer.sample_batch", "trainer.user_train_items", "trainer.epoch",
    "model.forward", "model.propagate", "model.gate", "model.multimodal", "model.backward",
    "losses.total_loss", "losses.bpr", "losses.cca", "losses.uia", "losses.reg",
    "optim.step",
    "evaluator.val", "evaluator.test", "evaluator.longtail", "evaluator.rank_all",
    "protocols.zero_shot", "protocols.itemcf", "protocols.itemcf_score",
    "checkpoint.save", "checkpoint.load",
)


# ---------------------------------------------------------------- entry

WORKLOADS = {
    "train-m": (corpus_mod.M, run_train_m),
    "eval-m": (corpus_mod.M, run_eval_m),
    "fit-s": (corpus_mod.S, run_fit_s),
}
