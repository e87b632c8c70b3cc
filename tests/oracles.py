"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas with dense
arrays and plain Python loops, deliberately avoiding the engine's code paths.
"""

import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from alignrec.data import _collapse, items_by_user
from alignrec.errors import DataError, EmptyInputError, ParseError


def to_dense(m):
    """Dense copy of a SparseMatrix, filled entry by entry from its CSR
    arrays."""
    out = np.zeros((m.rows, m.cols))
    for r in range(m.rows):
        for p in range(m.indptr[r], m.indptr[r + 1]):
            out[r, m.indices[p]] = m.data[p]
    return out


def to_scipy(m):
    """scipy CSR matrix over the same arrays as a SparseMatrix."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=(m.rows, m.cols))


def read_manifest(path):
    """Parse a `key = value` manifest into a dict of strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                out[key] = value
    return out


def _code(keys):
    """The sorted table of distinct keys and each key's index in it."""
    table = sorted(set(keys))
    index = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


def raw_from_records(records):
    """A RawInteractions from (user_key, item_key, timestamp) tuples: repeated
    pairs collapsed to their earliest timestamp at their first appearance."""
    users, items, stamps = zip(*records) if records else ((), (), ())
    return _collapse(*_code(users), *_code(items), stamps)


def records_of(raw):
    """The (user_key, item_key, timestamp) tuples of a RawInteractions in
    record order."""
    return list(zip(map(raw.user_keys.__getitem__, raw.users.tolist()),
                    map(raw.item_keys.__getitem__, raw.items.tolist()),
                    raw.timestamps.tolist()))


def load_interactions_reference(path):
    """The interaction log parsed one line at a time: the whole file decoded
    (a bad byte names its line), CR and CRLF turned into LF, '#' and blank
    lines skipped, every other line split on tabs and its timestamp read by
    int(). The first malformed line raises ParseError naming it."""
    blob = Path(path).read_bytes()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = blob[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = before.count(b"\n") + 1
        raise ParseError(
            f"{path}:{lineno}: byte 0x{blob[exc.start]:02x} is not UTF-8") from None
    records = []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        user, item, ts_text = parts
        try:
            ts = int(ts_text)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: timestamp '{ts_text}' is not an integer") from None
        if not 0 <= ts <= 2 ** 63 - 1:
            what = "negative" if ts < 0 else "out-of-range"
            raise ParseError(f"{path}:{lineno}: {what} timestamp {ts}")
        records.append((user, item, ts))
    if not records:
        raise EmptyInputError(f"{path}: no interaction records")
    return raw_from_records(records)


def kcore_reference(records, k):
    """Repeatedly scan and remove under-threshold users/items until stable."""
    records = list(records)
    changed = True
    while changed:
        changed = False
        users = {}
        items = {}
        for u, i, _ in records:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        kept = [r for r in records if users[r[0]] >= k and items[r[1]] >= k]
        if len(kept) != len(records):
            changed = True
            records = kept
    return records


def split_reference(records, ratios, seed, strategy):
    """Per-record split: sorted key tables, per-user lists ordered by
    (timestamp, item index), one seeded permutation per user in user order,
    then the orphan repair. Returns (user_keys, item_keys, train, val, test,
    repaired) with the splits as lists of (user, item) index pairs and
    repaired the number of interactions the repair moved."""
    user_keys = sorted({u for u, _, _ in records})
    item_keys = sorted({i for _, i, _ in records})
    user_index = {u: n for n, u in enumerate(user_keys)}
    item_index = {i: n for n, i in enumerate(item_keys)}
    by_user = [[] for _ in range(len(user_index))]
    for u, i, ts in records:
        by_user[user_index[u]].append((ts, item_index[i]))
    for lst in by_user:
        lst.sort()

    train, val, test = [], [], []
    repaired = 0
    if strategy == "temporal-leave-one-out":
        for u, lst in enumerate(by_user):
            if len(lst) == 1:
                train.append((u, lst[0][1]))
                continue
            for ts, i in lst[:-1]:
                train.append((u, i))
            test.append((u, lst[-1][1]))
    else:
        rng = np.random.default_rng(seed)
        for u, lst in enumerate(by_user):
            n = len(lst)
            perm = rng.permutation(n)
            n_val = int(np.floor(ratios[1] * n))
            n_test = int(np.floor(ratios[2] * n))
            n_train = n - n_val - n_test
            if n_train == 0:
                if n_test > 0:
                    n_test -= 1
                else:
                    n_val -= 1
                n_train = 1
            items = [lst[p][1] for p in perm]
            train.extend((u, i) for i in items[:n_train])
            val.extend((u, i) for i in items[n_train:n_train + n_val])
            test.extend((u, i) for i in items[n_train + n_val:])
        repaired = _repair_item_orphans_reference(train, val, test, len(item_keys))
    return user_keys, item_keys, train, val, test, repaired


def _repair_item_orphans_reference(train, val, test, num_items):
    """Move one held-out interaction back to train, in place, for any item
    with no training presence; the donor is the user with the most training
    rows. Returns the number of moved interactions."""
    train_deg = np.zeros(num_items, dtype=np.int64)
    for _, i in train:
        train_deg[i] += 1
    orphans = {i for i in range(num_items) if train_deg[i] == 0}
    user_train = {}
    for u, _ in train:
        user_train[u] = user_train.get(u, 0) + 1
    for item in sorted(orphans):
        candidates = []
        for split_rank, pool in ((0, val), (1, test)):
            for pos, (u, i) in enumerate(pool):
                if i == item:
                    candidates.append((-user_train.get(u, 0), u, split_rank, pos))
        candidates.sort()
        _, u, split_rank, pos = candidates[0]
        pool = val if split_rank == 0 else test
        moved = pool.pop(pos)
        train.append(moved)
        user_train[moved[0]] = user_train.get(moved[0], 0) + 1
    return len(orphans)


def dense_norm_adjacency(num_users, num_items, pairs):
    n = num_users + num_items
    a = np.zeros((n, n))
    for u, i in pairs:
        a[u, num_users + i] = 1.0
        a[num_users + i, u] = 1.0
    deg = a.sum(axis=1)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag(inv) @ a @ np.diag(inv)


def dense_knn_reference(feat, k_prime):
    n = feat.shape[0]
    norms = np.linalg.norm(feat, axis=1)
    unit = feat / norms[:, None]
    sim = unit @ unit.T
    s = np.zeros((n, n))
    for i in range(n):
        candidates = sorted(((-sim[i, j], j) for j in range(n) if j != i))
        for neg_v, j in candidates[:k_prime]:
            value = -neg_v
            if value > 0.0:
                s[i, j] = value
    deg = s.sum(axis=1)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag(inv) @ s @ np.diag(inv)


def knn_full_sort_reference(feat, k_prime):
    """The kNN graph by full sorts of canonical cosines: each row's
    np.sum(unit * unit[r], axis=1), the diagonal set to -inf, a full lexsort
    (ties to the lower index), the first k' kept if positive, then row-sum
    degree normalization. Returns a canonical scipy CSR matrix."""
    n = feat.shape[0]
    unit = feat / np.linalg.norm(feat, axis=1)[:, None]
    arange = np.arange(n)
    rows, cols, vals = [], [], []
    for r in range(n):
        row = canonical_scores(unit, unit[r])
        row[r] = -np.inf
        order = np.lexsort((arange, -row))[:k_prime]
        kept = row[order]
        rows.append(np.full(int(np.sum(kept > 0.0)), r))
        cols.append(order[kept > 0.0])
        vals.append(kept[kept > 0.0])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    deg = np.zeros(n)
    np.add.at(deg, rows, vals)
    inv = np.zeros(n)
    inv[deg > 0.0] = 1.0 / np.sqrt(deg[deg > 0.0])
    mat = sp.csr_matrix(sp.coo_matrix((vals * inv[rows] * inv[cols], (rows, cols)),
                                      shape=(n, n)))
    mat.sum_duplicates()
    mat.sort_indices()
    mat.eliminate_zeros()
    return mat


def dense_lightgcn(adj_dense, emb, layers):
    acc = emb.copy()
    for l in range(1, layers + 1):
        acc += np.linalg.matrix_power(adj_dense, l) @ emb
    return acc / (layers + 1)


def gate_reference_scalar(item_emb, w1, b1, w2, b2, feat):
    """Per-entry loops for the gated content embedding."""
    n, d_e = item_emb.shape
    d_f, d_h = w1.shape
    out = np.zeros((n, d_e))
    for i in range(n):
        hidden = []
        for h in range(d_h):
            z = b1[h]
            for f in range(d_f):
                z += feat[i, f] * w1[f, h]
            hidden.append(max(z, 0.0))
        for e in range(d_e):
            z = b2[e]
            for h in range(d_h):
                z += hidden[h] * w2[h, e]
            gate = 1.0 / (1.0 + math.exp(-z))
            out[i, e] = item_emb[i, e] * gate
    return out


def dense_forward_reference(user_emb, item_emb, w1, b1, w2, b2,
                            adj_dense, inter_dense, sim_dense, feat, layers):
    """Straight-line dense composition of the whole representation pipeline."""
    emb = np.vstack([user_emb, item_emb])
    h_id = dense_lightgcn(adj_dense, emb, layers)
    num_users = user_emb.shape[0]
    h_id_users, h_id_items = h_id[:num_users], h_id[num_users:]
    z1 = feat @ w1 + b1
    a1 = np.where(z1 > 0, z1, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(a1 @ w2 + b2)))
    h_con = item_emb * gate
    h_mm_items = sim_dense @ h_con
    h_mm_users = inter_dense @ h_mm_items
    return {
        "h_id_users": h_id_users, "h_id_items": h_id_items, "h_con_items": h_con,
        "h_mm_items": h_mm_items, "h_mm_users": h_mm_users,
        "h_users": h_mm_users + h_id_users, "h_items": h_mm_items + h_id_items,
    }


def bruteforce_evaluate(h_users, h_items, ds, split, ks):
    """Second evaluator implementation: python sorts and fsum reductions."""
    relevant = {}
    for u, i in ds.split(split):
        relevant.setdefault(int(u), set()).add(int(i))
    exclude = {}
    for u, i in ds.train:
        exclude.setdefault(int(u), set()).add(int(i))
    if split == "test":
        for u, i in ds.val:
            exclude.setdefault(int(u), set()).add(int(i))
    per_k_recall = {k: [] for k in ks}
    per_k_ndcg = {k: [] for k in ks}
    for u in sorted(relevant):
        banned = exclude.get(u, set())
        scores = h_items @ h_users[u]
        candidates = [j for j in range(ds.num_items) if j not in banned]
        # descending score, ties to the lower index, NaN last as in top_k
        ranking = sorted(candidates, key=lambda j: (1, 0.0, j) if math.isnan(scores[j])
                         else (0, -scores[j], j))
        rel = relevant[u]
        for k in ks:
            top = ranking[:k]
            hits = sum(1 for j in top if j in rel)
            per_k_recall[k].append(hits / len(rel))
            dcg = math.fsum(1.0 / math.log2(pos + 1.0)
                            for pos, j in enumerate(top, start=1) if j in rel)
            ideal = math.fsum(1.0 / math.log2(pos + 1.0)
                              for pos in range(1, min(k, len(rel)) + 1))
            per_k_ndcg[k].append(dcg / ideal if ideal > 0 else 0.0)
    n = len(relevant)
    recall = {k: math.fsum(per_k_recall[k]) / n for k in ks}
    ndcg = {k: math.fsum(per_k_ndcg[k]) / n for k in ks}
    return recall, ndcg, n


def recall_at_k(ranked, relevant, k):
    """The share of the relevant set among the first k ranked items."""
    if not relevant:
        return 0.0
    return sum(1 for item in list(ranked)[:k] if item in relevant) / len(relevant)


def ndcg_at_k(ranked, relevant, k):
    """Binary-gain NDCG of the first k ranked items: discount 1/log2(rank+1)
    with ranks from 1, ideal DCG over min(k, |relevant|) hits."""
    if not relevant:
        return 0.0
    dcg = math.fsum(1.0 / math.log2(rank + 1.0)
                    for rank, item in enumerate(list(ranked)[:k], start=1) if item in relevant)
    ideal = math.fsum(1.0 / math.log2(rank + 1.0)
                      for rank in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


def itemcf_reference(ds):
    """Double-loop set-intersection co-occurrence cosine."""
    users_of = [set() for _ in range(ds.num_items)]
    for u, i in ds.train:
        users_of[int(i)].add(int(u))
    n = ds.num_items
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or not users_of[i] or not users_of[j]:
                continue
            inter = len(users_of[i] & users_of[j])
            if inter:
                s[i, j] = inter / math.sqrt(len(users_of[i]) * len(users_of[j]))
    return s


def _unit_rows_reference(features):
    norms = np.linalg.norm(features, axis=1)
    return np.where(norms[:, None] > 0, features / np.where(norms[:, None] == 0, 1, norms[:, None]), 0.0)


def canonical_scores(unit, query):
    """The protocols' score of every row of `unit` for `query`: the product
    row summed by np.sum, whose bits do not depend on the other rows."""
    return np.sum(unit * query, axis=1)


def canonical_top_k_reference(queries, items, exclude, k):
    """Per query row, the first k non-excluded items by a python sort of
    the canonical scores, ties to the lower index."""
    tops = []
    for query, banned in zip(queries, exclude):
        scores = canonical_scores(items, query)
        ranking = sorted((j for j in range(items.shape[0]) if j not in banned),
                         key=lambda j: (-scores[j], j))
        tops.append(ranking[:k])
    return tops


def _single_target_protocol(queries, num_items, ks):
    """Recall and NDCG means over (scores, banned, target) queries, each
    ranked by a python sort over the non-banned items."""
    per_k_recall = {k: [] for k in ks}
    per_k_ndcg = {k: [] for k in ks}
    for scores, banned, target in queries:
        ranking = sorted((i for i in range(num_items) if i not in banned),
                         key=lambda i: (-scores[i], i))
        for k in ks:
            top = ranking[:k]
            per_k_recall[k].append(1.0 if target in top else 0.0)
            # one relevant item: the ideal DCG is 1 / log2(2) = 1
            per_k_ndcg[k].append(1.0 / math.log2(top.index(target) + 2.0)
                                 if target in top else 0.0)
    n = len(per_k_recall[ks[0]])
    if n == 0:
        return {k: 0.0 for k in ks}, {k: 0.0 for k in ks}, 0
    recall = {k: math.fsum(per_k_recall[k]) / n for k in ks}
    ndcg = {k: math.fsum(per_k_ndcg[k]) / n for k in ks}
    return recall, ndcg, n


def itemcf_protocol_reference(features, ds, ks):
    """Independent item-CF protocol: target from the reference score matrix,
    ranking by canonical cosine with python sorts."""
    scores = itemcf_reference(ds)
    unit = _unit_rows_reference(features)
    queries = []
    for j in range(ds.num_items):
        row = scores[j]
        if not np.any(row > 0):
            continue
        best = row.max()
        target = min(i for i in range(ds.num_items) if row[i] == best)
        queries.append((canonical_scores(unit, unit[j]), {j}, target))
    return _single_target_protocol(queries, ds.num_items, ks)


def zero_shot_protocol_reference(features, ds, ks):
    """Independent zero-shot protocol: the user query is the mean of the
    history rows in item order, the target is the user's test item, and the
    history is banned from the python-sorted ranking by canonical cosine."""
    history = {}
    for u, i in ds.train:
        history.setdefault(int(u), set()).add(int(i))
    target = {int(u): int(i) for u, i in ds.test}
    unit = _unit_rows_reference(features)
    queries = []
    for u in range(ds.num_users):
        if u not in target or u not in history:
            continue
        user_feat = features[sorted(history[u])].mean(axis=0)
        norm = np.linalg.norm(user_feat)
        query = user_feat / norm if norm > 0.0 else user_feat
        queries.append((canonical_scores(unit, query), history[u], target[u]))
    return _single_target_protocol(queries, ds.num_items, ks)


class ScalarAdam:
    """Reference Adam on a single scalar parameter."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta - self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


def finite_diff_grads(loss_fn, params, step=1e-5):
    """Central differences of loss_fn over every parameter coordinate."""
    from alignrec.model import PARAM_NAMES

    grads = {}
    for name in PARAM_NAMES:
        arr = getattr(params, name)
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = loss_fn(params)
            arr[idx] = orig - step
            f_minus = loss_fn(params)
            arr[idx] = orig
            grad[idx] = (f_plus - f_minus) / (2 * step)
            it.iternext()
        grads[name] = grad
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    """Largest elementwise relative error where the analytic gradient is
    meaningfully nonzero."""
    worst = 0.0
    for name, g in analytic.items():
        fd = numeric[name]
        mask = np.abs(g) > floor
        if not np.any(mask):
            continue
        denom = np.maximum(np.abs(g[mask]), np.abs(fd[mask]))
        worst = max(worst, float(np.max(np.abs(g[mask] - fd[mask]) / denom)))
    return worst


def uniform_recall_baseline(k, num_items):
    """Expected recall of a uniformly random permutation over the full item
    set: each relevant item lands in the top-k with probability k/n."""
    return k / num_items


# Frozen references for one train step: the kernels as they were before
# they ran in place and before the forward and backward passes sized their
# user-side products to the batch. The engine must match them bit for bit.

def tdot_reference(m, x):
    """m^T @ x through the explicit CSR transpose, over every row of x."""
    return m.transpose().dot(x)


def lightgcn_reference(inter_norm, inter_t, users, items, layers):
    """lightgcn_propagate over all rows: per layer R @ h_i, then R^T @ h_u
    through the explicit transpose."""
    acc_u, acc_i = users.copy(), items.copy()
    h_u, h_i = users, items
    for _ in range(layers):
        h_u, h_i = inter_norm.dot(h_i), inter_t.dot(h_u)
        acc_u += h_u
        acc_i += h_i
    return acc_u / (layers + 1), acc_i / (layers + 1)


def forward_reference(params, graphs, feat, layers, users=None):
    """forward with every product over all users, serial; `users` is
    ignored, so the pass is always the full one."""
    from scipy.special import expit

    from alignrec.model import ForwardPass, Representations

    h_id_users, h_id_items = lightgcn_reference(graphs.inter_norm, graphs.inter_t,
                                                params.user_emb, params.item_emb, layers)
    a1 = np.maximum(feat.data @ params.gate_w1 + params.gate_b1, 0.0)
    gate = expit(a1 @ params.gate_w2 + params.gate_b2)
    h_con = params.item_emb * gate
    h_mm_items = graphs.sim.dot(h_con)
    h_mm_users = graphs.inter_norm.dot(h_mm_items)
    reps = Representations(h_id_users=h_id_users, h_id_items=h_id_items,
                           h_mm_items=h_mm_items, h_mm_users=h_mm_users,
                           h_users=h_mm_users + h_id_users, h_items=h_mm_items + h_id_items)
    return ForwardPass(reps=reps, params=params, graphs=graphs, feat=feat, layers=layers,
                       _user_rows=(np.arange(graphs.inter_norm.rows), graphs.inter_norm),
                       _a1=a1, _gate=gate)


def infonce_side_reference(x, y, tau, x_rows=None):
    """_infonce_side with a fresh array for every n x n pass; it normalizes
    x itself, whatever x_rows holds."""
    from alignrec.features import unit_rows
    from alignrec.losses import _normalize_backward

    n = x.shape[0]
    diag = np.arange(n)
    x_unit, x_norms, x_nz = unit_rows(x)
    y_unit, y_norms, y_nz = unit_rows(y)
    logits = (x_unit @ y_unit.T) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    row_sum = exp.sum(axis=1)
    value = float(-np.mean(shifted[diag, diag] - np.log(row_sum)))
    d_logits = exp
    d_logits /= row_sum[:, None]
    d_logits[diag, diag] -= 1.0
    d_logits /= n
    d_x_unit = (d_logits @ y_unit) / tau
    d_y_unit = (d_logits.T @ x_unit) / tau
    return value, _normalize_backward(d_x_unit, x_unit, x_norms, x_nz), \
        _normalize_backward(d_y_unit, y_unit, y_norms, y_nz)


def reg_rep_reference(fp, feat, batch, g, weight, mm_rows=None):
    """_reg_rep with np.unique, triu_indices and a fresh array for every
    n x n pass; it normalizes the rows itself, whatever mm_rows holds."""
    from alignrec.errors import DataError
    from alignrec.features import unit_rows

    items = np.unique(batch.pos_items)
    n = items.shape[0]
    if n < 2:
        return 0.0
    x = fp.reps.h_mm_items[items]
    x_unit, x_norms, x_nz = unit_rows(x)
    f_unit, _, f_nz = unit_rows(feat.data[items])
    if not np.all(f_nz):
        raise DataError("zero-norm feature row among batch items")
    cos_x = x_unit @ x_unit.T
    cos_f = f_unit @ f_unit.T
    m = n * (n - 1) // 2
    diff = cos_x - cos_f
    iu = np.triu_indices(n, k=1)
    value = float(np.sum(np.abs(diff[iu])) / m)
    w = np.sign(diff) / m
    np.fill_diagonal(w, 0.0)
    w[~x_nz, :] = 0.0
    w[:, ~x_nz] = 0.0
    row_mix = w @ x_unit
    diag_coef = np.sum(w * cos_x, axis=1, keepdims=True)
    d_x = np.zeros_like(x)
    d_x[x_nz] = (row_mix[x_nz] - diag_coef[x_nz] * x_unit[x_nz]) / x_norms[x_nz, None]
    g.h_mm_items[items] += weight * d_x
    return value


def backward_reference(fp, g):
    """ForwardPass.backward of a full pass with every R^T product over all
    users, through explicit transposes, serial."""
    from alignrec.model import zero_grads

    p = fp.params
    grads = zero_grads(p)
    d_mm_users = g.h_mm_users + g.h_users
    d_id_users = g.h_id_users + g.h_users
    d_mm_items = g.h_mm_items + g.h_items + fp.graphs.inter_t.dot(d_mm_users)
    d_id_items = g.h_id_items + g.h_items
    d_con = tdot_reference(fp.graphs.sim, d_mm_items)
    grads["item_emb"] += fp._gate * d_con
    d_z2 = (p.item_emb * d_con) * fp._gate * (1.0 - fp._gate)
    grads["gate_w2"] += fp._a1.T @ d_z2
    grads["gate_b2"] += d_z2.sum(axis=0)
    d_a1 = d_z2 @ p.gate_w2.T
    d_z1 = d_a1 * (fp.feat.data @ p.gate_w1 + p.gate_b1 > 0.0)
    grads["gate_w1"] += fp.feat.data.T @ d_z1
    grads["gate_b1"] += d_z1.sum(axis=0)
    d_users, d_items = lightgcn_reference(fp.graphs.inter_norm, fp.graphs.inter_t,
                                          d_id_users, d_id_items, fp.layers)
    grads["user_emb"] += d_users
    grads["item_emb"] += d_items
    return grads


class AdamReference:
    """alignrec.optim.Adam with fresh arrays for m, v and every product."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        from alignrec.model import zero_grads

        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = zero_grads(params)
        self.v = zero_grads(params)

    def step(self, params, grads):
        from alignrec.model import PARAM_NAMES

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in PARAM_NAMES:
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            getattr(params, name)[...] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def sample_negative(rng, num_items, banned, user):
    """Uniform draw over items the user has not interacted with in train."""
    if len(banned) >= num_items:
        raise DataError(f"user {user} interacts with every item; cannot sample a negative")
    while True:
        cand = int(rng.integers(num_items))
        if cand not in banned:
            return cand


def negatives_reference(ds, rows, rng):
    """The per-row rejection sampler that trainer._batch_at replaced: the ban
    lists as one Python set per user, and one scalar draw per try, each row
    of `rows` in order."""
    indptr, items = items_by_user(ds.train, ds.num_users)
    user_train = [set(items[lo:hi].tolist()) for lo, hi in zip(indptr[:-1], indptr[1:])]
    return np.fromiter(
        (sample_negative(rng, ds.num_items, user_train[u], int(u)) for u in ds.train[rows, 0]),
        dtype=np.int64, count=len(rows))
