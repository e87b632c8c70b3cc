"""Interaction-log ingestion: parsing, k-core filtering, ID remapping, splits.

The pipeline is load_interactions -> kcore_filter -> split_dataset. Opaque
string keys survive until split_dataset, which assigns dense indices in
sorted-key order so that identical inputs always produce identical datasets.

Split strategies:

random
    Per-user shuffle driven by one seeded generator consumed in user-index
    order. Validation and test receive floor(ratio * n) interactions each,
    train receives the remainder, so every user keeps at least one training
    interaction. A repair pass afterwards moves one held-out interaction back
    to train for any item that would otherwise have no training presence.

temporal-leave-one-out
    The most recent interaction of each user (ties broken by higher item
    index) is held out into the test split; everything else is train and the
    validation split is empty. Users with a single interaction keep it in
    train since holding it out would leave them without any history.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, EmptyAfterFilterError,
                     EmptyInputError, ParseError)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawInteractions:
    """Deduplicated (user_key, item_key, timestamp) records."""

    records: list[tuple[str, str, int]]

    def __len__(self) -> int:
        return len(self.records)

    def num_users(self) -> int:
        return len({u for u, _, _ in self.records})

    def num_items(self) -> int:
        return len({i for _, i, _ in self.records})


@dataclass
class Dataset:
    """Filtered, index-remapped interactions partitioned into splits.

    Split arrays have shape (n, 2) with columns (user_index, item_index).
    """

    num_users: int
    num_items: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    user_keys: list[str]
    item_keys: list[str]
    user_index: dict[str, int] = field(repr=False)
    item_index: dict[str, int] = field(repr=False)
    item_train_degree: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.item_train_degree is None:
            self.item_train_degree = np.bincount(
                self.train[:, 1], minlength=self.num_items).astype(np.int64)

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise ConfigError(f"unknown split '{name}'") from None

    def user_train_items(self) -> list[set[int]]:
        return items_by_user(self.train, self.num_users)


def items_by_user(pairs: np.ndarray, num_users: int) -> list[set[int]]:
    """The item set of each user in an (n, 2) array of (user, item) pairs."""
    order = np.argsort(pairs[:, 0], kind="stable")
    users, items = pairs[order, 0], pairs[order, 1]
    bounds = np.searchsorted(users, np.arange(num_users + 1))
    return [set(items[lo:hi].tolist()) for lo, hi in zip(bounds[:-1], bounds[1:])]


def load_interactions(path) -> RawInteractions:
    """Parse a UTF-8 TSV of `user_key<TAB>item_key<TAB>timestamp` records.

    Lines starting with '#' and blank lines are skipped. Duplicate
    (user, item) pairs collapse to a single record carrying the earliest
    timestamp, ordered by first appearance.
    """
    path = Path(path)
    seen: dict[tuple[str, str], int] = {}
    order: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            user, item, ts_text = parts
            try:
                ts = int(ts_text)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: timestamp '{ts_text}' is not an integer") from None
            if ts < 0:
                raise ParseError(f"{path}:{lineno}: negative timestamp {ts}")
            key = (user, item)
            if key in seen:
                seen[key] = min(seen[key], ts)
            else:
                seen[key] = ts
                order.append(key)
    if not order:
        raise EmptyInputError(f"{path}: no interaction records")
    return RawInteractions([(u, i, seen[(u, i)]) for u, i in order])


def kcore_filter(raw: RawInteractions, k: int) -> RawInteractions:
    """Iteratively drop users and items with fewer than k interactions until
    every survivor has at least k."""
    if k < 1:
        raise ConfigError(f"k-core threshold must be >= 1, got {k}")
    records = raw.records
    while True:
        user_count: dict[str, int] = {}
        item_count: dict[str, int] = {}
        for u, i, _ in records:
            user_count[u] = user_count.get(u, 0) + 1
            item_count[i] = item_count.get(i, 0) + 1
        kept = [r for r in records
                if user_count[r[0]] >= k and item_count[r[1]] >= k]
        if len(kept) == len(records):
            break
        records = kept
    if not records:
        raise EmptyAfterFilterError(f"no interactions survive {k}-core filtering")
    return RawInteractions(list(records))


def _per_user_records(raw: RawInteractions, user_index, item_index):
    """Group records by user index; within a user, order by (timestamp, item
    index) so the pre-shuffle order is canonical."""
    by_user: list[list[tuple[int, int]]] = [[] for _ in range(len(user_index))]
    for u, i, ts in raw.records:
        by_user[user_index[u]].append((ts, item_index[i]))
    for lst in by_user:
        lst.sort()
    return by_user


def split_dataset(raw: RawInteractions, ratios: tuple[float, float, float],
                  seed: int, strategy: str = "random") -> Dataset:
    """Assign dense indices and partition interactions into train/val/test."""
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError(f"ratios must be three nonnegative fractions, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios} (sum {sum(ratios)!r})")
    if strategy not in ("random", "temporal-leave-one-out"):
        raise ConfigError(f"unknown split strategy '{strategy}'")

    user_keys = sorted({u for u, _, _ in raw.records})
    item_keys = sorted({i for _, i, _ in raw.records})
    user_index = {u: n for n, u in enumerate(user_keys)}
    item_index = {i: n for n, i in enumerate(item_keys)}
    by_user = _per_user_records(raw, user_index, item_index)

    train: list[tuple[int, int]] = []
    val: list[tuple[int, int]] = []
    test: list[tuple[int, int]] = []

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
        train, val, test = _repair_item_orphans(train, val, test, len(item_keys))

    def as_array(pairs):
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(pairs, dtype=np.int64)

    ds = Dataset(num_users=len(user_keys), num_items=len(item_keys),
                 train=as_array(train), val=as_array(val), test=as_array(test),
                 user_keys=user_keys, item_keys=item_keys,
                 user_index=user_index, item_index=item_index)
    _check_partition(ds, len(raw.records), strategy)
    return ds


def _repair_item_orphans(train, val, test, num_items):
    """Move one held-out interaction back to train for any item with no
    training presence; donor is the user with the most training rows."""
    train_deg = np.zeros(num_items, dtype=np.int64)
    for _, i in train:
        train_deg[i] += 1
    orphans = {i for i in range(num_items) if train_deg[i] == 0}
    if not orphans:
        return train, val, test
    user_train = {}
    for u, _ in train:
        user_train[u] = user_train.get(u, 0) + 1
    for item in sorted(orphans):
        candidates = []
        for split_rank, pool in ((0, val), (1, test)):
            for pos, (u, i) in enumerate(pool):
                if i == item:
                    candidates.append((-user_train.get(u, 0), u, split_rank, pos))
        if not candidates:  # unreachable: every index comes from some record
            raise DataError(f"item index {item} appears in no split")
        candidates.sort()
        _, u, split_rank, pos = candidates[0]
        pool = val if split_rank == 0 else test
        moved = pool.pop(pos)
        train.append(moved)
        user_train[moved[0]] = user_train.get(moved[0], 0) + 1
    return train, val, test


def _check_partition(ds: Dataset, total: int, strategy: str) -> None:
    n = len(ds.train) + len(ds.val) + len(ds.test)
    if n != total:
        raise DataError(f"splits hold {n} interactions, expected {total}")
    pairs = np.concatenate([ds.train, ds.val, ds.test])
    _, first = np.unique(pairs[:, 0] * ds.num_items + pairs[:, 1], return_index=True)
    if first.size != len(pairs):
        repeated = np.ones(len(pairs), dtype=bool)
        repeated[first] = False
        u, i = pairs[np.argmax(repeated)]
        raise DataError(f"interaction ({u},{i}) appears in two splits")
    missing = np.flatnonzero(np.bincount(ds.train[:, 0], minlength=ds.num_users) == 0)
    if missing.size:
        raise DataError(f"users without a train interaction: {missing[:5].tolist()}")
    if strategy == "random":
        if np.any(ds.item_train_degree == 0):
            bad = np.flatnonzero(ds.item_train_degree == 0)
            raise DataError(f"items without a train interaction: {bad[:5].tolist()}")


def write_manifest(path, entries: dict) -> None:
    """Write a `key = value` reproducibility manifest, one entry per line."""
    lines = [f"{k} = {entries[k]}\n" for k in entries]
    Path(path).write_text("".join(lines), encoding="utf-8")


def read_manifest(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_splits(ds: Dataset, out_dir) -> None:
    """Materialize split index pairs and the index->key maps."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("train", "val", "test"):
        arr = ds.split(name)
        with open(out / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for u, i in arr:
                fh.write(f"{u}\t{i}\n")
    with open(out / "users.tsv", "w", encoding="utf-8") as fh:
        for n, key in enumerate(ds.user_keys):
            fh.write(f"{n}\t{key}\n")
    with open(out / "items.tsv", "w", encoding="utf-8") as fh:
        for n, key in enumerate(ds.item_keys):
            fh.write(f"{n}\t{key}\n")
