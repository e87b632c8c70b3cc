"""Interaction-log ingestion: parsing, k-core filtering, ID remapping, splits.

The pipeline is load_interactions -> kcore_filter -> split_dataset over coded
columns: a RawInteractions holds the sorted tables of the user and item keys
and int64 user-code, item-code and timestamp columns. The codes index the
sorted tables, so they are the dense indices of the Dataset and identical
inputs always produce identical datasets.

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
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binio import read_text
from .errors import (ConfigError, DataError, EmptyAfterFilterError,
                     EmptyInputError, ParseError)

_MAX_TIMESTAMP = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RawInteractions:
    """Deduplicated records as coded columns, in first-appearance order.

    `user_keys` and `item_keys` are in `sorted()` order and every key is used
    by some record. Record n is user `user_keys[users[n]]` and item
    `item_keys[items[n]]` at `timestamps[n]`; all three columns are int64.
    """

    user_keys: list[str]
    item_keys: list[str]
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @classmethod
    def from_records(cls, records) -> "RawInteractions":
        """Build from (user_key, item_key, timestamp) tuples."""
        users, items, stamps = zip(*records) if records else ((), (), ())
        return _from_columns(users, items, stamps)

    def records(self) -> list[tuple[str, str, int]]:
        """The (user_key, item_key, timestamp) tuples in record order."""
        return list(zip(map(self.user_keys.__getitem__, self.users.tolist()),
                        map(self.item_keys.__getitem__, self.items.tolist()),
                        self.timestamps.tolist()))


def _code(keys) -> tuple[list[str], np.ndarray]:
    """The sorted table of distinct keys and each key's index in it."""
    table = sorted(set(keys))
    index = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


def _from_columns(users, items, stamps) -> RawInteractions:
    """Code the key columns and collapse repeated (user, item) pairs to one
    record carrying the earliest timestamp, at the pair's first appearance."""
    user_keys, user_codes = _code(users)
    item_keys, item_codes = _code(items)
    stamps = np.asarray(stamps, dtype=np.int64)
    _, first, inverse = np.unique(user_codes * len(item_keys) + item_codes,
                                  return_index=True, return_inverse=True)
    earliest = np.full(first.size, _MAX_TIMESTAMP)
    np.minimum.at(earliest, inverse, stamps)
    keep = np.sort(first)
    return RawInteractions(user_keys, item_keys, user_codes[keep], item_codes[keep],
                           earliest[inverse[keep]])


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
    users, items, stamps = [], [], array("q")
    # one string object per distinct key, however often it repeats
    user_strs, item_strs = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
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
                if not 0 <= ts <= _MAX_TIMESTAMP:
                    what = "negative" if ts < 0 else "out-of-range"
                    raise ParseError(f"{path}:{lineno}: {what} timestamp {ts}")
                users.append(user_strs.setdefault(user, user))
                items.append(item_strs.setdefault(item, item))
                stamps.append(ts)
        except UnicodeDecodeError:
            # the decoder reads ahead, so reread to name the line (a pipe rereads empty)
            read_text(path, ParseError)
            raise ParseError(f"{path}: not UTF-8 text") from None
    if not users:
        raise EmptyInputError(f"{path}: no interaction records")
    return _from_columns(users, items, stamps)


def check_split(k_core=None, ratios=None, strategy=None, seed=None) -> None:
    """Raise ConfigError for a split setting out of range; None skips a
    setting."""
    if k_core is not None and k_core < 1:
        raise ConfigError(f"k-core threshold must be >= 1, got {k_core}")
    # the chained form is false for NaN, so NaN and inf both fail
    if ratios is not None and (len(ratios) != 3
                               or not all(0 <= r < math.inf for r in ratios)):
        raise ConfigError(f"ratios must be three finite nonnegative fractions, got {ratios}")
    if ratios is not None and abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios} (sum {sum(ratios)!r})")
    if strategy is not None and strategy not in ("random", "temporal-leave-one-out"):
        raise ConfigError(f"unknown split strategy '{strategy}'")
    if seed is not None and seed < 0:
        raise ConfigError(f"split seed must be >= 0, got {seed}")


def kcore_filter(raw: RawInteractions, k: int) -> RawInteractions:
    """Iteratively drop users and items with fewer than k interactions until
    every survivor has at least k."""
    check_split(k_core=k)
    rows = np.arange(len(raw))
    while True:
        users, items = raw.users[rows], raw.items[rows]
        keep = (np.bincount(users)[users] >= k) & (np.bincount(items)[items] >= k)
        if keep.all():
            break
        rows = rows[keep]
    if not rows.size:
        raise EmptyAfterFilterError(f"no interactions survive {k}-core filtering")
    # codes follow sorted-key order, so compacting the tables keeps it
    user_codes, users = np.unique(users, return_inverse=True)
    item_codes, items = np.unique(items, return_inverse=True)
    return RawInteractions([raw.user_keys[c] for c in user_codes.tolist()],
                           [raw.item_keys[c] for c in item_codes.tolist()],
                           users.astype(np.int64), items.astype(np.int64),
                           raw.timestamps[rows])


def split_dataset(raw: RawInteractions, ratios: tuple[float, float, float],
                  seed: int, strategy: str = "random") -> Dataset:
    """Partition interactions into train/val/test; the dense indices are the
    codes of `raw`."""
    check_split(ratios=ratios, strategy=strategy, seed=seed)
    num_users, num_items = len(raw.user_keys), len(raw.item_keys)
    # group by user; within a user, order by (timestamp, item) so the
    # pre-shuffle order is canonical
    order = np.lexsort((raw.items, raw.timestamps, raw.users))
    pairs = np.stack([raw.users[order], raw.items[order]], axis=1)
    counts = np.bincount(raw.users, minlength=num_users)
    ends = np.cumsum(counts)
    starts = np.repeat(ends - counts, counts)

    if strategy == "temporal-leave-one-out":
        # the latest record of every user with more than one is held out
        held = np.zeros(len(pairs), dtype=bool)
        held[ends[counts > 1] - 1] = True
        train, val, test = pairs[~held], pairs[:0], pairs[held]
    else:
        rng = np.random.default_rng(seed)
        # one permutation per user, drawn in user-index order
        perms = [np.empty(0, dtype=np.int64)] + [rng.permutation(n) for n in counts.tolist()]
        shuffled = pairs[starts + np.concatenate(perms)]
        n_val = np.floor(ratios[1] * counts).astype(np.int64)
        n_test = np.floor(ratios[2] * counts).astype(np.int64)
        # a user whose held-out shares take everything returns one
        # interaction to train, from test if it has any, else from val
        empty = counts - n_val - n_test == 0
        from_test = empty & (n_test > 0)
        n_test -= from_test
        n_val -= empty & ~from_test
        n_train = counts - n_val - n_test
        rank = np.arange(len(pairs)) - starts
        to_train = rank < np.repeat(n_train, counts)
        to_test = rank >= np.repeat(n_train + n_val, counts)
        train, val, test = _repair_item_orphans(
            shuffled[to_train], shuffled[~to_train & ~to_test], shuffled[to_test],
            num_users, num_items)

    ds = Dataset(num_users=num_users, num_items=num_items,
                 train=train, val=val, test=test,
                 user_keys=raw.user_keys, item_keys=raw.item_keys,
                 user_index=dict(zip(raw.user_keys, range(num_users))),
                 item_index=dict(zip(raw.item_keys, range(num_items))))
    _check_partition(ds, len(raw), strategy)
    return ds


def _repair_item_orphans(train, val, test, num_users, num_items):
    """Move one held-out interaction back to train for any item with no
    training presence, orphans in index order. The donor is the user with the
    most training rows at that moment, then the lower user index, then val
    before test, then the earlier row."""
    orphans = np.flatnonzero(np.bincount(train[:, 1], minlength=num_items) == 0)
    if not orphans.size:
        return train, val, test
    user_train = np.bincount(train[:, 0], minlength=num_users)
    # val rows then test rows, so a lower row is val before test, then earlier
    held = np.concatenate([val, test])
    # rows of each orphan item, grouped in orphan order
    rows = np.flatnonzero(np.isin(held[:, 1], orphans))
    rows = rows[np.argsort(held[rows, 1], kind="stable")]
    bounds = np.searchsorted(held[rows, 1], np.append(orphans, num_items))
    moved = []
    # every item is used by some record, so each orphan has a candidate
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        cand = rows[lo:hi]
        u = held[cand, 0]
        best = cand[np.lexsort((cand, u, -user_train[u]))[0]]
        moved.append(best)
        user_train[held[best, 0]] += 1
    live = np.ones(len(held), dtype=bool)
    live[moved] = False
    return (np.concatenate([train, held[moved]]),
            val[live[:len(val)]], test[live[len(val):]])


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


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_splits(ds: Dataset, out_dir) -> None:
    """Materialize split index pairs and the index->key maps."""
    out = Path(out_dir)
    for name in ("train", "val", "test"):
        np.savetxt(out / f"{name}.tsv", ds.split(name), fmt="%d", delimiter="\t")
    for name, keys in (("users", ds.user_keys), ("items", ds.item_keys)):
        with open(out / f"{name}.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(f"{n}\t{key}\n" for n, key in enumerate(keys))
