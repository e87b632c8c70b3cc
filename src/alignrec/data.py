"""Interaction-log ingestion: parsing, k-core filtering, ID remapping, splits.

The pipeline is load_interactions -> kcore_filter -> split_dataset over coded
columns: a RawInteractions holds the sorted tables of the user and item keys
and int64 user-code, item-code and timestamp columns. The codes index the
sorted tables, so they are the dense indices of the Dataset and identical
inputs always produce identical datasets.

Both split strategies start from the records in (user, timestamp, item)
order: one argsort of an int64 key of dense ranks (`_record_order`). The
collapse of repeated pairs, k-core filtering, the splits and their check
sort no record-sized array stably; records that tie on a key are equal.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binio import decode_utf8
from .errors import (ConfigError, DataError, EmptyAfterFilterError,
                     EmptyInputError, ParseError)

_MAX_TIMESTAMP = np.iinfo(np.int64).max
# the most ASCII digits a timestamp column holds: int64 values have up to 19
_TS_DIGITS = 19
# key bytes per sorting word; the word's low byte holds their count
_WORD_BYTES = 7
# bytes per read and per delimiter scan of the log. A file-sized temporary,
# once freed, would raise glibc's mmap threshold to its size, so the parse's
# later arrays would come from the heap and stay resident after it.
_PIECE = 1 << 20


@dataclass(frozen=True)
class RawInteractions:
    """Deduplicated records as coded columns, in first-appearance order.

    `user_keys` and `item_keys` are in `sorted()` order and every key is used
    by some record. Record n is user `user_keys[users[n]]` and item
    `item_keys[items[n]]` at `timestamps[n]`; all three columns are int64.
    `sha256` is the digest of the log a `load_interactions` result was
    parsed from, else None.
    """

    user_keys: list[str]
    item_keys: list[str]
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    sha256: str | None = None

    def __len__(self) -> int:
        return len(self.users)


def _collapse(user_keys, user_codes, item_keys, item_codes, stamps,
              sha256=None) -> RawInteractions:
    """Collapse repeated (user, item) pairs of coded columns to one record
    carrying the earliest timestamp, at the pair's first appearance."""
    stamps = np.asarray(stamps, dtype=np.int64)
    pair = user_codes * len(item_keys) + item_codes
    order = np.argsort(pair)
    groups = np.flatnonzero(np.diff(pair[order], prepend=-1) != 0)
    # a group's least record index is the pair's first appearance
    first = np.minimum.reduceat(order, groups)
    earliest = np.empty_like(stamps)
    earliest[first] = np.minimum.reduceat(stamps[order], groups)
    keep = np.sort(first)
    return RawInteractions(user_keys, item_keys, user_codes[keep], item_codes[keep],
                           earliest[keep], sha256)


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

    def user_train_items(self) -> np.ndarray:
        """The sampler's ban list: sorted distinct train keys user * num_items + item."""
        return sorted_distinct(self.train[:, 0] * self.num_items + self.train[:, 1])


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a nonnegative int array, from one sort and a diff mask."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-1) != 0]


def items_by_user(pairs: np.ndarray, num_users: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct items of each user in an (n, 2) array of (user, item)
    pairs as one CSR pair (indptr, items): user u's items, ascending, are
    items[indptr[u]:indptr[u + 1]]."""
    base = int(pairs[:, 1].max()) + 1 if len(pairs) else 1
    users, items = np.divmod(sorted_distinct(pairs[:, 0] * base + pairs[:, 1]), base)
    return np.searchsorted(users, np.arange(num_users + 1)), items


def load_interactions(path) -> RawInteractions:
    """Parse a UTF-8 TSV of `user_key<TAB>item_key<TAB>timestamp` records.

    Lines end in LF, CRLF or a lone CR. Lines starting with '#' and lines of
    whitespace only are skipped. A timestamp is any text `int()` reads (a
    sign, `_` between digits, surrounding whitespace, non-ASCII digits) with
    a value in [0, 2**63). Duplicate (user, item) pairs collapse to a single
    record carrying the earliest timestamp, ordered by first appearance. The
    key tables are in code-point order, as `sorted()` gives them, and
    `sha256` is the digest of the bytes read.

    The file is read once and parsed as columns of its bytes: the lines with
    two tabs, no leading '#' and a timestamp of at most 19 ASCII digits that
    fits int64. Every other line goes through `_parse_line`, so an error
    names the first bad line.
    """
    path = Path(path)
    blob = bytearray()
    with open(path, "rb") as fh:
        while chunk := fh.read(_PIECE):
            blob += chunk
    digest = hashlib.sha256(blob).hexdigest()
    if not blob.isascii():
        decode_utf8(blob, path, ParseError)
    if b"\r" in blob:
        blob = blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # a final newline (after a complete last line it only adds a blank one),
    # then NULs, so fixed-width windows from any field stay inside the buffer
    blob += b"\n" + bytes(_TS_DIGITS)
    buf = np.frombuffer(blob, dtype=np.uint8)
    starts, tab1, tab2, stamps = _records(buf, path)
    return _collapse(*_code_fields(buf, starts, tab1 - starts),
                     *_code_fields(buf, tab1 + 1, tab2 - tab1 - 1), stamps, digest)


def _records(buf, path):
    """The start, first tab, second tab and timestamp of every record line
    of `buf`, in line order."""
    starts, ends, lines, tab1, tab2 = _split_lines(buf)
    stamps, regular = _digit_stamps(buf, tab2 + 1, ends[lines] - tab2 - 1)
    regular &= buf[starts[lines]] != ord("#")
    # every other nonempty line, through the per-line rules
    odd = np.ones(ends.size, dtype=bool)
    odd[lines[regular]] = False
    odd &= ends > starts
    for n in np.flatnonzero(odd).tolist():
        text = buf[starts[n]:ends[n]].tobytes().decode("utf-8")
        record = _parse_line(text, path, n + 1)
        if record is not None:
            # three fields, so the line is one of `lines`
            at = np.searchsorted(lines, n)
            regular[at], stamps[at] = True, record[2]
    if not regular.any():
        raise EmptyInputError(f"{path}: no interaction records")
    return starts[lines[regular]], tab1[regular], tab2[regular], stamps[regular]


def _split_lines(buf):
    """Start and end (its LF) of every line of `buf`, the lines with exactly
    two tabs, and the positions of their first and second tab."""
    pieces = []
    for lo in range(0, buf.size, _PIECE):
        part = buf[lo:lo + _PIECE]
        pieces.append(np.flatnonzero((part == 9) | (part == 10)) + lo)
    delims = np.concatenate(pieces)
    ends_at = np.flatnonzero(buf[delims] == 10)  # delims index of each line end
    ends = delims[ends_at]
    starts = np.concatenate([[0], ends[:-1] + 1])
    lines = np.flatnonzero(np.diff(ends_at, prepend=-1) == 3)
    return starts, ends, lines, delims[ends_at[lines] - 2], delims[ends_at[lines] - 1]


def _parse_line(line: str, path, lineno: int):
    """A (user, item, timestamp) record, or None for a comment or a blank
    line; a malformed line raises ParseError naming it."""
    if not line.strip() or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
    user, item, ts_text = parts
    try:
        ts = int(ts_text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: timestamp '{ts_text}' is not an integer") from None
    if not 0 <= ts <= _MAX_TIMESTAMP:
        what = "negative" if ts < 0 else "out-of-range"
        raise ParseError(f"{path}:{lineno}: {what} timestamp {ts}")
    return user, item, ts


def _digit_stamps(buf, starts, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The int64 value of each field buf[s:s+n] that is 1 to 19 ASCII digits
    with a value that fits int64, and whether the field is such."""
    values = np.zeros(starts.size, dtype=np.uint64)
    fits = np.zeros(starts.size, dtype=bool)
    windows = _windows(buf, _TS_DIGITS)
    for length in np.flatnonzero(np.bincount(lengths[(lengths >= 1) & (lengths <= _TS_DIGITS)])):
        rows = np.flatnonzero(lengths == length)
        digits = np.ascontiguousarray(windows[starts[rows], :length].T) - np.uint8(ord("0"))
        # 19 digits fit uint64, so the sum cannot wrap
        value = np.zeros(rows.size, dtype=np.uint64)
        ok = np.ones(rows.size, dtype=bool)
        for column in digits:
            ok &= column <= 9
            value = value * np.uint64(10) + column
        ok &= value <= _MAX_TIMESTAMP
        values[rows], fits[rows] = value, ok
    return values.astype(np.int64), fits


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Read-only view whose row s is buf[s:s+width]."""
    return np.lib.stride_tricks.as_strided(buf, shape=(buf.size - width + 1, width),
                                           strides=(1, 1), writeable=False)


def _code_fields(buf, starts, lengths) -> tuple[list[str], np.ndarray]:
    """The sorted table of the distinct UTF-8 fields buf[s:s+n] and each
    field's index in it.

    An MSD radix sort over words of the fields' bytes. A word holds the next
    _WORD_BYTES bytes, zero-padded, over their count, so word order is byte
    order with a prefix first, trailing NULs included; byte order of UTF-8
    is code-point order, the order of `sorted()`. A field's rank is where
    its group of equal fields starts in the sorted order. Only a group of
    two or more whose last word was full reads another word, so a long key
    costs rounds, never width.
    """
    n = starts.size
    rank = np.zeros(n, dtype=np.int64)
    todo = np.arange(n)
    windows, done = _windows(buf, 8), 0
    while todo.size:
        # in place, so each round holds few field-sized arrays at once
        word = windows[starts[todo] + done].view(">u8")[:, 0].astype(np.uint64)
        left = np.minimum(lengths[todo] - done, _WORD_BYTES).astype(np.uint64)
        pad = np.uint64(_WORD_BYTES) - left
        pad *= np.uint64(8)
        word >>= np.uint64(8)
        word >>= pad
        word <<= pad
        word <<= np.uint64(8)
        word |= left
        del left, pad
        order = np.lexsort((word, rank[todo])) if done else np.argsort(word)
        todo = todo[order]
        word = word[order]
        del order
        group = rank[todo]
        # split each group (equal rank) into runs of equal word; a run's
        # rank is its group's plus its offset in the group
        edge = np.ones(todo.size, dtype=bool)
        np.not_equal(group[1:], group[:-1], out=edge[1:])
        groups = np.flatnonzero(edge)
        edge[1:] |= word[1:] != word[:-1]
        runs = np.flatnonzero(edge)
        sizes = np.diff(runs, append=todo.size)
        run_rank = group[runs] + runs - groups[np.searchsorted(groups, runs, "right") - 1]
        del group
        rank[todo] = np.repeat(run_rank, sizes)
        # a run of one is unique; a run whose word was not full has ended
        todo = todo[np.repeat((sizes > 1) & (word[runs] & np.uint64(0xFF) == _WORD_BYTES),
                              sizes)]
        done += _WORD_BYTES
    first = np.zeros(n, dtype=bool)
    first[rank] = True
    codes = np.cumsum(first)
    codes -= 1
    codes = codes[rank]
    holder = np.empty(np.count_nonzero(first), dtype=np.int64)
    holder[codes] = np.arange(n)
    table = [buf[s:s + k].tobytes().decode("utf-8")
             for s, k in zip(starts[holder].tolist(), lengths[holder].tolist())]
    return table, codes


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
        user_deg, item_deg = np.bincount(users), np.bincount(items)
        keep = (user_deg[users] >= k) & (item_deg[items] >= k)
        if keep.all():
            break
        rows = rows[keep]
    if not rows.size:
        raise EmptyAfterFilterError(f"no interactions survive {k}-core filtering")
    # codes follow sorted-key order, so compacting the tables keeps it; the
    # codes in use and their ranks are np.unique's, without its sort
    user_codes, item_codes = np.flatnonzero(user_deg), np.flatnonzero(item_deg)
    return RawInteractions([raw.user_keys[c] for c in user_codes.tolist()],
                           [raw.item_keys[c] for c in item_codes.tolist()],
                           (np.cumsum(user_deg > 0) - 1)[users],
                           (np.cumsum(item_deg > 0) - 1)[items], raw.timestamps[rows])


def _record_order(raw: RawInteractions) -> np.ndarray:
    """The record indices in (user, timestamp, item) order, from one argsort
    of an int64 key of dense ranks. Records with equal keys are equal
    triples, so the sort need not be stable."""
    # every key is used, so each rank and each table size is at most the
    # record count n and each key below n**2: no int64 overflow below 3e9
    # records, far more than a log that fits in memory holds
    _, stamp_rank = np.unique(raw.timestamps, return_inverse=True)
    inner, inner_rank = np.unique(stamp_rank * len(raw.item_keys) + raw.items,
                                  return_inverse=True)
    return np.argsort(raw.users * inner.size + inner_rank)


def split_dataset(raw: RawInteractions, ratios: tuple[float, float, float],
                  seed: int, strategy: str = "random") -> Dataset:
    """Partition interactions into train/val/test; the dense indices are the
    codes of `raw`."""
    check_split(ratios=ratios, strategy=strategy, seed=seed)
    num_users, num_items = len(raw.user_keys), len(raw.item_keys)
    # group by user; within a user, order by (timestamp, item) so the
    # pre-shuffle order is canonical
    order = _record_order(raw)
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
    keys = pairs[:, 0] * ds.num_items + pairs[:, 1]
    if np.any(np.diff(np.sort(keys)) == 0):
        # name the first repeat in scan order
        _, first = np.unique(keys, return_index=True)
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
