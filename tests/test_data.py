import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignrec.data import (Dataset, RawInteractions, _check_partition, _record_order,
                           items_by_user, kcore_filter, load_interactions, split_dataset,
                           write_manifest)
from alignrec.errors import (AlignRecError, ConfigError, DataError,
                             EmptyAfterFilterError, EmptyInputError, ParseError)

from oracles import (kcore_reference, load_interactions_reference, read_manifest,
                     split_reference)


def _write(tmp_path, text, name="inter.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_duplicate_pair_keeps_earliest(self, tmp_path):
        path = _write(tmp_path, "u1\ti1\t5\nu1\ti1\t3\nu2\ti1\t7\n")
        raw = load_interactions(path)
        assert len(raw) == 2
        assert raw.records()[0] == ("u1", "i1", 3)
        assert raw.records()[1] == ("u2", "i1", 7)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "# header\nu1\ti1\t0\n\nu2\ti2\t1\n")
        assert len(load_interactions(path)) == 2

    def test_malformed_timestamp_names_line(self, tmp_path):
        path = _write(tmp_path, "u1\ti1\tabc\n")
        with pytest.raises(ParseError, match=":1"):
            load_interactions(path)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path, "u1\ti1\t0\nu2\ti2\n")
        with pytest.raises(ParseError, match=":2"):
            load_interactions(path)

    def test_negative_timestamp_rejected(self, tmp_path):
        path = _write(tmp_path, "u1\ti1\t-4\n")
        with pytest.raises(ParseError):
            load_interactions(path)

    def test_timestamp_beyond_int64_rejected(self, tmp_path):
        path = _write(tmp_path, "u1\ti1\t0\nu1\ti2\t9223372036854775808\n")
        with pytest.raises(ParseError, match=":2"):
            load_interactions(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("bad_line", [1, 2, 2999])
    def test_non_utf8_byte_names_line(self, tmp_path, newline, bad_line):
        # far more than the decoder's read-ahead, so the byte is found early
        lines = [b"u%d\ti%d\t%d" % (n, n, n) for n in range(3000)]
        lines[bad_line - 1] = b"u\xff\ti\t0"
        path = tmp_path / "inter.tsv"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError, match=f"inter.tsv:{bad_line}: byte 0xff is not UTF-8"):
            load_interactions(path)

    def test_non_utf8_byte_from_pipe_names_file(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"u1\ti1\t0\nu\xff\ti\t1\n")
            os.close(write_end)
            with pytest.raises(ParseError,
                               match=f"/dev/fd/{read_end}:2: byte 0xff is not UTF-8"):
                load_interactions(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "# nothing here\n")
        with pytest.raises(EmptyInputError):
            load_interactions(path)

    def test_key_tables_follow_sorted_order(self, tmp_path):
        # non-ASCII, case-only differences, trailing NULs and very long keys
        long_key = "k" * 10_001
        users = ["Zoë", "zoë", "ZOË", "émile", "u", "u\x00", "u\x00\x00", long_key]
        items = ["item", "Item", "item\x00", "item\x00\x00", "日本", "ß", long_key + "z"]
        pairs = [(u, i) for u in users for i in items]
        order = np.random.default_rng(0).permutation(len(pairs))
        path = _write(tmp_path, "".join(f"{pairs[n][0]}\t{pairs[n][1]}\t{n}\n" for n in order))
        ds = split_dataset(kcore_filter(load_interactions(path), 1), (1.0, 0.0, 0.0), seed=0)
        assert ds.user_keys == sorted(set(users))
        assert ds.item_keys == sorted(set(items))
        assert ds.item_index["item\x00"] != ds.item_index["item\x00\x00"]
        assert ds.user_index["u\x00"] != ds.user_index["u\x00\x00"]
        assert {(ds.user_keys[u], ds.item_keys[i]) for u, i in ds.train} == set(pairs)


# text pieces that the column parse and the per-line rules must read alike
_KEY_CHARS = st.sampled_from(["u", "i", "Z", "é", "日", "ß", " ", "#", "+", "-", "_", "1",
                              "٣", "\x00", "\u3000", "\ufeff", "\x1c", "\x0b"])
_KEYS = st.one_of(st.text(_KEY_CHARS, max_size=9),
                  st.text(_KEY_CHARS, max_size=3).map(lambda k: k + "\x00" * 2),
                  st.builds(lambda c, n: c * n, _KEY_CHARS, st.integers(1000, 1100)))
_STAMPS = st.one_of(
    st.sampled_from(["+5", "1_000", " 7", "7 ", "\u30007", "-0", "٣", "0", "007",
                     "1000000000000000000", "9223372036854775807",
                     "0009223372036854775807", "00000000000000000012"]),
    st.integers(0, 2 ** 63 - 1).map(str))
_BAD_STAMPS = st.sampled_from(["", "-4", "x", "1__0", "9223372036854775808",
                               "9999999999999999999", "10000000000000000000"])
_SKIPPED = st.sampled_from(["", " ", "\u3000", "\t\t", " \t \t ", "#", "# note",
                            "#u\ti\t5", "#u\ti\tx"])
_BAD_LINES = st.one_of(st.tuples(_KEYS, _KEYS, _BAD_STAMPS).map("\t".join),
                       st.sampled_from(["u\ti", "u\ti\t1\t2", "\ufeff", " #u\ti\t5", "x"]))


@st.composite
def _logs(draw):
    """Bytes of an interaction log mixing records, comments and blank lines,
    LF, CRLF and lone-CR line ends, maybe a BOM, and maybe one malformed
    line or one byte that is not UTF-8."""
    record = st.tuples(_KEYS, _KEYS, _STAMPS).map("\t".join)
    lines = draw(st.lists(st.one_of(record, record, _SKIPPED), max_size=12))
    if draw(st.sampled_from(range(3))) == 1:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINES))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    blob = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    if draw(st.sampled_from(range(8))) == 1:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob


def _outcome(parse, path):
    try:
        raw = parse(path)
    except AlignRecError as exc:
        return type(exc), str(exc)
    return (raw.user_keys, raw.item_keys, raw.users.dtype, raw.users.tobytes(),
            raw.items.dtype, raw.items.tobytes(), raw.timestamps.dtype, raw.timestamps.tobytes())


@given(_logs())
@settings(max_examples=300, deadline=None)
def test_load_matches_line_reference(tmp_path_factory, blob):
    """The column parse accepts what the per-line reference accepts, with the
    same columns and key tables, and rejects the rest with its message."""
    path = tmp_path_factory.mktemp("log") / "inter.tsv"
    path.write_bytes(blob)
    assert _outcome(load_interactions, path) == _outcome(load_interactions_reference, path)


@pytest.mark.parametrize("seed", range(3))
def test_collapse_keeps_first_appearance_and_earliest_timestamp(seed):
    # thousands of records over a few hundred pairs, far past the size where
    # numpy's default sort is an insertion sort, so ties in the pair key do
    # reorder and the first appearance must come from the record index
    rng = np.random.default_rng(seed)
    n = 6000
    users, items = rng.integers(30, size=n), rng.integers(12, size=n)
    stamps = rng.choice([0, 5, 2 ** 63 - 1, int(rng.integers(2 ** 62))], size=n)
    records = [(f"u{u:02d}", f"i{i:02d}", int(t)) for u, i, t in zip(users, items, stamps)]
    want = {}
    for user, item, ts in records:
        want[user, item] = min(want.get((user, item), ts), ts)
    assert RawInteractions.from_records(records).records() == [(u, i, ts) for (u, i), ts in want.items()]


def _random_raw(rng, num_users, num_items, density):
    records = []
    ts = 0
    for u in range(num_users):
        for i in range(num_items):
            if rng.random() < density:
                records.append((f"u{u}", f"i{i}", ts))
                ts += 1
    return records


class TestKcore:
    def test_star_graph_below_threshold(self):
        raw = RawInteractions.from_records([("u0", f"i{k}", k) for k in range(3)])
        with pytest.raises(EmptyAfterFilterError):
            kcore_filter(raw, 5)

    def test_two_pass_pruning_matches_reference(self):
        # u0 touches 3 items; dropping i3 (degree 1) pushes u2 below k=2
        records = [
            ("u0", "i0", 0), ("u0", "i1", 1), ("u0", "i2", 2),
            ("u1", "i0", 3), ("u1", "i1", 4),
            ("u2", "i2", 5), ("u2", "i3", 6),
        ]
        got = kcore_filter(RawInteractions.from_records(records), 2).records()
        assert got == kcore_reference(records, 2)
        users = {u for u, _, _ in got}
        assert "u2" not in users

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            kcore_filter(RawInteractions.from_records([("u", "i", 0)]), 0)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_and_idempotent(self, seed, k):
        rng = np.random.default_rng(seed)
        records = _random_raw(rng, 8, 8, 0.35)
        raw = RawInteractions.from_records(records)
        expected = kcore_reference(records, k)
        try:
            got = kcore_filter(raw, k)
        except EmptyAfterFilterError:
            assert expected == []
            return
        assert got.records() == expected
        assert kcore_filter(got, k).records() == got.records()
        user_count = {}
        item_count = {}
        for u, i, _ in got.records():
            user_count[u] = user_count.get(u, 0) + 1
            item_count[i] = item_count.get(i, 0) + 1
        assert min(user_count.values()) >= k
        assert min(item_count.values()) >= k


class TestSplit:
    def _user_raw(self, n, user="u0"):
        return RawInteractions.from_records([(user, f"i{k:02d}", k) for k in range(n)])

    def test_exact_ratio_divisibility(self):
        # one user cannot satisfy the item-coverage invariant alone; use 3
        # users over 10 shared items so holding out still leaves train rows
        records = []
        for u in range(3):
            for k in range(10):
                records.append((f"u{u}", f"i{k:02d}", k))
        ds = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=7)
        per_user_train = np.bincount(ds.train[:, 0], minlength=3)
        per_user_val = np.bincount(ds.val[:, 0], minlength=3) if len(ds.val) else np.zeros(3)
        per_user_test = np.bincount(ds.test[:, 0], minlength=3) if len(ds.test) else np.zeros(3)
        assert list(per_user_train) == [8, 8, 8]
        assert list(per_user_val) == [1, 1, 1]
        assert list(per_user_test) == [1, 1, 1]

    def test_two_interactions_forced_to_train(self):
        records = [("u0", "iA", 0), ("u0", "iB", 1),
                   ("u1", "iA", 2), ("u1", "iB", 3)]
        ds = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=3)
        assert len(ds.train) == 4
        assert len(ds.val) == 0 and len(ds.test) == 0

    def test_temporal_holds_out_max_timestamp(self):
        raw = RawInteractions.from_records([("u0", "iA", 5), ("u0", "iB", 9), ("u0", "iC", 2)])
        ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=0,
                           strategy="temporal-leave-one-out")
        assert len(ds.test) == 1
        held = ds.item_keys[ds.test[0, 1]]
        assert held == "iB"
        assert len(ds.train) == 2 and len(ds.val) == 0

    def test_temporal_single_interaction_stays_in_train(self):
        raw = RawInteractions.from_records([("u0", "iA", 0), ("u1", "iA", 1), ("u1", "iB", 2)])
        ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=0,
                           strategy="temporal-leave-one-out")
        u0 = ds.user_index["u0"]
        assert any(u == u0 for u, _ in ds.train)

    def test_determinism(self, rng):
        records = _random_raw(rng, 10, 12, 0.5)
        a = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=11)
        b = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=11)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)
        assert a.user_keys == b.user_keys and a.item_keys == b.item_keys

    def test_different_seed_changes_split(self, rng):
        records = _random_raw(rng, 10, 12, 0.5)
        a = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=11)
        b = split_dataset(RawInteractions.from_records(records), (0.8, 0.1, 0.1), seed=12)
        assert not (np.array_equal(a.train, b.train) and np.array_equal(a.val, b.val))

    def test_bad_ratios(self):
        raw = self._user_raw(5)
        with pytest.raises(ConfigError):
            split_dataset(raw, (0.8, 0.1, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (0.8, math.nan, 0.1),
                                        (math.inf, 0.0, 0.0)])
    def test_non_finite_ratios_rejected(self, ratios):
        # every comparison with NaN is false, so a sum or sign check alone passes it
        with pytest.raises(ConfigError, match="finite"):
            split_dataset(self._user_raw(5), ratios, seed=0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        records = _random_raw(rng, 9, 11, 0.45)
        raw = RawInteractions.from_records(records)
        try:
            filtered = kcore_filter(raw, 2)
        except EmptyAfterFilterError:
            return
        ds = split_dataset(filtered, (0.8, 0.1, 0.1), seed=seed)
        total = len(ds.train) + len(ds.val) + len(ds.test)
        assert total == len(filtered)
        pairs = [tuple(p) for arr in (ds.train, ds.val, ds.test) for p in arr]
        assert len(set(pairs)) == total
        assert set(np.unique(ds.train[:, 0])) == set(range(ds.num_users))
        assert set(np.unique(ds.train[:, 1])) == set(range(ds.num_items))


def test_split_matches_per_record_reference():
    repaired = []

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([(0.8, 0.1, 0.1), (0.4, 0.3, 0.3), (0.2, 0.4, 0.4),
                            (0.0, 0.5, 0.5)]),
           st.sampled_from(["random", "temporal-leave-one-out"]))
    # an instance the repair moves one interaction of, so every run exercises it
    @example(0, 3, 4, (0.0, 0.5, 0.5), "random")
    @settings(max_examples=80, deadline=None)
    def check(seed, num_users, num_items, ratios, strategy):
        # small dense corpora with timestamp ties, in shuffled record order
        rng = np.random.default_rng(seed)
        records = [(f"u{u}", f"i{i}", int(rng.integers(3)))
                   for u in range(num_users) for i in range(num_items) if rng.random() < 0.6]
        if not records:
            return
        records = [records[n] for n in rng.permutation(len(records))]
        user_keys, item_keys, train, val, test, moved = split_reference(
            records, ratios, seed, strategy)
        ds = split_dataset(RawInteractions.from_records(records), ratios, seed, strategy)
        assert ds.user_keys == user_keys and ds.item_keys == item_keys
        for got, want in ((ds.train, train), (ds.val, val), (ds.test, test)):
            want = np.asarray(want, dtype=np.int64).reshape(-1, 2)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        repaired.append(moved)

    check()
    # the orphan repair must have been exercised
    assert any(repaired)


# timestamps over the whole int64 range, drawn often from a few values so
# records tie within a user and across users
_INT_STAMPS = st.one_of(st.sampled_from([0, 1, 2 ** 31, 2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1]),
                    st.integers(0, 2 ** 63 - 1))


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), _INT_STAMPS), max_size=40),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_record_order_is_the_three_key_lexsort(triples, seed):
    # coded columns as they come, repeated triples included, in shuffled order
    rows = np.array(triples, dtype=np.int64).reshape(-1, 3)
    rows = rows[np.random.default_rng(seed).permutation(len(rows))]
    users, items, stamps = rows.T
    raw = RawInteractions([f"u{u}" for u in range(6)], [f"i{i}" for i in range(7)],
                          users.copy(), items.copy(), stamps.copy())
    order = _record_order(raw)
    want = np.lexsort((items, stamps, users))
    assert np.array_equal(np.sort(order), np.arange(len(rows)))
    assert np.array_equal(rows[order], rows[want])


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), _INT_STAMPS),
                min_size=1, max_size=40, unique_by=lambda r: r[:2]),
       st.integers(0, 2 ** 31 - 1),
       st.sampled_from([(0.8, 0.1, 0.1), (0.4, 0.3, 0.3), (0.0, 0.5, 0.5)]),
       st.sampled_from(["random", "temporal-leave-one-out"]))
@settings(max_examples=150, deadline=None)
def test_split_of_full_range_timestamps_matches_reference(triples, seed, ratios, strategy):
    rng = np.random.default_rng(seed)
    records = [(f"u{u}", f"i{i}", ts) for u, i, ts in triples]
    records = [records[n] for n in rng.permutation(len(records))]
    user_keys, item_keys, train, val, test, _ = split_reference(records, ratios, seed, strategy)
    ds = split_dataset(RawInteractions.from_records(records), ratios, seed, strategy)
    assert ds.user_keys == user_keys and ds.item_keys == item_keys
    for got, want in ((ds.train, train), (ds.val, val), (ds.test, test)):
        want = np.asarray(want, dtype=np.int64).reshape(-1, 2)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_temporal_tie_at_the_largest_timestamp_holds_out_the_higher_item():
    top = 2 ** 63 - 1
    raw = RawInteractions.from_records([("u0", "iB", top), ("u0", "iC", top), ("u0", "iA", 0),
                                        ("u1", "iC", top), ("u1", "iA", top)])
    ds = split_dataset(raw, (0.8, 0.1, 0.1), seed=0, strategy="temporal-leave-one-out")
    assert ds.test.tolist() == [[0, 2], [1, 2]]
    assert ds.train.tolist() == [[0, 0], [0, 1], [1, 0]]


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_kcore_codes_are_np_unique_inverse(seed, k):
    rng = np.random.default_rng(seed)
    raw = RawInteractions.from_records(_random_raw(rng, 9, 9, 0.4))
    rows = np.arange(len(raw))
    while True:
        users, items = raw.users[rows], raw.items[rows]
        keep = (np.bincount(users)[users] >= k) & (np.bincount(items)[items] >= k)
        if keep.all():
            break
        rows = rows[keep]
    if not rows.size:
        return
    got = kcore_filter(raw, k)
    for codes, table, new, new_table in ((users, raw.user_keys, got.users, got.user_keys),
                                         (items, raw.item_keys, got.items, got.item_keys)):
        kept, inverse = np.unique(codes, return_inverse=True)
        assert new.dtype == np.int64 and np.array_equal(new, inverse)
        assert new_table == [table[c] for c in kept.tolist()]
    assert np.array_equal(got.timestamps, raw.timestamps[rows])


def _hand_built(num_users, num_items, train, val, test):
    as_pairs = lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    return Dataset(num_users=num_users, num_items=num_items, train=as_pairs(train),
                   val=as_pairs(val), test=as_pairs(test),
                   user_keys=[f"u{u}" for u in range(num_users)],
                   item_keys=[f"i{i}" for i in range(num_items)],
                   user_index={f"u{u}": u for u in range(num_users)},
                   item_index={f"i{i}": i for i in range(num_items)})


class TestCheckPartition:
    def test_pair_in_two_splits_names_first_repeat_in_scan_order(self):
        # (1,1) repeats in val before (0,0) repeats in test; sorted order
        # would name (0,0) first
        ds = _hand_built(2, 3, [[0, 0], [1, 1], [0, 2], [1, 2]], [[1, 1]], [[0, 0]])
        with pytest.raises(DataError, match=r"interaction \(1,1\) appears in two splits"):
            _check_partition(ds, 6, "random")

    def test_first_repeat_in_scan_order_among_several(self):
        # (2,0) repeats inside train, then (0,1) and (1,2) across splits; both
        # later ones sort before or after it, and only the scan order names it
        ds = _hand_built(3, 3, [[1, 2], [2, 0], [0, 1], [2, 0]], [[0, 1]], [[1, 2]])
        with pytest.raises(DataError, match=r"^interaction \(2,0\) appears in two splits$"):
            _check_partition(ds, 6, "random")

    def test_user_without_train_row(self):
        ds = _hand_built(3, 2, [[0, 0], [1, 1]], [[2, 0]], [])
        with pytest.raises(DataError, match=r"users without a train interaction: \[2\]"):
            _check_partition(ds, 3, "random")

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_pair_loop(self, seed):
        rng = np.random.default_rng(seed)
        num_users, num_items = 6, 5
        keys = rng.choice(num_users * num_items, size=20, replace=False)
        pairs = np.stack([keys // num_items, keys % num_items], axis=1)
        if seed % 2:
            pairs[rng.integers(10, 20)] = pairs[rng.integers(0, 10)]
        cut = np.sort(rng.choice(np.arange(8, 20), size=2, replace=False))
        train, val, test = np.split(pairs, cut)
        want = None
        seen = set()
        for u, i in pairs:
            if (u, i) in seen:
                want = f"interaction ({u},{i}) appears in two splits"
                break
            seen.add((u, i))
        if want is None:
            missing = sorted(set(range(num_users)) - {int(u) for u in train[:, 0]})
            want = f"users without a train interaction: {missing[:5]}" if missing else None
        ds = _hand_built(num_users, num_items, train, val, test)
        try:
            _check_partition(ds, len(pairs), "temporal-leave-one-out")
            got = None
        except DataError as exc:
            got = str(exc)
        assert got == want


def test_items_by_user_matches_per_edge_loop(rng):
    # duplicate pairs, users with no pairs, and no pairs at all
    for num_users, num_items, n in [(1, 1, 1), (7, 5, 20), (40, 30, 300),
                                    (60, 10, 25), (50, 9, 0)]:
        pairs = np.stack([rng.integers(num_users, size=n),
                          rng.integers(num_items, size=n)], axis=1)
        want = [set() for _ in range(num_users)]
        for u, i in pairs:
            want[u].add(int(i))
        indptr, items = items_by_user(pairs, num_users)
        assert indptr.shape == (num_users + 1,) and indptr[0] == 0
        assert [items[indptr[u]:indptr[u + 1]].tolist() for u in range(num_users)] \
            == [sorted(s) for s in want]
        assert items.dtype == np.int64
    indptr, items = items_by_user(np.empty((0, 2), dtype=np.int64), 0)
    assert indptr.tolist() == [0] and items.size == 0


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.txt"
    entries = {"seed": 7, "strategy": "random", "num_users": 19}
    write_manifest(path, entries)
    got = read_manifest(path)
    assert got == {"seed": "7", "strategy": "random", "num_users": "19"}
