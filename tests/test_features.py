import struct
import tracemalloc

import numpy as np
import pytest

from alignrec import features
from alignrec.data import split_dataset
from alignrec.errors import DataError, DimensionError, ParseError
from alignrec.features import (FeatureMatrix, align_features, load_features,
                               read_item_list, save_features, unit_rows,
                               write_item_list)

from oracles import raw_from_records


def test_small_roundtrip(tmp_path):
    path = tmp_path / "f.afea"
    save_features(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    feat = load_features(path, expected_items=2)
    assert feat.rows == 2 and feat.dim == 3
    assert feat.data[1, 2] == 6.0


def test_row_count_mismatch(tmp_path):
    path = tmp_path / "f.afea"
    save_features(path, np.zeros((5, 2)) + 1.0)
    with pytest.raises(DimensionError):
        load_features(path, expected_items=7)


def test_random_roundtrip_bit_identical(tmp_path, rng):
    matrix = rng.normal(size=(100, 768))
    path = tmp_path / "f.afea"
    save_features(path, matrix)
    feat = load_features(path, expected_items=100)
    assert np.array_equal(feat.data, matrix)
    # writing the loaded matrix again reproduces the file byte for byte
    path2 = tmp_path / "g.afea"
    save_features(path2, feat.data)
    assert path.read_bytes() == path2.read_bytes()


def test_nonfinite_entry_names_row(tmp_path):
    matrix = np.ones((4, 3))
    matrix[2, 1] = np.nan
    path = tmp_path / "f.afea"
    save_features(path, matrix)
    with pytest.raises(DataError, match="row 2"):
        load_features(path, expected_items=4)


@pytest.mark.parametrize("value, message", [
    (np.inf, "non-finite feature value in row 70"),
    (1e200, "overflowing L2 norm of the feature row for item 70"),
    (1e154, "overflowing L2 norm of the feature row for item 70"),  # only the sum overflows
])
def test_row_with_infinite_norm_rejected(value, message):
    matrix = np.ones((100, 3))
    matrix[70, 1:] = value
    with np.errstate(all="raise"):
        with pytest.raises(DataError, match=f"^{message}$"):
            FeatureMatrix(matrix)
    matrix[70, 1:] = 1e153  # large squares with a finite sum pass
    FeatureMatrix(matrix)


def test_bad_magic(tmp_path):
    path = tmp_path / "f.afea"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(ParseError):
        load_features(path, expected_items=1)


def test_oversized_header_rejected_before_reading(tmp_path):
    path = tmp_path / "f.afea"
    path.write_bytes(struct.pack("<4sIQQ", b"AFEA", 1, 1, 2 ** 58) + b"\x00" * 64)
    with pytest.raises(ParseError, match="payload"):
        load_features(path, expected_items=1)


def test_truncated_at_every_offset(tmp_path):
    full = tmp_path / "full.afea"
    save_features(full, np.arange(6, dtype=np.float64).reshape(2, 3) + 1.0)
    blob = full.read_bytes()
    path = tmp_path / "cut.afea"
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(ParseError):
            load_features(path, expected_items=2)


def test_truncated_payload_names_claimed_and_left_bytes(tmp_path):
    path = tmp_path / "f.afea"
    save_features(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError, match=r"f\.afea: truncated payload: 48 bytes claimed, 43 left$"):
        load_features(path, expected_items=2)


def test_trailing_bytes_rejected(tmp_path):
    # a header that understates dim would otherwise load every row shifted
    path = tmp_path / "f.afea"
    save_features(path, np.arange(12, dtype=np.float64).reshape(3, 4) + 1.0)
    blob = bytearray(path.read_bytes())
    blob[16:24] = struct.pack("<Q", 3)  # dim
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=r"f\.afea: 24 bytes after the payload$"):
        load_features(path, expected_items=3)
    save_features(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="1 bytes after the payload"):
        load_features(path, expected_items=2)


def _tiny_ds():
    raw = raw_from_records([("u0", "iA", 0), ("u0", "iB", 1),
                            ("u1", "iA", 2), ("u1", "iB", 3)])
    return split_dataset(raw, (1.0, 0.0, 0.0), seed=0)


def test_align_reorders_and_drops_extras(caplog):
    ds = _tiny_ds()  # item order: iA=0, iB=1
    feat = FeatureMatrix(np.array([[1.0], [2.0], [3.0]]))
    aligned = align_features(feat, ["iB", "iZ", "iA"], ds)
    assert aligned.data[:, 0].tolist() == [3.0, 1.0]


def test_align_missing_row_is_error():
    ds = _tiny_ds()
    feat = FeatureMatrix(np.array([[1.0]]))
    with pytest.raises(DataError, match="iB"):
        align_features(feat, ["iA"], ds)


def test_item_list_roundtrip(tmp_path):
    path = tmp_path / "items.txt"
    write_item_list(path, ["iA", "iB", "iC"])
    assert read_item_list(path) == ["iA", "iB", "iC"]


def _unit_rows_whole_matrix(x):
    """unit_rows as one whole-matrix expression, the form the blocked norms
    and the masked divide must reproduce bit for bit."""
    norms = np.linalg.norm(x, axis=1)
    nz = norms > 0.0
    unit = np.zeros_like(x)
    unit[nz] = x[nz] / norms[nz, None]
    return unit, norms, nz


@pytest.mark.parametrize("rows", [1, 7, 511, 512, 513, 1300])
def test_unit_rows_bytes_match_whole_matrix_expression(rng, rows):
    x = rng.normal(size=(rows, 37)) * 10.0 ** rng.integers(-5, 6, size=(rows, 1))
    x[::7] = 0.0
    x[3::11] = -0.0
    x[5::13, ::2] = -0.0           # rows with some signed zeros
    x[2::9] *= 1e-160              # squares are subnormal or zero
    x[4::17] = 1e-310 * np.sign(x[4::17])  # subnormal rows, which square to zero
    got, want = unit_rows(x), _unit_rows_whole_matrix(x)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _kept_ds(keys, kept):
    """A dataset whose items are `keys[kept]`, two users on each."""
    records = [(f"u{u}", keys[i], u) for i in kept for u in (0, 1)]
    return split_dataset(raw_from_records(records), (1.0, 0.0, 0.0), seed=0)


@pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
@pytest.mark.parametrize("rows, dropped", [(5, 2), (1300, 150), (1537, 1)])
def test_align_in_place_equals_gather(rng, order, rows, dropped):
    # dropped rows interleaved among the kept ones; 512-row blocks crossed
    keys = [f"i{n:05d}" for n in range(rows)]
    kept = np.sort(rng.choice(rows, size=rows - dropped, replace=False))
    ds = _kept_ds(keys, kept)
    file_order = {"sorted": np.arange(rows), "shuffled": rng.permutation(rows),
                  "reversed": np.arange(rows)[::-1]}[order]
    file_keys = [keys[i] for i in file_order]
    x = rng.normal(size=(rows, 6))
    position = {key: n for n, key in enumerate(file_keys)}
    want = x[[position[key] for key in ds.item_keys]]
    data = x.copy()
    aligned = align_features(FeatureMatrix(data), file_keys, ds)
    assert aligned.data.tobytes() == want.tobytes()
    assert np.shares_memory(aligned.data, data)  # consumed, not copied


def test_move_rows_matches_gather_for_any_permutation(rng, monkeypatch):
    # 4-row blocks: many blocks, each with rows set aside for several later ones
    monkeypatch.setattr(features, "_ROWS", 4)
    for _ in range(200):
        total = int(rng.integers(1, 40))
        rows = rng.permutation(total)[:rng.integers(1, total + 1)]
        data = rng.normal(size=(total, 3))
        want = data[rows]
        got = features._move_rows(data, rows)
        assert got.tobytes() == want.tobytes() and np.shares_memory(got, data)


def test_bad_row_of_dropped_item_rejected_at_load(tmp_path):
    keys = ["iA", "iB", "iZ"]
    matrix = np.ones((3, 2))
    matrix[2, 0] = np.nan  # iZ is in no interaction
    save_features(tmp_path / "f.afea", matrix)
    with pytest.raises(DataError, match="^non-finite feature value in row 2$"):
        align_features(load_features(tmp_path / "f.afea", 3), keys, _tiny_ds())


def test_align_read_only_input_is_error_and_untouched():
    x = np.array([[1.0], [2.0], [3.0]])
    x.flags.writeable = False
    with pytest.raises(DataError, match="read-only"):
        align_features(FeatureMatrix(x), ["iB", "iZ", "iA"], _tiny_ds())
    assert x[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_load_and_align_in_dataset_order_hold_the_payload_once(tmp_path, rng):
    # the loaded matrix (12.3 MB), aligned in place: one 512-row block of
    # moved rows (0.13x) beside it, never a second copy
    keys = [f"i{n:05d}" for n in range(4000)]
    kept = np.sort(rng.choice(4000, size=3900, replace=False))
    ds = _kept_ds(keys, kept)
    payload = rng.normal(size=(4000, 384))
    save_features(tmp_path / "f.afea", payload)
    tracemalloc.start()
    try:
        aligned = align_features(load_features(tmp_path / "f.afea", 4000), keys, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aligned.data.tobytes() == payload[kept].tobytes()
    assert peak <= 1.2 * payload.nbytes
