import struct

import numpy as np
import pytest

from alignrec.data import RawInteractions, split_dataset
from alignrec.errors import DataError, DimensionError, ParseError
from alignrec.features import (FeatureMatrix, align_features, load_features,
                               read_item_list, save_features, unit_rows,
                               write_item_list)


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
    raw = RawInteractions.from_records([("u0", "iA", 0), ("u0", "iB", 1),
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
