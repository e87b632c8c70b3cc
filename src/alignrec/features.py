"""Per-item feature matrices and their binary container format.

File layout (little-endian): magic `AFEA`, u32 format version (=1), u64 rows,
u64 dim, then rows*dim float64 values row-major. Row order follows a sidecar
text file listing item keys one per line.

The matrix is held once: load_features reads the payload into its result,
align_features moves the rows into dataset order within it, and the
rankings take the raw rows with their row_norms.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import check_end, read_array, read_struct, read_text
from .data import Dataset
from .errors import DataError, DimensionError, ParseError
from .sparse import divide_rows

log = logging.getLogger(__name__)

MAGIC = b"AFEA"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
_ROWS = 512  # rows per block of the row-wise passes over a full matrix


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense float64 matrix, row i holding item i's multimodal vector; each
    row's L2 norm is finite (no NaN or infinite value, no overflowing sum)."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionError("feature matrix must be 2-dimensional")
        if self.data.dtype != np.float64:
            raise DataError("feature matrix must be float64")
        for start in range(0, self.rows, _ROWS):
            block = self.data[start:start + _ROWS]
            with np.errstate(over="ignore"):  # an overflowing sum is rejected below
                bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", block, block)))
            if bad.size:
                row = start + int(bad[0])
                if np.isfinite(self.data[row]).all():
                    raise DataError(f"overflowing L2 norm of the feature row for item {row}")
                raise DataError(f"non-finite feature value in row {row}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of `x`, taken _ROWS rows at a time, so no
    temporary the size of `x` is allocated."""
    norms = np.empty(len(x))
    for start in range(0, len(x), _ROWS):
        norms[start:start + _ROWS] = np.linalg.norm(x[start:start + _ROWS], axis=1)
    return norms


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` scaled to unit L2 norm, zero rows left zero; also the
    row norms (so the result is the only full-size array allocated) and the
    mask of nonzero rows. For the loss batch's rows: the rankings take the
    raw rows and their row_norms (sparse.score_top_k)."""
    norms = row_norms(x)
    return divide_rows(x, norms), norms, norms > 0.0


def save_features(path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, matrix.shape[0], matrix.shape[1]))
        fh.write(matrix.astype("<f8").tobytes())


def load_features(path, expected_items: int) -> FeatureMatrix:
    """Read a feature file and check the stated row count."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic, version, rows, dim = read_struct(fh, _HEADER, path, "header")
        if magic != MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise ParseError(f"{path}: unsupported format version {version}")
        if rows != expected_items:
            raise DimensionError(f"{path}: file holds {rows} rows, expected {expected_items}")
        data = read_array(fh, (rows, dim), path, "payload")
        check_end(fh, path)
    return FeatureMatrix(data)


def read_item_list(path) -> list[str]:
    """Sidecar file: one item key per line, order matching the feature rows."""
    keys = [line for line in read_text(path, ParseError).splitlines() if line]
    if not keys:
        raise DataError(f"{path}: empty item list")
    return keys


def write_item_list(path, keys: list[str]) -> None:
    Path(path).write_text("".join(k + "\n" for k in keys), encoding="utf-8")


def align_features(feat: FeatureMatrix, file_keys: list[str], ds: Dataset) -> FeatureMatrix:
    """Reorder feature rows into dataset item-index order, in place.

    Feature rows for items that did not survive filtering are dropped with a
    warning; a surviving item without a feature row is a hard error because
    silently zero-filling it would corrupt the similarity graph.

    Consumes `feat`: the result is a view of the first num_items rows of
    feat.data, whose rows are moved there, so the matrix is held once. The
    caller must not read `feat` afterwards (pass a copy to keep it). A
    read-only array is a DataError before any row moves.
    """
    if len(file_keys) != feat.rows:
        raise DimensionError(
            f"item list has {len(file_keys)} keys but feature file has {feat.rows} rows")
    position = {key: n for n, key in enumerate(file_keys)}
    if len(position) != len(file_keys):
        raise DataError("item list contains duplicate keys")
    missing = [key for key in ds.item_keys if key not in position]
    if missing:
        raise DataError(f"no feature row for surviving item '{missing[0]}' "
                        f"({len(missing)} missing in total)")
    if not feat.data.flags.writeable:
        raise DataError("feature matrix is read-only; align_features moves its rows in place")
    extra = len(file_keys) - ds.num_items
    if extra > 0:
        log.warning("dropping %d feature rows for items absent from the filtered dataset", extra)
    rows = np.array([position[key] for key in ds.item_keys], dtype=np.int64)
    return FeatureMatrix(_move_rows(feat.data, rows))


def _move_rows(data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """data[:len(rows)] = data[rows] in place, for distinct `rows`, returned as
    that view. One pass over _ROWS-row destination blocks: before a block is
    overwritten, its old rows that a later block reads are set aside, grouped
    by that block, and dropped once read. Rows in file order (rows increasing)
    only ever move down, so nothing is set aside."""
    n = len(rows)
    dest = np.full(len(data), -1)
    dest[rows] = np.arange(n)
    aside = {}  # destination block -> [(destination rows, their old rows)]
    for start in range(0, n, _ROWS):
        stop = min(start + _ROWS, n)
        later = start + np.flatnonzero(dest[start:stop] >= stop)
        for block in np.unique(dest[later] // _ROWS):
            moved = later[dest[later] // _ROWS == block]
            aside.setdefault(block, []).append((dest[moved], data[moved]))
        src = rows[start:stop]
        fresh = np.flatnonzero(src >= start)  # rows no block has overwritten yet
        data[start + fresh] = data[src[fresh]]
        for to, old in aside.pop(start // _ROWS, ()):
            data[to] = old
    return data[:n]
