"""Per-item feature matrices and their binary container format.

File layout (little-endian): magic `AFEA`, u32 format version (=1), u64 rows,
u64 dim, then rows*dim float64 values row-major. Row order follows a sidecar
text file listing item keys one per line.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import check_end, read_exact, read_struct, read_text
from .data import Dataset
from .errors import DataError, DimensionError, ParseError

log = logging.getLogger(__name__)

MAGIC = b"AFEA"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense float64 matrix, row i holding item i's multimodal vector."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionError("feature matrix must be 2-dimensional")
        if self.data.dtype != np.float64:
            raise DataError("feature matrix must be float64")
        bad = np.flatnonzero(~np.isfinite(self.data).all(axis=1))
        if bad.size:
            raise DataError(f"non-finite feature value in row {int(bad[0])}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of `x` scaled to unit L2 norm, zero rows left zero; also the
    row norms (taken 512 rows at a time, so the result is the only full-size
    array allocated) and the mask of nonzero rows."""
    norms = np.empty(len(x))
    for start in range(0, len(x), 512):
        norms[start:start + 512] = np.linalg.norm(x[start:start + 512], axis=1)
    nz = norms > 0.0
    unit = np.zeros_like(x)
    np.divide(x, norms[:, None], out=unit, where=nz[:, None])
    return unit, norms, nz


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
        payload = read_exact(fh, rows * dim * 8, path, "payload")
        check_end(fh, path)
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, dim).astype(np.float64)
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
    """Reorder feature rows into dataset item-index order.

    Feature rows for items that did not survive filtering are dropped with a
    warning; a surviving item without a feature row is a hard error because
    silently zero-filling it would corrupt the similarity graph.
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
    extra = len(file_keys) - ds.num_items
    if extra > 0:
        log.warning("dropping %d feature rows for items absent from the filtered dataset", extra)
    rows = np.array([position[key] for key in ds.item_keys], dtype=np.int64)
    return FeatureMatrix(np.ascontiguousarray(feat.data[rows]))
