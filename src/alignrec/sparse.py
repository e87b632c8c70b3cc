"""Compressed-sparse-row matrices used by the graph operators, and the exact
top-K row selection shared by the kNN graph build and every ranking.

Thin immutable wrapper around canonical CSR arrays. scipy does the heavy
lifting for products; the wrapper pins down the invariants the rest of the
engine relies on: sorted column indices per row, finite weights, and no
stored zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, DimensionError


@dataclass(frozen=True)
class SparseMatrix:
    rows: int
    cols: int
    indptr: np.ndarray   # int64, len rows+1
    indices: np.ndarray  # int64, len nnz, strictly increasing within a row
    data: np.ndarray     # float64, len nnz, finite and nonzero

    _scipy: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.indptr.shape != (self.rows + 1,):
            raise DimensionError("indptr length does not match row count")
        if self.indices.shape != self.data.shape:
            raise DimensionError("indices and data lengths differ")
        if not np.all(np.isfinite(self.data)):
            raise DataError("sparse matrix contains non-finite weights")
        if np.any(self.data == 0.0):
            raise DataError("sparse matrix stores explicit zeros")
        counts = np.diff(self.indptr)
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz or np.any(counts < 0):
            raise DataError("indptr is not a valid row pointer")
        bad = (self.indices < 0) | (self.indices >= self.cols)
        # an entry must exceed its predecessor unless it starts a row
        row_start = np.zeros(self.nnz, dtype=bool)
        row_start[self.indptr[:-1][counts > 0]] = True
        bad[1:] |= (np.diff(self.indices) <= 0) & ~row_start[1:]
        if np.any(bad):
            r = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
            raise DataError(f"row {r} has unsorted or out-of-range column indices")
        mat = sp.csr_matrix((self.data, self.indices, self.indptr),
                            shape=(self.rows, self.cols))
        object.__setattr__(self, "_scipy", mat)

    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_idx, col_idx, values) -> "SparseMatrix":
        """Build a canonical CSR matrix; duplicate coordinates are summed,
        zeros dropped."""
        return cls.from_scipy(sp.coo_matrix((np.asarray(values, dtype=np.float64),
                                             (np.asarray(row_idx), np.asarray(col_idx))),
                                            shape=(rows, cols)))

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        mat = sp.csr_matrix(mat, dtype=np.float64)
        mat.sum_duplicates()
        mat.sort_indices()
        mat.eliminate_zeros()
        return cls(mat.shape[0], mat.shape[1],
                   mat.indptr.astype(np.int64),
                   mat.indices.astype(np.int64),
                   mat.data.astype(np.float64))

    def dot(self, dense: np.ndarray) -> np.ndarray:
        """Sparse-dense product; rows are reduced in stored order, so the
        result is reproducible bit for bit."""
        if dense.shape[0] != self.cols:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by operand with leading dim {dense.shape[0]}")
        return self._scipy @ dense

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self._scipy.T)

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, weights) of one row."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.data[lo:hi]


def top_k(scores: np.ndarray, exclude, k: int) -> np.ndarray:
    """The first min(k, candidates) indices not in `exclude` (k >= 1) by
    descending score, ties to the lower index: the prefix of the full
    lexsort((idx, -scores[idx])) order, bit for bit.

    A partition finds the K-th value; every candidate at or above it is
    admitted, so the whole tie group at the cut is sorted with the rest.
    A NaN K-th value (fewer than k comparable scores) falls back to the full
    sort, which puts NaN last."""
    keep = np.ones(scores.shape[0], dtype=bool)
    if len(exclude):
        keep[list(exclude)] = False
    idx = np.flatnonzero(keep)
    neg = -scores[idx]
    if k < idx.size:
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):
            admitted = neg <= kth
            idx, neg = idx[admitted], neg[admitted]
    return idx[np.lexsort((idx, neg))[:k]]
