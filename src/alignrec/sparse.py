"""Compressed-sparse-row matrices used by the graph operators, and the exact
top-K selections: top_k for one score vector, and the rankings screened by
one GEMM per block of queries, score_top_k of canonical scores (the feature
protocols and the kNN graph build) and gemv_top_k of GEMVs (evaluate).

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

    def take_rows(self, rows: np.ndarray) -> "SparseMatrix":
        """The matrix of the sorted distinct `rows` of self, in that order: a
        canonical row slice, whose arrays __post_init__ checks as they are."""
        mat = self._scipy[rows]
        return SparseMatrix(mat.shape[0], self.cols, mat.indptr.astype(np.int64),
                            mat.indices.astype(np.int64), mat.data)

    def tdot(self, dense: np.ndarray) -> np.ndarray:
        """self^T @ dense, adding rows in increasing order as the explicit transpose, so
        R[U]^T @ x[U] is R^T @ x bit for bit if x is zero off U (a ±0 term adds nothing)."""
        return self._scipy.T @ dense

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self._scipy.T)


def top_k(scores: np.ndarray, exclude, k: int) -> np.ndarray:
    """The first min(k, candidates) indices not in `exclude`, an int array or
    sequence (k >= 1), by descending score, ties to the lower index: the
    prefix of the full lexsort((idx, -scores[idx])) order, bit for bit.

    A partition finds the K-th value; every candidate at or above it is
    admitted, so the whole tie group at the cut is sorted with the rest.
    A NaN K-th value (fewer than k comparable scores) falls back to the full
    sort, which puts NaN last."""
    keep = np.ones(scores.shape[0], dtype=bool)
    if len(exclude):
        keep[exclude] = False
    idx = np.flatnonzero(keep)
    neg = -scores[idx]
    if k < idx.size:
        kth = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(kth):
            admitted = neg <= kth
            idx, neg = idx[admitted], neg[admitted]
    return idx[np.lexsort((idx, neg))[:k]]


def _largest(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of each row's k+1 largest entries (k < n) by (-value,
    column); NaN is largest in the argpartition and last in the lexsort."""
    n, r = rows.shape[1], np.arange(len(rows))[:, None]  # take_along_axis's set-up outweighs this work
    cols = np.argpartition(rows, n - k - 1, axis=1)[:, n - k - 1:]
    vals = rows[r, cols]
    order = np.lexsort((cols, -vals), axis=1)
    return cols[r, order], vals[r, order]


# query rows per GEMM of the screened rankings (128 x 5.4k items is a 5.5 MB
# block) and per partition of their gap test (a 16-row int64 index block)
_QUERY_BLOCK, _ORDER_ROWS = 128, 16


def _abs_max(U: np.ndarray) -> float:
    """max|U|, NaN if U holds one, +0.0 for an empty or all-zero U, without
    the full-size |U|."""
    return max(abs(float(U.max())), abs(float(U.min()))) if U.size else 0.0


def _screen_top_k(Q: np.ndarray, U: np.ndarray, exclude, k: int, settle) -> list[np.ndarray]:
    """The top k (k >= 1) of a reference score of the items U for each query
    row q = Q[r], without the int array exclude[r]: the GEMM order where the
    gap test proves it, else settle(r, row, width) on the row's masked GEMM
    scores and band width. A GEMM value and a reference score summed from
    the same d products in any order lie within E = gamma_d * ||q||_1 * max|U|
    of the exact product, gamma_d = d*u/(1 - d*u), u = eps/2 (plus an
    absolute term for underflow; no overflow); the width is about 8E. If a
    row's k+1 largest GEMM values (k < n) are finite and each more than the
    width apart, their reference scores, within 4E of their differences,
    keep that order strictly, and no item below them reaches the top k.
    Ties, duplicate item rows, fewer than k+1 candidates and a NaN or +-inf
    in q or U (a NaN or infinite width) fail the test."""
    n, d = U.shape
    # ||q||_1 * max|U| bounds sum|q_i u_i| with no squaring to underflow
    slack = 4.0 * d * np.finfo(np.float64).eps * _abs_max(U)
    floor = 4.0 * d * np.finfo(np.float64).tiny
    tops = []
    for start in range(0, Q.shape[0], _QUERY_BLOCK):
        block, banned = Q[start:start + _QUERY_BLOCK], exclude[start:start + _QUERY_BLOCK]
        gemm = block @ U.T
        counts = [len(ex) for ex in banned]
        gemm[np.repeat(np.arange(len(counts)), counts), np.concatenate(banned)] = -np.inf
        widths = slack * np.abs(block).sum(axis=1) + floor
        for s in range(0, len(block), _ORDER_ROWS):
            rows, ordered = gemm[s:s + _ORDER_ROWS], np.zeros(_ORDER_ROWS, dtype=bool)
            if k < n:
                cols, vals = _largest(rows, k)
                with np.errstate(invalid="ignore"):  # -inf - -inf: a NaN gap fails the test
                    ordered = np.isfinite(vals).all(axis=1) & (
                        vals[:, :-1] - vals[:, 1:] > widths[s:s + _ORDER_ROWS, None]).all(axis=1)
            for r, row in enumerate(rows):
                top = cols[r, :k] if ordered[r] else settle(start + s + r, row, widths[s + r])
                tops.append(top)
        del gemm, rows, row  # so the next GEMM is not allocated beside this one
    return tops


def score_top_k(Q: np.ndarray, U: np.ndarray, exclude, k: int) -> list[np.ndarray]:
    """For each query row q of Q, the top_k (k >= 1) of the canonical scores
    np.sum(U * q, axis=1) without the int array exclude[r]: the prefix of the
    full canonical sort, ties to the lower index, for finite float64 Q and U.
    A canonical score depends neither on the other rows summed with it nor
    on the BLAS kernel. In a row _screen_top_k leaves open, the canonical top
    K and its tie group at the cut lie at most 4E below the K-th largest GEMM
    value: only the items within the width of it are summed canonically."""
    n = U.shape[0]
    lowest = np.finfo(np.float64).min  # above -inf: an excluded item is never in the band

    def rescore(r, row, width):
        # the K-th value row by row: no partitioned copy of the block
        kth = np.partition(row, n - k)[n - k] if k <= n else -np.inf
        cand = np.flatnonzero(row >= max(kth - width, lowest))
        terms = U[cand]
        terms *= Q[r]  # in place: the bits of U[cand] * q, one allocation fewer
        return cand[top_k(terms.sum(axis=1), (), k)]

    return _screen_top_k(Q, U, exclude, k, rescore)


def gemv_top_k(Q: np.ndarray, U: np.ndarray, exclude, k: int) -> list[np.ndarray]:
    """top_k(U @ q, exclude[r], k) for each query row q = Q[r], with the bits of
    that GEMV, ties and NaN included; Q and U need not be finite. The GEMV is
    a reference score within E of the exact product, so _screen_top_k's GEMM
    order is exact for it, and a row it leaves open is ranked by the GEMV."""
    return _screen_top_k(Q, U, exclude, k, lambda r, row, width: top_k(U @ Q[r], exclude[r], k))
