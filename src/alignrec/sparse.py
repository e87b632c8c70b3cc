"""Compressed-sparse-row matrices used by the graph operators, and the exact
top-K selections: top_k for one score vector, and the rankings screened by
one GEMM per block of queries: score_top_k of canonical scores of unit rows
given as raw rows and their norms (zero-shot), self_top_k of those scores of
each row against the other rows (the kNN graph build) and self_rank of one
target's place in such a row (item-CF), with no unit copy of the feature
matrix, and gemv_top_k of GEMVs (evaluate).

self_top_k and self_rank screen the upper triangle of the Gram matrix
alone: the strip of 128 rows from s against the items from s on, half the
GEMM flops. A row's values for the items before its strip come from those
items' strips. Such a value lies within the row's own band width of the
row's canonical score, so the band, the gap test and the rescoring are
score_top_k's. self_top_k keeps each item's k+1 largest such values in a
running list, which each strip feeds with the k+1 largest of the item's
column; self_rank only counts them against the target's score.

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
    indptr: np.ndarray   # len rows+1; scipy's own index array, int32 where it fits
    indices: np.ndarray  # len nnz, strictly increasing within a row; scipy's, as indptr
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
        # the index arrays held once: scipy's, which may be a downcast copy
        object.__setattr__(self, "indptr", mat.indptr)
        object.__setattr__(self, "indices", mat.indices)
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
        mat = sp.csr_matrix(mat, dtype=np.float64, copy=True)  # copies a CSR input alone
        mat.sum_duplicates()
        mat.sort_indices()
        mat.eliminate_zeros()
        return cls(mat.shape[0], mat.shape[1], mat.indptr, mat.indices, mat.data)

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
        return SparseMatrix(mat.shape[0], self.cols, mat.indptr, mat.indices, mat.data)

    def tdot(self, dense: np.ndarray) -> np.ndarray:
        """self^T @ dense, adding rows in increasing order as the explicit transpose, so
        R[U]^T @ x[U] is R^T @ x bit for bit if x is zero off U (a ±0 term adds nothing).
        A wrong operand raises the explicit transpose's DimensionError."""
        if dense.shape[0] != self.rows:
            raise DimensionError(
                f"cannot multiply {self.cols}x{self.rows} by operand with leading dim {dense.shape[0]}")
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


def divide_rows(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """x / norms row by row (norms has x's shape without the last axis), a
    +0.0 row where the norm is not positive: with the rows' L2 norms, their
    unit rows. A plain divide, then the zero-norm rows zeroed: a row with a
    nonzero norm has the bits of its divide."""
    with np.errstate(divide="ignore", invalid="ignore"):  # those rows are zeroed
        out = x / norms[..., None]
    out[~(norms > 0.0)] = 0.0
    return out


def _abs_max(U: np.ndarray) -> float:
    """max|U|, NaN if U holds one, +0.0 for an empty or all-zero U, without
    the full-size |U|."""
    return max(abs(float(U.max())), abs(float(U.min()))) if U.size else 0.0


def _scaled_abs_max(U: np.ndarray, norms: np.ndarray) -> float:
    """M = max |U_ij| / norms[i] over the rows with a nonzero norm: the bits of
    max|divide_rows(U, norms)|, NaN if such a row holds one, +0.0 if there is
    none, without a full-size |U| (division rounds monotonically)."""
    nz = norms > 0.0
    if not U.size or not nz.any():
        return 0.0
    peaks = np.maximum(U.max(axis=1), -U.min(axis=1))[nz] / norms[nz]
    return abs(float(peaks.max()))


def _band(U: np.ndarray, u_norms) -> tuple[float, float]:
    """(slack, floor) of _screen_top_k's band width slack * ||q||_1 + floor for
    the rows U and their norms (None: norms of ones)."""
    d = U.shape[1]
    if u_norms is None:
        big, smallest = _abs_max(U), 1.0
    else:
        big, smallest = _scaled_abs_max(U, u_norms), u_norms[u_norms > 0.0].min(initial=1.0)
    # ||q||_1 * M bounds sum|q_j U_ij| / n_i with no squaring to underflow
    return (4.0 * (d + 3) * np.finfo(np.float64).eps * big,
            4.0 * (d + 3) * np.finfo(np.float64).tiny / smallest)


def _separated(vals: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The gap test: the rows whose k+1 largest values, in descending order,
    are finite and each more than the row's width apart."""
    with np.errstate(invalid="ignore"):  # -inf - -inf: a NaN gap fails the test
        return np.isfinite(vals).all(axis=1) & (
            vals[:, :-1] - vals[:, 1:] > widths[:, None]).all(axis=1)


def _screen_top_k(count: int, screen, U: np.ndarray, u_norms: np.ndarray, exclude, k: int,
                  settle) -> list[np.ndarray]:
    """The top k (k >= 1) of a reference score of the rows U_i for each of the
    `count` query rows q, without the int array exclude[r]: the GEMM order
    where the gap test proves it, else settle(r, q, row, width) on the row's
    masked GEMM scores and band width. screen(start, stop) returns the block
    of query rows q and its GEMM scores g_i, each q . U_i divided by u_norms[i]
    and +0.0 where that norm is 0; u_norms None takes the rows as they are
    (norms of ones, no divide).

    With n_i = u_norms[i] > 0 and s_i = sum_j q_j U_ij / n_i exact, g_i and a
    reference score summed from the d products q_j * fl(U_ij / n_i) in any
    order (or from q_j * U_ij with n_i = 1) each lie within
    E = gamma_{d+3} * ||q||_1 * M of s_i, gamma_m = m*u/(1 - m*u), u = eps/2,
    M = max_i max_j |U_ij| / n_i: the d-term sum is within gamma_d of the
    absolute terms, and the divide of U_ij or of the GEMM sum adds a relative
    u to each. An underflowing product or quotient adds at most eps * tiny / 2
    in absolute terms, the GEMM's scaled by 1/n_i; the floor 4(d+3) * tiny
    over min(1, smallest nonzero n_i) covers them (no overflow for norms of
    the rows). A zero-norm row scores +-0 both ways. The width is about 8E.
    If a row's k+1 largest GEMM values (k < n) are finite and each more than
    the width apart, their reference scores, within 4E of their differences,
    keep that order strictly, and no item below them reaches the top k.
    Ties, duplicate unit rows, fewer than k+1 candidates and a NaN or +-inf in
    q or U (a NaN or infinite width) fail the test."""
    n = U.shape[0]
    slack, floor = _band(U, u_norms)
    tops = []
    for start in range(0, count, _QUERY_BLOCK):
        block, gemm = screen(start, start + _QUERY_BLOCK)
        banned = exclude[start:start + _QUERY_BLOCK]
        counts = [len(ex) for ex in banned]
        gemm[np.repeat(np.arange(len(counts)), counts), np.concatenate(banned)] = -np.inf
        widths = slack * np.abs(block).sum(axis=1) + floor
        for s in range(0, len(block), _ORDER_ROWS):
            rows, ordered = gemm[s:s + _ORDER_ROWS], np.zeros(_ORDER_ROWS, dtype=bool)
            if k < n:
                cols, vals = _largest(rows, k)
                ordered = _separated(vals, widths[s:s + _ORDER_ROWS])
            for r, row in enumerate(rows):
                top = cols[r, :k] if ordered[r] else settle(start + s + r, block[s + r], row,
                                                           widths[s + r])
                tops.append(top)
        del gemm, rows, row  # so the next GEMM is not allocated beside this one
    return tops


def _divide_columns(gemm: np.ndarray, u_norms: np.ndarray, zero: np.ndarray) -> None:
    """Each GEMM column i divided by u_norms[i] in place (a divide, not a
    multiply by 1/n, which overflows for a subnormal n), +0.0 in the columns
    `zero` of the zero norms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gemm /= u_norms  # zero norms: set below; overflow fails the gap test
    gemm[..., zero] = 0.0


def _rescore(U: np.ndarray, u_norms: np.ndarray, q: np.ndarray, row: np.ndarray,
             width: float, k: int) -> np.ndarray:
    """The top_k of the canonical scores np.sum(unit(U)[i] * q) over the items
    i whose screened value row[i] lies within `width` of the row's K-th
    largest, the excluded items at -inf: only their unit rows are formed."""
    n = len(row)
    # the K-th value row by row: no partitioned copy of the block
    kth = np.partition(row, n - k)[n - k] if k <= n else -np.inf
    lowest = np.finfo(np.float64).min  # above -inf: an excluded item is never in the band
    cand = np.flatnonzero(row >= max(kth - width, lowest))
    return cand[top_k(_canonical(U, u_norms, cand, q), (), k)]


def _canonical(U: np.ndarray, u_norms: np.ndarray, cand: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The canonical scores np.sum(unit(U)[cand] * q, axis=1) (q one row or
    one per candidate), from the candidates' unit rows alone."""
    terms = divide_rows(U[cand], u_norms[cand])
    terms *= q  # in place: the bits of unit(U)[cand] * q, one allocation fewer
    return terms.sum(axis=1)


def score_top_k(Q: np.ndarray, q_norms: np.ndarray, U: np.ndarray, u_norms: np.ndarray,
                exclude, k: int) -> list[np.ndarray]:
    """For each query row r, the top_k (k >= 1) of the canonical scores
    np.sum(unit(U) * unit(Q)[r], axis=1) without the int array exclude[r],
    unit(X) = divide_rows(X, norms) (the unit rows for the rows' L2 norms;
    ones take X as it is): the prefix of the full canonical sort, ties to the
    lower index, for finite float64 Q and U. A canonical score depends
    neither on the other rows summed with it nor on the BLAS kernel.

    No full-size unit copy is made: the GEMM of one 128-row block of unit(Q)
    with U is divided column by column by u_norms, and only the rescored
    candidates' unit rows are formed. In a row _screen_top_k leaves open, the
    canonical top K and its tie group at the cut lie at most 4E below the
    K-th largest GEMM value: only the items within the width of it are summed
    canonically."""
    zero = np.flatnonzero(u_norms == 0.0)

    def screen(start, stop):
        block = divide_rows(Q[start:stop], q_norms[start:stop])
        gemm = block @ U.T
        _divide_columns(gemm, u_norms, zero)
        return block, gemm

    return _screen_top_k(len(Q), screen, U, u_norms, exclude, k,
                         lambda r, q, row, width: _rescore(U, u_norms, q, row, width, k))


def gemv_top_k(Q: np.ndarray, U: np.ndarray, exclude, k: int) -> list[np.ndarray]:
    """top_k(U @ q, exclude[r], k) for each query row q = Q[r], with the bits of
    that GEMV, ties and NaN included; Q and U need not be finite. The GEMV is
    a reference score within E (norms of ones) of the exact product, so
    _screen_top_k's GEMM order is exact for it, and a row it leaves open is
    ranked by the GEMV."""
    def screen(start, stop):
        return Q[start:stop], Q[start:stop] @ U.T

    return _screen_top_k(len(Q), screen, U, None, exclude, k,
                         lambda r, q, row, width: top_k(U @ q, exclude[r], k))


def _feed(vals: np.ndarray, first: int, keep_vals: np.ndarray, keep_rows: np.ndarray) -> None:
    """Merges a strip's values vals[i, j], of row first + i for the j-th later
    item, into each later item's running list of its k+1 largest values
    (keep_vals, their rows in keep_rows), in place: the items whose column
    holds a value above their list's smallest, _QUERY_BLOCK at a time, with
    their column's k+1 largest (the whole column of a strip of at most k+1)."""
    k1 = keep_vals.shape[1]
    low = max(len(vals) - k1, 0)
    items = np.flatnonzero(vals.max(axis=0) > keep_vals.min(axis=1))
    for c in range(0, len(items), _QUERY_BLOCK):
        at = items[c:c + _QUERY_BLOCK]
        r, cols = np.arange(len(at))[:, None], vals[:, at].T
        rows = np.argpartition(cols, low, axis=1)[:, low:]
        pool_vals = np.hstack([keep_vals[at], cols[r, rows]])
        pool_rows = np.hstack([keep_rows[at], first + rows])
        best = np.argpartition(pool_vals, pool_vals.shape[1] - k1, axis=1)[:, -k1:]
        keep_vals[at], keep_rows[at] = pool_vals[r, best], pool_rows[r, best]


def self_top_k(x: np.ndarray, norms: np.ndarray, k: int) -> list[np.ndarray]:
    """score_top_k(x, norms, x, norms, np.arange(n)[:, None], k): each row's
    canonical top k among the other rows, from the upper triangle of the
    screen. The strip of 128 rows from s is screened against the items from s
    on alone, G[s:e, s:], which halves the GEMM flops and the packing of x.
    Its rows take their k+1 largest from their upper GEMM row, merged with a
    running list of the k+1 largest values for the items c < s, which c's
    strip computed: G[c, r] = fl(u_c . x_r) / n_r, u_c = unit(x)[c], n_r =
    norms[r]; each strip feeds the later items' lists with their columns' k+1
    largest values (_feed).

    The band, the gap test and the rescoring are _screen_top_k's. Row r's
    upper values lie within E_r = gamma_{d+3} * ||u_r||_1 * M of their exact
    sums, as there. A lower value G[c, r] and the canonical score
    np.sum(u_c * u_r), the same d products, each lie within E_r of the exact
    sigma = sum_j u_cj u_rj: the GEMM sum and its divide are within gamma_{d+2}
    of S = sum_j |u_cj| |x_rj| / n_r, the divide of x_r into u_r moves each
    term by at most u of it, the canonical sum is within gamma_d of
    sum_j |u_cj u_rj|, and S <= (1 + u) * M * ||u_r||_1 since |u_cj| <= M and
    |x_rj| / n_r <= (1 + u) |u_rj|. An underflowing u_rj adds at most
    M * eps * tiny / 2 per term, inside the floor while M * eps <= 1 (L2 norms
    give M <= 1 up to rounding; norms of ones divide exactly). So every value
    of row r's merged row is within E_r of a centre its canonical score is
    within E_r of, and row r's width and gap test hold as in _screen_top_k. A
    column whose largest value is not above a list's smallest cannot change
    the list's k+1 largest values, and a column's own k+1 largest hold every
    value of it that can enter the list, so the merged k+1 are those of the
    whole row; which of several ties at the (k+1)-th place is kept is never
    returned. A row the gap test leaves open recomputes its full row (a GEMV,
    within the same E_r) before _rescore; for k >= n - 1 no row has a
    (k+1)-th candidate and score_top_k ranks them all."""
    n = len(x)
    if k >= n - 1:
        return score_top_k(x, norms, x, norms, np.arange(n)[:, None], k)
    slack, floor = _band(x, norms)
    # each item's k+1 largest values from the strips above it, with their
    # rows; -inf pads (row 0) keep a list's smallest at -inf until it is full
    low_vals, low_rows = np.full((n, k + 1), -np.inf), np.zeros((n, k + 1), dtype=np.int64)
    tops = []
    for s, block, gemm in _strips(x, norms):
        e, w = s + len(block), n - s
        _feed(gemm[:, e - s:], s, low_vals[e:], low_rows[e:])
        widths = slack * np.abs(block).sum(axis=1) + floor
        # each row's k+1 largest upper values (all if fewer), partitioned 16
        # rows at a time: no int64 index array of the whole block
        up = np.broadcast_to(np.arange(w), gemm.shape)
        if w > k:
            up = np.empty((e - s, k + 1), dtype=np.int64)
            for g in range(0, e - s, _ORDER_ROWS):
                up[g:g + _ORDER_ROWS] = np.argpartition(gemm[g:g + _ORDER_ROWS], w - k - 1,
                                                        axis=1)[:, w - k - 1:]
        r = np.arange(e - s)[:, None]
        vals = np.hstack([low_vals[s:e], gemm[r, up]])
        cols = np.hstack([low_rows[s:e], s + up])
        del gemm  # so the next GEMM is not allocated beside this one
        order = np.lexsort((cols, -vals), axis=1)[:, :k + 1]
        cols, vals = cols[r, order], vals[r, order]
        ordered = _separated(vals, widths)
        tops += [cols[i, :k] if ordered[i] else
                 _rescore(x, norms, block[i], _full_row(x, norms, s + i, block[i]), widths[i], k)
                 for i in range(e - s)]
    return tops


def _strips(x: np.ndarray, norms: np.ndarray):
    """The upper triangle of the screen a strip at a time: for the 128 rows
    from s, (s, their unit rows, G[s:e, s:]), the GEMM of those rows with the
    items from s on, each column divided by its norm and each row's own item
    at -inf."""
    zero = norms == 0.0
    for s in range(0, len(x), _QUERY_BLOCK):
        block = divide_rows(x[s:s + _QUERY_BLOCK], norms[s:s + _QUERY_BLOCK])
        gemm = block @ x[s:].T
        _divide_columns(gemm, norms[s:], zero[s:])
        gemm[np.arange(len(block)), np.arange(len(block))] = -np.inf
        yield s, block, gemm
        del gemm  # with the caller's reference gone, before the next GEMM


def _full_row(x: np.ndarray, norms: np.ndarray, r: int, q: np.ndarray) -> np.ndarray:
    """Row r's screen values for every item, recomputed from its unit row q
    (a GEMV, within the same E_r), its own item at -inf."""
    row = x @ q
    _divide_columns(row, norms, norms == 0.0)
    row[r] = -np.inf
    return row


def self_rank(x: np.ndarray, norms: np.ndarray, target: np.ndarray) -> np.ndarray:
    """For each row r with target[r] >= 0, the number of other rows before
    target[r] in row r's canonical order, descending np.sum(unit[j] *
    unit[r]) with ties to the lower index, for finite x: its 0-based place in
    self_top_k's ranking of row r. -1 for a row with no target.

    It counts over the upper triangle of self_top_k's screen with no list
    kept. With t = row r's canonical score of its target and w its band width,
    each value of row r, upper or lower, is within 2 E_r < w of its canonical
    score (self_top_k's derivation): a value above t + w is ahead of the
    target, one below t - w is behind it. A strip counts its rows' values
    against their own t +- w, and the later items' columns against theirs. A
    row whose band holds anything besides its target recomputes its full row
    (_full_row) and compares the band's canonical scores with t, ties to the
    lower index."""
    n = len(x)
    slack, floor = _band(x, norms)
    has = target >= 0
    # each row's band [lo, hi] around its target's canonical score; a row
    # with no target counts nothing (no finite value reaches +inf)
    score, lo, hi = np.zeros(n), np.full(n, np.inf), np.full(n, np.inf)
    for s in range(0, n, _QUERY_BLOCK):
        block = divide_rows(x[s:s + _QUERY_BLOCK], norms[s:s + _QUERY_BLOCK])
        on, at = has[s:s + _QUERY_BLOCK], slice(s, s + _QUERY_BLOCK)
        t = _canonical(x, norms, target[at][on], block[on])
        w = slack * np.abs(block[on]).sum(axis=1) + floor
        score[at][on], lo[at][on], hi[at][on] = t, t - w, t + w

    def settle(r, q):
        row = _full_row(x, norms, r, q)
        cand = np.flatnonzero((row >= lo[r]) & (row <= hi[r]))
        c = _canonical(x, norms, cand, q)
        return np.count_nonzero(row > hi[r]) + np.count_nonzero(
            (c > score[r]) | ((c == score[r]) & (cand < target[r])))

    ahead, band = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    ranks = np.full(n, -1, dtype=np.int64)
    for s, block, gemm in _strips(x, norms):
        e = s + len(block)
        # the strip's rows against their bands, the later items' columns against theirs
        for vals, at in ((gemm, slice(s, e)), (gemm[:, e - s:].T, slice(e, n))):
            above = np.count_nonzero(vals > hi[at, None], axis=1)
            ahead[at] += above
            band[at] += np.count_nonzero(vals >= lo[at, None], axis=1) - above
        del gemm, vals  # so the next GEMM is not allocated beside this one
        done = has[s:e] & (band[s:e] == 1)  # the target alone in the band
        ranks[s:e][done] = ahead[s:e][done]
        for i in np.flatnonzero(has[s:e] & ~done):
            ranks[s + i] = settle(s + i, block[i])
    return ranks
