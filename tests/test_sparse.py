import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import sparse
from alignrec.errors import DataError, DimensionError
from alignrec.features import row_norms, unit_rows
from alignrec.sparse import (SparseMatrix, _abs_max, _scaled_abs_max, divide_rows, score_top_k,
                             self_rank, self_top_k, top_k)

from oracles import canonical_scores, canonical_top_k_reference, to_dense, to_scipy


def test_from_coo_canonicalizes_and_sums_duplicates():
    m = SparseMatrix.from_coo(2, 3, [0, 0, 1, 0], [2, 0, 1, 2], [1.0, 2.0, 3.0, 4.0])
    dense = to_dense(m)
    assert dense[0, 0] == 2.0
    assert dense[0, 2] == 5.0
    assert dense[1, 1] == 3.0
    assert m.nnz == 3


def test_zeros_are_dropped():
    m = SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [0.0, 2.0])
    assert m.nnz == 1


def test_explicit_zero_rejected():
    with pytest.raises(DataError):
        SparseMatrix(1, 2, np.array([0, 1]), np.array([0]), np.array([0.0]))


def test_nonfinite_rejected():
    with pytest.raises(DataError):
        SparseMatrix(1, 2, np.array([0, 1]), np.array([0]), np.array([np.inf]))


def test_unsorted_columns_rejected():
    with pytest.raises(DataError):
        SparseMatrix(1, 3, np.array([0, 2]), np.array([2, 0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("indices, bad_row", [
    ([0, 1, -1], 2),   # negative column
    ([0, 1, 3], 2),    # column == cols
    ([0, 2, 2], 2),    # repeated column within a row
    ([3, 0, 1], 0),    # out of range in row 0, later rows fine
    ([-1, 2, 1], 0),   # rows 0 and 2 both bad: the first is named
])
def test_bad_column_names_first_row(indices, bad_row):
    # row 0 holds one entry, row 1 none, row 2 two
    with pytest.raises(DataError, match=f"^row {bad_row} "):
        SparseMatrix(3, 3, np.array([0, 1, 1, 3]), np.array(indices), np.ones(3))


def test_bad_row_pointer_rejected():
    with pytest.raises(DataError, match="row pointer"):
        SparseMatrix(2, 3, np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))
    with pytest.raises(DataError, match="row pointer"):
        SparseMatrix(1, 3, np.array([0, 1]), np.array([0, 1]), np.ones(2))


def _first_bad_row(indptr, indices, cols):
    """Row-by-row reference for the column-index check."""
    for r in range(len(indptr) - 1):
        c = indices[indptr[r]:indptr[r + 1]]
        if c.size and (np.any(np.diff(c) <= 0) or c[0] < 0 or c[-1] >= cols):
            return r
    return None


def test_column_check_matches_row_loop(rng):
    for _ in range(300):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 4, size=rows))])
        indices = rng.integers(-1, cols + 1, size=int(indptr[-1]))
        data = np.ones(indices.shape[0])
        want = _first_bad_row(indptr, indices, cols)
        if want is None:
            SparseMatrix(rows, cols, indptr, indices, data)
        else:
            with pytest.raises(DataError, match=f"^row {want} "):
                SparseMatrix(rows, cols, indptr, indices, data)


def test_dot_matches_dense(rng):
    dense = rng.normal(size=(5, 7)) * (rng.random(size=(5, 7)) < 0.4)
    m = SparseMatrix.from_scipy(dense)
    x = rng.normal(size=(7, 3))
    assert np.allclose(m.dot(x), dense @ x, atol=1e-14)


def test_dot_dimension_error(rng):
    m = SparseMatrix.from_coo(2, 3, [0], [1], [1.0])
    with pytest.raises(DimensionError):
        m.dot(np.zeros((4, 2)))


def test_transpose_roundtrip(rng):
    dense = rng.normal(size=(4, 6)) * (rng.random(size=(4, 6)) < 0.5)
    m = SparseMatrix.from_scipy(dense)
    assert np.array_equal(to_dense(m.transpose()), dense.T)


@pytest.mark.parametrize("rows", [[], [0], [3], [8], list(range(9)), [1, 4, 8]],
                         ids=["none", "one", "first", "last", "all", "with-empty-row"])
def test_take_rows_equals_the_from_scipy_slice(rng, rows):
    dense = rng.normal(size=(9, 7)) * (rng.random(size=(9, 7)) < 0.4)
    dense[4] = 0.0
    m = SparseMatrix.from_scipy(dense)
    rows = np.array(rows, dtype=np.int64)
    got, want = m.take_rows(rows), SparseMatrix.from_scipy(to_scipy(m)[rows])
    assert (got.rows, got.cols) == (want.rows, want.cols) == (len(rows), 7)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.array_equal(to_dense(got), dense[rows])


def _spy_rescoring(monkeypatch):
    """The canonical band scores of each row score_top_k rescores: only that
    path calls top_k."""
    rescored = []

    def spy(scores, exclude, k):
        rescored.append(scores)
        return top_k(scores, exclude, k)
    monkeypatch.setattr(sparse, "top_k", spy)
    return rescored


def test_score_top_k_takes_separated_rows_in_gemm_order(rng, monkeypatch):
    rescored = _spy_rescoring(monkeypatch)
    items = rng.normal(size=(300, 16))
    queries = rng.normal(size=(140, 16))  # past one 128-row GEMM block
    exclude = [set(rng.choice(300, size=int(rng.integers(0, 30))).tolist()) for _ in range(140)]
    for k in (1, 10, 50):
        _assert_canonical_tops(queries, items, exclude, k)
    assert rescored == []
    # fewer than k + 1 candidates: every row is rescored
    _assert_canonical_tops(queries[:3], items, [set(range(250))] * 3, 50)
    assert len(rescored) == 3


def test_score_top_k_rescores_duplicate_and_one_ulp_rows(rng, monkeypatch):
    rescored = _spy_rescoring(monkeypatch)
    items = rng.normal(size=(60, 16))
    items[59], items[58] = items[0], items[5]
    items[57] = items[9]
    items[57, 0] = np.nextafter(items[9, 0], np.inf)  # a 1-ulp apart item
    queries = items[[0, 5, 9]] * 3.0  # each query's own item is its top
    _assert_canonical_tops(queries, items, [set(), set(), set()], 3)
    assert len(rescored) == 3 and all(len(band) >= 2 for band in rescored)
    rescored.clear()
    # k = n takes no fast path: no (k+1)-th value to separate from
    _assert_canonical_tops(queries[:1] / 3.0 + 1.0, items, [set()], 60)
    assert len(rescored) == 1
    rescored.clear()
    # exact scores one ulp apart: the GEMM gaps are positive but below the width
    ulp_items = np.zeros((40, 9))
    ulp_items[:, 0] = 0.75 + np.arange(40) * np.spacing(0.75)
    signs = np.zeros((2, 9))
    signs[:, 0] = [1.0, -1.0]
    _assert_canonical_tops(signs, ulp_items, [set(), set()], 5)
    assert len(rescored) == 2


def _assert_canonical_tops(queries, items, exclude, k):
    # the engine takes each exclusion as an int array, the reference as a set
    # norms of ones: score_top_k ranks the rows as they are
    got = score_top_k(queries, np.ones(len(queries)), items, np.ones(len(items)),
                      [np.array(sorted(ex), dtype=np.int64) for ex in exclude], k)
    want = canonical_top_k_reference(queries, items, exclude, k)
    assert len(got) == len(want)
    for top, ranking in zip(got, want):
        assert top.dtype == np.int64
        assert top.tolist() == ranking


def _near_tie_items(rng, n, d):
    """Rows equal to one base row up to a few ulps in five coordinates, the
    second half duplicating the first: GEMM and canonical scores order most
    queries' top items differently, and duplicates tie exactly."""
    base = rng.normal(size=d)
    items = np.tile(base, (n, 1))
    items[:, :5] += rng.integers(-3, 4, size=(n, 5)) * np.spacing(np.abs(base[:5]))
    items[n // 2:] = items[:n - n // 2]
    return items


@pytest.mark.parametrize("k", [1, 10, 59, 60, 80])
def test_score_top_k_near_ties_match_canonical_sort(rng, k):
    items = _near_tie_items(rng, 60, 97)
    queries = rng.normal(size=(40, 97))
    exclude = [set(rng.choice(60, size=int(rng.integers(0, 8))).tolist()) for _ in range(40)]
    _assert_canonical_tops(queries, items, exclude, k)


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257])
def test_score_top_k_across_query_blocks(rng, count):
    items = _near_tie_items(rng, 24, 13)
    queries = rng.normal(size=(count, 13))
    exclude = [{q % 24} for q in range(count)]
    _assert_canonical_tops(queries, items, exclude, 5)


def test_score_top_k_scores_one_ulp_apart(rng):
    # column 0 holds consecutive floats, the rest zeros: each score is exact
    values = 0.75 + np.arange(-20, 20) * np.spacing(0.75)
    items = np.zeros((40, 9))
    items[:, 0] = rng.permutation(values)
    queries = np.zeros((3, 9))
    queries[:, 0] = [1.0, -1.0, 0.5]
    for k in (1, 7, 39):
        _assert_canonical_tops(queries, items, [set(), {3, 5}, set()], k)


def test_score_top_k_zero_rows_and_signed_zeros(rng):
    items = rng.normal(size=(12, 5))
    items[[2, 7]] = 0.0
    items[[4, 9]] = -0.0
    queries = np.vstack([np.zeros(5), np.full(5, -0.0), rng.normal(size=5), -items[1]])
    for k in (1, 3, 12):
        _assert_canonical_tops(queries, items, [set(), {2}, {7, 9}, set()], k)


def test_score_top_k_fewer_candidates_than_k(rng):
    items = rng.normal(size=(6, 4))
    queries = rng.normal(size=(3, 4))
    exclude = [{0, 1, 2}, set(), {5}]
    for k in (4, 6, 7, 50):
        _assert_canonical_tops(queries, items, exclude, k)


def test_score_top_k_every_item_excluded(rng):
    items = rng.normal(size=(5, 3))
    tops = score_top_k(rng.normal(size=(2, 3)), np.ones(2), items, np.ones(5),
                       [np.arange(5), [4, 3, 2, 1, 0]], 3)
    assert [top.tolist() for top in tops] == [[], []]


# few distinct entries, so scores tie exactly and across the cut
_ENTRY_POOL = [0.0, -0.0, 0.5, 1.0, -1.0, 1.0 + 2.0 ** -52, 3.0]


@given(st.integers(1, 12), st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_score_top_k_is_prefix_of_canonical_sort_under_ties(n, d, data):
    entries = st.lists(st.sampled_from(_ENTRY_POOL), min_size=d, max_size=d)
    items = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    queries = np.array(data.draw(st.lists(entries, min_size=0, max_size=4))).reshape(-1, d)
    exclude = [data.draw(st.sets(st.integers(0, n - 1))) for _ in range(len(queries))]
    for k in range(1, n + 2):
        _assert_canonical_tops(queries, items, exclude, k)


@pytest.mark.parametrize("d", [1, 3, 97, 769])
def test_canonical_score_of_a_row_ignores_the_other_rows(rng, d):
    items = rng.normal(size=(40, d))
    query = rng.normal(size=d)
    full = canonical_scores(items, query)
    for size in (1, 2, 7, 39):
        subset = np.sort(rng.choice(40, size=size, replace=False))
        assert canonical_scores(items[subset], query).tobytes() == full[subset].tobytes()


@pytest.mark.parametrize("values", [
    [[-3.0, -0.5], [-2.0, -7.25]],      # all negative: the magnitude is -min
    [[-0.0, -0.0], [-0.0, -0.0]],        # only -0.0
    [[0.0, -0.0], [-0.0, 0.0]],
    [[-0.0, 2.0], [-5.0, -0.0]],
    [[1e-310, -2e-310], [0.0, -0.0]],    # subnormal
    [[4.0, 1.0], [3.5, 0.0]],
], ids=["negative", "negzero", "signed-zeros", "mixed", "subnormal", "positive"])
def test_abs_max_has_the_bits_of_abs_then_max(values):
    U = np.array(values)
    assert np.float64(_abs_max(U)).tobytes() == np.abs(U).max().tobytes()
    assert _abs_max(np.empty((0, 3))) == 0.0
    # so gemv_top_k's M is the one np.abs(U).max() gives
    d, eps = U.shape[1], np.finfo(np.float64).eps
    assert (4.0 * d * eps * _abs_max(U)).tobytes() == (4.0 * d * eps * np.abs(U).max()).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-170])
def test_scaled_abs_max_has_the_bits_of_the_unit_rows(rng, scale):
    U = rng.normal(size=(30, 7)) * scale
    U[[4, 9]] = 0.0
    U[11] = -0.0
    got = _scaled_abs_max(U, row_norms(U))
    assert np.float64(got).tobytes() == np.abs(unit_rows(U)[0]).max().tobytes()


def test_score_top_k_negative_and_signed_zero_items(rng):
    items = -np.abs(rng.normal(size=(30, 6)))
    items[[3, 11]] = -0.0
    queries = np.vstack([rng.normal(size=(3, 6)), np.full(6, -0.0)])
    for k in (1, 5, 30):
        _assert_canonical_tops(queries, items, [{0}, set(), {3, 11}, {29}], k)


def _top_k_set_form(scores, exclude, k):
    """top_k with the exclusions given as a set and turned into a list."""
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


@pytest.mark.parametrize("trial", range(20))
def test_top_k_array_exclusions_match_set_form(rng, trial):
    n = int(rng.integers(1, 60))
    scores = rng.choice([0.0, -0.0, 0.5, 1.0, -1.0, np.nan], size=n)
    banned = set(rng.integers(n, size=int(rng.integers(0, n + 1))).tolist())
    as_array = np.array(sorted(banned), dtype=np.int64)
    for k in (1, 3, n, n + 2):
        got, want = top_k(scores, as_array, k), _top_k_set_form(scores, banned, k)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_score_top_k_unsorted_and_repeated_exclusions(rng):
    items = rng.normal(size=(20, 4))
    queries = rng.normal(size=(3, 4))
    exclude = [np.array([7, 2, 7, 19]), np.array([], dtype=np.int64), np.array([0, 0])]
    got = score_top_k(queries, np.ones(3), items, np.ones(20), exclude, 20)
    want = canonical_top_k_reference(queries, items, [set(ex.tolist()) for ex in exclude], 20)
    assert [top.tolist() for top in got] == want


def _assert_unit_tops(queries, items, exclude, k, u_norms=None):
    """score_top_k on raw rows and their norms (row_norms unless u_norms is
    given) gives the canonical tops of the unit rows, bit for bit: the unit
    rows made by unit_rows, or by dividing by u_norms (zero rows for 0)."""
    q_unit, q_norms = unit_rows(queries)[0], row_norms(queries)
    if u_norms is None:
        u_unit, u_norms = unit_rows(items)[0], row_norms(items)
    else:
        u_unit = np.where(u_norms[:, None] > 0.0,
                          items / np.where(u_norms > 0.0, u_norms, 1.0)[:, None], 0.0)
    got = score_top_k(queries, q_norms, items, u_norms,
                      [np.array(sorted(ex), dtype=np.int64) for ex in exclude], k)
    want = canonical_top_k_reference(q_unit, u_unit, exclude, k)
    assert [top.tolist() for top in got] == want
    assert all(top.dtype == np.int64 for top in got)


def test_unit_tops_of_rows_whose_norm_underflows(rng):
    # squares of 1e-170 underflow: the norm is 0 and the unit row is zero,
    # though the GEMM of the raw row is not
    items = rng.normal(size=(20, 6))
    items[[3, 8]] *= 1e-170
    queries = np.vstack([rng.normal(size=(3, 6)), rng.normal(size=6) * 1e-170])
    assert (row_norms(items)[[3, 8]] == 0.0).all()
    for k in (1, 5, 20):
        _assert_unit_tops(queries, items, [set(), {3}, {0, 8}, set()], k)


def test_unit_tops_with_subnormal_norms(rng):
    # one entry of about 1e-320 per row with that entry as its norm: a
    # reciprocal 1/n overflows, the divide gives the unit row exactly
    items = np.zeros((12, 5))
    items[np.arange(12), np.arange(12) % 5] = rng.choice([-1.0, 1.0], size=12) * 1e-320
    items[7] = rng.normal(size=5)
    norms = np.abs(items).max(axis=1)
    norms[7] = np.linalg.norm(items[7])
    queries = rng.normal(size=(4, 5))
    for k in (1, 4, 12):
        _assert_unit_tops(queries, items, [set(), {0}, set(), {7}], k, u_norms=norms)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_unit_tops_of_rows_scaled_by_extremes(rng, scale):
    items = rng.normal(size=(40, 9)) * scale ** rng.integers(0, 2, size=(40, 1))
    queries = rng.normal(size=(5, 9)) * scale
    exclude = [set(rng.choice(40, size=3).tolist()) for _ in range(5)]
    for k in (1, 10, 39, 40):
        _assert_unit_tops(queries, items, exclude, k)


def test_unit_tops_of_rows_that_duplicate_after_scaling(rng):
    items = rng.normal(size=(30, 8))
    items[10] = items[2] * 2.0  # a power of two: the unit rows are equal bit for bit
    items[11] = items[2] * 3.0  # equal up to the rounding of the divide
    items[12] = items[5] * 1e100
    queries = np.vstack([items[[2, 5]], rng.normal(size=(3, 8))])
    assert (unit_rows(items)[0][10] == unit_rows(items)[0][2]).all()
    for k in (1, 3, 12, 30):
        _assert_unit_tops(queries, items, [set(), {5}, set(), {2}, {10, 11}], k)


def test_unit_tops_of_negative_zero_rows(rng):
    items = rng.normal(size=(15, 4))
    items[[1, 6]] = -0.0
    items[9, ::2] = -0.0
    queries = np.vstack([np.full(4, -0.0), -items[0], rng.normal(size=4)])
    for k in (1, 6, 15):
        _assert_unit_tops(queries, items, [set(), {1}, {6}], k)


def test_unit_tops_with_k_at_least_n(rng):
    items = rng.normal(size=(7, 3)) * np.array([[1e-3], [1.0], [1e3], [1.0], [2.0], [0.5], [9.0]])
    queries = rng.normal(size=(3, 3))
    for k in (7, 8, 50):
        _assert_unit_tops(queries, items, [set(), {2, 4}, set(range(7))], k)


_SCALES = [1.0, 2.0, 1e-150, 1e150, 1e-170, 3.0]


@given(st.integers(1, 10), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_unit_tops_are_prefix_of_canonical_sort(n, d, data):
    # tied entries times row scales: rows that duplicate after normalising,
    # zero rows and rows whose norm underflows
    entries = st.lists(st.sampled_from(_ENTRY_POOL), min_size=d, max_size=d)
    scaled = st.tuples(entries, st.sampled_from(_SCALES))
    rows = data.draw(st.lists(scaled, min_size=n, max_size=n))
    items = np.array([np.array(row) * scale for row, scale in rows])
    queries = np.array(data.draw(st.lists(entries, min_size=0, max_size=4))).reshape(-1, d)
    exclude = [data.draw(st.sets(st.integers(0, n - 1))) for _ in range(len(queries))]
    for k in range(1, n + 2):
        _assert_unit_tops(queries, items, exclude, k)


def test_sparse_matrix_holds_scipy_index_arrays(rng):
    dense = rng.normal(size=(30, 20)) * (rng.random(size=(30, 20)) < 0.3)
    dense[7] = 0.0
    m = SparseMatrix.from_scipy(dense)
    for name in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(m, name), getattr(m._scipy, name))
    # the products and row slices of a matrix over int64 copies of the arrays
    wide = sp.csr_matrix((m.data.copy(), m.indices.astype(np.int64), m.indptr.astype(np.int64)),
                         shape=(30, 20))
    x, y = rng.normal(size=(20, 5)), rng.normal(size=(30, 5))
    assert m.dot(x).tobytes() == (wide @ x).tobytes()
    assert m.tdot(y).tobytes() == (wide.T @ y).tobytes()
    rows = np.array([0, 3, 7, 29])
    got, want = m.take_rows(rows), wide[rows]
    assert np.shares_memory(got.indices, got._scipy.indices)
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()
    assert got.dot(x).tobytes() == (want @ x).tobytes()


def test_from_scipy_does_not_alias_a_csr_input(rng):
    source = sp.csr_matrix(rng.normal(size=(4, 3)))
    m = SparseMatrix.from_scipy(source)
    source.data[:] = 1.0
    assert not np.shares_memory(m.data, source.data)
    assert (m.data != 1.0).all()


def test_divide_rows_zero_norm_rows_are_positive_zero_without_warning(rng):
    x = rng.normal(size=(6, 5))
    x[1] = 0.0
    x[3] = -0.0
    x[4] = [1e-170, -1e-170, 0.0, -0.0, 2e-170]  # its squares underflow: norm 0
    norms = row_norms(x)
    assert (norms[[1, 3, 4]] == 0.0).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = divide_rows(x, norms)
    assert out[[1, 3, 4]].tobytes() == np.zeros((3, 5)).tobytes()  # +0.0, not -0.0
    keep = [0, 2, 5]
    assert out[keep].tobytes() == (x[keep] / norms[keep, None]).tobytes()
    # norms of any shape but the last axis: a block of row blocks
    blocks = divide_rows(x.reshape(2, 3, 5), norms.reshape(2, 3))
    assert blocks.reshape(6, 5).tobytes() == out.tobytes()


def _assert_self_tops(x, k, norms=None):
    """self_top_k equals score_top_k of the rows against themselves, each row
    excluded, and the canonical sort of the unit rows (made here, zero rows for
    a zero norm)."""
    n = len(x)
    norms = row_norms(x) if norms is None else norms
    got = self_top_k(x, norms, k)
    want = score_top_k(x, norms, x, norms, np.arange(n)[:, None], k)
    assert len(got) == len(want) == n
    for top, ref in zip(got, want):
        assert top.dtype == np.int64 and top.tobytes() == ref.tobytes()
    unit = _unit(x, norms)
    assert [top.tolist() for top in got] == canonical_top_k_reference(
        unit, unit, [{r} for r in range(n)], k)


def _unit(x, norms):
    """The unit rows made here: zero rows for a zero norm."""
    return np.where(norms[:, None] > 0.0, x / np.where(norms > 0.0, norms, 1.0)[:, None], 0.0)


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 600])
@pytest.mark.parametrize("k", [1, 10, None], ids=["k1", "k10", "n-1"])
def test_self_top_k_equals_score_top_k(rng, monkeypatch, n, k):
    rescored = _spy_rescoring(monkeypatch)
    k = n - 1 if k is None else k
    x = rng.normal(size=(n, 24))
    _assert_self_tops(x, k)
    if k < n - 1:  # separated Gaussian rows: every top comes from the merged screen
        assert rescored == []


@pytest.mark.parametrize("k", [126, 127, 128, 150, 297])
def test_self_top_k_lists_longer_than_a_strip(rng, k):
    # k + 1 just below, at and above the 128-row strip height: a full strip's
    # column is partitioned (k = 126) or taken whole, as the 44-row last
    # strip's always is; for k + 1 > 128 a list still fills after one strip
    x = rng.normal(size=(300, 8))
    x[[20, 140, 260]] = x[7]
    _assert_self_tops(x, k)


@pytest.mark.parametrize("k", [1, 4, 10])
def test_self_top_k_rescores_duplicate_rows(rng, monkeypatch, k):
    # copies on both sides of the 128-row strips tie exactly: rescored rows
    rescored = _spy_rescoring(monkeypatch)
    x = rng.normal(size=(300, 12))
    x[[5, 127, 128, 200, 299]] = x[40]
    x[[129, 256, 257]] = x[130] * 2.0  # a power of two: the unit rows are equal
    _assert_self_tops(x, k)
    assert 0 < len(rescored) < 300


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_self_top_k_rows_scaled_by_extremes(rng, scale):
    x = rng.normal(size=(260, 9)) * scale ** rng.integers(0, 2, size=(260, 1))
    for k in (1, 10):
        _assert_self_tops(x, k)


def test_self_top_k_with_subnormal_norms(rng):
    # one entry of about 1e-320 per row and that entry as its norm: the lower
    # values of a row are divided by a subnormal norm in other rows' strips
    x = np.zeros((200, 5))
    x[np.arange(200), np.arange(200) % 5] = rng.choice([-1.0, 1.0], size=200) * (
        1e-320 * rng.integers(1, 4, size=200))
    x[[7, 150]] = rng.normal(size=(2, 5))
    norms = np.abs(x).max(axis=1)
    norms[[7, 150]] = np.linalg.norm(x[[7, 150]], axis=1)
    for k in (1, 10):
        _assert_self_tops(x, k, norms)


def test_self_top_k_single_entry_rows_beside_dense_rows(rng, monkeypatch):
    # a one-hot row has ||unit||_1 = 1 against about sqrt(d) for a dense row:
    # its band is the narrow one, and in a later strip its lower values come
    # from the dense rows' strips (the band in the other orientation)
    rescored = _spy_rescoring(monkeypatch)
    x = rng.normal(size=(400, 64))
    x[[3, 140, 300]] = np.eye(64)[[0, 1, 2]] * [[3.0], [0.5], [7.0]]
    for k in (1, 10):
        _assert_self_tops(x, k)
    assert rescored == []


@given(st.integers(129, 280), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 3, 10]))
@settings(max_examples=25, deadline=None)
def test_self_top_k_matches_canonical_sort_under_ties(n, d, seed, k):
    # entries from the tied pool times row scales, past one 128-row strip:
    # exact ties, duplicate unit rows, zero rows and norms that underflow
    rng = np.random.default_rng(seed)
    x = rng.choice(_ENTRY_POOL, size=(n, d)) * rng.choice(_SCALES, size=(n, 1))
    _assert_self_tops(x, k)


def _spy_opened(monkeypatch):
    """The rows self_rank opens: only its settle divides one row's columns."""
    opened = []
    divide = sparse._divide_columns

    def spy(gemm, u_norms, zero):
        if gemm.ndim == 1:
            opened.append(gemm)
        divide(gemm, u_norms, zero)
    monkeypatch.setattr(sparse, "_divide_columns", spy)
    return opened


def _assert_self_ranks(x, target, norms=None):
    """self_rank equals each target's place in the canonical sort of the
    other unit rows (-1 for no target)."""
    n = len(x)
    norms = row_norms(x) if norms is None else norms
    got = self_rank(x, norms, np.asarray(target))
    unit = _unit(x, norms)
    ranked = canonical_top_k_reference(unit, unit, [{r} for r in range(n)], n)
    assert got.dtype == np.int64
    assert got.tolist() == [ranked[r].index(t) if t >= 0 else -1
                            for r, t in enumerate(target)]


def _spread_targets(n, seed=0):
    """Seeded targets, never the row itself, every fifth row without one; rows
    0, 1 and n - 1 take targets in a later, the same and an earlier strip
    (as far as n allows)."""
    target = np.random.default_rng(seed).integers(0, n - 1, size=n)
    target += target >= np.arange(n)
    target[4::5] = -1
    target[[0, n - 1]], target[1:2] = [n - 1, 0], 2 % n
    return target.tolist()


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257, 600])
def test_self_rank_is_the_place_in_the_canonical_sort(rng, monkeypatch, n):
    opened = _spy_opened(monkeypatch)
    x = rng.normal(size=(n, 24))
    target = _spread_targets(n)
    if n > 128:
        strips = [(r // 128, t // 128) for r, t in enumerate(target) if t >= 0]
        assert {np.sign(ts - rs) for rs, ts in strips} == {-1, 0, 1}
    _assert_self_ranks(x, target)
    assert opened == []  # separated Gaussian rows: every rank from the screen


def test_self_rank_opens_rows_whose_target_ties(rng, monkeypatch):
    # copies of a target before and after it, in its strip and in others: a
    # tie from a lower index is ahead of it, one from a higher index behind it
    opened = _spy_opened(monkeypatch)
    x = rng.normal(size=(300, 12))
    x[[5, 127, 128, 200, 299]] = x[140]
    x[[129, 256, 257]] = x[130] * 2.0  # a power of two: the unit rows are equal
    target = _spread_targets(300)
    target[:4] = [140, 140, 256, 257]
    target[290:293] = [129, 130, 256]
    _assert_self_ranks(x, target)
    assert 0 < len(opened) < 300 - target.count(-1)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_self_rank_rows_scaled_by_extremes(rng, scale):
    x = rng.normal(size=(260, 9)) * scale ** rng.integers(0, 2, size=(260, 1))
    _assert_self_ranks(x, _spread_targets(260))


def test_self_rank_with_subnormal_norms(rng):
    x = np.zeros((200, 5))
    x[np.arange(200), np.arange(200) % 5] = rng.choice([-1.0, 1.0], size=200) * (
        1e-320 * rng.integers(1, 4, size=200))
    x[[7, 150]] = rng.normal(size=(2, 5))
    # rows of several subnormal entries: their products with the unit rows
    # round in the subnormal range, errors the width's floor covers
    x[100:140] = rng.integers(-60, 61, size=(40, 5)) * 1e-322
    norms = np.abs(x).max(axis=1)
    norms[[7, 150]] = np.linalg.norm(x[[7, 150]], axis=1)
    norms[100:140] = np.linalg.norm(x[100:140] * 1e300, axis=1) / 1e300
    target = _spread_targets(200)
    target[7], target[150] = 150, 7
    _assert_self_ranks(x, target, norms)


def test_self_rank_zero_norm_rows_and_targets(rng, monkeypatch):
    # a zero row ties every item at 0; a zero target scores 0 in every row
    opened = _spy_opened(monkeypatch)
    x = rng.normal(size=(140, 8))
    x[[3, 130]] = 0.0
    x[60] *= 1e-170  # its squares underflow: a zero norm, a nonzero raw row
    target = _spread_targets(140)
    target[3], target[130], target[60] = 77, 3, 139
    target[10], target[135], target[20] = 3, 60, 130
    _assert_self_ranks(x, target)
    assert len(opened) >= 3
    assert (self_rank(x, row_norms(x), np.full(140, -1)) == -1).all()


@given(st.integers(129, 280), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_self_rank_matches_canonical_sort_under_ties(n, d, seed):
    # tied entries times row scales: exact ties, duplicate unit rows, zero
    # rows and norms that underflow
    rng = np.random.default_rng(seed)
    x = rng.choice(_ENTRY_POOL, size=(n, d)) * rng.choice(_SCALES, size=(n, 1))
    _assert_self_ranks(x, _spread_targets(n, seed))
