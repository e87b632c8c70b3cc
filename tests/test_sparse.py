import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import sparse
from alignrec.errors import DataError, DimensionError
from alignrec.sparse import SparseMatrix, _abs_max, score_top_k, top_k

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
    got = score_top_k(queries, items, [np.array(sorted(ex), dtype=np.int64) for ex in exclude], k)
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
    tops = score_top_k(rng.normal(size=(2, 3)), items, [np.arange(5), [4, 3, 2, 1, 0]], 3)
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
    # so score_top_k's slack is the one np.abs(U).max() gave
    d, eps = U.shape[1], np.finfo(np.float64).eps
    assert (4.0 * d * eps * _abs_max(U)).tobytes() == (4.0 * d * eps * np.abs(U).max()).tobytes()


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
    got = score_top_k(queries, items, exclude, 20)
    want = canonical_top_k_reference(queries, items, [set(ex.tolist()) for ex in exclude], 20)
    assert [top.tolist() for top in got] == want
