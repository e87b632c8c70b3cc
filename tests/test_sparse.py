import numpy as np
import pytest

from alignrec.errors import DataError, DimensionError
from alignrec.sparse import SparseMatrix

from oracles import to_dense


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
