"""Peak traced allocations of the train step's kernels and of feature loading.

numpy reports its array allocations to tracemalloc, so the peak covers every
temporary a call makes and returns; the inputs are made before tracing
starts. The in-batch losses hold losses._ROWS rows of their n x n matrices
at a time, never a whole one. LightGCN propagation holds one layer's
user-side array besides the mean. load_features reads the payload straight
into the array it returns.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from alignrec import losses
from alignrec.features import FeatureMatrix, load_features, save_features
from alignrec.losses import _infonce_side, _reg_rep
from alignrec.model import lightgcn_propagate
from alignrec.sparse import SparseMatrix

from conftest import manual_batch


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_infonce_side_holds_one_block_of_logits(rng):
    # one 256-row block of logits is 0.128 n^2 floats at n = 2000; the 16-d
    # row arrays add about 0.05. The full matrix would be n^2.
    n = 2000
    x, y = rng.normal(size=(n, 16)), rng.normal(size=(n, 16))
    assert _peak(lambda: _infonce_side(x, y, 0.2)) < 0.25 * n * n * 8


@pytest.mark.parametrize("n", [1200, 2400])
def test_reg_rep_holds_three_blocks(rng, n):
    # the block's cosines, their difference with the feature cosines and the
    # difference's upper-triangle cells gathered for the sum: three blocks of
    # losses._ROWS rows, 0.64 n^2 floats at n = 1200 and 0.32 at 2400. The
    # full-matrix version holds about 3 n^2.
    fp = SimpleNamespace(reps=SimpleNamespace(h_mm_items=rng.normal(size=(n, 8))))
    feat = FeatureMatrix(rng.normal(size=(n, 8)))
    batch = manual_batch(np.zeros(n, dtype=np.int64), rng.permutation(n), np.zeros(n))
    batch.distinct_items  # cached before tracing
    g = SimpleNamespace(h_mm_items=np.zeros((n, 8)))
    assert _peak(lambda: _reg_rep(fp, feat, batch, g, 0.1)) < 3.5 * losses._ROWS * n * 8


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_propagation_holds_one_user_layer_besides_the_mean(rng, layers):
    # the user mean and one layer; the item mean, one layer and its
    # successor. Holding the old user layer while the next one is made, or
    # dividing the means into new arrays, takes a third user-sized array.
    R = SparseMatrix.from_scipy(
        (rng.random((4000, 1000)) < 0.003) * rng.random((4000, 1000)))
    Rt = R.transpose()
    users, items = rng.normal(size=(4000, 16)), rng.normal(size=(1000, 16))
    peak = _peak(lambda: lightgcn_propagate(R, Rt, users, items, layers))
    assert peak < 2 * users.nbytes + 3 * items.nbytes + 65536


def test_load_features_reads_into_its_result(rng, tmp_path):
    # the payload is read once, into the returned array; the finiteness
    # check takes 512-row blocks
    data = rng.normal(size=(3000, 256))
    save_features(tmp_path / "f.afea", data)
    peak = _peak(lambda: load_features(tmp_path / "f.afea", 3000))
    assert peak <= 1.2 * data.nbytes
    assert load_features(tmp_path / "f.afea", 3000).data.tobytes() == data.tobytes()
