"""Hash sketches replay bit-identically for a fixed seed: the bucket and
sign arrays are pinned by the first 16 hex digits of their SHA-256
digests (little-endian int64 buckets, float64 signs), and so are the
columns the hash-sketch and Gram IDs select on small generated inputs,
which pins the pivot order of the QR behind them. A changed digest
breaks the replay promise; it is not a figure to update."""

import hashlib

import numpy as np
import pytest

from idsketch.cp_tensor import CpTensor, gram_tensor_id, tensorsketch_id
from idsketch.generators import gen_synthetic_matrix
from idsketch.matrix_id import countsketch_id
from idsketch.sketch import CountSketchOp, TensorSketchOp


def digest(array, dtype):
    data = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def digests(op):
    return digest(op.bucket, "<i8"), digest(op.sign, "<f8")


@pytest.mark.parametrize(
    "surjective, expected",
    [
        (False, ("2a7a2f3ed444fbe3", "f5ec8d7df3548f46")),
        (True, ("9798b336adcc662b", "9dac97f94aa15489")),
    ],
)
def test_countsketch_replay(surjective, expected):
    assert digests(CountSketchOp(1000, 37, seed=2024, surjective=surjective)) == expected


def test_tensorsketch_replay():
    op = TensorSketchOp([50, 80, 120], 29, seed=2024)
    assert [digests(mode) for mode in op.mode_ops] == [
        ("138bd0d1b939e56c", "e491a070046b2da3"),
        ("f4306ed80aceb408", "f70670b45ad98de9"),
        ("f443bd107219ae0d", "9de18cb61ce752a9"),
    ]


def small_tensor():
    rng = np.random.default_rng(7)
    return CpTensor(rng.random(12) + 0.5, [rng.standard_normal((8, 12)) for _ in range(3)])


def test_countsketch_id_cols_replay():
    a = gen_synthetic_matrix(2000, 80, 10, 0.05, seed=7)
    assert digest(countsketch_id(a, 8, seed=11).cols, "<i8") == "2c4a9510aa2180e2"


def test_tensorsketch_id_cols_replay():
    cols = tensorsketch_id(small_tensor(), 6, seed=11).cols
    assert digest(cols, "<i8") == "89b17c6daaeec219"


def test_gram_tensor_id_cols_replay():
    assert digest(gram_tensor_id(small_tensor(), 6).cols, "<i8") == "2de8408a3c4ca3f1"
