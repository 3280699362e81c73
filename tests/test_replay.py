"""Hash sketches replay bit-identically for a fixed seed: the bucket and
sign arrays are pinned by the first 16 hex digits of their SHA-256
digests (little-endian int64 buckets, float64 signs). A changed digest
breaks the replay promise; it is not a figure to update."""

import hashlib

import numpy as np
import pytest

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
