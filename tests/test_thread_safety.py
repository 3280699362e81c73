"""The thread-safety contract: sketch operators and CP tensors are shared
across threads, `apply` is reentrant, and threads racing on a tensor's
first term Gram compute the same array. Two threads run one trial of every
method at once on shared inputs, and every output must equal the serial
one bit for bit."""

import threading

import numpy as np

from idsketch.bench import run_matrix_trial, run_tensor_trial
from idsketch.cp_tensor import TENSOR_METHODS
from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor
from idsketch.matrix_id import MATRIX_METHODS, UNSKETCHED_METHODS
from idsketch.sketch import CountSketchOp, TensorSketchOp

RANK, SKETCH_DIM = 8, 14


def shared_tensor():
    return gen_synthetic_tensor(3, 400, 60, 6, 0.2, seed=3)


def every_output(a, x, count, tensor):
    """Cols, coefficients, weights and errors of one trial of each method
    (the tensor methods first, so threads race on the uncached Gram), then
    the two shared operators applied."""
    out = []
    for method in TENSOR_METHODS:
        dim = None if method == "gram" else SKETCH_DIM
        result, err, _, _ = run_tensor_trial(x, method, RANK, dim, seed=5)
        out += [result.cols, result.coeffs, result.new_weights, err]
    for method in MATRIX_METHODS:
        dim = None if method in UNSKETCHED_METHODS else SKETCH_DIM
        decomp, err, _, _ = run_matrix_trial(a, method, RANK, dim, seed=6)
        out += [decomp.cols, decomp.coeffs, err]
    out += [count.apply(a), count.apply(a.toarray()), tensor.apply(x.factors, x.weights)]
    return out


def test_two_threads_match_serial():
    a = gen_synthetic_matrix(6000, 80, RANK, 0.05, seed=2)
    count = CountSketchOp(a.shape[0], SKETCH_DIM, seed=7, surjective=True)
    serial_x = shared_tensor()
    tensor = TensorSketchOp(serial_x.mode_dims, SKETCH_DIM, seed=8)
    serial = every_output(a, serial_x, count, tensor)

    x = shared_tensor()
    assert "term_gram" not in vars(x)
    start = threading.Barrier(2, timeout=10)
    results = [None, None]

    def run(i):
        start.wait()
        results[i] = every_output(a, x, count, tensor)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for outputs in results:
        assert outputs is not None and len(outputs) == len(serial)
        for got, want in zip(outputs, serial):
            assert np.array_equal(got, want)
