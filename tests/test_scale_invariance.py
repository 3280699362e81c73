"""Scaling the input by a power of two changes nothing but the scale.

Multiplying by 2^e is exact while every value stays in the normal range,
and every method is linear in its input up to pivoting, so a scaled input
must give the same columns, the same coefficients and the same numerical
rank, and an error of exactly the base error times 2^e.
"""

from functools import cache

import numpy as np
import pytest

from idsketch.bench import run_matrix_trial, run_tensor_trial
from idsketch.cp_tensor import CpTensor
from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor

EXPONENTS = [-900, -600, -200, -20, 20, 200, 600, 1000]


@cache
def matrix():
    return gen_synthetic_matrix(3000, 120, 20, 0.02, seed=4)


@cache
def tensor():
    return gen_synthetic_tensor(3, 200, 60, 10, 0.2, seed=2)


def scaled_tensor(e):
    x = tensor()
    return CpTensor(x.weights * 2.0**e, x.factors)


@cache
def matrix_base(method):
    return run_matrix_trial(matrix(), method, 20, 30, 9)


@cache
def tensor_base(method):
    sketch_dim = None if method == "gram" else 20
    return run_tensor_trial(tensor(), method, 10, sketch_dim, 5)


def assert_scaled(base, scaled, e):
    (d0, err0), (d, err) = base, scaled
    assert np.array_equal(d.cols, d0.cols)
    assert np.array_equal(d.coeffs, d0.coeffs)
    assert d.numerical_rank == d0.numerical_rank
    assert err == err0 * 2.0**e


def matrix_cases():
    for method in ("deterministic", "countsketch", "srft", "gaussian"):
        for e in EXPONENTS:
            yield pytest.param(method, e, id=f"{method}-{e}")


def tensor_cases():
    for method in ("tensorsketch", "gaussian", "gram"):
        for e in EXPONENTS:
            yield pytest.param(method, e, id=f"{method}-{e}")
    # at 2^-540 the weighted Gram underflows to zero and at 2^600 it
    # overflows; the Gram of power-of-two scaled weights does neither
    for e in (-540, 500):
        yield pytest.param("gram", e, id=f"gram-{e}")


@pytest.mark.parametrize("method, e", matrix_cases())
def test_matrix_scaled_by_power_of_two(method, e):
    scaled = run_matrix_trial(matrix() * 2.0**e, method, 20, 30, 9)
    assert_scaled(matrix_base(method), scaled, e)


@pytest.mark.parametrize("method, e", tensor_cases())
def test_tensor_scaled_by_power_of_two(method, e):
    sketch_dim = None if method == "gram" else 20
    # an overflow anywhere raises numpy's RuntimeWarning, an error in this suite
    scaled = run_tensor_trial(scaled_tensor(e), method, 10, sketch_dim, 5)
    assert_scaled(tensor_base(method), scaled, e)


@pytest.mark.parametrize("e", [-1060, -1030])
@pytest.mark.parametrize("method", ["deterministic", "countsketch", "srft", "gaussian"])
def test_subnormal_matrix_is_a_numerical_failure(method, e):
    # below 2^-1022 the products lose bits: at 2^-1060 every method's
    # adjoint test refused the pair as bad input (ValueError), and at
    # 2^-1030, where the largest entry (1.7e-311) is subnormal too, the
    # error came back as a number
    with pytest.raises(FloatingPointError, match="subnormal"):
        run_matrix_trial(matrix() * 2.0**e, method, 20, 30, 9)
