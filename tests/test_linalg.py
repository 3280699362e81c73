import math

import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.linalg import (
    SingularTriangleError,
    _column_sumsq,
    _norm,
    _normalize,
    as_csc,
    as_dense,
    cpqr,
    held_rows,
    triangular_solve,
)
from idsketch.matrix_id import matrix_id
from idsketch.mmio import read_matrix_market, write_matrix_market


class TestCpqr:
    def test_identity(self):
        r, perm = cpqr(np.eye(3), 3)
        assert np.allclose(np.abs(np.diag(r)), 1.0, atol=1e-14)
        assert np.allclose(np.abs(r), np.eye(3), atol=1e-14)
        assert matrix_id(np.eye(3), 3).numerical_rank == 3

    def test_hand_pivot(self):
        # column 0 has norm 2, column 1 norm 1
        r, perm = cpqr(np.array([[2.0, 1.0], [0.0, 0.0]]), 1)
        assert perm[0] == 0
        assert abs(r[0, 0]) == pytest.approx(2.0, abs=1e-15)

    def test_low_rank_detection(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 10)) @ rng.standard_normal((10, 30))
        # the numerical rank is counted at the fixed 1e-12 relative tolerance
        assert matrix_id(a, 30).numerical_rank == 10
        # cross-check against the SVD oracle
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[9] / sv[0] > 1e-10 > sv[10] / sv[0]
        assert sv[10] / sv[0] < 1e-12

    def test_zero_matrix(self):
        r, perm = cpqr(np.zeros((4, 3)), 2)
        assert np.all(r == 0.0)
        assert matrix_id(np.zeros((4, 3)), 2).numerical_rank == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_and_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(5, 200))
        cols = int(rng.integers(5, 200))
        a = rng.standard_normal((rows, cols))
        k = int(rng.integers(1, min(rows, cols) + 1))
        r, perm = cpqr(a, k)
        assert r.shape == (k, cols)
        d = np.abs(np.diag(r))
        assert np.all(d[:-1] >= d[1:])
        # the truncated factorization is the prefix of the full one
        full_r, full_perm = cpqr(a, min(rows, cols))
        assert np.array_equal(r, full_r[:k])
        assert np.array_equal(perm, full_perm)
        # R'R = P'A'AP holds exactly when Q has orthonormal columns and
        # Q R reproduces the pivoted columns
        ap = a[:, full_perm]
        err_full = np.linalg.norm(full_r.T @ full_r - ap.T @ ap, "fro")
        assert err_full <= 1e-12 * np.linalg.norm(a, "fro") ** 2

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            cpqr(np.eye(3), 0)
        with pytest.raises(ValueError):
            cpqr(np.eye(3), 4)


class TestTriangularSolve:
    def test_residual(self):
        rng = np.random.default_rng(5)
        r = np.triu(rng.standard_normal((10, 10))) + 5.0 * np.eye(10)
        b = rng.standard_normal((10, 3))
        x = triangular_solve(r, b)
        assert np.linalg.norm(r @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_singular_names_index(self):
        r = np.triu(np.ones((3, 3)))
        r[1, 1] = 0.0
        with pytest.raises(SingularTriangleError, match="index 1"):
            triangular_solve(r, np.ones(3))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            triangular_solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            triangular_solve(np.eye(3), np.ones(2))


class TestHeldRows:
    def test_csc_restricted_to_rows_with_an_entry(self):
        dense = np.zeros((7, 3))
        dense[[4, 1, 1, 5], [0, 0, 2, 1]] = [1.0, 2.0, 3.0, 4.0]
        a = sp.csc_array(dense)
        rows, held = held_rows(a)
        assert np.array_equal(rows, [1, 4, 5])
        assert held.format == "csc" and np.array_equal(held.toarray(), dense[rows])
        # the restriction remaps the row indices only
        assert np.shares_memory(held.data, a.data)
        assert np.shares_memory(held.indptr, a.indptr)

    def test_stored_zero_holds_its_row_and_input_is_untouched(self):
        # CSR with unsorted column indices and a stored zero in row 3
        a = sp.csr_array(
            (np.array([5.0, 2.0, 0.0]), np.array([1, 0, 0]), np.array([0, 0, 2, 2, 3])),
            shape=(4, 2),
        )
        before = [x.copy() for x in (a.data, a.indices, a.indptr)]
        rows, held = held_rows(a)
        assert np.array_equal(rows, [1, 3])
        assert np.array_equal(held.toarray(), [[2.0, 5.0], [0.0, 0.0]])
        assert held.has_sorted_indices and held.nnz == 3
        for was, now in zip(before, (a.data, a.indices, a.indptr)):
            assert np.array_equal(was, now)

    def test_dense_taken_as_it_is(self):
        a = np.ones((3, 2))
        rows, held = held_rows(a)
        assert held is a and np.array_equal(rows, np.arange(3))


class TestValidation:
    def test_as_dense_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_dense(np.array([[np.inf, 0.0]]))

    def test_as_dense_rejects_empty(self):
        with pytest.raises(ValueError):
            as_dense(np.zeros((0, 3)))

    def test_as_csc_canonicalizes(self):
        coo = sp.coo_array(
            (np.array([1.0, 2.0, 0.0, 0.5]), (np.array([2, 0, 1, 2]), np.array([0, 0, 1, 0]))),
            shape=(3, 2),
        )
        a = as_csc(coo)
        assert a.nnz == 2  # explicit zero pruned, duplicates merged
        assert a[2, 0] == 1.5
        col0 = a.indices[a.indptr[0] : a.indptr[1]]
        assert np.all(np.diff(col0) > 0)

    @pytest.mark.parametrize("container", [sp.csc_array, sp.csc_matrix])
    def test_as_csc_does_not_copy_canonical_input(self, container):
        rng = np.random.default_rng(4)
        a = container(sp.random_array((50, 8), density=0.3, rng=rng, format="csc"))
        out = as_csc(a)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(out, name), getattr(a, name)), name

    def test_as_csc_rejects_dense(self):
        with pytest.raises(ValueError):
            as_csc(np.eye(3))

    # a float64 cast used to drop the imaginary part with only a ComplexWarning
    def test_as_dense_rejects_complex(self):
        with pytest.raises(ValueError, match="a has complex entries"):
            as_dense(np.array([[1.0 + 2.0j, 3.0], [0.5, 1.0]]))

    def test_as_csc_rejects_complex(self):
        a = sp.random_array((50, 8), density=0.5, rng=1, format="csc") * (1 + 1j)
        with pytest.raises(ValueError, match="a has complex entries"):
            as_csc(a)


class TestMatrixMarket:
    def test_sparse_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        a = sp.random_array((40, 25), density=0.1, rng=rng, format="csc")
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix coordinate real general")
        b = read_matrix_market(path)
        assert sp.issparse(b)
        assert (a != b).nnz == 0  # 17 significant digits: exact float roundtrip

    def test_dense_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 4))
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix array real general")
        b = read_matrix_market(path)
        assert np.array_equal(a, b)


def scaled_exponent(v):
    """The exponent e of max |v| < 2**e <= 2 max |v| (0 for no entry)."""
    peak = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
    return math.frexp(peak)[1]


def reference_norm(v):
    """The range-safe norm with every vector scaled by a power of two: the
    root of the scaled sum of squares, scaled back."""
    e = scaled_exponent(v)
    w = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(max(w @ w, 0.0)), e)


def reference_normalize(v):
    """`_normalize` with every vector scaled in place by a power of two."""
    e = scaled_exponent(v)
    np.ldexp(v, -e, out=v)
    root = math.sqrt(v @ v)
    v /= root or 1.0
    return math.ldexp(root, e)


def outcome(norm, v):
    """`norm(v)`, or "overflow" when it leaves the float64 range."""
    try:
        return norm(v)
    except (OverflowError, FloatingPointError):
        return "overflow"


def mantissas():
    """Finite vectors with max |entry| in [0.5, 1): Gaussian ones of several
    lengths, one with zero entries, one with entries 2**-60 below its peak."""
    rng = np.random.default_rng(12)
    for n in (1, 7, 1000):
        v = rng.standard_normal(n)
        yield v / (2.0 * np.abs(v).max())
    v = rng.uniform(-0.99, 0.99, 300)
    v[::3] = 0.0
    yield v
    v = rng.uniform(-1.0, 1.0, 50) * 2.0**-60
    v[0] = 0.75
    yield v


def norm_cases():
    """Every mantissa vector scaled by 2**k for k from -1100 to 1024, so
    its entries go from all zero through subnormal to the largest finite,
    plus vectors of subnormal, zero and mixed normal and subnormal entries."""
    for v in mantissas():
        for k in range(-1100, 1025, 11):
            yield np.ldexp(v, k)
    tiny = np.array([3.0, -7.0, 1.0, 0.0, 2.0**52 - 1]) * 5e-324
    yield tiny
    yield np.zeros(4)
    yield np.zeros(0)
    for peak in (1.5, 2.0**-1000, 2.0**-500, 2.0**10, 2.0**600):
        yield np.concatenate([[peak, -peak / 3], tiny, [1e-310, -2.0**-1022]])


class TestRangeSafeNorm:
    """`_norm` and `_normalize` take the plain sum of squares in range and
    scale by a power of two only outside it; both routes give the bits of
    the scaled routine."""

    def test_norm_matches_scaled_reference(self):
        off = [v for v in norm_cases() if outcome(_norm, v) != outcome(reference_norm, v)]
        assert off == []

    def test_normalize_matches_scaled_reference(self):
        # the scaled routine rounds a subnormal entry twice when the scaling
        # shifts it right (2**-e with e > 0): there the entry is the single
        # rounded quotient, entry / norm
        off = []
        for v in norm_cases():
            expected, out = v.copy(), v.copy()
            norm = outcome(reference_normalize, expected)
            e = scaled_exponent(v)
            rounded_twice = np.ldexp(np.ldexp(v, -e), e) != v
            if rounded_twice.any():
                expected[rounded_twice] = v[rounded_twice] / norm
            if outcome(_normalize, out) != norm or not np.array_equal(out, expected):
                off.append(v)
        assert off == []

    def test_normalize_rounds_a_subnormal_entry_once(self):
        # scaled by 2**-1, the entry 3 * 2**-1074 rounds to 2 * 2**-1074,
        # and its quotient by 0.75 to 3 * 2**-1074; the quotient of the
        # entry by the norm 1.5 is 2 * 2**-1074
        v = np.array([1.5, 3 * 5e-324])
        expected = v.copy()
        reference_normalize(expected)
        assert expected[1] == 3 * 5e-324
        assert _normalize(v) == 1.5 and v[1] == 2 * 5e-324

    def test_integer_vector_takes_the_scaled_route(self):
        # the matrix entries `id_residual_operator` norms keep the input's
        # dtype; an int64 sum of squares would wrap silently at 2**63
        # (2**32 + 1)**2 wraps to 2**33 + 1
        v = np.array([2**32 + 1, 0], dtype=np.int64)
        assert _norm(v) == 2.0**32 + 1

    def test_overflowing_norm_raises(self):
        v = np.full(4, 2.0**1023)
        assert _norm(v[:1]) == 2.0**1023
        with pytest.raises(FloatingPointError, match="beyond the float64 range"):
            _norm(v)
        with pytest.raises(FloatingPointError, match="beyond the float64 range"):
            _normalize(v)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, entry):
        v = np.array([1.0, entry, 0.5])
        with pytest.raises(FloatingPointError, match="non-finite"):
            _norm(v)
        with pytest.raises(FloatingPointError, match="non-finite"):
            _normalize(v)


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_sumsq_matches_the_csc_column_sum(order):
    # a dense matrix sums its nonzeros in CSC order, as scipy sums a CSC
    # column: with empty columns, an all-zero matrix and one row among them
    rng = np.random.default_rng(3)
    shapes = [(400, 60), (1, 9), (37, 1), (5, 4)]
    for n, (rows, cols) in enumerate(shapes * 5):
        a = rng.standard_normal((rows, cols))
        a[rng.random((rows, cols)) < rng.random()] = 0.0
        a[:, rng.random(cols) < 0.2] = 0.0
        if n == len(shapes):
            a[:] = 0.0
        a = np.asarray(a, order=order)
        csc = sp.csc_array(a)
        squares = csc.copy()
        squares.data **= 2
        expected = squares.sum(axis=0)
        assert np.array_equal(_column_sumsq(a), expected)
        assert np.array_equal(_column_sumsq(csc), expected)
