import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.linalg import (
    SingularTriangleError,
    as_csc,
    as_dense,
    cpqr,
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
