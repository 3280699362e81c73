import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.generators import gen_synthetic_matrix
from idsketch.matrix_id import (
    countsketch_id,
    decompose,
    gaussian_id,
    matrix_id,
    srft_id,
)

from conftest import relerr_fro


def random_orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


def matrix_with_spectrum(rng, rows, cols, spectrum):
    u = random_orthonormal(rng, rows, len(spectrum))
    v = random_orthonormal(rng, cols, len(spectrum))
    return (u * spectrum) @ v.T


class TestDeterministic:
    def test_full_rank_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 9))
        d = matrix_id(a, 6)
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-10
        a = rng.standard_normal((9, 6))
        d = matrix_id(a, 6)
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-10

    def test_hand_case(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        d = matrix_id(a, 2)
        assert list(d.cols) == [2, 0]  # column 2 has the largest norm
        assert np.array_equal(d.coeffs[:, d.cols], np.eye(2))
        assert np.allclose(a[:, d.cols] @ d.coeffs, a, atol=1e-14)

    @pytest.mark.parametrize("k", [5, 10, 20])
    def test_spectral_error_bound(self, k):
        rng = np.random.default_rng(1)
        rows, cols = 40, 25
        spectrum = 2.0 ** -np.arange(25, dtype=np.float64)
        a = matrix_with_spectrum(rng, rows, cols, spectrum)
        d = matrix_id(a, k)
        err = np.linalg.norm(a[:, d.cols] @ d.coeffs - a, 2)
        sigma = np.linalg.svd(a, compute_uv=False)[k]
        # pivoted-QR slack factor 10 over the strong-RRQR bound
        assert err <= sigma * np.sqrt(4.0 * k * (cols - k) + 1.0) * 10.0

    def test_rank_deficient_flagged(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 15))
        d = matrix_id(a, 10)
        assert d.rank_deficient
        assert d.numerical_rank == 4
        assert np.array_equal(d.coeffs[:, d.cols], np.eye(10))
        assert np.isfinite(d.coeffs).all()
        # the numerically independent part still reconstructs the matrix
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-8

    def test_zero_matrix(self):
        # every matrix method finishes through the same step as matrix_id
        a = np.zeros((5, 4))
        for d in (
            matrix_id(a, 2),
            countsketch_id(a, 2, 3, seed=0),
            gaussian_id(a, 2, 3, seed=0),
            srft_id(a, 2, 3, seed=0),
        ):
            assert d.rank_deficient, d.method
            assert d.numerical_rank == 0, d.method
            assert np.array_equal(d.coeffs[:, d.cols], np.eye(2))

    @pytest.mark.parametrize("method", ["deterministic", "countsketch"])
    def test_floor_stays_normal_on_tiny_input(self, method):
        # every entry is normal, but |r00| is near 1e-297, so the floor
        # 1e-12 |r00| was subnormal: its reciprocal overflowed in the solve
        # and 36 coefficients came back NaN
        rng2, rng3 = np.random.default_rng(2), np.random.default_rng(3)
        a = rng2.standard_normal((60, 3)) @ rng3.standard_normal((3, 15))
        base = decompose(a, method, 6, seed=1)[0]
        d = decompose(a * 2.0**-990, method, 6, seed=1)[0]
        assert np.isfinite(d.coeffs).all()
        assert np.array_equal(d.cols, base.cols)
        assert d.numerical_rank == 3 and d.rank_deficient

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            matrix_id(np.array([[np.nan, 1.0]]), 1)


class TestSketched:
    @pytest.mark.parametrize("method", [countsketch_id, gaussian_id, srft_id])
    def test_exact_rank_recovery(self, method):
        rng = np.random.default_rng(3)
        k = 6
        a = rng.standard_normal((80, k)) @ rng.standard_normal((k, 30))
        d = method(a, k, seed=7)
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-8

    @pytest.mark.parametrize("method", [countsketch_id, gaussian_id, srft_id])
    def test_full_width_exact(self, method):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 12))
        d = method(a, 12, seed=8)
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-10

    def test_single_nonzero_column(self):
        a = np.zeros((30, 5))
        a[:, 2] = np.arange(1.0, 31.0)
        d = countsketch_id(sp.csc_array(a), 1, seed=9)
        assert d.cols[0] == 2
        assert d.coeffs[0, 2] == 1.0
        assert relerr_fro(a[:, d.cols] @ d.coeffs, a) <= 1e-12

    def test_identity_submatrix_always_exact(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            rows = int(rng.integers(30, 80))
            cols = int(rng.integers(5, 25))
            k = int(rng.integers(1, cols + 1))
            a = rng.standard_normal((rows, cols))
            for method in (countsketch_id, gaussian_id, srft_id):
                d = method(a, k, seed=trial)
                assert np.array_equal(d.coeffs[:, d.cols], np.eye(k))
                assert np.unique(d.cols).size == k
                sv = np.linalg.svd(d.coeffs, compute_uv=False)
                assert sv[-1] >= 1.0 - 1e-8
                # norm bound holds with the pivoted-QR slack factor; the
                # strict value is an SRRQR-only guarantee
                assert sv[0] <= np.sqrt(4.0 * k * (cols - k) + 1.0) * 10.0

    def test_sketch_consistency(self):
        # the ID is exact on the sketch columns it selected, and the full
        # sketch residual obeys the pivoted-QR error bound
        from idsketch.matrix_id import matrix_sketch

        rng = np.random.default_rng(6)
        a = sp.random_array((200, 40), density=0.1, rng=rng, format="csc")
        y = matrix_sketch(a, "countsketch", 25, seed=11)
        k = 15
        d = matrix_id(y, k)
        recon = y[:, d.cols] @ d.coeffs
        sel_err = np.linalg.norm(recon[:, d.cols] - y[:, d.cols])
        assert sel_err <= 1e-9 * np.linalg.norm(y)
        full_err = np.linalg.norm(recon - y, 2)
        sv = np.linalg.svd(y, compute_uv=False)
        bound = sv[k] * np.sqrt(4.0 * k * (y.shape[1] - k) + 1.0)
        assert full_err <= bound * 10.0

    def test_sketch_dim_validation(self):
        a = np.random.default_rng(7).standard_normal((20, 10))
        with pytest.raises(ValueError):
            countsketch_id(a, 5, sketch_dim=20, seed=0)  # L >= rows
        with pytest.raises(ValueError):
            countsketch_id(a, 5, sketch_dim=4, seed=0)  # L < k
        with pytest.raises(ValueError):
            gaussian_id(a, 11, seed=0)  # k > cols

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        a = sp.random_array((100, 20), density=0.1, rng=rng, format="csc")
        for method in (countsketch_id, srft_id, gaussian_id):
            one = method(a, 5, seed=42)
            two = method(a, 5, seed=42)
            assert np.array_equal(one.cols, two.cols)
            assert np.array_equal(one.coeffs, two.coeffs)


class TestDeskScaleComparison:
    def test_monotone_error_and_method_agreement(self):
        # spectral-knee input: all methods agree to a factor, deterministic
        # error shrinks as the rank crosses more of the decaying spectrum
        a = gen_synthetic_matrix(2000, 500, 100, 0.005, seed=0)
        dense = a.toarray()
        norm = np.linalg.norm(dense, 2)

        def spectral_err(d):
            return np.linalg.norm(a[:, d.cols] @ d.coeffs - dense, 2)

        err100 = spectral_err(matrix_id(dense, 100))
        err200 = spectral_err(matrix_id(dense, 200))
        assert err200 <= err100 + 1e-12
        errs = {}
        for name, fn in (
            ("countsketch", countsketch_id),
            ("gaussian", gaussian_id),
            ("srft", srft_id),
        ):
            errs[name] = np.median(
                [spectral_err(fn(a, 100, 110, seed=s)) for s in range(5)]
            )
        lo, hi = min(errs.values()), max(errs.values())
        assert hi <= 10.0 * lo, errs
        assert hi / norm <= 1e-5  # all methods resolve the knee
        # the deterministic method sees the whole matrix and is the most
        # accurate; the sketched errors stay within a small factor of it
        assert err100 <= lo
        assert errs["countsketch"] <= 20.0 * err100
