import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.cp_tensor import (
    CpTensor,
    cp_diff_norm,
    cp_norm,
    gaussian_tensor_id,
    gram_hadamard,
    gram_tensor_id,
    load_cp_dir,
    save_cp_dir,
    tensorsketch_id,
)
from idsketch.generators import gen_synthetic_tensor
from idsketch.matrix_id import gaussian_id
from idsketch.sketch import KrGaussianOp

from conftest import cp_dense, dense_kr_gaussian, densify, khatri_rao


def random_cp(rng, mode_dims, rank, sparse=False, density=0.5):
    factors = []
    for dim in mode_dims:
        if sparse:
            factors.append(
                sp.random_array((dim, rank), density=density, rng=rng, format="csc")
                + sp.eye_array(dim, rank, format="csc") * 0.1
            )
        else:
            factors.append(rng.standard_normal((dim, rank)))
    return CpTensor(rng.random(rank) + 0.5, factors)


class TestCpTensor:
    def test_normalization_folds_into_weights(self):
        x = CpTensor([2.0], [np.array([[3.0], [4.0]]), np.array([[0.0], [2.0]])])
        assert x.weights[0] == pytest.approx(2.0 * 5.0 * 2.0)
        for f in x.factors:
            assert np.linalg.norm(f[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_negative_weight_sign_folded(self):
        x = CpTensor([-3.0], [np.ones((2, 1)), np.ones((2, 1))])
        assert x.weights[0] > 0.0
        dense = cp_dense(x)
        assert np.allclose(dense, -3.0 * np.ones((2, 2)))

    def test_zero_column_flagged(self):
        # column 1 is zero; column 2's entries square to 0
        factors = [np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-200]]), np.ones((2, 3))]
        x = CpTensor([1.0, 2.0, 3.0], factors)
        assert list(np.flatnonzero(x.weights == 0.0)) == [1, 2]
        assert x.weights[1] == 0.0
        assert np.linalg.norm(densify(x.factors[0])[:, 1]) == pytest.approx(1.0)
        assert np.array_equal(x.factors[0][:, 1:], [[1.0, 1.0], [0.0, 0.0]])
        # dense containers stay Fortran-ordered (the linalg invariant)
        assert all(f.flags.f_contiguous for f in x.factors)

    def test_zero_column_sparse_factor(self):
        factor = sp.csc_array(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1e-200]]))
        x = CpTensor([1.0, 3.0, 5.0], [factor, np.ones((2, 3))])
        assert list(np.flatnonzero(x.weights == 0.0)) == [1, 2]
        assert x.weights[1] == 0.0
        dense = densify(x.factors[0])
        assert np.linalg.norm(dense[:, 1]) == pytest.approx(1.0)
        assert np.linalg.norm(dense[:, 0]) == pytest.approx(1.0)
        assert np.array_equal(dense[:, 1:], [[1.0, 1.0], [0.0, 0.0]])
        assert x.factors[0].nnz == 3  # no stored zero left of the 1e-200 entry
        assert x.factors[1].flags.f_contiguous

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            CpTensor([1.0], [np.ones((2, 1)), np.ones((2, 2))])


class TestGram:
    def test_rank_one(self):
        x = CpTensor([5.0], [np.ones((3, 1)), np.ones((4, 1))])
        g = gram_hadamard(x)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(x.weights[0] ** 2, rel=1e-14)

    def test_orthonormal_modes_give_diagonal(self):
        rng = np.random.default_rng(0)
        q1 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        lam = np.array([3.0, 2.0, 1.0])
        x = CpTensor(lam, [q1, q2])
        assert np.abs(gram_hadamard(x) - np.diag(lam**2)).max() <= 1e-12

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_densified_m(self, sparse):
        rng = np.random.default_rng(1)
        x = random_cp(rng, (4, 4, 4), 3, sparse=sparse)
        m = khatri_rao(x.factors) * x.weights
        assert np.abs(gram_hadamard(x) - m.T @ m).max() <= 1e-12

    def test_psd(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            x = random_cp(rng, (3, 5, 4), 6)
            g = gram_hadamard(x)
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-10 * np.trace(g)


class TestNorms:
    def test_rank_one_norm(self):
        x = CpTensor([5.0], [np.ones((3, 1)) / np.sqrt(3), np.ones((2, 1)) / np.sqrt(2)])
        assert cp_norm(x) == pytest.approx(5.0, rel=1e-12)

    def test_self_difference_tiny(self):
        rng = np.random.default_rng(3)
        x = random_cp(rng, (3, 3, 3), 2)
        assert cp_diff_norm(x, x) <= 1e-7 * cp_norm(x)

    def test_matches_dense_norm(self):
        rng = np.random.default_rng(4)
        x = random_cp(rng, (3, 3, 3), 2)
        dense = np.linalg.norm(cp_dense(x))
        assert abs(cp_norm(x) - dense) <= 1e-10 * dense

    def test_diff_matches_dense(self):
        rng = np.random.default_rng(5)
        x = random_cp(rng, (4, 3, 5), 3)
        y = random_cp(rng, (4, 3, 5), 2)
        dense = np.linalg.norm(cp_dense(x) - cp_dense(y))
        assert abs(cp_diff_norm(x, y) - dense) <= 1e-9 * dense

    def test_diff_mixed_sparse_dense(self):
        rng = np.random.default_rng(6)
        x = random_cp(rng, (5, 5, 5), 3, sparse=True)
        y = random_cp(rng, (5, 5, 5), 2)
        dense = np.linalg.norm(cp_dense(x) - cp_dense(y))
        assert abs(cp_diff_norm(x, y) - dense) <= 1e-9 * dense

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            cp_diff_norm(random_cp(rng, (3, 3), 2), random_cp(rng, (3, 4), 2))

    @pytest.mark.parametrize("norm", ["cp_norm", "cp_diff_norm"])
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_weight_scale(self, norm, scale):
        # the squared weights overflow (NaN) or underflow (0.0) in the Gram
        rng = np.random.default_rng(10)
        x = random_cp(rng, (4, 3, 5), 4)
        y = random_cp(rng, (4, 3, 5), 2)

        def value(s):
            scaled = [CpTensor(t.weights * s, t.factors) for t in (x, y)]
            if norm == "cp_norm":
                return cp_norm(scaled[0])
            return cp_diff_norm(*scaled)

        assert value(scale) / scale == pytest.approx(value(1.0), rel=1e-13)

    def test_norm_beyond_float64_range(self):
        # two identical unit terms of weight 1.5e308: the norm is 3e308
        unit = np.zeros((3, 2))
        unit[0] = 1.0
        with pytest.raises(FloatingPointError, match="float64 range"):
            cp_norm(CpTensor([1.5e308, 1.5e308], [unit] * 3))


def duplicate_term_tensor(rng, mode_dims, k, total):
    """k independent rank-1 terms; the rest duplicate earlier columns with
    negligible weight, so the tensor has numerical rank k."""
    factors = [rng.standard_normal((dim, k)) for dim in mode_dims]
    weights = np.concatenate([rng.random(k) + 0.5, np.full(total - k, 1e-14)])
    dup = rng.integers(0, k, size=total - k)
    full = [np.hstack([f, f[:, dup]]) for f in factors]
    return CpTensor(weights, full)


class TestTensorIds:
    @pytest.mark.parametrize("method", [tensorsketch_id, gaussian_tensor_id])
    def test_exact_rank_recovery(self, method):
        rng = np.random.default_rng(8)
        x = duplicate_term_tensor(rng, (6, 6, 6), k=4, total=10)
        result = method(x, 4, seed=1)
        assert cp_diff_norm(x, result.reduced) <= 1e-6 * cp_norm(x)

    @pytest.mark.parametrize(
        "method", [tensorsketch_id, gaussian_tensor_id, gram_tensor_id]
    )
    def test_keep_all_terms_exact(self, method):
        rng = np.random.default_rng(9)
        x = random_cp(rng, (5, 6, 4), 7)
        kwargs = {} if method is gram_tensor_id else {"seed": 2}
        result = method(x, 7, **kwargs)
        assert cp_diff_norm(x, result.reduced) <= 1e-8 * cp_norm(x)

    def test_gaussian_single_mode_matches_matrix_id(self):
        rng = np.random.default_rng(10)
        a = np.abs(rng.standard_normal((40, 8))) + 0.1
        lam = rng.random(8) + 0.5
        x = CpTensor(lam, [a])
        result = gaussian_tensor_id(x, 5, sketch_dim=12, seed=33)
        direct = gaussian_id(densify(x.factors[0]) * x.weights, 5, 12, seed=33)
        # same realized sketch operator; coefficients agree to round-off
        # (the weight scaling is applied on opposite sides of the product)
        assert np.array_equal(result.cols, direct.cols)
        assert np.allclose(result.coeffs, direct.coeffs, rtol=1e-10, atol=1e-12)

    def test_gaussian_sketch_matches_densified(self):
        rng = np.random.default_rng(11)
        x = random_cp(rng, (3, 3), 2)
        op = KrGaussianOp(x.mode_dims, 5, seed=12)
        sketch = op.apply(x.factors, x.weights)
        m = khatri_rao(x.factors) * x.weights
        assert np.abs(sketch - dense_kr_gaussian(op) @ m).max() <= 1e-12

    def test_gram_picks_largest_weights_for_orthonormal_modes(self):
        rng = np.random.default_rng(13)
        q1 = np.linalg.qr(rng.standard_normal((8, 5)))[0]
        q2 = np.linalg.qr(rng.standard_normal((9, 5)))[0]
        lam = np.array([0.3, 5.0, 1.0, 4.0, 0.1])
        x = CpTensor(lam, [q1, q2])
        result = gram_tensor_id(x, 2)
        assert sorted(result.cols) == [1, 3]

    def test_new_weights_rederivable(self):
        rng = np.random.default_rng(14)
        x = random_cp(rng, (5, 5, 5), 6)
        for method, kwargs in (
            (tensorsketch_id, {"seed": 3}),
            (gaussian_tensor_id, {"seed": 3}),
            (gram_tensor_id, {}),
        ):
            result = method(x, 4, **kwargs)
            expected = x.weights[result.cols] * result.coeffs.sum(axis=1)
            assert np.array_equal(result.new_weights, expected)

    def test_reduced_preserves_sparsity_pattern(self):
        rng = np.random.default_rng(15)
        x = random_cp(rng, (10, 10), 6, sparse=True, density=0.3)
        result = tensorsketch_id(x, 3, seed=4)
        for reduced_f, orig_f in zip(result.reduced.factors, x.factors):
            for t, col in enumerate(result.cols):
                got = densify(reduced_f)[:, t] != 0
                want = densify(orig_f)[:, col] != 0
                assert np.array_equal(got, want)

    def test_degenerate_sketch_keeps_mass(self):
        # duplicated terms with equal weight: the sketch has rank 1 but we
        # ask for 2, so the reduction is flagged, and the selected terms keep
        # their recombined weights; the sketched and the Gram paths finish
        # through the same step
        base = np.array([[0.6], [0.8]])
        x = CpTensor([1.0, 1.0], [np.hstack([base, base])] * 2)
        for result in (
            gaussian_tensor_id(x, 2, sketch_dim=3, seed=5),
            tensorsketch_id(x, 2, sketch_dim=3, seed=5),
            gram_tensor_id(x, 2),
        ):
            assert result.rank_deficient, result.method
            assert result.numerical_rank == 1, result.method
            assert cp_diff_norm(x, result.reduced) <= 1e-6 * cp_norm(x), result.method

    @pytest.mark.parametrize("terms, copies, rank", [(3, 3, 6), (4, 5, 8), (4, 5, 12)])
    @pytest.mark.parametrize(
        "method", [tensorsketch_id, gaussian_tensor_id, gram_tensor_id]
    )
    def test_repeated_terms_keep_mass(self, terms, copies, rank, method):
        # orthonormal terms, each repeated: the numerical rank is `terms`,
        # below the requested rank, and a selected term beyond the numerical
        # rank still carries its own mass; zeroing its weight lost 20-42%
        # of the norm
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((10, terms)))[0]
        x = CpTensor(np.ones(terms * copies), [np.tile(q, copies)] * 3)
        kwargs = {} if method is gram_tensor_id else {"sketch_dim": rank + 2, "seed": 1}
        result = method(x, rank, **kwargs)
        assert result.rank_deficient
        assert result.numerical_rank == terms
        assert cp_diff_norm(x, result.reduced) <= 1e-7 * cp_norm(x)

    @pytest.mark.parametrize(
        "method", [tensorsketch_id, gaussian_tensor_id, gram_tensor_id]
    )
    def test_zero_weight_tensor(self, method):
        rng = np.random.default_rng(19)
        x = CpTensor(np.zeros(6), [rng.standard_normal((5, 6))] * 3)
        kwargs = {} if method is gram_tensor_id else {"sketch_dim": 4, "seed": 6}
        result = method(x, 3, **kwargs)
        assert result.rank_deficient
        assert result.numerical_rank == 0
        assert np.array_equal(result.coeffs[:, result.cols], np.eye(3))
        assert np.all(result.reduced.weights == 0.0)
        assert cp_diff_norm(x, result.reduced) == 0.0

    def test_parameter_validation(self):
        rng = np.random.default_rng(16)
        x = random_cp(rng, (3, 3), 4)
        with pytest.raises(ValueError):
            tensorsketch_id(x, 5, seed=0)  # rank > terms
        with pytest.raises(ValueError):
            tensorsketch_id(x, 2, sketch_dim=9, seed=0)  # sketch dim >= entries
        with pytest.raises(ValueError):
            gaussian_tensor_id(x, 2, sketch_dim=1, seed=0)  # sketch dim < rank

    def test_entry_count_beyond_int64(self):
        # 65536**4 = 2**64 wrapped to 0 in int64, so a valid tensor was
        # rejected with "sketch dimension 13 must be < 0 tensor entries"
        x = gen_synthetic_tensor(4, 65536, 12, 6, 2 / 65536, seed=0)
        assert x.total_entries == 2**64
        result = tensorsketch_id(x, 3, seed=0)
        assert result.rank == 3 and np.isfinite(result.new_weights).all()
        assert KrGaussianOp([10000] * 5, 13).in_dim == 10**20


class TestCpDirFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        x = random_cp(rng, (6, 5, 4), 3, sparse=True, density=0.4)
        save_cp_dir(tmp_path / "cp", x)
        y = load_cp_dir(tmp_path / "cp")
        assert y.mode_dims == x.mode_dims
        assert np.abs(y.weights - x.weights).max() <= 1e-15
        assert cp_diff_norm(x, y) <= 1e-12 * cp_norm(x)

    def test_loader_renormalizes(self, tmp_path):
        x = CpTensor([2.0], [np.array([[3.0], [4.0]])])
        save_cp_dir(tmp_path / "cp", x)
        # tamper: scale the stored factor, the loader must renormalize
        text = (tmp_path / "cp" / "factor_1.mtx").read_text()
        y = load_cp_dir(tmp_path / "cp")
        assert np.linalg.norm(densify(y.factors[0])[:, 0]) == pytest.approx(1.0)
        assert "factor_1" not in text or True

    def test_meta_consistency_check(self, tmp_path):
        rng = np.random.default_rng(18)
        x = random_cp(rng, (4, 4), 2)
        save_cp_dir(tmp_path / "cp", x)
        meta = (tmp_path / "cp" / "meta.json").read_text()
        (tmp_path / "cp" / "meta.json").write_text(meta.replace('"rank": 2', '"rank": 3'))
        with pytest.raises(ValueError):
            load_cp_dir(tmp_path / "cp")
