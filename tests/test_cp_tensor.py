from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.bench import run_tensor_trial
from idsketch.cp_tensor import (
    TENSOR_METHODS,
    CpTensor,
    _gram_norm,
    _term_gram,
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
from idsketch.matrix_id import gaussian_id, matrix_id
from idsketch.mmio import read_matrix_market, write_matrix_market
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

    @pytest.mark.parametrize("mode", [0, 1])
    def test_zero_column_weight_is_positive_zero(self, mode):
        # the sign of a negative weight was taken after the zero column had
        # scaled it to -0.0, which is not negative, so -0.0 stayed
        factors = [np.random.default_rng(3).standard_normal((4, 3)), np.ones((4, 3))]
        factors[mode][:, 1] = 0.0
        x = CpTensor([1.0, -2.0, 3.0], factors)
        assert x.weights[1] == 0.0
        assert not np.signbit(x.weights).any()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_negative_weights_flip_mode_0(self, sparse):
        # per column: divide by the norm (1 within 1e-12 of 1), fold the
        # norms into |weight| and the sign of the weight into mode 0; on
        # quarter-integer entries each column's sum of squares is exact in
        # any order, so the norms do not depend on the container's sum
        rng = np.random.default_rng(4)
        f0 = rng.integers(-8, 9, (5, 4)) / 4.0
        f0[:, 2] = [0.6, 0.8, 0.0, 0.0, 0.0]  # unit: only the sign changes
        f1 = rng.integers(-8, 9, (6, 4)) / 4.0
        weights = np.array([-1.5, 2.0, -0.25, -3.0])
        x = CpTensor(weights, [sp.csc_array(f0) if sparse else f0, f1])
        expected_weights = np.abs(weights)
        for mode, f in enumerate([f0, f1]):
            expected = np.empty_like(f)
            for j in range(f.shape[1]):
                norm = np.sqrt(np.sum(f[:, j] ** 2))
                norm = 1.0 if abs(norm - 1.0) <= 1e-12 else norm
                sign = -1.0 if mode == 0 and weights[j] < 0.0 else 1.0
                expected[:, j] = f[:, j] * (sign / norm)
                expected_weights[j] *= norm
            assert np.array_equal(densify(x.factors[mode]), expected), mode
        assert np.array_equal(x.weights, expected_weights)

    def test_zero_column_flagged(self):
        # column 1 is zero and stays zero; column 2's entries square to 0,
        # but it keeps its norm, taken on the column scaled by a power of two
        factors = [np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-200]]), np.ones((2, 3))]
        x = CpTensor([1.0, 2.0, 3.0], factors)
        assert list(np.flatnonzero(x.weights == 0.0)) == [1]
        assert x.weights[1] == 0.0
        assert x.weights[2] == pytest.approx(3e-200 * np.sqrt(2.0), rel=1e-15)
        assert np.linalg.norm(densify(x.factors[0])[:, 1]) == 0.0
        assert np.array_equal(x.factors[0][:, 1], [0.0, 0.0])
        assert x.factors[0][:, 2] == pytest.approx([0.0, 1.0], rel=1e-15)
        # dense containers stay Fortran-ordered (the linalg invariant)
        assert all(f.flags.f_contiguous for f in x.factors)

    def test_zero_column_sparse_factor(self):
        factor = sp.csc_array(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1e-200]]))
        x = CpTensor([1.0, 3.0, 5.0], [factor, np.ones((2, 3))])
        assert list(np.flatnonzero(x.weights == 0.0)) == [1]
        assert x.weights[1] == 0.0
        assert x.weights[2] == pytest.approx(5e-200 * np.sqrt(2.0), rel=1e-15)
        dense = densify(x.factors[0])
        assert np.linalg.norm(dense[:, 1]) == 0.0
        assert np.linalg.norm(dense[:, 0]) == pytest.approx(1.0)
        assert np.array_equal(dense[:, 1], [0.0, 0.0])
        assert dense[:, 2] == pytest.approx([0.0, 1.0], rel=1e-15)
        assert x.factors[0].nnz == 2  # the zero column stores nothing
        assert x.factors[1].flags.f_contiguous

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_tiny_column_keeps_its_weight(self, scale, sparse):
        # the squares of the tiny mode-0 column underflow to 0: it loaded as
        # a zero column, and a tensor of such terms as the zero tensor
        rng = np.random.default_rng(5)
        f0 = rng.standard_normal((4, 3))
        f0[:, 1] *= scale
        f1 = rng.standard_normal((3, 3))
        weights = np.array([1.5, -2.0, 0.5])
        x = CpTensor(weights, [sp.csc_array(f0) if sparse else f0, f1])
        # written out: the tiny column's norm on the column scaled up by
        # 1 / scale, its weight's sign folded into mode 0
        norm0 = np.linalg.norm(f0[:, 1] / scale) * scale
        norm1 = np.linalg.norm(f1[:, 1])
        assert x.weights[1] == pytest.approx(2.0 * norm0 * norm1, rel=1e-15)
        column = densify(x.factors[0])[:, 1]
        assert column == pytest.approx(-f0[:, 1] / norm0, rel=1e-15)
        assert x.factors[1][:, 1] == pytest.approx(f1[:, 1] / norm1, rel=1e-15)

    def test_tiny_tensor_is_not_the_zero_tensor(self):
        # it loaded with weight 0 and cp_norm 0.0, with no error
        x = CpTensor([1.0], [np.array([[1e-200], [1e-200]]), np.ones((2, 1))])
        assert x.weights == pytest.approx([2e-200], rel=1e-15)
        assert cp_norm(x) == pytest.approx(2e-200, rel=1e-15)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize(
        "peak", [1e-310, 2.0**-1024, 2.0**-1022 / 3, np.nextafter(2.0**-1022, 0)],
        ids=["1e-310", "2^-1024", "2^-1022/3", "below-2^-1022"],
    )
    def test_subnormal_column_raises(self, peak, sparse):
        # below the normal range no power of two scales the column exactly
        # and the reciprocal of its norm can overflow: a numerical failure,
        # where it loaded as a zero column
        f = np.array([[peak, 1.0], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="a factor column is subnormal"):
            CpTensor([1.0, 1.0], [sp.csc_array(f) if sparse else f, np.ones((2, 2))])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_huge_column_normalizes(self, sparse):
        # the squares of 1e200 overflow: the norm is taken on the column
        # scaled by its own power of two, where this raised FloatingPointError
        f = np.array([[1e200, 1.0], [1e200, 0.0]])
        x = CpTensor([1.0, 2.0], [sp.csc_array(f) if sparse else f, np.ones((2, 2))])
        assert x.weights == pytest.approx([2e200, 2.0 * np.sqrt(2.0)], rel=1e-15)
        assert np.allclose(densify(x.factors[0]), [[0.5**0.5, 1.0], [0.5**0.5, 0.0]])

    def test_huge_column_next_to_tiny_and_unit_columns(self):
        # each column is scaled by its own power of two, so the 1e200 column
        # does not push its neighbours below the float64 range; the 1e-200
        # column, whose squares underflow, keeps its norm, and the unit
        # column stays bit-identical
        unit = np.array([0.6, 0.8])
        f = np.column_stack([[1e200, -1e200], [1e-200, 1e-200], unit])
        x = CpTensor([1.0, 1.0, 1.0], [f, np.ones((2, 3))])
        assert x.weights[0] == pytest.approx(2e200, rel=1e-15)
        assert x.weights[1] == pytest.approx(2e-200, rel=1e-15)
        assert x.factors[0][:, 1] == pytest.approx([0.5**0.5, 0.5**0.5], rel=1e-15)
        assert x.weights[2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert np.array_equal(x.factors[0][:, 2], unit)

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            CpTensor([1.0], [np.ones((2, 1)), np.ones((2, 2))])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_power_of_two_scales_weights_exactly(self, sparse):
        # a column whose squares leave the float64 range is normed on a copy
        # scaled by its own power of two, put back in the factor's container,
        # so it is summed like an in-range column. A CSC factor times a row
        # of powers of two came back as COO, summed in another order: weights
        # up to 6.0e-16 off 2**k times those of f at every |k| >= 550
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 0.0, 0.0, 1.0], size=(5000, 4))
        f = signs * rng.uniform(1.0, 2.0, size=(5000, 4))
        f = sp.csc_array(f) if sparse else f
        g = rng.standard_normal((30, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        base = CpTensor(w, [f, g])
        off = []
        for k in range(-1000, 1001, 50):
            x = CpTensor(w, [f * 2.0**k, g])
            if not (
                np.array_equal(x.weights, base.weights * 2.0**k)
                and all(np.array_equal(densify(a), densify(b))
                        for a, b in zip(x.factors, base.factors))
            ):
                off.append(k)
        assert off == []

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_smallest_normal_column_is_kept(self, sparse):
        # the subnormal edge: a peak of 2**-1022 is normal and keeps its
        # exact weight; the next float down raises (test_subnormal_column_raises)
        f = np.array([[2.0**-1022, 1.0], [0.0, 1.0]])
        x = CpTensor([1.0, 1.0], [sp.csc_array(f) if sparse else f, np.ones((2, 2))])
        assert x.weights[0] == 2.0**-1022 * np.sqrt(2.0)
        assert np.array_equal(densify(x.factors[0])[:, 0], [1.0, 0.0])

    @pytest.mark.parametrize("k", [0, 600, -540])
    @pytest.mark.parametrize(
        "seed", ["reproducer", *range(5), "fortran", "empty-columns"]
    )
    def test_dense_and_csc_give_identical_tensor(self, seed, k):
        # both containers sum a column's squares over its nonzeros in CSC
        # order; the dense sum over every entry, zeros included, left the
        # reproducer's weights 2 and 3 off by -4.4e-16 and -2.2e-16. At 2**k
        # the squares leave the float64 range and the scaled sum is used.
        # A Fortran-ordered factor and zero columns, first and last among
        # them, read their nonzeros in the same order
        if seed == "reproducer":
            f0 = np.random.default_rng(4).standard_normal((5, 4))
            f0[3:, 3] = 0.0
            w = np.ones(4)
        else:
            rng = np.random.default_rng(7 if isinstance(seed, str) else seed)
            f0 = rng.standard_normal((300, 50))
            f0[rng.random((300, 50)) < 0.3] = 0.0
            w = rng.uniform(0.5, 2.0, size=50)
        if seed == "fortran":
            f0 = np.asfortranarray(f0)
        if seed == "empty-columns":
            f0[:, [0, 1, 17, 49]] = 0.0
        f0 = f0 * 2.0**k
        g = np.random.default_rng(9).standard_normal((7, f0.shape[1]))
        x = CpTensor(w, [f0, g])
        y = CpTensor(w, [sp.csc_array(f0), g])
        assert np.array_equal(x.weights, y.weights)
        assert all(np.array_equal(densify(a), densify(b))
                   for a, b in zip(x.factors, y.factors))


def weighted_gram(x):
    """Gram of the flattened weighted terms, from the unweighted term Gram."""
    w = x.weights
    return gram_hadamard(x) * w * w[:, None]


class TestGram:
    def test_rank_one(self):
        x = CpTensor([5.0], [np.ones((3, 1)), np.ones((4, 1))])
        g = weighted_gram(x)
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(x.weights[0] ** 2, rel=1e-14)

    def test_orthonormal_modes_give_diagonal(self):
        rng = np.random.default_rng(0)
        q1 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        lam = np.array([3.0, 2.0, 1.0])
        x = CpTensor(lam, [q1, q2])
        assert np.abs(weighted_gram(x) - np.diag(lam**2)).max() <= 1e-12

    @pytest.mark.parametrize("sparse", [False, True])
    def test_matches_densified_m(self, sparse):
        rng = np.random.default_rng(1)
        x = random_cp(rng, (4, 4, 4), 3, sparse=sparse)
        k = khatri_rao(x.factors)
        assert np.abs(gram_hadamard(x) - k.T @ k).max() <= 1e-12
        m = k * x.weights
        assert np.abs(weighted_gram(x) - m.T @ m).max() <= 1e-12

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


class TestDeltaError:
    """The error of a reduction against x's own terms, delta = x.weights -
    scatter(cols, new_weights), checked against the dense difference. The
    block form cancels here: it was off by 1e-4 to 3e-2 of the true error."""

    @pytest.fixture(scope="class")
    def knee_tensor(self):
        # 180 terms at the 1e-8 floor: the true error is about sqrt(180) * 1e-8
        return gen_synthetic_tensor(3, 40, 200, 20, 0.25, seed=0)

    @staticmethod
    def dense_error(x, reduced, scale=1.0):
        # divided by the scale first, so no square underflows or overflows
        return np.linalg.norm((cp_dense(x) - cp_dense(reduced)) / scale) * scale

    @pytest.mark.parametrize("method", TENSOR_METHODS)
    def test_trial_error_matches_dense(self, knee_tensor, method):
        x = knee_tensor
        result, err, _, _ = run_tensor_trial(x, method, 20, 30, seed=1)
        exact = self.dense_error(x, result.reduced)
        assert abs(err - exact) <= 1e-9 * exact
        assert cp_diff_norm(x, result) == err

    @pytest.mark.parametrize("method", TENSOR_METHODS)
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_weight_scale(self, knee_tensor, method, scale):
        # the ID of x with every weight scaled: same terms, same coefficients
        x = knee_tensor
        result = run_tensor_trial(x, method, 20, 30, seed=1)[0]
        xs = CpTensor(x.weights * scale, x.factors)
        v = result.new_weights * scale
        rs = replace(result, new_weights=v, reduced=xs.select(result.cols, v))
        exact = self.dense_error(xs, rs.reduced, scale)
        assert abs(cp_diff_norm(xs, rs) - exact) <= 1e-9 * exact

    def test_negative_new_weights(self):
        # terms 1 and 2 point against term 0, whose weight is the largest:
        # the coefficients of the rank-1 ID sum below zero
        rng = np.random.default_rng(21)
        factors = [rng.standard_normal((dim, 3)) for dim in (4, 3, 5)]
        for f in factors:
            f[:, 1:] = f[:, [0]] + 0.1 * f[:, 1:]
        factors[0][:, 1:] *= -1.0
        x = CpTensor([1.0, 0.9, 0.9], factors)
        result = gram_tensor_id(x, 1)
        assert list(result.cols) == [0] and result.new_weights[0] < 0.0
        exact = self.dense_error(x, result.reduced)
        assert abs(cp_diff_norm(x, result) - exact) <= 1e-12 * exact

    def test_result_of_another_tensor(self):
        rng = np.random.default_rng(22)
        x = random_cp(rng, (4, 3, 5), 6)
        other = gram_tensor_id(random_cp(rng, (4, 3, 5), 5), 2)
        with pytest.raises(ValueError, match="rank-5"):
            cp_diff_norm(x, other)


class TestTermGramCache:
    def test_norms_match_the_uncached_block_form(self):
        rng = np.random.default_rng(23)
        x = random_cp(rng, (5, 5, 5), 4, sparse=True)
        y = random_cp(rng, (5, 5, 5), 3)
        assert cp_norm(x) == _gram_norm(_term_gram(x.factors, x.factors), x.weights)
        grams = [_term_gram(a.factors, b.factors) for a, b in [(x, x), (x, y), (y, y)]]
        block = np.block([[grams[0], grams[1]], [grams[1].T, grams[2]]])
        weights = np.concatenate([x.weights, -y.weights])
        assert cp_diff_norm(x, y) == _gram_norm(block, weights)

    def test_computed_once_and_read_only(self, monkeypatch):
        calls = []
        original = _term_gram
        monkeypatch.setattr(
            "idsketch.cp_tensor._term_gram",
            lambda f, g: calls.append(1) or original(f, g),
        )
        x = random_cp(np.random.default_rng(24), (4, 3, 5), 6)
        for _ in range(3):
            cp_norm(x)
            gram_hadamard(x)
            cp_diff_norm(x, gram_tensor_id(x, 2))
        # one cached Gram for every norm and for the Gram method;
        # gram_hadamard computes its own
        assert len(calls) == 1 + 3
        assert gram_hadamard(x) is x.term_gram
        with pytest.raises(ValueError, match="read-only"):
            x.term_gram[0, 0] = 0.0


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

    def test_gram_pivots_like_the_flattened_terms(self):
        # the Gram method picks terms by the rule of column-pivoted QR on the
        # flattened weighted terms: first the isolated term of weight 1.2,
        # then the centre of six correlated unit terms. Pivoting on the
        # norms of the Gram's columns took the centre first, [1, 0], and
        # counted a tail of weight 1e-6 as dependent
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((30, 8)))[0]
        near = [q[:, 1] + 0.3 * q[:, k] + 0.05 * q[:, 0] for k in range(2, 7)]
        mode1 = np.column_stack([q[:, 0], q[:, 1], *near])
        mode1 /= np.linalg.norm(mode1, axis=0)
        x = CpTensor([1.2] + [1.0] * 6, [mode1, np.ones((3, 7))])
        assert list(matrix_id(khatri_rao(x.factors) * x.weights, 2).cols) == [0, 1]
        assert list(gram_tensor_id(x, 2).cols) == [0, 1]
        tail = CpTensor([1.0] * 4 + [1e-6] * 2, [q[:, :6], np.ones((3, 6))])
        flat = khatri_rao(tail.factors) * tail.weights
        assert matrix_id(flat, 6).numerical_rank == 6
        assert gram_tensor_id(tail, 6).numerical_rank == 6

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
        # the zero triangle gets zero coefficients, not a solve that signs them
        assert not np.signbit(result.coeffs).any()
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
        x = CpTensor([2.0, 1.0], [np.array([[3.0, 1.0], [4.0, 0.0]]), np.eye(2)])
        save_cp_dir(tmp_path / "cp", x)
        # scale the stored mode-1 factor by 5: the loader must move the 5
        # into the weights and give back unit columns
        path = tmp_path / "cp" / "factor_1.mtx"
        write_matrix_market(path, 5.0 * read_matrix_market(path))
        assert np.allclose(
            densify(read_matrix_market(path)), 5.0 * densify(x.factors[0]), rtol=0, atol=0
        )
        y = load_cp_dir(tmp_path / "cp")
        assert np.linalg.norm(densify(y.factors[0]), axis=0) == pytest.approx(1.0, abs=1e-15)
        assert densify(y.factors[0]) == pytest.approx(densify(x.factors[0]), abs=1e-15)
        assert y.weights == pytest.approx(5.0 * x.weights, rel=1e-15)
        assert cp_norm(y) == pytest.approx(5.0 * cp_norm(x), rel=1e-15)

    def test_meta_consistency_check(self, tmp_path):
        rng = np.random.default_rng(18)
        x = random_cp(rng, (4, 4), 2)
        save_cp_dir(tmp_path / "cp", x)
        meta = (tmp_path / "cp" / "meta.json").read_text()
        (tmp_path / "cp" / "meta.json").write_text(meta.replace('"rank": 2', '"rank": 3'))
        with pytest.raises(ValueError):
            load_cp_dir(tmp_path / "cp")
