import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from scipy import stats

from idsketch.sketch import (
    CountSketchOp,
    GaussianOp,
    KrGaussianOp,
    SrftOp,
    TensorSketchOp,
)

import idsketch.sketch
from idsketch.cp_tensor import _term_gram
from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor
from idsketch.matrix_id import srft_id
from conftest import (
    dense_countsketch,
    dense_kr_gaussian,
    dense_srft,
    dense_tensorsketch,
    densify,
    khatri_rao,
)


class TestCountSketch:
    def test_surjective_square_is_permutation(self):
        op = CountSketchOp(4, 4, seed=0, surjective=True)
        assert sorted(op.bucket) == [0, 1, 2, 3]

    def test_surjective_covers_all_buckets(self):
        op = CountSketchOp(1000, 10, seed=1, surjective=True)
        assert np.unique(op.bucket).size == 10

    def test_surjective_requires_wide(self):
        with pytest.raises(ValueError):
            CountSketchOp(5, 10, surjective=True)

    def test_standard_bucket_uniformity(self):
        # pooled occupancy over many operator draws, chi-square against uniform
        in_dim, out_dim, draws = 10_000, 100, 500
        counts = np.zeros(out_dim)
        for trial in range(draws):
            op = CountSketchOp(in_dim, out_dim, seed=trial)
            counts += np.bincount(op.bucket, minlength=out_dim)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_hand_example(self):
        op = CountSketchOp(4, 2, seed=0)
        op.bucket[:] = [0, 1, 0, 1]
        op.sign[:] = [1.0, -1.0, 1.0, 1.0]
        out = op.apply(np.eye(4))
        assert np.array_equal(out, [[1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])

    def test_permutation_hash_permutes_rows(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        op = CountSketchOp(6, 6, seed=0)
        op.bucket[:] = perm
        op.sign[:] = 1.0
        assert np.array_equal(op.apply(a)[perm], a)

    def test_sparse_matches_densified_operator(self):
        rng = np.random.default_rng(3)
        a = sp.random_array((100, 15), density=0.05, rng=rng, format="csc")
        op = CountSketchOp(100, 20, seed=4)
        oracle = dense_countsketch(op.bucket, op.sign, 20) @ a.toarray()
        assert np.abs(op.apply(a) - oracle).max() <= 1e-13

    def test_frobenius_mass_exact(self):
        op = CountSketchOp(73, 9, seed=5)
        dense = op.apply(np.eye(73))
        assert np.sum(dense**2) == 73.0

    def test_surjective_operator_full_rank(self):
        op = CountSketchOp(60, 12, seed=6, surjective=True)
        assert np.linalg.matrix_rank(op.apply(np.eye(60))) == 12

    def test_replay(self):
        a = np.random.default_rng(0).standard_normal((30, 4))
        one = CountSketchOp(30, 7, seed=99, surjective=True)
        two = CountSketchOp(30, 7, seed=99, surjective=True)
        assert np.array_equal(one.bucket, two.bucket)
        assert np.array_equal(one.sign, two.sign)
        assert np.array_equal(one.apply(a), two.apply(a))

    def test_dimension_mismatch(self):
        op = CountSketchOp(10, 3, seed=0)
        with pytest.raises(ValueError):
            op.apply(np.eye(9))


def product_sketch(op, a):
    """The CSR +-1 product S @ A, densified: the reference whose bits the
    sparse scatter of CountSketchOp.apply must reproduce."""
    s = sp.csr_array(
        (op.sign, (op.bucket, np.arange(op.in_dim))), shape=(op.out_dim, op.in_dim)
    )
    return np.asarray(densify(s @ a), dtype=np.float64)


def criterion_1_inputs():
    """(op, input) pairs of the CountSketches in
    test_acceptance::test_criterion_1_sketch_oracle_suite: the same draws
    from the same generator, in the same order."""
    rng = np.random.default_rng(101)
    for inst in range(50):
        rows = int(rng.integers(20, 201))
        cols = int(rng.integers(2, 51))
        out_dim = int(rng.integers(2, max(3, rows // 2)))
        if rng.random() < 0.5:
            a = sp.random_array((rows, cols), density=0.1, rng=rng, format="csc")
        else:
            a = rng.standard_normal((rows, cols))
        yield CountSketchOp(rows, out_dim, seed=inst), a
        yield CountSketchOp(rows, out_dim, seed=inst, surjective=True), a
        n_modes = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 13)) for _ in range(n_modes)]
        r = int(rng.integers(1, 9))
        factors = [rng.standard_normal((d, r)) for d in dims]
        rng.random(r)
        ts_dim = int(rng.integers(2, 33))
        for op, factor in zip(TensorSketchOp(dims, ts_dim, seed=inst).mode_ops, factors):
            yield op, factor
            yield op, sp.csc_array(factor)


def criterion_2_inputs():
    """(op, factor) pairs of the mode CountSketches in
    test_acceptance::test_criterion_2_tensorsketch_structural_identity, each
    factor dense and as CSC."""
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n_modes = 2 if seed % 2 == 0 else 3
        dims = [int(rng.integers(2, 7)) for _ in range(n_modes)]
        r = int(rng.integers(1, 6))
        out_dim = int(rng.integers(2, 17))
        factors = [rng.standard_normal((d, r)) for d in dims]
        for op, factor in zip(TensorSketchOp(dims, out_dim, seed=seed).mode_ops, factors):
            yield op, factor
            yield op, sp.csc_array(factor)


def messy_entries(rng, rows, cols, nnz):
    """Random (values, row, col) with repeated positions, every fifth value an
    explicit zero, and magnitudes spread over 16 decades so that a changed
    order of summation changes the bits."""
    values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 8, nnz)
    values[::5] = 0.0
    return values, rng.integers(0, rows, nnz), rng.integers(0, cols, nnz)


def compressed(cls, values, major, minor, shape):
    """CSC (major = col) or CSR (major = row) holding the entries grouped by
    major index, in their given order within each group."""
    order = np.argsort(major, kind="stable")
    n_major = shape[1] if cls is sp.csc_array else shape[0]
    indptr = np.searchsorted(major[order], np.arange(n_major + 1))
    return cls((values[order], minor[order], indptr), shape=shape)


def edge_inputs():
    rng = np.random.default_rng(12)
    rows, cols = 300, 40
    values, r, c = messy_entries(rng, rows, cols, 2400)
    csc = compressed(sp.csc_array, values, c, r, (rows, cols))
    csr = compressed(sp.csr_array, values, r, c, (rows, cols))
    by_row = np.lexsort((r, c))  # stable: duplicates keep their order
    sorted_csc = compressed(sp.csc_array, values[by_row], c[by_row], r[by_row], (rows, cols))
    assert not csc.has_sorted_indices and not csr.has_sorted_indices
    assert sorted_csc.has_sorted_indices and not sorted_csc.has_canonical_format
    canonical = csc.copy()
    canonical.sum_duplicates()
    canonical.eliminate_zeros()
    return {
        "nnz 0": sp.csc_array((rows, cols)),
        "nnz 0, no columns": sp.csc_array((rows, 0)),
        "single column": canonical[:, [3]],
        "canonical csc": canonical,
        "csc_matrix": sp.csc_matrix(canonical),
        "csr": canonical.tocsr(),
        "coo": sp.coo_array((values, (r, c)), shape=(rows, cols)),
        "unsorted csc with duplicates and zeros": csc,
        "unsorted csr with duplicates and zeros": csr,
        "sorted csc with duplicates and zeros": sorted_csc,
        "int64 csc": sp.csc_array(np.round(canonical * 1e3).astype(np.int64)),
        "int64 unsorted csc": compressed(
            sp.csc_array, rng.integers(-9, 10, 2400), c, r, (rows, cols)
        ),
    }


class TestCountSketchScatter:
    """Sparse input is sketched by a bincount scatter; its bits are those of
    the product S @ A."""

    def test_criterion_1_inputs(self):
        pairs = list(criterion_1_inputs())
        assert sum(sp.issparse(a) for _, a in pairs) > 50
        for op, a in pairs:
            assert np.array_equal(op.apply(a), product_sketch(op, a))

    def test_criterion_2_inputs(self):
        for op, a in criterion_2_inputs():
            assert np.array_equal(op.apply(a), product_sketch(op, a))

    def test_generated_matrix(self):
        a = gen_synthetic_matrix(2000, 60, 10, 0.05, seed=3)
        for seed, surjective in [(4, True), (5, False)]:
            op = CountSketchOp(2000, 20, seed=seed, surjective=surjective)
            assert np.array_equal(op.apply(a), product_sketch(op, a))

    def test_tensorsketch_modes_of_sparse_cp_factors(self):
        x = gen_synthetic_tensor(3, 200, 50, 5, density=0.1, seed=2)
        assert all(sp.issparse(f) for f in x.factors)
        op = TensorSketchOp(x.mode_dims, 16, seed=4)
        for mode_op, factor in zip(op.mode_ops, x.factors):
            assert np.array_equal(mode_op.apply(factor), product_sketch(mode_op, factor))

    @pytest.mark.parametrize("name", list(edge_inputs()))
    def test_edge_inputs(self, name):
        a = edge_inputs()[name]
        for seed in range(5):
            op = CountSketchOp(a.shape[0], 7, seed=seed)
            out = op.apply(a)
            assert out.dtype == np.float64 and out.shape == (7, a.shape[1])
            assert np.array_equal(out, product_sketch(op, a)), seed


class TestTensorSketch:
    def test_single_mode_reduces_to_countsketch(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 5))
        lam = rng.random(5) + 0.5
        op = TensorSketchOp([12], 8, seed=8)
        via_fft = op.apply([a], lam)
        direct = op.mode_ops[0].apply(a * lam)
        assert np.abs(via_fft - direct).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_composite_hash_oracle(self, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((3, 2)), rng.standard_normal((3, 2))]
        lam = rng.random(2) + 0.5
        op = TensorSketchOp([3, 3], 4, seed=seed)
        # composite hash and sign built straight from the per-mode arrays
        dense_t = dense_tensorsketch(op)
        m = khatri_rao(factors) * lam
        assert np.abs(op.apply(factors, lam) - dense_t @ m).max() <= 1e-12

    def test_all_ones_factors(self):
        factors = [np.ones((2, 1))] * 3
        op = TensorSketchOp([2, 2, 2], 5, seed=9)
        out = op.apply(factors, np.array([1.0]))
        dense_t = dense_tensorsketch(op)
        oracle = dense_t @ khatri_rao(factors)
        assert np.abs(out - oracle).max() <= 1e-12
        # every row of the Khatri-Rao product is 1, so mass sums to +-contributions
        assert out.sum() == pytest.approx(dense_t.sum(), abs=1e-10)

    def test_sparse_factors(self):
        rng = np.random.default_rng(10)
        factors = [
            sp.random_array((9, 4), density=0.4, rng=rng, format="csc")
            for _ in range(3)
        ]
        op = TensorSketchOp([9, 9, 9], 6, seed=11)
        oracle = dense_tensorsketch(op) @ khatri_rao(factors)
        assert np.abs(op.apply(factors) - oracle).max() <= 1e-11

    def test_mismatched_columns(self):
        op = TensorSketchOp([3, 3], 4, seed=0)
        with pytest.raises(ValueError):
            op.apply([np.ones((3, 2)), np.ones((3, 3))])

    def test_no_modes(self):
        with pytest.raises(ValueError):
            TensorSketchOp([], 4)


class TestSrft:
    def test_dc_row_is_column_sums(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((10, 4))
        op = SrftOp(10, 2, seed=13)
        op.sign[:] = 1.0
        op.sample_rows[0] = 0  # DC row of the DFT
        out = op.apply(a)
        assert np.abs(out[0] - a.sum(axis=0)).max() <= 1e-12
        assert np.abs(out[1]).max() <= 1e-12  # DC component is real

    def test_identity_input_gives_dft_rows(self):
        op = SrftOp(8, 3, seed=14)
        out = op.apply(np.eye(8))
        oracle = dense_srft(op.sign, op.sample_rows, 8)
        assert np.abs(out - oracle).max() <= 1e-12

    def test_matches_densified_operator(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((64, 10))
        op = SrftOp(64, 16, seed=16)
        oracle = dense_srft(op.sign, op.sample_rows, 64) @ a
        assert np.abs(op.apply(a) - oracle).max() <= 1e-11

    @pytest.mark.parametrize("shape", [(97, 5), (64, 300), (1000, 513)])
    def test_dense_output_bits(self, shape):
        # below, across and past _SRFT_BLOCK_COLS: the blocked transform and
        # the interleaved (re, im) rows match one whole-matrix FFT bit for bit
        rows, cols = shape
        a = np.random.default_rng(cols).standard_normal(shape)
        op = SrftOp(rows, 17, seed=rows)
        z = scipy.fft.fft(op.sign[:, None] * a, axis=0)[op.sample_rows]
        ref = np.empty((2 * op.out_dim, cols))
        ref[0::2] = z.real
        ref[1::2] = z.imag
        assert np.array_equal(op.apply(a), ref)

    @pytest.mark.parametrize("rows", [96, 97])
    def test_dense_output_every_row(self, rows):
        # every DFT row sampled: row 0, the Nyquist row I/2 of even I and
        # the rows past I/2, which are conjugates of the rfft's half spectrum
        a = np.random.default_rng(rows).standard_normal((rows, 7))
        op = SrftOp(rows, rows, seed=rows)
        z = scipy.fft.fft(op.sign[:, None] * a, axis=0)[op.sample_rows]
        ref = np.empty((2 * rows, 7))
        ref[0::2] = z.real
        ref[1::2] = z.imag
        assert np.array_equal(op.apply(a), ref)

    def test_sparse_blocked_equals_dense(self, monkeypatch):
        rng = np.random.default_rng(17)
        dense = rng.standard_normal((50, 30))
        dense[rng.random(50) < 0.3] = 0.0
        dense[[0, 25, 49]] = 0.0  # empty first, interior and last rows
        a = sp.csc_array(dense)
        nonzero_rows = np.count_nonzero(np.diff(sp.csr_array(a).indptr))
        assert nonzero_rows % 7 != 0
        op = SrftOp(50, 9, seed=18)
        whole = op.apply(a.toarray())  # the dense FFT path
        # 7-row chunks of nonzero rows: full chunks and a partial last one
        monkeypatch.setattr(idsketch.sketch, "_SRFT_ROW_CHUNK", 7)
        blocked = op.apply(a)
        assert np.abs(blocked - whole).max() <= 1e-12

    def test_sparse_zero_input_gives_zero_sketch(self):
        op = SrftOp(40, 6, seed=30)
        out = op.apply(sp.csc_array((40, 5)))
        assert out.shape == (12, 5)
        assert np.all(out == 0.0)

    def test_sparse_exact_phase_at_prime_length(self):
        # an unreduced float phase 2 pi k n / N reaches 6e6 rad here, where
        # one ulp is 1e-9 rad; the integer reduction mod N keeps it exact
        n = 1_000_003
        rng = np.random.default_rng(31)
        rows = np.array([n - 90, n - 61, n - 40, n - 7, n - 1])
        vals = rng.standard_normal((5, 4))
        r, c = np.nonzero(np.ones((5, 4)))
        a = sp.csc_array((vals[r, c], (rows[r], c)), shape=(n, 4))
        op = SrftOp(n, 3, seed=32)
        sparse = op.apply(a)
        dense = op.apply(a.toarray())
        assert np.abs(sparse - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_sparse_and_dense_select_same_columns(self, seed):
        a = gen_synthetic_matrix(2000, 500, 100, 0.005, seed=seed)
        assert sp.issparse(a)
        sparse = srft_id(a, 100, 110, seed=seed)
        dense = srft_id(a.toarray(), 100, 110, seed=seed)
        assert np.array_equal(sparse.cols, dense.cols)

    def test_sample_rows_distinct(self):
        op = SrftOp(100, 40, seed=19)
        assert np.unique(op.sample_rows).size == 40

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            SrftOp(5, 6)


class TestGaussian:
    def test_zero_matrix_zero_sketch(self):
        op = GaussianOp(20, 5, seed=20)
        assert np.all(op.apply(np.zeros((20, 3))) == 0.0)

    def test_matches_materialized(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 6))
        op = GaussianOp(30, 7, seed=22)
        assert np.abs(op.apply(a) - dense_kr_gaussian(op) @ a).max() <= 1e-12

    def test_kr_matches_densified(self):
        rng = np.random.default_rng(23)
        factors = [rng.standard_normal((3, 2)), rng.standard_normal((3, 2))]
        lam = np.array([1.0, 2.0])
        op = KrGaussianOp([3, 3], 5, seed=24)
        m = khatri_rao(factors) * lam
        assert np.abs(op.apply(factors, lam) - dense_kr_gaussian(op) @ m).max() <= 1e-12

    def test_kr_single_mode_is_gaussian_op(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((15, 4))
        assert np.array_equal(
            GaussianOp(15, 6, seed=26).apply(a),
            KrGaussianOp([15], 6, seed=26).apply([a]),
        )

    def test_row_addressable_stream(self):
        # a sparse factor with few nonzero rows sees the same per-mode
        # factor as a dense one: the result matches the full realization
        rng = np.random.default_rng(0)
        rows = np.array([3, 17, 30])
        factor = np.zeros((40, 2))
        factor[rows] = rng.standard_normal((3, 2))
        other = rng.standard_normal((6, 2))
        op = KrGaussianOp([6, 40], 9, seed=27)
        out = op.apply([other, sp.csc_array(factor)])
        oracle = dense_kr_gaussian(op) @ khatri_rao([other, factor])
        assert np.abs(out - oracle).max() <= 1e-12

    def test_isotropy(self):
        # E ||Omega a||^2 = out_dim for any unit vector a
        rng = np.random.default_rng(28)
        a = rng.standard_normal((15, 1))
        a /= np.linalg.norm(a)
        out_dim = 10
        acc = 0.0
        for seed in range(2000):
            acc += np.sum(GaussianOp(15, out_dim, seed=seed).apply(a) ** 2)
        mean = acc / 2000
        assert abs(mean - out_dim) <= 0.05 * out_dim

    def test_replay(self):
        a = np.random.default_rng(1).standard_normal((12, 3))
        assert np.array_equal(
            GaussianOp(12, 4, seed=5).apply(a), GaussianOp(12, 4, seed=5).apply(a)
        )

    def test_stream_paths_agree(self):
        # sparse and dense inputs see the same operator: a sparse column
        # selection gives exactly those columns of the dense identity's sketch
        op = GaussianOp(50, 7, seed=123)
        full = op.apply(np.eye(50))
        subset = op.apply(sp.csc_array(np.eye(50)[:, [0, 3, 49]]))
        assert np.array_equal(full[:, [0, 3, 49]], subset)


def kernel_factors(mode_dims, cols, sparse, seed):
    rng = np.random.default_rng(seed)
    if sparse:
        return [
            sp.random_array((d, cols), density=0.3, format="csc", rng=rng)
            for d in mode_dims
        ]
    return [rng.standard_normal((d, cols)) for d in mode_dims]


@pytest.mark.parametrize("mode_dims", [[30], [30, 20, 25]])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
class TestKhatriRaoKernels:
    """Each product over modes matches, bit for bit, the per-mode loop
    written out in its test."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_kr_gaussian(self, mode_dims, sparse, weighted):
        factors = kernel_factors(mode_dims, 6, sparse, seed=40)
        weights = np.random.default_rng(41).random(6) if weighted else None
        op = KrGaussianOp(mode_dims, 8, seed=42)
        out = None
        for n, (dim, factor) in enumerate(zip(mode_dims, factors)):
            rng = np.random.default_rng(np.random.SeedSequence([op.seed, n]))
            term = rng.standard_normal((dim, 8)).T @ factor
            out = term if out is None else out * term
        expected = out * (np.ones(6) if weights is None else weights)
        assert np.array_equal(op.apply(factors, weights), expected)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_tensorsketch(self, mode_dims, sparse, weighted):
        factors = kernel_factors(mode_dims, 6, sparse, seed=43)
        weights = np.random.default_rng(44).random(6) if weighted else None
        op = TensorSketchOp(mode_dims, 8, seed=45)
        spectrum = None
        for mode_op, factor in zip(op.mode_ops, factors):
            transform = scipy.fft.rfft(mode_op.apply(factor), axis=0)
            spectrum = transform if spectrum is None else spectrum * transform
        expected = scipy.fft.irfft(spectrum, n=8, axis=0) * (
            np.ones(6) if weights is None else weights
        )
        assert np.array_equal(op.apply(factors, weights), expected)

    def test_term_gram(self, mode_dims, sparse):
        factors = kernel_factors(mode_dims, 6, sparse, seed=46)
        others = kernel_factors(mode_dims, 4, sparse, seed=47)
        expected = np.ones((6, 4))
        for f, g in zip(factors, others):
            expected *= densify(f.T @ g)
        assert np.array_equal(_term_gram(factors, others), expected)


@pytest.mark.parametrize("op_class", [TensorSketchOp, KrGaussianOp])
@pytest.mark.parametrize(
    "mode_dims, out_dim, message",
    [
        ([], 4, "need at least one mode"),
        ([3, 0], 4, "dimensions must be positive"),
        ([3, 2], 0, "dimensions must be positive"),
    ],
)
def test_mode_dims_checked(op_class, mode_dims, out_dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        op_class(mode_dims, out_dim, seed=0)


class TestLinearity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: CountSketchOp(25, 6, seed=30),
            lambda: CountSketchOp(25, 6, seed=31, surjective=True),
            lambda: SrftOp(25, 6, seed=32),
            lambda: GaussianOp(25, 6, seed=33),
        ],
    )
    def test_additive(self, make):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((25, 4))
        b = rng.standard_normal((25, 4))
        op = make()
        assert np.abs(op.apply(a + b) - (op.apply(a) + op.apply(b))).max() <= 1e-12


class TestGaussianStream:
    @pytest.mark.parametrize(
        "rows",
        [[0], [57], [59], [0, 59], [1, 2, 3], [2, 5, 6, 40], [0, 13, 14, 31, 59]],
    )
    @pytest.mark.parametrize("count", [1, 4, 7, 9])
    def test_matches_per_row_generators(self, rows, count):
        # a sparse input that selects some rows sees exactly those rows of
        # the full (60, count) draw, whichever other rows it holds
        draw = np.random.default_rng(
            np.random.SeedSequence([321, 0])
        ).standard_normal((60, count))
        select = sp.csc_array(np.eye(60)[:, rows])
        out = GaussianOp(60, count, seed=321).apply(select)
        assert np.array_equal(out, draw[rows].T)

    def test_factor_is_numpy_standard_normal(self):
        # the operator is the generator's (in_dim, out_dim) draw, transposed
        n, out_dim, seed = 30, 7, 37
        draw = np.random.default_rng(
            np.random.SeedSequence([seed, 0])
        ).standard_normal((n, out_dim))
        assert np.array_equal(GaussianOp(n, out_dim, seed=seed).apply(np.eye(n)), draw.T)

    def test_equal_modes_get_different_factors(self):
        # with one factor the identity and the other a repeated unit vector,
        # the sketch is one mode's Gaussian factor scaled row by row; equal
        # mode factors would make both orders give the same array
        op = KrGaussianOp([12, 12], 5, seed=38)
        eye, first = np.eye(12), np.zeros((12, 12))
        first[0] = 1.0
        mode0 = op.apply([eye, first])
        mode1 = op.apply([first, eye])
        assert np.abs(mode0 - mode1).max() > 0.1

    def test_peak_memory_is_one_factor(self):
        import tracemalloc

        dim, out_dim = 20000, 50
        factors = [
            sp.random_array((dim, 30), density=0.01, format="csc", rng=seed)
            for seed in range(3)
        ]
        op = KrGaussianOp([dim] * 3, out_dim, seed=39)
        tracemalloc.start()
        try:
            op.apply(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * dim * out_dim * 8

    def test_sparse_input_with_zero_rows(self):
        rng = np.random.default_rng(35)
        dense = rng.standard_normal((40, 5))
        dense[[0, 7, 8, 9, 25, 39]] = 0.0  # zero first, last and interior rows
        a = sp.csc_array(dense)
        op = GaussianOp(40, 6, seed=36)
        assert np.abs(op.apply(a) - dense_kr_gaussian(op) @ dense).max() <= 1e-12
