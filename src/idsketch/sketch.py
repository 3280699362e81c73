"""Implicit sketch operators.

Every operator here is stored implicitly (hash tables, sign vectors, or a
seed) and applied without forming its dense sketching matrix, at the cost
its sketch family advertises:

- CountSketch of sparse input: one scatter over the nonzeros,
  O(nnz + L cols), over hash tables of 5 bytes per input row (an int32
  bucket and an int8 sign); see `CountSketchOp`.
- TensorSketch: per-mode CountSketches and FFTs of the exact output length.
- Subsampled Fourier sketch: full-length mixed-radix real FFTs (the half
  spectrum) of dense input; for sparse input only the sampled DFT rows at
  the nonzero input rows (a pruned-output DFT, Sorensen & Burrus 1993).

The FFTs are numpy's (`numpy.fft`, the C++ pocketfft that scipy.fft also
runs); `scipy.fft` and the `scipy.special` it loads would add 70-90 ms of
import time (`python -X importtime`, 2-core Xeon) that no path here needs.

The test suite builds the dense oracles itself (`tests/conftest.py`), from
the operators' hash arrays and seeds.

Randomness: operators are seeded independently via `numpy.random.SeedSequence`
children, so per-mode hash maps and Gaussian factors are mutually
independent. The Gaussian sketch is one operator, `KrGaussianOp`;
`GaussianOp` is its single-mode case. Each mode's dense (I_n, L) factor is
drawn whole from numpy's generator on the `SeedSequence([seed, n])` child
on every apply and multiplied into the input, so the sketch equals a full
materialization. Hash-based sketches (CountSketch, TensorSketch) replay
identically for a fixed seed; TensorSketch's bits are those of numpy's
FFT, pocketfft's C++ code from numpy 2.0 on, the version pyproject.toml
requires. Gaussian streams are reproducible for a fixed seed and numpy
version.

All operators are immutable after construction and safe to share across
threads; `apply` is reentrant.
"""

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

_SRFT_BLOCK_COLS = 256  # dense columns per FFT block: on 32000 x 500 as fast
# as one whole rfft, with a 126 MiB transient peak, not 246 MiB (tracemalloc)
_SRFT_ROW_CHUNK = 8192  # nonzero sparse rows per block of sampled DFT entries
# a sketch of finite input that is not finite overflowed
_SKETCH_OVERFLOW = "the sketch overflowed: it has non-finite entries"


def _seed_entropy(seed):
    """Normalize a seed to an integer entropy value (fresh entropy if None)."""
    if seed is None:
        return np.random.SeedSequence().entropy
    return int(seed)


def _check_factors(factors, nmodes, weights):
    """The factor and weight rule of every CP input (`CpTensor` and the
    sketches): one factor per mode, all with the column count of factor 0,
    and one real finite weight per column; returns float64 weights (ones
    for None)."""
    if len(factors) != nmodes:
        raise ValueError(f"expected {nmodes} factors, got {len(factors)}")
    ncols = factors[0].shape[-1]
    for n, factor in enumerate(factors):
        if factor.shape[-1] != ncols:
            raise ValueError(
                f"factor {n} has {factor.shape[-1]} columns, expected {ncols}"
            )
    if weights is None:
        return np.ones(ncols)
    if np.iscomplexobj(weights):
        raise ValueError("weights have complex entries; input must be real")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (ncols,):
        raise ValueError(f"weights must have length {ncols}, got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    return weights


def _check_modes(mode_dims, out_dim):
    """`mode_dims` as a tuple of ints, checked nonempty and, with `out_dim`,
    positive."""
    mode_dims = tuple(int(d) for d in mode_dims)
    if len(mode_dims) == 0:
        raise ValueError("need at least one mode")
    if any(d < 1 for d in mode_dims) or out_dim < 1:
        raise ValueError("dimensions must be positive")
    return mode_dims


def _check_rows(a, in_dim, kind):
    if np.iscomplexobj(a):  # a float64 cast would drop the imaginary part
        raise ValueError("sketch input has complex entries; input must be real")
    if a.ndim != 2:
        raise ValueError("sketch input must be 2-D")
    if a.shape[0] != in_dim:
        raise ValueError(
            f"{kind} expects {in_dim} input rows, got {a.shape[0]}"
        )


def _finite_sketch(out, inputs):
    """Return the sketch `out` of `inputs` if it is finite. Only a
    non-finite sketch makes the inputs (arrays or sparse matrices) be read:
    a non-finite input entry is a ValueError, otherwise the finite input
    overflowed, a FloatingPointError. Every sketch here carries a
    non-finite input entry into its output."""
    if np.isfinite(out).all():
        return out
    for a in inputs:
        if not np.isfinite(a.data if sp.issparse(a) else a).all():
            raise ValueError("sketch input has non-finite entries")
    raise FloatingPointError(_SKETCH_OVERFLOW)


class CountSketchOp:
    """Bucket-and-sign sketch S: each input row is sign-flipped and added to
    one of `out_dim` output rows.

    In surjective mode the bucket map is a random permutation of
    [0..out_dim) followed by iid uniform values, so every output row
    receives at least one input row and the densified operator has full
    row rank.

    The tables take 5 bytes per input row: `bucket` is int32 and `sign`
    int8 (+1 or -1). They are converted from numpy's int64 draws, which
    are the same for a fixed seed whatever the table dtypes.

    Parameters
    ----------
    in_dim, out_dim : int
        Input rows I and sketch rows L. Surjective mode requires L <= I.
    seed : int, SeedSequence or None
        Seeds the bucket and sign draws.
    surjective : bool
        Use the full-rank bucket construction.
    """

    def __init__(self, in_dim, out_dim, seed=None, surjective=False):
        _check_modes([in_dim], out_dim)
        if surjective and out_dim > in_dim:
            raise ValueError(
                f"surjective mode requires out_dim <= in_dim, got {out_dim} > {in_dim}"
            )
        rng = np.random.default_rng(seed)
        if surjective:
            tail = rng.integers(0, out_dim, size=in_dim - out_dim)
            bucket = np.concatenate([np.arange(out_dim), tail])
            # the draw rng.permutation makes on its copy; numpy shuffles
            # 8-byte items about twice as fast as 4-byte ones
            rng.shuffle(bucket)
        else:
            bucket = rng.integers(0, out_dim, size=in_dim)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.bucket = bucket.astype(np.int32)
        self.sign = rng.integers(0, 2, size=in_dim).astype(np.int8) * 2 - 1

    def apply(self, a):
        """Sketch `a` (sparse or dense, in_dim rows); returns a dense
        (out_dim, cols) float64 array, Fortran-ordered for sparse input.

        Sparse input is one `np.bincount` scatter over its nonzeros,
        out[bucket[i], j] += sign[i] * a[i, j], keyed column-major so each
        column's sums stay in one out_dim block: O(nnz + out_dim cols) time,
        and an int64 key and a float64 weight per nonzero. The weights are
        formed in float64, so integer input cannot wrap. It adds in the order
        of the product S @ A, so its bits are that product's: sparse input
        other than CSC with sorted indices is converted once, through CSR, so
        that each column's rows ascend in the order S @ A reads them. Dense
        input keeps the product, with a float64 +-1 matrix: a scatter over
        every entry is no faster there and needs 16 bytes per entry.
        """
        _check_rows(a, self.in_dim, "CountSketch")
        if not sp.issparse(a):
            # one +-1 entry per column; CSR so S @ A streams over rows of A
            cols = np.arange(self.in_dim, dtype=np.int64)
            s = sp.csr_array(
                (self.sign.astype(np.float64), (self.bucket, cols)),
                shape=(self.out_dim, self.in_dim),
            )
            return _finite_sketch(np.asarray(s @ a, dtype=np.float64), [a])
        if a.format != "csc" or not a.has_sorted_indices:
            a = sp.csc_array(sp.csr_array(a))  # new arrays, not a sorted view
        ncols, width = a.shape[1], self.out_dim
        key = np.repeat(np.arange(0, ncols * width, width), np.diff(a.indptr))
        key += self.bucket[a.indices]
        weights = np.multiply(a.data, self.sign[a.indices], dtype=np.float64)
        out = np.bincount(key, weights=weights, minlength=ncols * width)
        # with no nonzeros bincount returns integer zeros
        out = out.reshape(ncols, width).T.astype(np.float64, copy=False)
        return _finite_sketch(out, [a])


class TensorSketchOp:
    """CountSketch whose hash and sign factor across tensor modes.

    The composite bucket of a row tuple (i_1..i_N) is the mod-L sum of the
    per-mode buckets and the composite sign the product of per-mode signs,
    which is what makes the sketch of a Khatri-Rao product computable from
    per-mode CountSketches and length-L FFTs.
    """

    def __init__(self, mode_dims, out_dim, seed=None):
        self.mode_dims = _check_modes(mode_dims, out_dim)
        entropy = _seed_entropy(seed)
        self.out_dim = int(out_dim)
        self.seed = entropy
        self.mode_ops = [
            CountSketchOp(d, out_dim, seed=np.random.SeedSequence([entropy, n]))
            for n, d in enumerate(self.mode_dims)
        ]

    def apply(self, factors, weights=None):
        """Sketch the Khatri-Rao product of `factors`, scaled columnwise.

        Equivalent to applying the composite operator to
        (khatri_rao(factors)) @ diag(weights) but costs
        O(sum_n nnz(factor_n) + N R L log L): each factor is CountSketched
        with its mode's hash, transformed with a length-L FFT down each
        column, the transforms are multiplied elementwise, and the product
        is transformed back.
        """
        weights = _check_factors(factors, len(self.mode_ops), weights)
        spectrum = reduce(np.multiply, (
            np.fft.rfft(op.apply(factor), axis=0)
            for op, factor in zip(self.mode_ops, factors)
        ))
        out = np.fft.irfft(spectrum, n=self.out_dim, axis=0) * weights
        return _finite_sketch(out, factors)


class SrftOp:
    """Subsampled randomized Fourier sketch: random sign flips, a full-length
    DFT down each column, and a random sample of `out_dim` distinct rows.

    The DFT length is exactly the input dimension (mixed-radix transform, no
    padding), so sampled rows keep their meaning as rows of the I-point DFT
    matrix. Complex sampled rows are returned in a real representation with
    interleaved parts: output rows 2t and 2t+1 hold the real and imaginary
    parts of sampled row t, giving a (2 * out_dim, cols) array.

    Dense input is transformed by real FFTs, O(cols I log I), which keep
    the half spectrum, rows 0..I/2: a sampled row k > I/2 is the conjugate
    of row I - k, since the sign-flipped input is real. Sparse input never
    runs a transform: the sampled entries exp(-2 pi i ((k_t n) mod I) / I)
    sign[n] are formed for its nonzero rows n only and multiplied into the
    input, O(out_dim nnz + I). The phase index (k_t n) mod I is exact in
    int64, which bounds the input dimension I below 3.0e9.
    """

    def __init__(self, in_dim, out_dim, seed=None):
        _check_modes([in_dim], out_dim)
        if out_dim > in_dim:
            raise ValueError("cannot sample more rows than the DFT length")
        rng = np.random.default_rng(seed)
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.sign = rng.integers(0, 2, size=in_dim).astype(np.float64) * 2.0 - 1.0
        self.sample_rows = rng.choice(in_dim, size=out_dim, replace=False)

    def apply(self, a):
        """Sketch `a`. Dense input is transformed _SRFT_BLOCK_COLS columns at
        a time. Sparse input is multiplied by the sampled DFT entries of
        _SRFT_ROW_CHUNK nonzero rows at a time: besides a sign-flipped copy
        of `a`, the memory is the length-I table of twiddles (16 I bytes)
        and one (_SRFT_ROW_CHUNK, out_dim) complex block, 14 MB at
        out_dim = 110, with its int64 phase indices."""
        _check_rows(a, self.in_dim, "SRFT")
        if sp.issparse(a):
            z = self._apply_sparse(a)
        else:
            mirror = self.sample_rows > self.in_dim // 2
            half_rows = np.minimum(self.sample_rows, self.in_dim - self.sample_rows)
            z = np.empty((a.shape[1], self.out_dim), dtype=np.complex128)
            for start in range(0, a.shape[1], _SRFT_BLOCK_COLS):
                stop = start + _SRFT_BLOCK_COLS
                block = self.sign[:, None] * a[:, start:stop]
                z[start:stop] = np.fft.rfft(block, axis=0)[half_rows].T
            z[:, mirror] = z[:, mirror].conj()
        # complex (cols, out_dim) viewed as interleaved (re, im) output rows
        return _finite_sketch(np.ascontiguousarray(z.view(np.float64).T), [a])

    def _apply_sparse(self, a):
        """The complex (cols, out_dim) block of sampled DFT rows of `a`."""
        n = self.in_dim
        twiddle = np.exp(-2j * np.pi * np.arange(n) / n)
        freqs = self.sample_rows.astype(np.int64)
        a = sp.csr_array(sp.diags_array(self.sign) @ a)
        rows = np.flatnonzero(np.diff(a.indptr))
        out = np.zeros((a.shape[1], self.out_dim), dtype=np.complex128)
        for start in range(0, rows.size, _SRFT_ROW_CHUNK):
            chunk = rows[start:start + _SRFT_ROW_CHUNK]
            phase = np.outer(chunk, freqs)
            np.remainder(phase, n, out=phase)  # exact: chunk * freqs < 9.2e18
            out += a[chunk].T @ twiddle.take(phase)
        return out


class KrGaussianOp:
    """Gaussian sketch with Khatri-Rao structure: an independent (I_n, L)
    Gaussian factor per mode, applied to CP factors one mode at a time so
    that neither the sketch matrix nor the Khatri-Rao product is formed.

    GaussianOp is the single-mode case of this class.
    """

    def __init__(self, mode_dims, out_dim, seed=None):
        self.mode_dims = _check_modes(mode_dims, out_dim)
        self.out_dim = int(out_dim)
        self.seed = _seed_entropy(seed)

    @property
    def in_dim(self):
        return math.prod(self.mode_dims)

    def apply(self, factors, weights=None):
        """Entry (l, r) of the result is weights[r] * prod_n of the inner
        product between column l of the mode-n Gaussian factor and column r
        of factor n. Each mode's (I_n, out_dim) factor is drawn whole from
        the generator seeded by SeedSequence([seed, n]) and freed before the
        next mode's draw, so the memory is one dense factor at a time."""
        weights = _check_factors(factors, len(self.mode_dims), weights)
        out = 1.0
        for n, (dim, factor) in enumerate(zip(self.mode_dims, factors)):
            _check_rows(factor, dim, "Khatri-Rao Gaussian sketch")
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, n]))
            out = out * (rng.standard_normal((dim, self.out_dim)).T @ factor)
        return _finite_sketch(out * weights, factors)


class GaussianOp(KrGaussianOp):
    """Dense iid standard normal sketch of shape (out_dim, in_dim), drawn
    from the seed on each apply (nothing is stored besides the seed): the
    single-mode KrGaussianOp."""

    def __init__(self, in_dim, out_dim, seed=None):
        super().__init__([in_dim], out_dim, seed=seed)

    def apply(self, a):
        return super().apply([a])
