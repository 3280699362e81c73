"""Synthetic sparse matrices and CP tensors with prescribed spectra.

The matrix generator sums 2K sparse rank-1 terms whose coefficients decay
exponentially from 1 to 1e-8 over the first K terms and stay at 1e-8 for
the rest, so the result has a sharp spectral knee at index K. Exact
spectra would require dense singular vectors, so sparsity is traded for an
approximate spectrum: random sparse unit directions are nearly orthogonal,
and the realized singular values track the targets closely enough for
benchmark use (the test suite checks the knee against an SVD oracle).
"""

import numpy as np
import scipy.sparse as sp

from .cp_tensor import CpTensor
from .linalg import as_csc

NOISE_FLOOR = 1e-8


def _decay_weights(count, knee, den):
    """count coefficients: 10**(-8 (i-1)/den) for i <= knee, then 1e-8.

    The matrix construction passes den = knee - 1 (at least 1), so the
    decay completes at the knee; the tensor construction passes its rank.
    """
    i = np.arange(1, count + 1, dtype=np.float64)
    vals = 10.0 ** (-8.0 * (i - 1) / den)
    vals[i > knee] = NOISE_FLOOR
    return vals


def _sparse_unit_columns(rng, dim, count, nnz_per_col):
    """CSC matrix of `count` random sparse columns with unit 2-norm.

    Each column draws its distinct rows (`choice`), then its values
    (`standard_normal`). Every column holds the same number of entries, so
    the canonical CSC is built directly: one argsort over the (count, nnz)
    block sorts the rows of each column, and column c starts at c * nnz.
    """
    nnz_per_col = min(nnz_per_col, dim)
    rows = np.empty((count, nnz_per_col), dtype=np.int64)
    vals = np.empty((count, nnz_per_col))
    for c in range(count):
        rows[c] = rng.choice(dim, size=nnz_per_col, replace=False)
        v = rng.standard_normal(nnz_per_col)
        vals[c] = v / np.linalg.norm(v)
    order = np.argsort(rows, axis=1)
    indices = np.take_along_axis(rows, order, axis=1).ravel()
    data = np.take_along_axis(vals, order, axis=1).ravel()
    indptr = np.arange(0, count * nnz_per_col + 1, nnz_per_col)
    return sp.csc_array((data, indices, indptr), shape=(dim, count))


def gen_synthetic_matrix(rows, cols, rank, density, seed=None):
    """Sparse (rows, cols) matrix of true rank 2*rank with a spectral knee.

    Parameters
    ----------
    rows, cols : int
        Shape; requires 2 * rank <= min(rows, cols).
    rank : int
        Knee position K: coefficients decay to 1e-8 over the first K terms
        and remain there for terms K+1 .. 2K.
    density : float
        Target fraction of stored nonzeros, in (0, 1]; requires
        density * rows >= 4 so columns stay populated. Per-direction
        sparsity is split evenly, so the realized density is approximate.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if 2 * rank > min(rows, cols):
        raise ValueError(f"need 2 * rank <= min(rows, cols), got rank={rank}")
    if density * rows < 4:
        raise ValueError(
            f"density {density} too low for {rows} rows (need density * rows >= 4)"
        )
    rng = np.random.default_rng(seed)
    terms = 2 * rank
    frac = np.sqrt(density / terms)
    nnz_u = max(1, round(frac * rows))
    nnz_v = max(1, round(frac * cols))
    u = _sparse_unit_columns(rng, rows, terms, nnz_u)
    v = _sparse_unit_columns(rng, cols, terms, nnz_v)
    sigma = _decay_weights(terms, rank, max(rank - 1, 1))
    a = (u @ sp.diags_array(sigma)) @ v.T
    a.sum_duplicates()  # in place, on our own product: as_csc need not copy it
    return as_csc(a)


def gen_synthetic_tensor(n_modes, dim, rank, decay_terms, density, seed=None):
    """CP tensor with sparse random unit factor columns and a knee spectrum.

    Weights follow 10**(-8 (r-1)/rank) for r <= decay_terms and sit at the
    1e-8 floor afterwards. Each factor column holds round(density * dim)
    nonzeros (at least one).
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if density * dim < 1:
        raise ValueError(
            f"density {density} too low for mode dimension {dim}"
        )
    if not 1 <= decay_terms <= rank:
        raise ValueError(f"decay_terms must be in [1, {rank}], got {decay_terms}")
    rng = np.random.default_rng(seed)
    nnz_col = max(1, round(density * dim))
    factors = [
        _sparse_unit_columns(rng, dim, rank, nnz_col) for _ in range(n_modes)
    ]
    weights = _decay_weights(rank, decay_terms, rank)
    return CpTensor(weights, factors)
