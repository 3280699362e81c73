"""Dense/sparse matrix containers and factorization kernels.

Dense matrices are 2-D float64 numpy arrays (kept Fortran-ordered, since
every algorithm here consumes columns); sparse matrices are scipy CSC.
The validators below are the entry points that enforce the container
invariants (finite entries, sorted indices, no stored zeros).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DEFAULT_RANK_TOL = 1e-12


class SingularTriangleError(np.linalg.LinAlgError):
    """A triangular solve hit a (numerically) zero diagonal entry."""


def as_dense(a, name="a"):
    """Validate `a` as a dense matrix and return it as a float64 F-ordered array.

    Raises ValueError for sparse, non-2-D, empty, or non-finite input.
    """
    if sp.issparse(a):
        raise ValueError(f"{name} must be dense; densify sparse input explicitly")
    out = np.asfortranarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_csc(a, name="a"):
    """Validate `a` as a sparse matrix and return it in canonical CSC form.

    Canonical means: float64 values, sorted row indices within each column,
    duplicates summed, and no explicitly stored zeros.
    """
    if not sp.issparse(a):
        raise ValueError(f"{name} must be a scipy sparse matrix")
    out = sp.csc_array(a, dtype=np.float64)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    if out.nnz and not np.isfinite(out.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class PivotedQr:
    """Rank-`k` partial column-pivoted QR factorization.

    q: (rows, k) with orthonormal columns; r: (k, cols) upper trapezoidal
    with |diagonal| nonincreasing; perm: full column permutation with the
    k selected pivots first; numerical_rank: number of leading diagonal
    entries of r above the relative rank tolerance.
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    numerical_rank: int


def cpqr(a, rank, rank_tol=DEFAULT_RANK_TOL):
    """Column-pivoted Householder QR, truncated to the leading `rank` pivots.

    Pivoting always selects the remaining column of largest norm (ties go to
    the lowest column index), so the diagonal of `r` is nonincreasing in
    absolute value and `q @ r` reproduces `a[:, perm]` up to truncation.

    Parameters
    ----------
    a : array_like
        Dense (rows, cols) matrix.
    rank : int
        Target rank, 1 <= rank <= min(rows, cols).
    rank_tol : float
        Relative tolerance: diagonal entries of `r` with absolute value
        <= rank_tol * |r[0, 0]| do not count towards `numerical_rank`.
    """
    a = as_dense(a)
    rows, cols = a.shape
    if not 1 <= rank <= min(rows, cols):
        raise ValueError(f"rank must be in [1, {min(rows, cols)}], got {rank}")
    q, r, perm = scipy.linalg.qr(a, mode="economic", pivoting=True)
    q = np.ascontiguousarray(q[:, :rank])
    r = np.ascontiguousarray(r[:rank, :])
    numerical_rank = count_numerical_rank(r, rank_tol)
    return PivotedQr(q=q, r=r, perm=perm, numerical_rank=numerical_rank)


def count_numerical_rank(r, rank_tol=DEFAULT_RANK_TOL):
    """Number of diagonal entries of the pivoted triangle `r` above
    rank_tol * |r[0, 0]|; 0 when r[0, 0] is zero."""
    diag = np.abs(np.diag(r))
    lead = diag[0]
    return 0 if lead == 0.0 else int(np.count_nonzero(diag > rank_tol * lead))


def svd_values(a):
    """Full singular spectrum of a dense matrix, nonincreasing."""
    a = as_dense(a)
    return np.linalg.svd(a, compute_uv=False)


def triangular_solve(r, b, lower=False):
    """Solve r @ x = b for a nonsingular triangular `r`.

    Raises SingularTriangleError naming the first zero diagonal index.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"triangle must be square, got shape {r.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != r.shape[0]:
        raise ValueError(f"dimension mismatch: {r.shape} vs {b.shape}")
    diag = np.abs(np.diag(r))
    if (diag == 0.0).any():
        idx = int(np.argmin(diag != 0.0))
        raise SingularTriangleError(f"zero diagonal entry at index {idx}")
    if b.size == 0:
        return np.zeros_like(b)
    return scipy.linalg.solve_triangular(r, b, lower=lower)
