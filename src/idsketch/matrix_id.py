"""Interpolative decomposition of matrices.

A rank-k ID approximates A by A[:, cols] @ coeffs, where `cols` names k
actual columns of A and `coeffs` is a well-conditioned coefficient matrix
that contains the k-by-k identity in the selected columns. The
deterministic route pivots on A itself; the sketched routes (CountSketch,
Gaussian, SRFT) pivot on a small row sketch of A and inherit its column
selection, which is what makes them fast on large sparse inputs.
"""

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .linalg import as_csc, as_dense, cpqr, triangular_solve
from .sketch import CountSketchOp, GaussianOp, SrftOp

MATRIX_METHODS = ("deterministic", "gaussian", "srft", "countsketch")
DEFAULT_OVERSAMPLE = 10
DEFAULT_RANK_TOL = 1e-12


@dataclass(frozen=True)
class InterpolativeDecomposition:
    """Rank-k column ID: coeffs is (k, cols) with an exact identity in the
    columns listed by `cols`; numerical_rank < rank marks instances where
    the pivoted triangle needed diagonal regularization."""

    coeffs: np.ndarray
    cols: np.ndarray
    rank: int
    method: str
    numerical_rank: int
    rank_deficient: bool

    def to_dict(self):
        """JSON-ready form; column indices are 0-based."""
        return {
            "method": self.method,
            "k": int(self.rank),
            "j": [int(c) for c in self.cols],
            "p": self.coeffs.tolist(),
            "numerical_rank": int(self.numerical_rank),
            "rank_deficient": bool(self.rank_deficient),
        }


def _id_from_pivoted(r, perm, method):
    """Column ID from a pivoted triangle: `r` is (rank, cols) upper
    trapezoidal and `perm` the column permutation with the selected pivots
    first.

    The numerical rank counts the diagonal entries of `r` above
    DEFAULT_RANK_TOL * |r00| (0 for a zero triangle). Diagonal entries of
    the leading triangle below that floor are raised to it before the
    solve, so numerically rank-deficient inputs produce a usable (flagged)
    decomposition instead of failing.
    """
    rank = r.shape[0]
    diag = np.abs(np.diag(r))
    floor = DEFAULT_RANK_TOL * diag[0]
    numerical_rank = int(np.count_nonzero(diag > floor))
    deficient = numerical_rank < rank
    if diag[0] == 0.0:
        # zero input: any column set works, coefficients carry no information
        t = np.zeros((rank, perm.size - rank))
    else:
        r11 = r[:, :rank]
        if deficient:
            r11 = r11.copy()
            small = np.flatnonzero(diag < floor)
            r11[small, small] = np.where(r11[small, small] < 0.0, -floor, floor)
        t = triangular_solve(r11, r[:, rank:])
    coeffs = np.zeros((rank, perm.size))
    coeffs[np.arange(rank), perm[:rank]] = 1.0
    coeffs[:, perm[rank:]] = t
    return InterpolativeDecomposition(
        coeffs=coeffs,
        cols=perm[:rank].copy(),
        rank=rank,
        method=method,
        numerical_rank=numerical_rank,
        rank_deficient=deficient,
    )


def matrix_id(a, rank):
    """Deterministic rank-`rank` ID of a dense matrix via column-pivoted QR.

    Parameters
    ----------
    a : array_like
        Dense (rows, cols) matrix.
    rank : int
        Number of columns to select, 1 <= rank <= min(rows, cols).

    Returns
    -------
    InterpolativeDecomposition
        With `cols` the first `rank` QR pivots and the identity submatrix
        invariant holding exactly by construction.
    """
    return _id_from_pivoted(*cpqr(a, rank), "deterministic")


def check_sketch_dim(rank, sketch_dim):
    """Sketch dimension for a rank-`rank` sketched ID, defaulted to
    rank + DEFAULT_OVERSAMPLE; a sketch below the rank is rejected."""
    if sketch_dim is None:
        sketch_dim = rank + DEFAULT_OVERSAMPLE
    if sketch_dim < rank:
        raise ValueError(
            f"sketch dimension {sketch_dim} is below the target rank {rank}"
        )
    return sketch_dim


def check_matrix_id_args(a, rank, sketch_dim, method):
    """Validate the rank/sketch-dimension preconditions of a sketched matrix
    ID; returns the sketch dimension, defaulted to rank + 10.

    Requires rank <= sketch_dim < rows (a sketch at least as tall as the
    input is pointless; use the deterministic method instead).
    """
    rows, ncols = a.shape
    limit = min(rows, ncols) if method == "deterministic" else ncols
    if not 1 <= rank <= limit:
        raise ValueError(f"rank must be in [1, {limit}], got {rank}")
    if method == "deterministic":
        return None
    sketch_dim = check_sketch_dim(rank, sketch_dim)
    if sketch_dim >= rows:
        raise ValueError(
            f"sketch dimension {sketch_dim} must be < {rows} input rows; "
            "use matrix_id directly instead"
        )
    return sketch_dim


def matrix_sketch(a, method, sketch_dim, seed=None):
    """Row sketch of `a` for the given randomized method.

    Returns the dense sketch whose ID is also an ID of `a` (the SRFT sketch
    has 2 * sketch_dim rows in its real representation).
    """
    rows = a.shape[0]
    if method == "countsketch":
        op = CountSketchOp(rows, sketch_dim, seed=seed, surjective=True)
    elif method == "gaussian":
        op = GaussianOp(rows, sketch_dim, seed=seed)
    elif method == "srft":
        op = SrftOp(rows, sketch_dim, seed=seed)
    else:
        raise ValueError(f"unknown sketch method {method!r}")
    return op.apply(a)


def decompose(a, method, rank, sketch_dim=None, seed=None):
    """Rank-`rank` ID of `a` by any of MATRIX_METHODS, timed.

    Returns (decomposition, sketch_seconds, wall_seconds). The sketch time
    is 0.0 for the deterministic method, which densifies sparse input; the
    wall time covers validation, sketch and ID.
    """
    t0 = time.perf_counter()
    if method == "deterministic":
        a = as_dense(a.toarray() if sp.issparse(a) else a)
    else:
        a = as_csc(a) if sp.issparse(a) else as_dense(a)
    sketch_dim = check_matrix_id_args(a, rank, sketch_dim, method)
    sketch_seconds = 0.0
    target = a
    if method != "deterministic":
        t1 = time.perf_counter()
        target = matrix_sketch(a, method, sketch_dim, seed=seed)
        sketch_seconds = time.perf_counter() - t1
    decomp = replace(matrix_id(target, rank), method=method)
    return decomp, sketch_seconds, time.perf_counter() - t0


def countsketch_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a CountSketch of the rows of `a`.

    The sketch costs one pass over the nonzeros; the ID of the
    (sketch_dim, cols) sketch then selects the columns. The bucket map is
    surjective, which keeps the sketch operator itself full rank. The
    default sketch_dim is rank + 10.
    """
    return decompose(a, "countsketch", rank, sketch_dim, seed)[0]


def gaussian_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a dense Gaussian row sketch of `a`."""
    return decompose(a, "gaussian", rank, sketch_dim, seed)[0]


def srft_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a subsampled randomized Fourier sketch of `a`.

    Sparse input is densified in bounded column blocks before the FFT.
    """
    return decompose(a, "srft", rank, sketch_dim, seed)[0]
