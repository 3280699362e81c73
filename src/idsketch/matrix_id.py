"""Interpolative decomposition of matrices.

A rank-k ID approximates A by A[:, cols] @ coeffs, where `cols` names k
actual columns of A and `coeffs` is a well-conditioned coefficient matrix
that contains the k-by-k identity in the selected columns. The
deterministic route pivots on A itself; the sketched routes (CountSketch,
Gaussian, SRFT) pivot on a small row sketch of A and inherit its column
selection, which is what makes them fast on large sparse inputs.
"""

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .linalg import as_matrix, cpqr, dense, triangular_solve
from .sketch import CountSketchOp, GaussianOp, SrftOp

_SKETCH_OPS = {  # operator classes, whose methods a tracer patches on the class
    "gaussian": GaussianOp,
    "srft": SrftOp,
    "countsketch": partial(CountSketchOp, surjective=True),
}
MATRIX_METHODS = ("deterministic", *_SKETCH_OPS)
DEFAULT_OVERSAMPLE = 10
DEFAULT_RANK_TOL = 1e-12
# the methods that draw no sketch, so take no sketch dimension
UNSKETCHED_METHODS = ("deterministic", "gram")


@dataclass(frozen=True)
class InterpolativeDecomposition:
    """Rank-k column ID: coeffs is (k, cols) with an exact identity in the
    columns listed by `cols`; numerical_rank < rank marks instances where
    the pivoted triangle needed diagonal regularization. `decompose` times
    it; `matrix_id` and `gram_tensor_id` leave both times 0.0."""

    coeffs: np.ndarray
    cols: np.ndarray
    rank: int
    method: str
    numerical_rank: int
    rank_deficient: bool
    sketch_time_seconds: float = field(default=0.0, kw_only=True)
    wall_time_seconds: float = field(default=0.0, kw_only=True)

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

    The numerical rank counts the diagonal entries of `r` above the floor
    DEFAULT_RANK_TOL * |r00|, raised to the smallest normal float64 so its
    reciprocal is finite (0 for a zero triangle). Diagonal entries of the
    leading triangle below the floor are raised to it before the one solve,
    so numerically rank-deficient inputs, a zero triangle among them, give
    a usable (flagged) decomposition instead of failing. No coefficient is
    -0.0.
    """
    rank = r.shape[0]
    diag = np.abs(np.diag(r))
    floor = max(DEFAULT_RANK_TOL * diag[0], np.finfo(np.float64).tiny)
    numerical_rank = int(np.count_nonzero(diag > floor))
    r11 = r[:, :rank].copy()
    small = np.flatnonzero(diag < floor)
    r11[small, small] = np.where(r11[small, small] < 0.0, -floor, floor)
    t = triangular_solve(r11, r[:, rank:]) + 0.0  # -0.0 becomes +0.0
    coeffs = np.zeros((rank, perm.size))
    coeffs[np.arange(rank), perm[:rank]] = 1.0
    coeffs[:, perm[rank:]] = t
    return InterpolativeDecomposition(
        coeffs=coeffs,
        cols=perm[:rank].copy(),
        rank=rank,
        method=method,
        numerical_rank=numerical_rank,
        rank_deficient=numerical_rank < rank,
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


def _check_id_args(method, rank, max_rank, sketch_dim=None, limit=None):
    """Rank and sketch-dimension rules of every ID method: 1 <= rank <=
    max_rank; a sketched method also needs rank <= sketch_dim (default
    rank + DEFAULT_OVERSAMPLE) and, when `limit` = (bound, what it counts)
    is given, sketch_dim < bound, as a sketch as tall as its input saves
    nothing. Returns sketch_dim, or None for UNSKETCHED_METHODS."""
    if not 1 <= rank <= max_rank:
        raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    if method in UNSKETCHED_METHODS:
        return None
    if sketch_dim is None:
        sketch_dim = rank + DEFAULT_OVERSAMPLE
    if sketch_dim < rank:
        raise ValueError(
            f"sketch dimension {sketch_dim} is below the target rank {rank}"
        )
    if limit is not None and sketch_dim >= limit[0]:
        raise ValueError(
            f"sketch dimension {sketch_dim} must be < {limit[0]} {limit[1]}"
        )
    return sketch_dim


def _sketch_and_id(t0, sketch, finish):
    """Hand a sketch to its ID: time `sketch()`, then return finish(sketch)
    with that sketch time and the seconds since `t0`."""
    t1 = time.perf_counter()
    s = sketch()
    sketch_seconds = time.perf_counter() - t1
    return replace(finish(s), sketch_time_seconds=sketch_seconds,
                   wall_time_seconds=time.perf_counter() - t0)


def matrix_sketch(a, method, sketch_dim, seed=None):
    """Row sketch of `a` for the given randomized method.

    Returns the dense sketch whose ID is also an ID of `a` (the SRFT sketch
    has 2 * sketch_dim rows in its real representation).
    """
    if method not in _SKETCH_OPS:
        raise ValueError(f"unknown sketch method {method!r}")
    return _SKETCH_OPS[method](a.shape[0], sketch_dim, seed=seed).apply(a)


def decompose(a, method, rank, sketch_dim=None, seed=None):
    """Rank-`rank` ID of `a` by any of MATRIX_METHODS, timed.

    The sketch time is 0.0 for the deterministic method, which densifies
    sparse input; the wall time covers validation, sketch and ID.
    """
    t0 = time.perf_counter()
    if method == "deterministic":  # cpqr validates the matrix and the rank
        return replace(matrix_id(dense(a), rank),
                       wall_time_seconds=time.perf_counter() - t0)
    if method not in _SKETCH_OPS:
        raise ValueError(f"unknown matrix method {method!r}")
    a = as_matrix(a)
    limit = (a.shape[0], "input rows; use matrix_id directly instead")
    sketch_dim = _check_id_args(method, rank, a.shape[1], sketch_dim, limit)
    return _sketch_and_id(
        t0,
        lambda: matrix_sketch(a, method, sketch_dim, seed=seed),
        lambda s: replace(matrix_id(s, rank), method=method),
    )


def countsketch_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a CountSketch of the rows of `a`.

    The sketch costs O(nnz + sketch_dim cols) (`CountSketchOp.apply`); the
    ID of the (sketch_dim, cols) sketch then selects the columns. The bucket
    map is surjective, which keeps the sketch operator itself full rank.
    The default sketch_dim is rank + 10.
    """
    return decompose(a, "countsketch", rank, sketch_dim, seed)


def gaussian_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a dense Gaussian row sketch of `a`; sparse input
    draws normals for its nonempty rows only (`GaussianOp`)."""
    return decompose(a, "gaussian", rank, sketch_dim, seed)


def srft_id(a, rank, sketch_dim=None, seed=None):
    """Randomized ID from a subsampled randomized Fourier sketch of `a`.

    Sparse input is never densified: only the sampled DFT rows are formed,
    at its nonempty rows, for O(sketch_dim nnz + rows) work.
    """
    return decompose(a, "srft", rank, sketch_dim, seed)
