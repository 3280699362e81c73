"""CP tensors and rank reduction by selecting rank-1 terms.

A CP tensor is a weighted sum of R rank-1 terms, each the outer product of
one unit-norm column per mode. Rank reduction keeps K of the R terms and
recomputes the weights so the smaller tensor tracks the original. All exact
Frobenius geometry goes through the Gram Hadamard identity (the Gram matrix
of the flattened rank-1 terms is the elementwise product of the per-mode
factor Gram matrices), so tensors are never densified outside of tests.
"""

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .estimators import _scale_exponent
from .linalg import as_csc, as_dense, cpqr
from .matrix_id import (
    InterpolativeDecomposition,
    _check_id_args,
    _check_sketch_finite,
    _id_from_pivoted,
    _sketch_and_id,
    matrix_id,
)
from .mmio import read_matrix_market, write_matrix_market
from .sketch import KrGaussianOp, TensorSketchOp

TENSOR_METHODS = ("gram", "gaussian", "tensorsketch")


def _column_norms(factor):
    if sp.issparse(factor):
        return np.sqrt(np.asarray(factor.power(2).sum(axis=0)).ravel())
    return np.linalg.norm(factor, axis=0)


def _scale_columns(factor, scale):
    if sp.issparse(factor):
        return as_csc(factor @ sp.diags_array(scale))
    return factor * scale


class CpTensor:
    """CP-format tensor: `weights` (length R, nonnegative) plus one factor
    matrix per mode, each (I_n, R) with unit 2-norm columns.

    The constructor normalizes factor columns, folding norms (and the sign
    needed to keep weights nonnegative, applied to the first mode) into the
    weights. Zero columns contribute weight 0 and get replaced by an
    arbitrary unit vector. Instances are treated as immutable and are safe
    to share across threads.
    """

    def __init__(self, weights, factors):
        if len(factors) == 0:
            raise ValueError("need at least one factor matrix")
        factors = [
            (as_csc if sp.issparse(f) else as_dense)(f, name=f"factor {n}")
            for n, f in enumerate(factors)
        ]
        rank = factors[0].shape[1]
        for n, f in enumerate(factors):
            if f.shape[1] != rank:
                raise ValueError(
                    f"factor {n} has {f.shape[1]} columns, expected {rank}"
                )
        weights = np.asarray(weights, dtype=np.float64).copy()
        if weights.shape != (rank,):
            raise ValueError(f"weights must have length {rank}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")

        normalized = []
        for factor in factors:
            norms = _column_norms(factor)
            zero = norms == 0.0
            # columns already unit to round-off are kept bit-identical, so
            # selecting terms out of a normalized tensor is an exact
            # column-subset operation
            norms = np.where(np.abs(norms - 1.0) <= 1e-12, 1.0, norms)
            if np.any(norms != 1.0):
                factor = _scale_columns(factor, 1.0 / np.where(zero, 1.0, norms))
            if zero.any():
                factor = _set_unit_columns(factor, np.flatnonzero(zero))
            weights *= np.where(zero, 0.0, norms)
            normalized.append(factor)
        negative = weights < 0.0
        if negative.any():
            flip = np.where(negative, -1.0, 1.0)
            normalized[0] = _scale_columns(normalized[0], flip)
            weights = np.abs(weights)

        self.weights = weights
        self.factors = normalized

    @property
    def rank(self):
        return self.weights.size

    @property
    def ndim(self):
        return len(self.factors)

    @property
    def mode_dims(self):
        return tuple(f.shape[0] for f in self.factors)

    @property
    def total_entries(self):
        return math.prod(self.mode_dims)

    def select(self, cols, weights):
        """CP tensor built from the given term indices and new weights."""
        return CpTensor(weights, [f[:, cols] for f in self.factors])


def _set_unit_columns(factor, cols):
    if sp.issparse(factor):
        lil = factor.tolil()
        for c in cols:
            lil[:, c] = 0.0
            lil[0, c] = 1.0
        return as_csc(lil)
    factor = factor.copy()
    factor[:, cols] = 0.0
    factor[0, cols] = 1.0
    return factor


def _gram(weights, factors):
    """diag(weights) @ (hadamard of factor Grams) @ diag(weights).

    Weights may be signed here; the public gram_hadamard goes through a
    CpTensor whose weights are nonnegative.
    """
    rank = len(weights)
    out = np.ones((rank, rank))
    for factor in factors:
        if sp.issparse(factor):
            gram = (factor.T @ factor).toarray()
        else:
            gram = factor.T @ factor
        out *= gram
    out *= weights[None, :]
    out *= weights[:, None]
    return out


def gram_hadamard(x):
    """Gram matrix of the flattened weighted rank-1 terms, computed one mode
    at a time in O(R^2 sum_n I_n); symmetric PSD up to round-off."""
    return _gram(x.weights, x.factors)


def _gram_norm(weights, factors):
    """Square root of the summed `_gram`, clamped at zero against round-off.
    The weights are scaled by a power of two first and the root scaled back,
    which is exact, so weights whose squares overflow or underflow still
    give the norm; a norm beyond the float64 range raises FloatingPointError."""
    e = _scale_exponent(weights)
    total = _gram(np.ldexp(weights, -e), factors).sum()
    try:
        return math.ldexp(float(np.sqrt(max(total, 0.0))), e)
    except OverflowError:
        raise FloatingPointError("norm beyond the float64 range") from None


def cp_norm(x):
    """Exact Frobenius norm of a CP tensor via the Gram Hadamard identity."""
    return _gram_norm(x.weights, x.factors)


def _hstack_factors(a, b):
    if sp.issparse(a) and sp.issparse(b):
        return sp.hstack([a, b], format="csc")
    a = a.toarray() if sp.issparse(a) else a
    b = b.toarray() if sp.issparse(b) else b
    return np.hstack([a, b])


def cp_diff_norm(x, y):
    """Exact Frobenius norm of the difference of two CP tensors.

    Concatenates the terms of `y` with negated weights onto `x` and takes
    the norm of the combined tensor.
    """
    if x.mode_dims != y.mode_dims:
        raise ValueError(
            f"mode dimensions disagree: {x.mode_dims} vs {y.mode_dims}"
        )
    weights = np.concatenate([x.weights, -y.weights])
    factors = [_hstack_factors(a, b) for a, b in zip(x.factors, y.factors)]
    return _gram_norm(weights, factors)


@dataclass(frozen=True)
class TensorIdResult(InterpolativeDecomposition):
    """Rank reduction output: the column ID of the flattened rank-1 terms,
    plus the reduced tensor built from the selected terms and the
    recombined weights new_weights[k] = weights[cols[k]] * coeffs[k, :].sum()."""

    reduced: CpTensor
    new_weights: np.ndarray

    def to_dict(self):
        """JSON-ready form; term indices are 0-based."""
        items = list(super().to_dict().items())
        # the report lists new_svalues right after p
        items.insert(4, ("new_svalues", self.new_weights.tolist()))
        return dict(items)


def _assemble(x, decomp):
    new_weights = x.weights[decomp.cols] * decomp.coeffs.sum(axis=1)
    reduced = x.select(decomp.cols, new_weights)
    return TensorIdResult(**vars(decomp), reduced=reduced, new_weights=new_weights)


def tensor_id_from_sketch(x, sketch, rank, method):
    """Finish a sketched tensor ID: matrix-ID the sketch, recombine weights,
    and assemble the reduced tensor from the selected terms."""
    return _assemble(x, replace(matrix_id(sketch, rank), method=method))


def decompose(x, method, rank, sketch_dim=None, seed=None):
    """Rank reduction of `x` by any of TENSOR_METHODS, timed.

    Returns (result, sketch_seconds, wall_seconds). For the gram method the
    sketch is the Gram matrix `gram_hadamard(x)`; the wall time covers
    validation, sketch and ID.
    """
    t0 = time.perf_counter()
    if method not in TENSOR_METHODS:
        raise ValueError(f"unknown tensor method {method!r}")
    limit = (x.total_entries, "tensor entries") if method == "tensorsketch" else None
    sketch_dim = _check_id_args(method, rank, x.rank, sketch_dim, limit)
    if method == "gram":
        return _sketch_and_id(
            t0, lambda: gram_hadamard(x), lambda g: gram_tensor_id(x, rank, gram=g)
        )
    op_type = TensorSketchOp if method == "tensorsketch" else KrGaussianOp
    return _sketch_and_id(
        t0,
        lambda: op_type(x.mode_dims, sketch_dim, seed=seed).apply(x.factors, x.weights),
        lambda s: tensor_id_from_sketch(x, s, rank, method),
    )


def tensorsketch_id(x, rank, sketch_dim=None, seed=None):
    """Rank reduction via a TensorSketch of the flattened rank-1 terms.

    Costs O(N (nnz + R L log L) + L^2 R) for an N-mode rank-R input with
    sketch dimension L (default rank + 10); L must stay below the number of
    tensor entries.
    """
    return decompose(x, "tensorsketch", rank, sketch_dim, seed)[0]


def gaussian_tensor_id(x, rank, sketch_dim=None, seed=None):
    """Rank reduction via the Khatri-Rao structured Gaussian sketch,
    accumulated one mode at a time."""
    return decompose(x, "gaussian", rank, sketch_dim, seed)[0]


def gram_tensor_id(x, rank, gram=None):
    """Deterministic rank reduction through the R-by-R Gram matrix.

    Pivots on the Gram matrix through `cpqr` and derives the coefficients
    from the triangle of an unpivoted QR of the selected rows, per the
    symmetric-ID construction. Cheap (no sketch) but the Gram matrix
    squares the conditioning of the underlying problem, so very small
    residuals are limited to about the square root of machine precision.
    A Gram that overflows raises FloatingPointError, as in `decompose`.
    """
    _check_id_args("gram", rank, x.rank)
    if gram is None:
        g = _check_sketch_finite(gram_hadamard(x))
    else:
        g = np.asarray(gram, dtype=np.float64)
    perm = cpqr(g, rank)[1]
    # coefficients from the unpivoted QR of the selected Gram rows, with the
    # columns in pivot order so the leading block is the selected one
    b = g[:, perm[:rank]].T[:, perm]
    rt = scipy.linalg.qr(b, mode="r")[0]
    return _assemble(x, _id_from_pivoted(rt, perm, "gram"))


def save_cp_dir(path, x):
    """Write a CP tensor as a directory: meta.json, svalues.txt (one weight
    per line, 17 significant digits), and factor_1.mtx .. factor_N.mtx."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "n_modes": x.ndim,
        "rank": x.rank,
        "mode_dims": list(x.mode_dims),
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    lines = "".join(f"{w:.17g}\n" for w in x.weights)
    (path / "svalues.txt").write_text(lines)
    for n, factor in enumerate(x.factors, start=1):
        write_matrix_market(path / f"factor_{n}.mtx", factor)


def load_cp_dir(path):
    """Read a CP tensor directory written by save_cp_dir; factor columns are
    re-normalized on load."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    if not isinstance(meta, dict) or not {"n_modes", "rank", "mode_dims"} <= meta.keys():
        raise ValueError(f"meta.json in {path} must hold n_modes, rank and mode_dims")
    if not isinstance(meta["n_modes"], int):
        raise ValueError(f"n_modes in {path}/meta.json must be an integer")
    weights = np.array(
        [float(line) for line in (path / "svalues.txt").read_text().split()]
    )
    factors = [
        read_matrix_market(path / f"factor_{n}.mtx")
        for n in range(1, meta["n_modes"] + 1)
    ]
    x = CpTensor(weights, factors)
    if x.rank != meta["rank"] or list(x.mode_dims) != meta["mode_dims"]:
        raise ValueError(f"CP directory {path} is inconsistent with its meta.json")
    return x
