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
from functools import cached_property, reduce
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpstrf

from .linalg import (
    _column_sumsq, _require_finite, _scale_exponent, _scaled_root, as_matrix, dense
)
from .matrix_id import (
    InterpolativeDecomposition,
    _check_id_args,
    _id_from_pivoted,
    _sketch_and_id,
    matrix_id,
)
from .mmio import read_matrix_market, write_matrix_market
from .sketch import KrGaussianOp, TensorSketchOp, _check_factors

TENSOR_METHODS = ("gram", "gaussian", "tensorsketch")


class CpTensor:
    """CP-format tensor: `weights` (length R, nonnegative) plus one factor
    matrix per mode, each (I_n, R) with unit 2-norm columns, except that a
    zero column stays zero.

    The constructor checks factors and weights by the sketches' rule
    (`sketch._check_factors`) and normalizes factor columns, folding norms
    (and the sign needed to keep weights nonnegative, applied to the first
    mode) into the weights. A column whose squares under- or overflow keeps
    its norm; only an exact zero column gets weight +0.0, and it stays zero.
    A column's squares are summed over its nonzeros in CSC order, so a
    factor gives the same weights and factor dense and as CSC.
    A subnormal column (largest entry below 2.2e-308) and weights that
    overflow once the norms are folded in raise FloatingPointError.
    Instances are treated as immutable and are safe to share across
    threads. The unweighted R x R term Gram is computed on first use, or
    taken from the first `gram_hadamard(x)`, and cached (`term_gram`), so
    its R**2 floats live as long as the tensor.
    """

    def __init__(self, weights, factors):
        if len(factors) == 0:
            raise ValueError("need at least one factor matrix")
        factors = [as_matrix(f, name=f"factor {n}") for n, f in enumerate(factors)]
        # as an array, None is a weight vector of the wrong shape, not all ones
        weights = _check_factors(factors, len(factors), np.asarray(weights))

        sign = np.where(weights < 0.0, -1.0, 1.0)
        weights = np.abs(weights)
        normalized = []
        # an overflow leaves non-finite weights, which raise below
        with np.errstate(divide="ignore", over="ignore"):
            for factor in factors:
                norms = np.sqrt(_column_sumsq(factor))
                # squares out of range (2**-511 is the root of the smallest
                # normal): norm each column times its own power of two, back in
                # canonical CSC if sparse (the product is COO), so summed alike
                bad = np.isinf(norms) | (norms < 2.0**-511)
                if bad.any():
                    peak = dense(abs(factor).max(axis=0))
                    e = np.array([_scale_exponent(p) for p in peak])
                    if np.any(e <= -1022):
                        raise FloatingPointError("a factor column is subnormal")
                    scaled = as_matrix(factor * np.ldexp(1.0, -e))
                    root = np.sqrt(_column_sumsq(scaled))
                    norms = np.where(bad, np.ldexp(root, e), norms)
                # columns already unit to round-off are kept bit-identical, so
                # selecting terms out of a normalized tensor is an exact
                # column-subset operation
                norms = np.where(np.abs(norms - 1.0) <= 1e-12, 1.0, norms)
                # a zero column is left as it is; its norm 0 zeroes the weight
                scale = np.where(norms == 0.0, 1.0, sign / norms)
                if np.any(scale != 1.0):
                    factor = as_matrix(factor * scale)
                weights *= norms
                normalized.append(factor)
                sign = 1.0  # the signs go to mode 0 only

        self.weights = _require_finite(
            weights, "weights overflow once the factor column norms are folded in"
        )
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

    @cached_property
    def term_gram(self):
        """Unweighted Gram of the rank-1 terms, (R, R) and read-only: computed
        through `gram_hadamard(self)` on first use, unless a call of it came
        first and stored its own, so the errors of a Gram-method reduction
        compute no second Gram. Racing first uses compute the same array."""
        return gram_hadamard(self)


def _term_gram(factors, others):
    """Unweighted Gram of the rank-1 terms of two CP tensors of equal mode
    dimensions: entry (i, j) is the inner product of term i of `factors` with
    term j of `others`, the elementwise product over modes of the factor
    cross-Grams, in O(R R' sum_n I_n)."""
    return reduce(np.multiply, (dense(f.T @ g) for f, g in zip(factors, others)))


def gram_hadamard(x):
    """Unweighted term Gram of `x`, (R, R) and read-only: the elementwise
    product of the factor Grams, in O(R^2 sum_n I_n); symmetric PSD up to
    round-off, with entries bounded by about 1, as the columns are unit.
    Computed afresh, as the Gram method pays for it in its timed sketch phase;
    stored as `x.term_gram` unless one is cached already, and the cached array
    is returned, so the errors of the reduction reuse it. `x.term_gram`
    computes through this function on first use."""
    gram = _term_gram(x.factors, x.factors)
    gram.flags.writeable = False
    return vars(x).setdefault("term_gram", gram)


def _gram_norm(gram, weights):
    """Overflow-safe root of the quadratic form of `weights` with `gram`."""
    return _scaled_root(weights, lambda w: (gram * w * w[:, None]).sum())


def cp_norm(x):
    """Exact Frobenius norm of a CP tensor via the Gram Hadamard identity."""
    return _gram_norm(x.term_gram, x.weights)


def cp_diff_norm(x, y):
    """Exact Frobenius norm of the difference of two CP tensors.

    `y` is a CP tensor or a `TensorIdResult` of `x`.

    For a result, x - y is x's own terms with the weights
    delta = x.weights - scatter(y.cols, y.new_weights), and the norm is the
    quadratic form of delta with the cached term Gram of `x`. Its round-off
    is relative to the norm of the difference. This is the accurate form,
    and it costs O(R^2) once `x.term_gram` exists. A result of a tensor of
    another rank or shape raises ValueError.

    For a CP tensor, x - y is the terms of `x` with weights `x.weights` and
    the terms of `y` with weights `-y.weights`. Its squared norm is the
    quadratic form of those weights with the block term Gram
    [[Gxx, Gxy], [Gxy^T, Gyy]]. The signed sum cancels: its round-off is
    relative to the norms of `x` and `y`, not to that of the difference.
    For reductions of 3-mode rank-200 tensors to 20 terms, with errors near
    1e-7 of the norm of `x`, it was off by 1e-4 to 3e-2 of the error.
    """
    if isinstance(y, TensorIdResult):
        if y.coeffs.shape[1] != x.rank or y.reduced.mode_dims != x.mode_dims:
            raise ValueError(
                f"the result reduces a rank-{y.coeffs.shape[1]} tensor of mode "
                f"dimensions {y.reduced.mode_dims}, not this rank-{x.rank} "
                f"tensor of {x.mode_dims}"
            )
        delta = x.weights.copy()
        delta[y.cols] -= y.new_weights
        return _gram_norm(x.term_gram, delta)
    if x.mode_dims != y.mode_dims:
        raise ValueError(
            f"mode dimensions disagree: {x.mode_dims} vs {y.mode_dims}"
        )
    gxy = _term_gram(x.factors, y.factors)
    gram = np.block([[x.term_gram, gxy], [gxy.T, y.term_gram]])
    return _gram_norm(gram, np.concatenate([x.weights, -y.weights]))


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
    sketch is the term Gram `gram_hadamard(x)`; the wall time covers
    validation, sketch and ID.
    """
    t0 = time.perf_counter()
    if method not in TENSOR_METHODS:
        raise ValueError(f"unknown tensor method {method!r}")
    limit = (x.total_entries, "tensor entries") if method == "tensorsketch" else None
    sketch_dim = _check_id_args(method, rank, x.rank, sketch_dim, limit)
    if method == "gram":
        return _sketch_and_id(
            t0, lambda: gram_hadamard(x), lambda _: gram_tensor_id(x, rank)
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


def gram_tensor_id(x, rank):
    """Deterministic rank reduction through the R-by-R Gram matrix.

    One pivoted Cholesky of the Gram (LAPACK dpstrf) gives the pivots and
    triangle of column-pivoted QR on the flattened weighted terms, the
    greedy rule of every sketched method. The Gram squares the
    conditioning: dpstrf stops once the remaining diagonal falls to
    sqrt(R * 2**-53) of the first, and later terms count as dependent. It
    factors `x.term_gram` weighted by the weights scaled by 2**-e, e their
    `_scale_exponent`: the weighted Gram times an exact 4**-e, with the same
    pivots, coefficients and rank, and it cannot overflow or underflow to zero.
    """
    _check_id_args("gram", rank, x.rank)
    w = np.ldexp(x.weights, -_scale_exponent(x.weights))
    u, piv, computed_rank, _ = dpstrf(x.term_gram * w * w[:, None])
    # dpstrf leaves the rows past its own computed rank unfactored
    rt = np.triu(u[:rank])
    rt[computed_rank:] = 0.0
    return _assemble(x, _id_from_pivoted(rt, piv - 1, "gram"))


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
