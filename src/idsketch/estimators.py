"""Randomized spectral-norm estimation for implicit residual operators.

The estimator is power iteration on the normal operator from a handful of
Gaussian starts. Its value is the norm of the operator applied to a unit
vector, so it never exceeds the true spectral norm; with a few iterations
it is overwhelmingly unlikely to fall far below it, which is all a
benchmark comparison needs.
"""

import math
from dataclasses import dataclass

import numpy as np

_ADJOINT_RTOL = 1e-10


@dataclass(frozen=True)
class NormEstimate:
    """Lower estimate of a spectral norm, with the settings that produced it."""

    value: float
    iterations: int
    probes: int


def est_spectral_norm(apply, apply_adjoint, cols, iters=10, probes=2, seed=None):
    """Estimate the spectral norm of the operator pair from below.

    Runs `iters` power iterations on the normal operator from `probes`
    independent Gaussian starts and returns the largest ||B v|| over the
    final unit iterates. B v is rescaled by a power of two before the
    adjoint, which keeps the iterates in range up to norms of the float64
    limit over sqrt(rows). Raises FloatingPointError for a non-finite
    iterate (inf or NaN from the operator) or norm.

    Parameters
    ----------
    apply, apply_adjoint : callable
        The operator B and its adjoint, each mapping a 1-D vector to a
        1-D vector. Checked for consistency on a random probe pair.
    cols : int
        Domain dimension of `apply`.
    iters, probes : int
        Power iterations per probe and number of probes. The defaults keep
        the empirical chance of underestimating by more than a factor 100
        well below 2e-2 on random ensembles.
    """
    if cols < 1:
        raise ValueError("cols must be positive")
    if iters < 0 or probes < 1:
        raise ValueError("need iters >= 0 and probes >= 1")
    rng = np.random.default_rng(seed)

    x = rng.standard_normal(cols)
    bx = np.asarray(apply(x), dtype=np.float64)
    y = rng.standard_normal(bx.shape[0])
    bty = np.asarray(apply_adjoint(y), dtype=np.float64)
    lhs = float(bx @ y)
    rhs = float(x @ bty)
    scale = _norm(bx) * _norm(y) + _norm(x) * _norm(bty)
    if abs(lhs - rhs) > _ADJOINT_RTOL * max(scale, 1.0):
        raise ValueError(
            "operator pair failed the adjoint test: "
            f"<Bx, y>={lhs!r} vs <x, B'y>={rhs!r}"
        )

    starts = rng.standard_normal((probes, cols))
    best = 0.0
    for p in range(probes):
        v = _unit(starts[p])
        for _ in range(iters):
            w = np.asarray(apply(v), dtype=np.float64)
            w = np.ldexp(w, -_scale_exponent(w))
            v = _unit(np.asarray(apply_adjoint(w), dtype=np.float64))
        best = max(best, _norm(np.asarray(apply(v), dtype=np.float64)))
    return NormEstimate(value=best, iterations=iters, probes=probes)


def _scale_exponent(v):
    """Exponent e with max |v| < 2**e <= 2 max |v| (0 for a zero vector);
    scaling by 2**-e is exact, so B rounds alike on v and on v * 2**-e.
    Raises FloatingPointError if `v` is not finite."""
    peak = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
    if not math.isfinite(peak):
        raise FloatingPointError("non-finite vector in the spectral-norm estimate")
    return math.frexp(peak)[1]


def _scaled_root(v, form):
    """Root of the quadratic form `form` of `v`, clamped at zero against
    round-off. `form` sees `v` scaled by a power of two, which is exact, so
    entries whose squares overflow or underflow still give the root; a root
    beyond the float64 range raises FloatingPointError."""
    e = _scale_exponent(v)
    try:
        return math.ldexp(math.sqrt(max(form(np.ldexp(v, -e)), 0.0)), e)
    except OverflowError:
        raise FloatingPointError("norm beyond the float64 range") from None


def _norm(v):
    """np.linalg.norm(v) of a vector, by `_scaled_root`."""
    return _scaled_root(v, lambda w: w @ w)


def _unit(v):
    """`v` scaled to unit norm; a zero vector stays zero."""
    return v / (_norm(v) or 1.0)


def id_residual_operator(a, decomp):
    """Operator pair for the ID residual x -> A[:, cols] (coeffs @ x) - A x.

    The residual is A (E coeffs - I), where E places the k entries of
    coeffs @ x on the selected columns. It is never formed: each direction
    costs one product with `a` plus small dense ones.
    """
    cols = decomp.cols
    coeffs = decomp.coeffs
    a_t = a.T

    def apply(x):
        z = -x
        z[cols] += coeffs @ x
        return np.asarray(a @ z).ravel()

    def apply_adjoint(y):
        u = np.asarray(a_t @ y).ravel()
        return coeffs.T @ u[cols] - u

    return apply, apply_adjoint
