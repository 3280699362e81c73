"""Randomized spectral-norm estimation for implicit residual operators.

The estimator is Golub-Kahan-Lanczos (GKL) bidiagonalization (Golub &
Kahan, SIAM J. Numer. Anal. B 2(2), 1965) from a Gaussian start. Only the
right basis, on the operator's domain, is reorthogonalized in full
(one-sided reorthogonalization, Simon & Zha, SIAM J. Sci. Comput. 21(6),
2000): for an ID residual that is the short side, so the step is cheap,
and nothing longer than one vector is kept on the long side. The value is
the norm of the operator applied to the unit top Ritz vector, so it never
exceeds the true spectral norm; from a random start a few steps reach the
top of the spectrum much sooner than as many power iterations (Kuczyński
& Woźniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

from .linalg import _norm, _normalize, _require_finite, _scale_exponent

_ADJOINT_RTOL = 1e-10


@dataclass(frozen=True)
class NormEstimate:
    """Lower estimate of a spectral norm, with the settings that produced it."""

    value: float
    iterations: int
    probes: int


def est_spectral_norm(apply, apply_adjoint, cols, iters=10, probes=1, seed=None):
    """Estimate the spectral norm of the operator pair from below.

    Runs `iters` GKL steps from each of `probes` independent Gaussian
    starts and returns the largest ||B v|| over the unit top Ritz vectors
    v: 2 iters probes + 2 operator products in all, two of them for the
    adjoint test. The steps stop early at an exact invariant subspace and
    never exceed `cols`. Every vector is divided by its range-safe norm
    and the bidiagonal is scaled by a power of two before its SVD, so the
    estimate of B * 2**e is the estimate of B times 2**e, bit for bit,
    while no value leaves the normal range. Raises FloatingPointError for
    a non-finite vector (inf or NaN from the operator) or norm.

    Parameters
    ----------
    apply, apply_adjoint : callable
        The operator B and its adjoint, each mapping a 1-D vector to a
        new 1-D vector, which the estimate may overwrite. Checked on a
        random probe pair x, y: |<Bx, y> - <x, B'y>| may be at most
        1e-10 s ||x|| ||y||, with s the magnitude the products carry:
        `apply.scale` if set (finite and nonnegative, else ValueError),
        else the probe's own ||Bx|| / ||x|| + ||B'y|| / ||y||.
    cols : int
        Domain dimension of `apply`.
    iters, probes : int
        GKL steps per start and number of starts.
    """
    if cols < 1:
        raise ValueError("cols must be positive")
    if iters < 0 or probes < 1:
        raise ValueError("need iters >= 0 and probes >= 1")
    scale = getattr(apply, "scale", None)
    if scale is not None and not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    rng = np.random.default_rng(seed)
    _check_adjoint(apply, apply_adjoint, cols, rng, scale)
    starts = rng.standard_normal((probes, cols))
    best = 0.0
    for start in starts:
        _normalize(start)
        v = _ritz_vector(apply, apply_adjoint, start, min(iters, cols))
        best = max(best, _normalize(_vector(apply(v))))
    return NormEstimate(value=best, iterations=iters, probes=probes)


def _check_adjoint(apply, apply_adjoint, cols, rng, scale):
    """The adjoint test of `est_spectral_norm` on a Gaussian pair x, y."""
    x = rng.standard_normal(cols)
    bx = _vector(apply(x))
    y = rng.standard_normal(bx.shape[0])
    bty = _vector(apply_adjoint(y))
    lhs = float(bx @ y)
    rhs = float(x @ bty)
    # the long vectors bx and y are not used again: normalize them in place
    x_norm, y_norm = _norm(x), _normalize(y)
    if scale is None:  # the probe's own; y is empty for an operator onto no rows
        scale = _normalize(bx) / x_norm + _norm(bty) / (y_norm or 1.0)
    if abs(lhs - rhs) > _ADJOINT_RTOL * scale * x_norm * y_norm:
        raise ValueError(
            "operator pair failed the adjoint test: "
            f"<Bx, y>={lhs!r} vs <x, B'y>={rhs!r}"
        )


def _vector(v):
    """An operator's output as a writable float64 array."""
    return np.require(v, np.float64, "W")


def _ritz_vector(apply, apply_adjoint, v, steps):
    """Unit top right Ritz vector of `steps` GKL steps from the unit `v`
    (`v` itself for no steps). B V = U T with T upper bidiagonal: alphas
    on its diagonal, betas above it. V is reorthogonalized by classical
    Gram-Schmidt twice; of U only the latest vector is kept, and
    p = B v - beta u is formed in place in the vector `apply` returned."""
    if steps == 0:
        return v
    basis = np.empty((steps, v.size))
    alphas, betas = [], []
    for j in range(steps):
        basis[j] = v
        p = _vector(apply(v))
        if j:
            p = daxpy(u, p, a=-betas[-1])
        alphas.append(_normalize(p))
        if alphas[-1] == 0.0 or j == steps - 1:
            break
        u = p
        w = _vector(apply_adjoint(u)) - alphas[-1] * v
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta = _norm(w)
        if beta == 0.0:
            break
        betas.append(beta)
        v = w / beta
    t = np.diag(alphas) + np.diag(betas, 1)
    _, _, vt = np.linalg.svd(np.ldexp(t, -_scale_exponent(t)))
    v = vt[0] @ basis[:len(alphas)]
    _normalize(v)
    return v


def id_residual_operator(a, decomp):
    """Operator pair for the ID residual x -> A[:, cols] (coeffs @ x) - A x.

    The residual is A (E coeffs - I), where E places the k entries of
    coeffs @ x on the selected columns. It is never formed: each direction
    costs one product with `a` plus small dense ones. `apply.scale`, the
    magnitude the products carry, is ||A||_F (1 + ||coeffs||_F). Raises
    ValueError for a non-finite entry of `a`, and FloatingPointError when
    that scale overflows or max |entry| of `a` is subnormal (below 2.2e-308).
    """
    cols = decomp.cols
    coeffs = decomp.coeffs
    a_t = a.T
    entries = a.data if sp.issparse(a) else np.asarray(a).ravel(order="K")
    try:
        e = _scale_exponent(entries)
    except FloatingPointError:  # bad input, not a numerical failure
        raise ValueError("a contains non-finite entries") from None
    if e <= -1022:  # 0 < max |entry| < 2**-1022
        raise FloatingPointError("the largest entry of a is subnormal")

    def apply(x):
        z = -x
        z[cols] += coeffs @ x
        return np.asarray(a @ z).ravel()

    def apply_adjoint(y):
        u = np.asarray(a_t @ y).ravel()
        return coeffs.T @ u[cols] - u

    apply.scale = _require_finite(
        _norm(entries) * (1.0 + _norm(coeffs.ravel())), "norm beyond the float64 range"
    )
    return apply, apply_adjoint
