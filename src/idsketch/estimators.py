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
& Woźniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992). How many depends
on the gap below the top singular value (Golub & Van Loan, Matrix
Computations, ch. 10), so no fixed count suits every residual: a start
runs until its top Ritz value settles, up to a cap.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

from .linalg import _norm, _normalize, _require_finite, _scale_exponent

_ADJOINT_RTOL = 1e-10
# a start stops once its top Ritz value moves by at most this much,
# relative, in one step. Of 2760 starts on the ID residuals of synthetic
# inputs with clustered tops, 1e-5 stopped 19 while the Ritz value stalled
# near the second singular value (up to 17% low), and 1e-8 none
_RITZ_RTOL = 1e-8


@dataclass(frozen=True)
class NormEstimate:
    """Lower estimate of a spectral norm: the GKL steps run (the most over
    the starts), the starts, and whether every start stopped on the
    settled Ritz value or an exact invariant subspace rather than the cap."""

    value: float
    iterations: int
    probes: int
    converged: bool


def est_spectral_norm(apply, apply_adjoint, cols, iters=30, probes=1, seed=None):
    """Estimate the spectral norm of the operator pair from below.

    Runs GKL steps from each of `probes` independent Gaussian starts and
    returns the largest ||B v|| over the unit top Ritz vectors v. A start
    stops once the top singular value of its bidiagonal changes by at
    most a relative 1e-8 in one step (`_RITZ_RTOL`), at an exact invariant
    subspace (a zero alpha or beta, or `cols` steps, which span the
    domain), or at `iters` steps, the cap, when `converged` is False. A
    start of s steps costs 2 s operator products, one more if a zero beta
    stopped it, and the adjoint test 2. Every vector is divided by its
    range-safe norm and the bidiagonal is scaled by a power of two before
    its SVD, so the estimate of B * 2**e is the estimate of B times 2**e,
    bit for bit, while no value leaves the normal range. Raises
    FloatingPointError for a non-finite vector (inf or NaN from the
    operator) or norm.

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
        Most GKL steps per start, and number of starts.
    """
    if cols < 1:
        raise ValueError("cols must be positive")
    if iters < 1 or probes < 1:
        raise ValueError("need iters >= 1 and probes >= 1")
    scale = getattr(apply, "scale", None)
    if scale is not None and not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    rng = np.random.default_rng(seed)
    _check_adjoint(apply, apply_adjoint, cols, rng, scale)
    starts = rng.standard_normal((probes, cols))
    best, steps, converged = 0.0, 0, True
    for start in starts:
        _normalize(start)
        v, run, settled = _ritz_vector(apply, apply_adjoint, start, min(iters, cols), cols)
        best = max(best, _normalize(_vector(apply(v))))
        steps, converged = max(steps, run), converged and settled
    return NormEstimate(value=best, iterations=steps, probes=probes, converged=converged)


def _check_adjoint(apply, apply_adjoint, cols, rng, scale):
    """The adjoint test of `est_spectral_norm` on a random pair: x Gaussian,
    and the long y uniform on [-0.5, 0.5), which draws several times
    faster than a Gaussian."""
    x = rng.standard_normal(cols)
    bx = _vector(apply(x))
    y = rng.random(bx.shape[0])
    y -= 0.5
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


def _ritz_vector(apply, apply_adjoint, v, cap, cols):
    """GKL steps from the unit `v`, at most `cap` of them: the unit top
    right Ritz vector, the steps run, and whether the Ritz value settled
    or an exact invariant subspace ended them. B V = U T with T upper
    bidiagonal: alphas on its diagonal, betas above it. V is
    reorthogonalized by classical Gram-Schmidt twice; of U only the latest
    vector is kept, and p = B v - beta u is formed in place in the vector
    `apply` returned. Two steps' top singular values are compared in the
    power-of-two scale of the later T, whose largest entry never shrinks."""
    basis = np.empty((cap, v.size))
    alphas, betas = [], []
    settled = True
    for j in range(cap):
        basis[j] = v
        p = _vector(apply(v))
        if j:
            p = daxpy(u, p, a=-betas[-1])
        alphas.append(_normalize(p))
        t = np.diag(alphas) + np.diag(betas, 1)
        e = _scale_exponent(t)
        _, sigma, vt = np.linalg.svd(np.ldexp(t, -e))
        if j and abs(sigma[0] - math.ldexp(top, top_e - e)) <= _RITZ_RTOL * sigma[0]:
            break
        if alphas[-1] == 0.0 or j + 1 == cols:
            break
        if j + 1 == cap:
            settled = False
            break
        top, top_e = sigma[0], e
        u = p
        w = _vector(apply_adjoint(u)) - alphas[-1] * v
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta = _norm(w)
        if beta == 0.0:
            break
        betas.append(beta)
        v = w / beta
    v = vt[0] @ basis[:len(alphas)]
    _normalize(v)
    return v, len(alphas), settled


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
