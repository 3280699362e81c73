"""Dense/sparse matrix containers and factorization kernels.

Dense matrices are 2-D float64 numpy arrays (kept Fortran-ordered, since
every algorithm here consumes columns); sparse matrices are scipy CSC.
The validators below are the entry points that enforce the container
invariants (real finite entries, sorted indices, no stored zeros). Only
this module validates and converts containers (`as_matrix`, `dense`);
elsewhere `SrftOp.apply` and `CountSketchOp.apply` (to pick a kernel),
`sketch._finite_sketch` and `estimators.id_residual_operator` (to read
the entries) test for sparse input.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class SingularTriangleError(np.linalg.LinAlgError):
    """A triangular solve hit a (numerically) zero diagonal entry."""


def _require_finite(x, message):
    """Return `x`, or raise FloatingPointError(message) if an entry is not
    finite. `x` is (or stands for) a value computed from finite input, so
    such an entry is an overflow: a numerical failure, not bad input."""
    if not np.isfinite(x).all():
        raise FloatingPointError(message)
    return x


def _scale_exponent(v):
    """Exponent e with max |v| < 2**e <= 2 max |v| (0 for a zero vector);
    scaling by 2**-e is exact for normal entries, and e <= -1022 exactly
    when max |v| is subnormal. Raises FloatingPointError if `v` is not finite."""
    peak = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
    if not math.isfinite(peak):
        raise FloatingPointError("non-finite vector in the spectral-norm estimate")
    return math.frexp(peak)[1]


def _times_power_of_two(root, e):
    try:
        return math.ldexp(root, e)
    except OverflowError:
        raise FloatingPointError("norm beyond the float64 range") from None


def _scaled_root(v, form):
    """Root of the quadratic form `form` of `v`, clamped at zero against
    round-off. `form` sees `v` scaled by a power of two, which is exact, so
    entries whose squares overflow or underflow still give the root; a root
    beyond the float64 range raises FloatingPointError."""
    e = _scale_exponent(v)
    return _times_power_of_two(math.sqrt(max(form(np.ldexp(v, -e)), 0.0)), e)


def _norm(v):
    """np.linalg.norm(v) of a vector, by `_scaled_root`."""
    return _scaled_root(v, lambda w: w @ w)


def _normalize(v):
    """Divide `v` in place by its norm and return the norm, `_norm(v)`; a
    zero vector stays zero. No temporary is made: `v` holds its power-of-two
    scaled copy in between, whose quotient by the scaled root is the same."""
    e = _scale_exponent(v)
    np.ldexp(v, -e, out=v)
    root = math.sqrt(v @ v)
    v /= root or 1.0
    return _times_power_of_two(root, e)


def as_dense(a, name="a"):
    """Validate `a` as a dense matrix and return it as a float64 F-ordered array.

    Raises ValueError for sparse, complex, non-2-D, empty, or non-finite input.
    """
    if sp.issparse(a):
        raise ValueError(f"{name} must be dense; densify sparse input explicitly")
    if np.iscomplexobj(a):  # a float64 cast would drop the imaginary part
        raise ValueError(f"{name} has complex entries; input must be real")
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
    duplicates summed, and no explicitly stored zeros. Canonical input is
    returned without a copy; `a` itself is never modified. Complex input
    is a ValueError.
    """
    if not sp.issparse(a):
        raise ValueError(f"{name} must be a scipy sparse matrix")
    if np.iscomplexobj(a):  # a float64 cast would drop the imaginary part
        raise ValueError(f"{name} has complex entries; input must be real")
    out = sp.csc_array(a, dtype=np.float64)
    if not (out.has_canonical_format and out.data.all()):
        if a.format == "csc":  # `out` shares a's index arrays
            out = out.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    if out.nnz and not np.isfinite(out.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_matrix(a, name="a"):
    """Validate `a` in its own format: `as_csc` if sparse, else `as_dense`."""
    return as_csc(a, name) if sp.issparse(a) else as_dense(a, name)


def dense(a):
    """`a` as an ndarray: sparse input densified, anything else as it is."""
    return a.toarray() if sp.issparse(a) else a


def cpqr(a, rank):
    """Column-pivoted Householder QR, truncated to the leading `rank` pivots.

    Returns (r, perm): `r` is the (rank, cols) upper trapezoidal factor and
    `perm` the full column permutation with the selected pivots first.
    Pivoting always selects the remaining column of largest norm (ties go to
    the lowest column index), so the diagonal of `r` is nonincreasing in
    absolute value. Q is never formed; an ID reads only `r` and `perm`.
    Raises FloatingPointError when `r` overflows on finite input.

    Parameters
    ----------
    a : array_like
        Dense (rows, cols) matrix.
    rank : int
        Target rank, 1 <= rank <= min(rows, cols).
    """
    a = as_dense(a)
    rows, cols = a.shape
    if not 1 <= rank <= min(rows, cols):
        raise ValueError(f"rank must be in [1, {min(rows, cols)}], got {rank}")
    # "raw" returns the Householder vectors as they are plus the
    # (min(rows, cols), cols) triangle; mode="r" would copy a full
    # (rows, cols) triangle out of a tall input
    _, r, perm = scipy.linalg.qr(a, mode="raw", pivoting=True)
    r = np.ascontiguousarray(r[:rank, :])
    return _require_finite(r, "pivoted QR overflowed: R has non-finite entries"), perm


def triangular_solve(r, b):
    """Solve r @ x = b for a nonsingular upper triangular `r`.

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
    return scipy.linalg.solve_triangular(r, b)
