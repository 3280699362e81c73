"""Shared oracle helpers: dense constructions the implicit code paths are
checked against. Kept deliberately naive and independent of the library's
fast paths."""

import numpy as np
import scipy.sparse as sp


def densify(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def khatri_rao(mats):
    """Columnwise Kronecker product, first matrix slowest index."""
    out = densify(mats[0])
    for m in mats[1:]:
        m = densify(m)
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def dense_countsketch(bucket, sign, out_dim):
    """Dense CountSketch operator built directly from its hash arrays."""
    s = np.zeros((out_dim, bucket.size))
    s[bucket, np.arange(bucket.size)] = sign
    return s


def dense_srft(sign, sample_rows, in_dim):
    """Dense real representation of an SRFT operator: sampled DFT-matrix
    rows with sign flips, real/imaginary parts interleaved."""
    n = np.arange(in_dim)
    z = np.exp(-2j * np.pi * np.outer(sample_rows, n) / in_dim) * sign[None, :]
    out = np.empty((2 * len(sample_rows), in_dim))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def dense_tensorsketch(op):
    """Dense TensorSketch operator over the rows of the Khatri-Rao product
    (last mode fastest): the composite bucket is the mod-L sum of the
    per-mode buckets and the composite sign their product."""
    bucket = np.zeros(1, dtype=np.int64)
    sign = np.ones(1)
    for mode in op.mode_ops:
        bucket = (bucket[:, None] + mode.bucket[None, :]).ravel()
        sign = (sign[:, None] * mode.sign[None, :]).ravel()
    return dense_countsketch(bucket % op.out_dim, sign, op.out_dim)


def dense_kr_gaussian(op, factors):
    """Dense (out_dim, prod(mode_dims)) Khatri-Rao Gaussian operator that
    `op` applies to `factors`: the transposed Khatri-Rao product of the
    per-mode (I_n, out_dim) factors. Mode n's factor is zero but in the rows
    where `factors[n]` holds a stored entry (every row of a dense factor),
    which take, in ascending order, the rows of the standard normal draw of
    numpy's SFC64 generator seeded by SeedSequence([seed, n])."""
    modes = []
    for n, (dim, f) in enumerate(zip(op.mode_dims, factors)):
        rows = np.unique(sp.coo_array(f).coords[0]) if sp.issparse(f) else np.arange(dim)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([op.seed, n])))
        mode = np.zeros((dim, op.out_dim))
        mode[rows] = rng.standard_normal((rows.size, op.out_dim))
        modes.append(mode)
    return khatri_rao(modes).T


def matrix_operator(a):
    """Operator pair for a plain (sparse or dense) matrix."""
    a_t = a.T

    def apply(x):
        return np.asarray(a @ x).ravel()

    def apply_adjoint(y):
        return np.asarray(a_t @ y).ravel()

    return apply, apply_adjoint


def cp_dense(x):
    """Densify a CP tensor by summing outer products term by term."""
    out = np.zeros(x.mode_dims)
    for r in range(x.rank):
        term = np.array(x.weights[r])
        for f in x.factors:
            term = np.multiply.outer(term, densify(f)[:, r])
        out += term
    return out


def relerr_fro(approx, exact):
    exact = densify(exact)
    return np.linalg.norm(densify(approx) - exact) / np.linalg.norm(exact)
