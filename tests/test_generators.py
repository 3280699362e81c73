import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from idsketch.generators import (
    _sparse_unit_columns,
    gen_synthetic_matrix,
    gen_synthetic_tensor,
)


def digest(arrays, dtype):
    """First 16 hex digits of the SHA-256 of the arrays' bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


def csc_digests(mats):
    """Digests of data, indices (as <i8) and indptr (as <i8) of canonical
    CSC matrices; a matrix out of canonical form fails."""
    assert all(m.format == "csc" and m.has_canonical_format for m in mats)
    return (
        digest([m.data for m in mats], "<f8"),
        digest([m.indices for m in mats], "<i8"),
        digest([m.indptr for m in mats], "<i8"),
    )


# The generators' output at fixed seeds: the random stream (row choice,
# then values, per column) and the CSC layout. A changed digest changes
# every synthetic benchmark input; it is not a figure to update.
MATRIX_DIGESTS = {
    7: ("03541df947b729c8", "f38588494bc52e69", "b7df6adba74f6442"),
    1234: ("b9563416bfb783b8", "6793b30be4eab6ba", "90b8162c1bf19e91"),
}
TENSOR_DIGESTS = {
    7: ("ca07b98e042dc24e", "af8324dc61155983", "f810a4ce751d352b", "18934d6d0204fe57"),
    1234: ("b5c4b4658ccb29ef", "fc12fa40daea0b21", "f810a4ce751d352b", "18934d6d0204fe57"),
}


@pytest.mark.parametrize("dim, count, nnz", [(40, 7, 6), (5, 3, 8)])
def test_sparse_unit_columns_match_the_coo_build(dim, count, nnz):
    # reference: the same draws through COO, which sorts each column's rows
    got = _sparse_unit_columns(np.random.default_rng(5), dim, count, nnz)
    rng = np.random.default_rng(5)
    nnz = min(nnz, dim)
    rows, vals = [], []
    for _ in range(count):
        rows.append(rng.choice(dim, size=nnz, replace=False))
        v = rng.standard_normal(nnz)
        vals.append(v / np.linalg.norm(v))
    cols = np.repeat(np.arange(count), nnz)
    ref = sp.csc_array(
        (np.concatenate(vals), (np.concatenate(rows), cols)), shape=(dim, count)
    )
    assert got.has_canonical_format
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("seed", sorted(MATRIX_DIGESTS))
def test_matrix_bytes_are_pinned(seed):
    a = gen_synthetic_matrix(300, 80, 10, 0.05, seed=seed)
    assert csc_digests([a]) == MATRIX_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(TENSOR_DIGESTS))
def test_tensor_bytes_are_pinned(seed):
    x = gen_synthetic_tensor(3, 50, 20, 8, 0.1, seed=seed)
    got = (*csc_digests(x.factors), digest([x.weights], "<f8"))
    assert got == TENSOR_DIGESTS[seed]


class TestSyntheticMatrix:
    def test_minimal_rank_leading_value(self):
        a = gen_synthetic_matrix(200, 100, 1, 0.05, seed=0)
        sv = np.linalg.svd(a.toarray(), compute_uv=False)
        assert abs(sv[0] - 1.0) <= 0.2

    def test_realized_density(self):
        a = gen_synthetic_matrix(2000, 500, 100, 0.005, seed=1)
        realized = a.nnz / (2000 * 500)
        assert 0.5 * 0.005 <= realized <= 1.5 * 0.005

    def test_spectral_knee(self):
        a = gen_synthetic_matrix(2000, 500, 100, 0.005, seed=2)
        sv = np.linalg.svd(a.toarray(), compute_uv=False)
        assert sv[100] <= 1e-6  # gap survives the non-orthogonal directions
        assert sv[0] >= 0.5

    def test_determinism(self):
        a = gen_synthetic_matrix(300, 100, 10, 0.02, seed=3)
        b = gen_synthetic_matrix(300, 100, 10, 0.02, seed=3)
        assert (a != b).nnz == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_matrix(100, 50, 30, 0.05, seed=0)  # 2K > min dim
        with pytest.raises(ValueError):
            gen_synthetic_matrix(100, 50, 10, 0.01, seed=0)  # density * rows < 4
        with pytest.raises(ValueError):
            gen_synthetic_matrix(100, 50, 10, 1.5, seed=0)
        # rank 0 divided by zero in the density split (ZeroDivisionError);
        # rank -3 took the root of a negative share
        for rank in (0, -3):
            with pytest.raises(ValueError, match=f"^rank must be >= 1, got {rank}$"):
                gen_synthetic_matrix(100, 50, rank, 0.05, seed=0)


class TestSyntheticTensor:
    def test_weight_range_and_knee(self):
        x = gen_synthetic_tensor(5, 100, 50, 20, 0.05, seed=4)
        assert np.all(x.weights <= 1.0) and np.all(x.weights >= 1e-8 - 1e-20)
        assert x.weights[0] == 1.0
        # decay uses the full term count as the scale, then hits the floor
        assert x.weights[19] == pytest.approx(10.0 ** (-8.0 * 19.0 / 50.0))
        assert np.all(x.weights[20:] == 1e-8)

    def test_unit_columns(self):
        x = gen_synthetic_tensor(3, 60, 20, 10, 0.1, seed=5)
        for f in x.factors:
            norms = np.sqrt(np.asarray(f.power(2).sum(axis=0)).ravel())
            assert np.abs(norms - 1.0).max() <= 1e-10

    def test_factor_nnz(self):
        x = gen_synthetic_tensor(5, 100, 50, 20, 0.05, seed=6)
        target = 0.05 * 100 * 50
        for f in x.factors:
            assert 0.6 * target <= f.nnz <= 1.4 * target

    def test_determinism(self):
        x = gen_synthetic_tensor(3, 40, 10, 5, 0.1, seed=7)
        y = gen_synthetic_tensor(3, 40, 10, 5, 0.1, seed=7)
        assert np.array_equal(x.weights, y.weights)
        for fx, fy in zip(x.factors, y.factors):
            assert (fx != fy).nnz == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_tensor(3, 40, 10, 5, 0.001, seed=0)  # density * dim < 1
        with pytest.raises(ValueError):
            gen_synthetic_tensor(3, 40, 10, 15, 0.1, seed=0)  # decay terms > rank
