import numpy as np
import pytest

from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor


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
