import re
from functools import cache, wraps

import numpy as np
import pytest

from idsketch.bench import run_matrix_trial
from idsketch.estimators import est_spectral_norm, id_residual_operator
from idsketch.generators import gen_synthetic_matrix
from idsketch.matrix_id import (
    MATRIX_METHODS, UNSKETCHED_METHODS, countsketch_id, decompose, matrix_id,
)

from conftest import matrix_operator


@cache
def id_matrix():
    return gen_synthetic_matrix(3000, 120, 20, 0.02, seed=4)


def counted(apply, adjoint):
    """The operator pair with one shared call record, "a" for a product
    with B and "t" for one with B'; each counting function keeps the
    attributes of the one it wraps, `scale` among them."""
    calls = []

    def wrap(f, kind):
        @wraps(f)
        def counted_f(v):
            calls.append(kind)
            return f(v)
        return counted_f

    return wrap(apply, "a"), wrap(adjoint, "t"), calls


class TestEstSpectralNorm:
    def test_known_spectrum(self):
        # `iterations` is the steps run, not the cap: 3 steps span the
        # domain, an exact invariant subspace
        apply, adjoint = matrix_operator(np.diag([3.0, 1.0, 0.5]))
        est = est_spectral_norm(apply, adjoint, cols=3, iters=20, probes=3, seed=0)
        assert 2.999 <= est.value <= 3.0
        assert (est.iterations, est.probes, est.converged) == (3, 3, True)

    def test_zero_operator(self):
        for rows in (4, 0):  # 0: an operator onto no rows, whose probe y is empty
            apply, adjoint = matrix_operator(np.zeros((rows, 3)))
            est = est_spectral_norm(apply, adjoint, cols=3, seed=1)
            # a zero alpha ends the first step: an exact invariant subspace
            assert (est.value, est.iterations, est.converged) == (0.0, 1, True)

    def test_never_exceeds_true_norm(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            a = rng.standard_normal((rng.integers(5, 40), rng.integers(5, 40)))
            apply, adjoint = matrix_operator(a)
            est = est_spectral_norm(
                apply, adjoint, cols=a.shape[1], iters=8, probes=2, seed=trial
            )
            assert est.value <= np.linalg.svd(a, compute_uv=False)[0] + 1e-10

    def test_rarely_far_below(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 60))
        sigma1 = np.linalg.svd(a, compute_uv=False)[0]
        apply, adjoint = matrix_operator(a)
        hits = sum(
            est_spectral_norm(
                apply, adjoint, cols=60, iters=10, probes=2, seed=s
            ).value
            >= sigma1 / 100.0
            for s in range(200)
        )
        assert hits >= 198

    def test_monotone_in_iterations(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 20))
        apply, adjoint = matrix_operator(a)
        prev = -np.inf
        for iters in (1, 2, 4, 8, 16):
            est = est_spectral_norm(
                apply, adjoint, cols=20, iters=iters, probes=2, seed=7
            )
            assert est.value >= prev - 1e-12
            prev = est.value

    def test_adjoint_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 8))
        b = rng.standard_normal((10, 8))
        apply, _ = matrix_operator(a)
        _, wrong_adjoint = matrix_operator(b)
        with pytest.raises(ValueError, match="adjoint"):
            est_spectral_norm(apply, wrong_adjoint, cols=8, seed=0)

    def test_adjoint_mismatch_rejected_relative_to_scale(self):
        # a wrong pair of norm 1e-12 stayed under the absolute floor of 1e-10
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 8)) * 1e-12
        b = rng.standard_normal((10, 8)) * 1e-12
        apply, _ = matrix_operator(a)
        _, wrong_adjoint = matrix_operator(b)
        with pytest.raises(ValueError, match="adjoint"):
            est_spectral_norm(apply, wrong_adjoint, cols=8, seed=0)
        apply.scale = np.linalg.norm(a)
        with pytest.raises(ValueError, match="adjoint"):
            est_spectral_norm(apply, wrong_adjoint, cols=8, seed=0)

    def test_tiny_negated_adjoint_rejected(self):
        # B against -B': under the floor of 1e-10 the pair passed and the
        # estimate read 1.22e-12, a number for an operator pair that is wrong
        b = np.random.default_rng(0).standard_normal((300, 40)) * 1e-13
        apply, adjoint = matrix_operator(b)
        with pytest.raises(ValueError, match="adjoint"):
            est_spectral_norm(apply, lambda y: -adjoint(y), cols=40, seed=0)

    @pytest.mark.parametrize("scale", [np.inf, np.nan, -1.0])
    def test_scale_must_be_finite(self, scale):
        # an infinite tolerance would pass any pair
        apply, adjoint = matrix_operator(np.eye(3))
        apply.scale = scale
        with pytest.raises(ValueError, match="scale must be finite"):
            est_spectral_norm(apply, adjoint, cols=3)

    @pytest.mark.parametrize(
        "settings", [{}, {"iters": 4, "probes": 3}, {"iters": 1, "probes": 2}],
        ids=["defaults", "4x3", "1x2"],
    )
    def test_product_budget(self, settings):
        # a start of s steps costs 2 s products and the adjoint test 2; at
        # the defaults one start settles in fewer than the 10 steps (22
        # products) the estimate always ran before, and power iteration
        # took 2 (iters + 1) probes + 2, 44 at its defaults
        decomp = countsketch_id(id_matrix(), 20, 30, seed=0)
        apply, adjoint, calls = counted(*id_residual_operator(id_matrix(), decomp))
        est = est_spectral_norm(apply, adjoint, cols=120, seed=1, **settings)
        assert 2 * est.iterations + 2 <= len(calls) <= 2 * est.iterations * est.probes + 2
        if not settings:
            assert est.probes == 1 and est.converged and est.iterations < 10
            assert len(calls) == 2 * est.iterations + 2

    def test_exact_product_count(self):
        # after the adjoint test's B and B' products, a start of s steps
        # applies B s times and B' s - 1 times, then B to its Ritz vector:
        # 2 (total steps) + 2 products, and `iterations` the most steps
        decomp = countsketch_id(id_matrix(), 20, 30, seed=0)
        apply, adjoint, calls = counted(*id_residual_operator(id_matrix(), decomp))
        est = est_spectral_norm(apply, adjoint, cols=120, probes=3, seed=3)
        kinds = "".join(calls)
        starts = re.findall("a(?:ta)*a", kinds[2:])
        assert kinds[:2] == "at" and "".join(starts) == kinds[2:]
        steps = [start.count("a") - 1 for start in starts]
        assert len(steps) == 3 and est.iterations == max(steps) and est.converged
        assert len(calls) == 2 * sum(steps) + 2

    def test_cap_stops_unsettled_steps(self):
        # 3 steps do not settle this residual: the cap stops them
        decomp = countsketch_id(id_matrix(), 20, 30, seed=0)
        apply, adjoint, calls = counted(*id_residual_operator(id_matrix(), decomp))
        est = est_spectral_norm(apply, adjoint, cols=120, iters=3, seed=1)
        assert (est.iterations, est.converged, len(calls)) == (3, False, 8)
        settled = est_spectral_norm(apply, adjoint, cols=120, seed=1)
        assert settled.converged and settled.iterations > 3
        assert est.value <= settled.value

    def test_parameter_validation(self):
        apply, adjoint = matrix_operator(np.eye(3))
        with pytest.raises(ValueError):
            est_spectral_norm(apply, adjoint, cols=0)
        with pytest.raises(ValueError):
            est_spectral_norm(apply, adjoint, cols=3, probes=0)
        with pytest.raises(ValueError):  # a cap of no steps
            est_spectral_norm(apply, adjoint, cols=3, iters=0)


class TestIdResidualOperator:
    def test_matches_explicit_residual(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(6)
        sparse = sp.random_array((60, 25), density=0.2, rng=rng, format="csc")
        dense = sparse.toarray()
        for a in (sparse, dense):
            decomp = countsketch_id(a, 8, seed=3)
            apply, adjoint = id_residual_operator(a, decomp)
            residual = dense[:, decomp.cols] @ decomp.coeffs - dense
            x = rng.standard_normal(25)
            y = rng.standard_normal(60)
            assert np.abs(apply(x) - residual @ x).max() <= 1e-10
            assert np.abs(adjoint(y) - residual.T @ y).max() <= 1e-10

    def test_estimates_residual_norm(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 30))
        a += 1e-3 * rng.standard_normal((50, 30))
        decomp = countsketch_id(a, 6, seed=1)
        apply, adjoint = id_residual_operator(a, decomp)
        est = est_spectral_norm(apply, adjoint, cols=30, iters=15, probes=3, seed=2)
        true = np.linalg.norm(a[:, decomp.cols] @ decomp.coeffs - a, 2)
        assert est.value <= true + 1e-10
        assert est.value >= true / 2.0

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_subnormal_boundary(self, sparse):
        # the residual's rule for the largest |entry| is CpTensor's: the
        # smallest normal is accepted, the next float down raises
        import scipy.sparse as sp

        decomp = matrix_id(np.eye(3, 2), 1)

        def matrix(peak):
            a = np.array([[peak, 0.0], [0.0, peak / 2], [peak / 4, 0.0]])
            return sp.csc_array(a) if sparse else a

        apply, _ = id_residual_operator(matrix(2.0**-1022), decomp)
        assert 0.0 < apply.scale < 1e-307
        with pytest.raises(FloatingPointError, match="subnormal"):
            id_residual_operator(matrix(np.nextafter(2.0**-1022, 0)), decomp)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_non_finite_matrix_is_bad_input(self, sparse, entry):
        # raised FloatingPointError("non-finite vector in the spectral-norm
        # estimate"), a numerical failure, before any estimate ran
        import scipy.sparse as sp

        a = np.array([[1.0, 0.0], [0.0, entry], [0.5, 0.0]])
        decomp = matrix_id(np.eye(3, 2), 1)
        with pytest.raises(ValueError) as exc:
            id_residual_operator(sp.csc_array(a) if sparse else a, decomp)
        assert str(exc.value) == "a contains non-finite entries"


@pytest.mark.parametrize("method", MATRIX_METHODS)
def test_default_estimate_of_id_residuals_is_tight(method):
    # power iteration (2 probes x 10) read as little as 0.972 of the truth
    # on these residuals
    a = id_matrix()
    dense = a.toarray()
    norm_a = np.linalg.norm(dense, 2)
    for seed in range(10):
        decomp, err = run_matrix_trial(a, method, 20, 30, seed)[:2]
        true = np.linalg.norm(dense[:, decomp.cols] @ decomp.coeffs - dense, 2)
        assert 0.999 * true <= err <= true + 1e-14 * norm_a, (seed, err / true)


@cache
def clustered_residuals(seed):
    """A matrix whose ID residuals' top singular values cluster, with the
    residual of each method's ID of it: on input seed 11 the deterministic
    residual's top two are 3% apart, on 14 about 1%."""
    a = gen_synthetic_matrix(3000, 120, 20, 0.02, seed=seed)
    dense = a.toarray()
    out = {}
    for method in MATRIX_METHODS:
        sketch_dim = None if method in UNSKETCHED_METHODS else 30
        decomp = decompose(a, method, 20, sketch_dim, seed=0)[0]
        out[method] = decomp, dense[:, decomp.cols] @ decomp.coeffs - dense
    return a, np.linalg.norm(dense, 2), out


@pytest.mark.parametrize("seed", [11, 14])
@pytest.mark.parametrize("method", MATRIX_METHODS)
def test_estimate_of_clustered_residual_is_tight(method, seed):
    # 10 fixed steps read as little as 0.976 of the truth here (input 11,
    # deterministic). A 1e-5 change rule stopped starts whose Ritz value
    # stalled near the second singular value: one at 0.83 (input 11,
    # gaussian) and four at 0.989 (input 14, deterministic)
    a, norm_a, residuals = clustered_residuals(seed)
    decomp, residual = residuals[method]
    true = np.linalg.norm(residual, 2)
    low = []
    for est_seed in range(30):
        est = est_spectral_norm(*id_residual_operator(a, decomp), cols=120, seed=est_seed)
        assert est.value <= true + 1e-14 * norm_a
        if est.value < (1 - 1e-4) * true:
            low.append((est_seed, est.value / true))
    assert low == []


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300])
    def test_residual_norm_at_extreme_scale(self, scale):
        # B'B v leaves the float64 range unless B v is rescaled first; an
        # overflowed (NaN) or underflowed (zero) iterate used to read 0.0
        a = np.random.default_rng(0).standard_normal((60, 12)) * scale
        decomp = matrix_id(a, 4)
        apply, adjoint = id_residual_operator(a, decomp)
        est = est_spectral_norm(apply, adjoint, cols=12, seed=0)
        true = np.linalg.norm(a[:, decomp.cols] @ decomp.coeffs - a, 2)
        assert abs(est.value - true) <= 1e-2 * true

    @pytest.mark.parametrize("factor", [1e6, 1e300])
    @pytest.mark.parametrize("method", MATRIX_METHODS)
    def test_scaled_id_residual_passes_the_adjoint_test(self, method, factor):
        # the absolute tolerance floor let round-off relative to ||A|| fail
        # the test: ValueError for deterministic, countsketch and gaussian
        # at x1e6 and for deterministic and srft at x1e300
        base = run_matrix_trial(id_matrix(), method, 20, 30, 9)[1]
        err = run_matrix_trial(id_matrix() * factor, method, 20, 30, 9)[1]
        assert err == pytest.approx(base * factor, rel=1e-6)

    @pytest.mark.parametrize("factor", [1e6, 2.0**20, 1e300], ids=["1e6", "2^20", "1e300"])
    def test_readme_recipe_passes_the_adjoint_test(self, factor):
        # the recipe's pair used to carry no scale, and the probe's own
        # tolerance, floored at 1e-10, refused correct pairs as bad input:
        # up to 10 of these 20 seeds per method (about 0.15 s per factor)
        a = id_matrix() * factor
        refused = []
        for method in MATRIX_METHODS:
            sketch_dim = None if method in UNSKETCHED_METHODS else 30
            d = decompose(a, method, 20, sketch_dim, seed=9)[0]
            for seed in range(20):
                try:
                    est_spectral_norm(*id_residual_operator(a, d), cols=120, seed=seed)
                except ValueError:
                    refused.append((method, seed))
        assert refused == []

    def test_overflowing_residual_scale_is_a_numerical_failure(self):
        # ||A||_F beyond the float64 range: no tolerance to test against
        a = np.random.default_rng(0).standard_normal((60, 12)) * 1e307
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="beyond the float64 range"):
                run_matrix_trial(a, "deterministic", 4, None, 0)

    def test_non_finite_operator_raises(self):
        # a NaN iterate used to lose every max() and leave the estimate at 0.0
        apply, adjoint = matrix_operator(np.full((4, 3), np.inf))
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            est_spectral_norm(apply, adjoint, cols=3, seed=0)
