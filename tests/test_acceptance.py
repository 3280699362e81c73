"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the oracles are the dense constructions from conftest plus exact
dense SVD/eigendecompositions.
"""

import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from idsketch.bench import ExperimentConfig, run_experiment
from idsketch.cp_tensor import (
    CpTensor,
    cp_diff_norm,
    cp_norm,
    gaussian_tensor_id,
    gram_hadamard,
    tensorsketch_id,
)
from idsketch.estimators import est_spectral_norm
from idsketch.matrix_id import countsketch_id, gaussian_id, matrix_id, srft_id
from idsketch.sketch import (
    CountSketchOp,
    GaussianOp,
    KrGaussianOp,
    SrftOp,
    TensorSketchOp,
)

from conftest import (
    cp_dense,
    dense_countsketch,
    dense_kr_gaussian,
    dense_srft,
    dense_tensorsketch,
    khatri_rao,
    matrix_operator,
)


@contextmanager
def criterion(num, desc, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num:2d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion {num:2d} PASS in {elapsed:5.1f}s (budget {budget_s}s): {desc}")
    assert elapsed <= budget_s


def rel_fro(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def test_criterion_1_sketch_oracle_suite():
    with criterion(1, "implicit sketch applies match densified operators", 60):
        rng = np.random.default_rng(101)
        worst = 0.0
        for inst in range(50):
            rows = int(rng.integers(20, 201))
            cols = int(rng.integers(2, 51))
            out_dim = int(rng.integers(2, max(3, rows // 2)))
            if rng.random() < 0.5:
                a = sp.random_array(
                    (rows, cols), density=0.1, rng=rng, format="csc"
                )
                dense_a = a.toarray()
            else:
                a = rng.standard_normal((rows, cols))
                dense_a = a

            op = CountSketchOp(rows, out_dim, seed=inst)
            oracle = dense_countsketch(op.bucket, op.sign, out_dim) @ dense_a
            worst = max(worst, rel_fro(op.apply(a), oracle))

            op = CountSketchOp(rows, out_dim, seed=inst, surjective=True)
            oracle = dense_countsketch(op.bucket, op.sign, out_dim) @ dense_a
            worst = max(worst, rel_fro(op.apply(a), oracle))

            op = SrftOp(rows, out_dim, seed=inst)
            oracle = dense_srft(op.sign, op.sample_rows, rows) @ dense_a
            worst = max(worst, rel_fro(op.apply(a), oracle))

            op = GaussianOp(rows, out_dim, seed=inst)
            worst = max(worst, rel_fro(op.apply(a), dense_kr_gaussian(op) @ dense_a))

            n_modes = int(rng.integers(1, 5))
            dims = [int(rng.integers(2, 13)) for _ in range(n_modes)]
            r = int(rng.integers(1, 9))
            factors = [rng.standard_normal((d, r)) for d in dims]
            lam = rng.random(r) + 0.5
            m = khatri_rao(factors) * lam
            ts_dim = int(rng.integers(2, 33))

            op = KrGaussianOp(dims, ts_dim, seed=inst)
            worst = max(
                worst, rel_fro(op.apply(factors, lam), dense_kr_gaussian(op) @ m)
            )

            op = TensorSketchOp(dims, ts_dim, seed=inst)
            worst = max(
                worst, rel_fro(op.apply(factors, lam), dense_tensorsketch(op) @ m)
            )
        assert worst <= 1e-11, f"worst relative error {worst:.3e}"


def test_criterion_2_tensorsketch_structural_identity():
    with criterion(2, "FFT evaluation equals composite-hash CountSketch", 30):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            n_modes = 2 if seed % 2 == 0 else 3
            dims = [int(rng.integers(2, 7)) for _ in range(n_modes)]
            r = int(rng.integers(1, 6))
            out_dim = int(rng.integers(2, 17))
            factors = [rng.standard_normal((d, r)) for d in dims]
            lam = rng.random(r) + 0.5
            op = TensorSketchOp(dims, out_dim, seed=seed)
            # composite hash (mod-L sum) and sign (product), built from the
            # per-mode arrays
            dense_t = dense_tensorsketch(op)
            m = khatri_rao(factors) * lam
            worst = max(worst, rel_fro(op.apply(factors, lam), dense_t @ m))
        assert worst <= 1e-12, f"worst relative error {worst:.3e}"


def test_criterion_3_fact1_suite():
    with criterion(3, "coefficient-matrix properties for all four methods", 120):
        rng = np.random.default_rng(103)
        methods = {
            "deterministic": lambda a, k, s: matrix_id(a, k),
            "countsketch": lambda a, k, s: countsketch_id(a, k, seed=s),
            "gaussian": lambda a, k, s: gaussian_id(a, k, seed=s),
            "srft": lambda a, k, s: srft_id(a, k, seed=s),
        }
        worst_margin = 0.0
        for inst in range(200):
            rows = int(rng.integers(60, 161))
            cols = int(rng.integers(8, 41))
            k = int(rng.integers(1, cols))
            a = rng.standard_normal((rows, cols))
            sigma = np.linalg.svd(a, compute_uv=False)
            bound = sigma[k] * np.sqrt(4.0 * k * (cols - k) + 1.0) * 10.0
            for name, method in methods.items():
                d = method(a, k, inst)
                assert np.array_equal(d.coeffs[:, d.cols], np.eye(k)), name
                smallest = np.linalg.svd(d.coeffs, compute_uv=False)[-1]
                assert smallest >= 1.0 - 1e-8, name
                err = np.linalg.norm(a[:, d.cols] @ d.coeffs - a, 2)
                assert err <= bound, (name, inst, err, bound)
                worst_margin = max(worst_margin, err / bound)
                if inst % 10 == 0:
                    full = method(a, cols, inst)
                    exact = a[:, full.cols] @ full.coeffs
                    assert rel_fro(exact, a) <= 1e-10, name
        print(f"  worst error/bound ratio: {worst_margin:.3f}", end="")


def test_criterion_4_gram_identity():
    with criterion(4, "Gram Hadamard identity and exact CP difference norms", 60):
        rng = np.random.default_rng(104)
        worst_gram = 0.0
        worst_diff = 0.0
        for inst in range(50):
            n_modes = int(rng.integers(2, 5))
            dims = [int(rng.integers(3, 13)) for _ in range(n_modes)]
            while np.prod(dims) > 100_000:
                dims = dims[:-1]
            r = int(rng.integers(1, 9))
            x = CpTensor(
                rng.random(r) + 0.5,
                [rng.standard_normal((d, r)) for d in dims],
            )
            w = x.weights
            m = khatri_rao(x.factors) * w
            weighted = gram_hadamard(x) * w * w[:, None]
            worst_gram = max(worst_gram, rel_fro(weighted, m.T @ m))
            y = CpTensor(
                rng.random(r) + 0.5,
                [rng.standard_normal((d, r)) for d in dims],
            )
            dense_err = np.linalg.norm(cp_dense(x) - cp_dense(y))
            worst_diff = max(
                worst_diff, abs(cp_diff_norm(x, y) - dense_err) / dense_err
            )
        assert worst_gram <= 1e-12, f"worst Gram mismatch {worst_gram:.3e}"
        assert worst_diff <= 1e-9, f"worst diff-norm mismatch {worst_diff:.3e}"


def test_criterion_5_matrix_benchmark_analogue():
    with criterion(
        5, "randomized matrix methods comparable; CountSketch fastest", 600
    ):
        cfg = ExperimentConfig(
            kind="matrix",
            sizes=[2000, 8000, 32000],
            terms=500,
            rank=100,
            sketch_dim=110,
            density=0.005,
            methods=["gaussian", "srft", "countsketch"],
            trials=10,
            seed=105,
        )
        reports, summaries = run_experiment(cfg)
        assert all(r.status == "ok" for r in reports)
        cells = {(s["method"], s["size"]): s for s in summaries}
        for size in cfg.sizes:
            cs = cells[("countsketch", size)]["error_median"]
            for other in ("gaussian", "srft"):
                ratio = cs / cells[(other, size)]["error_median"]
                assert 0.1 <= ratio <= 10.0, (size, other, ratio)
        largest = max(cfg.sizes)
        cs_wall = cells[("countsketch", largest)]["wall_time_median"]
        for other in ("gaussian", "srft"):
            assert cs_wall < cells[(other, largest)]["wall_time_median"], other
        print(
            f"  wall medians at {largest}: "
            + ", ".join(
                f"{m}={cells[(m, largest)]['wall_time_median']*1e3:.1f}ms"
                for m in cfg.methods
            ),
            end="",
        )


def test_criterion_6_tensor_benchmark_analogue():
    with criterion(
        6, "tensor methods comparable; Gram at least as accurate", 600
    ):
        cfg = ExperimentConfig(
            kind="tensor",
            sizes=[200, 1000],
            terms=200,
            rank=20,
            sketch_dim=30,
            density=0.05,
            methods=["gram", "gaussian", "tensorsketch"],
            trials=10,
            seed=106,
            n_modes=5,
        )
        reports, summaries = run_experiment(cfg)
        assert all(r.status == "ok" for r in reports)
        cells = {(s["method"], s["size"]): s for s in summaries}
        for size in cfg.sizes:
            ts = cells[("tensorsketch", size)]["error_median"]
            ga = cells[("gaussian", size)]["error_median"]
            gr = cells[("gram", size)]["error_median"]
            assert 0.1 <= ts / ga <= 10.0, (size, ts, ga)
            assert gr <= 2.0 * ts and gr <= 2.0 * ga, (size, gr, ts, ga)
            print(
                f"  size {size}: gram={gr:.2e} gaussian={ga:.2e} ts={ts:.2e}",
                end="",
            )


def test_criterion_7_probabilistic_theory_checks():
    with criterion(7, "subspace embedding and conditioning events hold", 300):
        # embedding: ||(SU)'(SU) - I|| <= 1/2 for orthonormal U
        rng = np.random.default_rng(107)
        in_dim, k, beta = 2000, 5, 10
        sketch_dim = 2 * beta * (k * k + k)
        hits = 0
        for trial in range(200):
            u = np.linalg.qr(rng.standard_normal((in_dim, k)))[0]
            op = CountSketchOp(in_dim, sketch_dim, seed=trial)
            su = op.apply(u)
            if np.linalg.norm(su.T @ su - np.eye(k), 2) <= 0.5:
                hits += 1
        assert hits >= 180, f"embedding event in {hits}/200 trials"

        # conditioning: kappa(TM) <= 7 kappa(M) at the theory-scale sketch dim
        n_modes, r = 2, 3
        sketch_dim = 2 * (2 + 3**n_modes) * beta * r * r
        dims = [50, 50]
        cond_hits = 0
        for trial in range(200):
            factors = [rng.standard_normal((d, r)) for d in dims]
            m = khatri_rao(factors)
            op = TensorSketchOp(dims, sketch_dim, seed=10_000 + trial)
            tm = op.apply(factors)
            sv_m = np.linalg.svd(m, compute_uv=False)
            sv_tm = np.linalg.svd(tm, compute_uv=False)
            if sv_tm[0] / sv_tm[-1] <= 7.0 * sv_m[0] / sv_m[-1]:
                cond_hits += 1
        assert cond_hits >= 180, f"conditioning event in {cond_hits}/200 trials"
        print(f"  embedding {hits}/200, conditioning {cond_hits}/200", end="")


def test_criterion_8_exact_rank_recovery():
    with criterion(8, "rank-k inputs recovered by every randomized method", 120):
        rng = np.random.default_rng(108)
        k = 8
        sketch_dim = k + 10
        a = rng.standard_normal((100, k)) @ rng.standard_normal((k, 30))
        norm_a = np.linalg.norm(a)
        for seed in range(20):
            for method in (countsketch_id, gaussian_id, srft_id):
                d = method(a, k, sketch_dim, seed=seed)
                err = np.linalg.norm(a[:, d.cols] @ d.coeffs - a) / norm_a
                assert err <= 1e-6, (method.__name__, seed, err)

        # tensor: k independent terms plus near-zero duplicates
        factors = [rng.standard_normal((10, k)) for _ in range(3)]
        dup = rng.integers(0, k, size=12)
        full = [np.hstack([f, f[:, dup]]) for f in factors]
        weights = np.concatenate([rng.random(k) + 0.5, np.full(12, 1e-14)])
        x = CpTensor(weights, full)
        scale = cp_norm(x)
        for seed in range(20):
            for method in (tensorsketch_id, gaussian_tensor_id):
                result = method(x, k, sketch_dim, seed=seed)
                err = cp_diff_norm(x, result.reduced) / scale
                assert err <= 1e-6, (method.__name__, seed, err)


def test_criterion_9_norm_estimator_guarantee():
    with criterion(9, "spectral estimates bounded by and near the truth", 60):
        rng = np.random.default_rng(109)
        runs = 0
        good = 0
        for m in range(100):
            a = rng.standard_normal((100, 60))
            sigma1 = np.linalg.svd(a, compute_uv=False)[0]
            apply, adjoint = matrix_operator(a)
            for s in range(10):
                est = est_spectral_norm(
                    apply, adjoint, cols=60, iters=10, probes=2, seed=1000 * m + s
                )
                assert est.value <= sigma1 + 1e-10
                runs += 1
                good += est.value >= sigma1 / 100.0
        assert runs == 1000
        assert good >= 980, f"estimate >= sigma1/100 in {good}/1000 runs"
        print(f"  {good}/1000 within x100 of the truth", end="")


def test_criterion_10_complexity_scaling():
    with criterion(10, "CountSketch linear in nnz; TensorSketch linear in N", 300):
        rng = np.random.default_rng(110)

        def median_time(fn, repeats=15):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        terms, sketch_dim = 100, 30
        sizes = (5000, 80000)
        mats = {
            n: sp.random_array((n, terms), density=0.05, rng=rng, format="csc")
            for n in sizes
        }
        nnz_ratio = mats[sizes[1]].nnz / mats[sizes[0]].nnz

        def sketch_at(n):
            seed = rng.integers(0, 2**31)

            def run():
                CountSketchOp(n, sketch_dim, seed=int(seed), surjective=True).apply(
                    mats[n]
                )

            return run

        t_small = median_time(sketch_at(sizes[0]))
        t_big = median_time(sketch_at(sizes[1]))
        ratio = t_big / t_small
        assert nnz_ratio / 3.0 <= ratio <= nnz_ratio * 3.0, (ratio, nnz_ratio)

        # TensorSketch: same per-mode work, N modes
        dim, r, ts_dim = 400, 60, 64
        factors = [rng.standard_normal((dim, r)) for _ in range(4)]
        lam = rng.random(r) + 0.5

        def ts_at(n_modes):
            op = TensorSketchOp([dim] * n_modes, ts_dim, seed=5)

            def run():
                op.apply(factors[:n_modes], lam)

            return run

        t2 = median_time(ts_at(2), repeats=25)
        t4 = median_time(ts_at(4), repeats=25)
        n_ratio = t4 / t2
        assert 2.0 / 3.0 <= n_ratio <= 6.0, n_ratio
        print(
            f"  countsketch ratio {ratio:.1f} (nnz ratio {nnz_ratio:.1f}), "
            f"tensorsketch N-ratio {n_ratio:.2f}",
            end="",
        )
