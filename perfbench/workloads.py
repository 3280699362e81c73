"""The four benchmark workloads: inputs from a seed, one op, output checks.

Importing this module imports idsketch, numpy and scipy; the runner times
that import as part of set-up.

Each workload has
  setup(seed, workdir) -> state    build the inputs (and files) from a seed
  op(state, op_seed, tracer) -> raw
                                   one closed-loop op; the timed part
  check(raw) -> Outcome            check the op's output, untimed
"""

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import idsketch as ids
from idsketch import cli

from tracing import CLI_SPAN, COUNT_SPAN

# Error ceiling for every decomposition a workload reports. At the seed
# commit the largest error over 40 runs of the four workloads (10 seeds
# each) was 1.3e-6. The synthetic spectra fall from 1 to a 1e-8 floor: a
# matrix error of 1e-4 is no better than a rank-50 truncation, and a tensor
# reduction that drops one of its 20 leading terms errs by at least 0.17.
ERROR_CEILING = 1e-4

MATRIX_COLS = 500
MATRIX_RANK = 100
MATRIX_SKETCH = 110
MATRIX_DENSITY = 0.005
TENSOR_MODES = 5
TENSOR_TERMS = 200
TENSOR_RANK = 20
TENSOR_SKETCH = 30
TENSOR_DENSITY = 0.05


# decomp_s counts the op's hash-sketch decompositions only: the paper's
# headline cost, and steady, where the Gaussian and Gram trials of the sweeps
# are dominated by Python-level loops whose time swings with host load.
HASH_METHODS = ("countsketch", "tensorsketch")


@dataclass
class Outcome:
    """What one op produced: the time of its CountSketch and TensorSketch
    decompositions (validation, sketch and ID, no error evaluation), the
    reported errors, the failed checks and, where visible, the selected
    columns per method."""

    decomp_s: float = 0.0
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cols: dict = field(default_factory=dict)
    trial_walls: dict = field(default_factory=dict)  # method -> [s], sweeps only


def check_id(out, label, cols, coeffs, k, n):
    """Column-ID invariants: k distinct in-range columns, an exact identity
    in the selected columns, finite coefficients."""
    cols = np.asarray(cols)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if cols.shape != (k,) or coeffs.shape != (k, n):
        out.failures.append(f"{label}: shapes cols {cols.shape} coeffs {coeffs.shape}")
        return
    if np.unique(cols).size != k or cols.min() < 0 or cols.max() >= n:
        out.failures.append(f"{label}: columns not distinct or out of range")
        return
    if not np.array_equal(coeffs[:, cols], np.eye(k)):
        out.failures.append(f"{label}: coeffs[:, cols] is not the identity")
    if not np.isfinite(coeffs).all():
        out.failures.append(f"{label}: non-finite coefficient")


def check_error(out, label, err):
    err = float(err)
    if not (math.isfinite(err) and 0.0 <= err < ERROR_CEILING):
        out.failures.append(f"{label}: error {err!r} outside [0, {ERROR_CEILING})")
    out.errors.append(err)


class CountsketchLibrary:
    """200k x 500 sparse matrix; op = countsketch_id + spectral estimate."""

    name = "mtx-countsketch-200k"
    rows = 200_000

    def setup(self, seed, workdir):
        return ids.gen_synthetic_matrix(
            self.rows, MATRIX_COLS, MATRIX_RANK, MATRIX_DENSITY, seed=seed
        )

    def op(self, a, op_seed, tracer):
        t0 = time.perf_counter()
        d = ids.countsketch_id(a, MATRIX_RANK, MATRIX_SKETCH, seed=op_seed)
        decomp_s = time.perf_counter() - t0
        apply, adjoint = ids.id_residual_operator(a, d)
        est = ids.est_spectral_norm(apply, adjoint, cols=a.shape[1], seed=op_seed + 1)
        return d, est, decomp_s

    def check(self, raw):
        d, est, decomp_s = raw
        out = Outcome(decomp_s=decomp_s)
        check_id(out, "countsketch", d.cols, d.coeffs, MATRIX_RANK, MATRIX_COLS)
        check_error(out, "countsketch", est.value)
        out.cols["countsketch"] = d.cols
        return out


class _Sweep:
    """One run_experiment call per op; the config seed is the op seed, so
    every op generates fresh data."""

    def setup(self, seed, workdir):
        # validate the config once; ops only swap the seed
        return ids.ExperimentConfig(seed=0, **self.config)

    def op(self, cfg, op_seed, tracer):
        cfg.seed = op_seed
        return cfg, ids.run_experiment(cfg)

    def check(self, raw):
        cfg, (reports, summaries) = raw
        out = Outcome()
        expected = len(cfg.methods) * cfg.trials * len(cfg.sizes)
        if len(reports) != expected:
            out.failures.append(f"{len(reports)} trial reports, expected {expected}")
        for r in reports:
            label = f"{r.method} trial {r.trial}"
            if r.status != "ok":
                out.failures.append(f"{label}: status {r.status}")
                continue
            if r.method in HASH_METHODS:
                out.decomp_s += r.wall_time_seconds
            out.trial_walls.setdefault(r.method, []).append(r.wall_time_seconds)
            check_error(out, label, r.error_estimate)
        for s in summaries:
            if s["n_ok"] != s["n_trials"]:
                out.failures.append(f"{s['method']}: summary ok {s['n_ok']}/{s['n_trials']}")
        return out


class MatrixSweep(_Sweep):
    name = "mtx-sweep-32k"
    config = dict(
        kind="matrix", sizes=[32_000], terms=MATRIX_COLS, rank=MATRIX_RANK,
        sketch_dim=MATRIX_SKETCH, density=MATRIX_DENSITY,
        methods=["gaussian", "srft", "countsketch"], trials=1,
    )


class TensorSweep(_Sweep):
    name = "cp-sweep-5mode"
    config = dict(
        kind="tensor", sizes=[10_000], terms=TENSOR_TERMS, rank=TENSOR_RANK,
        sketch_dim=TENSOR_SKETCH, density=TENSOR_DENSITY,
        methods=["tensorsketch", "gaussian", "gram"], trials=1, n_modes=TENSOR_MODES,
    )


class CliWorkload:
    """32k-row .mtx file and a 5 x 1000 CP directory; op = in-process
    `idsketch matrix-id` then `idsketch tensor-id`, both with --out."""

    name = "cli-files"
    rows = 32_000
    tensor_dim = 1_000

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        a = ids.gen_synthetic_matrix(
            self.rows, MATRIX_COLS, MATRIX_RANK, MATRIX_DENSITY, seed=seed
        )
        mtx = workdir / "a.mtx"
        ids.write_matrix_market(mtx, a)
        x = ids.gen_synthetic_tensor(
            TENSOR_MODES, self.tensor_dim, TENSOR_TERMS, TENSOR_RANK, TENSOR_DENSITY,
            seed=seed + 1,
        )
        cp_dir = workdir / "cp"
        ids.save_cp_dir(cp_dir, x)
        return [
            ("matrix-id", ["matrix-id", str(mtx), "--rank", str(MATRIX_RANK)],
             str(workdir / "id.json"), MATRIX_RANK, MATRIX_COLS),
            ("tensor-id", ["tensor-id", str(cp_dir), "--rank", str(TENSOR_RANK)],
             str(workdir / "tid.json"), TENSOR_RANK, TENSOR_TERMS),
        ]

    def op(self, calls, op_seed, tracer):
        codes = []
        for _, argv, path, _, _ in calls:
            if os.path.exists(path):
                os.remove(path)
            codes.append(_invoke(argv + ["--seed", str(op_seed), "--out", path], tracer))
            if tracer is not None and os.path.exists(path):
                with tracer.span(COUNT_SPAN):
                    tracer.count("cli.json_bytes", os.path.getsize(path))
        return calls, codes

    def check(self, raw):
        out = Outcome()
        for (label, _, path, k, n), code in zip(*raw):
            if code != 0:
                out.failures.append(f"{label}: exit code {code}")
                continue
            try:
                with open(path) as fh:
                    payload = json.load(fh)
            except (OSError, ValueError) as exc:
                out.failures.append(f"{label}: unreadable JSON report: {exc}")
                continue
            rep = payload["id"]
            if rep["k"] != k or len(rep["j"]) != k:
                out.failures.append(f"{label}: k={rep['k']}, {len(rep['j'])} columns, asked {k}")
                continue
            check_id(out, label, rep["j"], rep["p"], k, n)
            if label == "tensor-id" and not np.isfinite(rep["new_svalues"]).all():
                out.failures.append(f"{label}: non-finite new_svalues")
            check_error(out, label, payload["error_estimate"])
            out.decomp_s += payload["wall_time_seconds"]
            out.cols[rep["method"]] = np.asarray(rep["j"])
        return out


def _invoke(argv, tracer):
    """Run the click command group in this process; returns the exit code."""
    try:
        if tracer is None:
            cli.main.main(args=argv, prog_name="idsketch")
        else:
            with tracer.span(CLI_SPAN):
                cli.main.main(args=argv, prog_name="idsketch")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0


WORKLOADS = {
    w.name: w
    for w in (CountsketchLibrary(), MatrixSweep(), TensorSweep(), CliWorkload())
}
