"""Experiment runner: generate synthetic data, decompose with each method,
time the sketch and decomposition phases separately, and emit replayable
per-trial reports plus per-cell summaries."""

import csv
import json
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .cp_tensor import TENSOR_METHODS, cp_diff_norm
from .cp_tensor import decompose as decompose_tensor
from .estimators import est_spectral_norm, id_residual_operator
from .generators import gen_synthetic_matrix, gen_synthetic_tensor
from .linalg import _require_finite
from .matrix_id import MATRIX_METHODS, UNSKETCHED_METHODS
from .matrix_id import decompose as decompose_matrix

@dataclass
class ExperimentConfig:
    """One benchmark sweep: matrix or tensor data over a list of sizes."""

    kind: str  # "matrix" or "tensor"
    sizes: list
    terms: int  # columns R (matrix) or CP terms R (tensor)
    rank: int
    sketch_dim: int
    density: float
    methods: list
    trials: int = 10
    seed: int = 0
    n_modes: int = 5  # tensor only

    def __post_init__(self):
        # a wrongly typed field is a TypeError, which from_json reports as
        # a malformed config
        for name in ("terms", "rank", "sketch_dim", "trials", "seed", "n_modes"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise TypeError(f"{name} must be an integer")
        # a bare string for methods would be read as one-letter method names
        for name, element, what in (("sizes", numbers.Integral, "integers"),
                                    ("methods", str, "strings")):
            items = getattr(self, name)
            if not isinstance(items, list) or not all(
                isinstance(v, element) for v in items
            ):
                raise TypeError(f"{name} must be a list of {what}")
        if self.kind not in ("matrix", "tensor"):
            raise ValueError(f"kind must be 'matrix' or 'tensor', got {self.kind!r}")
        if self.rank > self.sketch_dim:
            raise ValueError("rank must not exceed sketch_dim")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sizes:
            raise ValueError("sizes must be nonempty")
        known = MATRIX_METHODS if self.kind == "matrix" else TENSOR_METHODS
        for m in self.methods:
            if m not in known:
                raise ValueError(f"unknown {self.kind} method {m!r}")

    @classmethod
    def from_json(cls, path):
        """Config from a JSON object file; a malformed one is a ValueError."""
        with open(path) as fh:
            data = json.load(fh)
        try:
            return cls(**data)
        except TypeError as exc:  # not an object, a missing, unknown or mistyped key
            raise ValueError(f"config {path}: {exc}") from None


@dataclass
class IdReport:
    """Everything needed to read or replay one benchmark trial."""

    kind: str
    method: str
    size: int
    terms: int
    rank: int
    sketch_dim: int | None  # None for UNSKETCHED_METHODS
    density: float
    trial: int
    seed: int
    status: str = "ok"
    error_estimate: float = float("nan")
    error_norm_kind: str = ""
    sketch_time_seconds: float = float("nan")
    wall_time_seconds: float = float("nan")


# what the error of each kind of trial measures
ERROR_NORM_KINDS = {"matrix": "spectral-estimated", "tensor": "frobenius-exact"}

# summary columns: report field -> its statistics over a cell's ok trials
_SUMMARY_FIELDS = {
    "error": "error_estimate",
    "sketch_time": "sketch_time_seconds",
    "wall_time": "wall_time_seconds",
}
_SUMMARY_STATS = {"median": np.median, "mean": np.mean}

CSV_HEADER = [f.name for f in fields(IdReport)] + ["row_kind"] + [
    f"{name}_{stat}" for name in _SUMMARY_FIELDS for stat in _SUMMARY_STATS
]


def derive_seed(master, *tags):
    """Deterministic child seed; independent of scheduling order."""
    return int(
        np.random.SeedSequence([int(master), *map(int, tags)]).generate_state(1)[0]
    )


def _finite_error(err):
    """`err` as a float; a non-finite error raises FloatingPointError, so no
    trial reports a NaN or inf as a success."""
    return float(_require_finite(err, f"non-finite error {err!r}"))


def _matrix_error(a, decomp, seed):
    """Spectral-norm error estimate of the ID `decomp` of `a`, seeded from
    the trial seed."""
    apply, adjoint = id_residual_operator(a, decomp)
    est = est_spectral_norm(
        apply, adjoint, cols=a.shape[1], seed=derive_seed(seed, 0xE57)
    )
    return _finite_error(est.value)


def _tensor_error(x, result, seed):
    """Exact Frobenius error of the reduction `result` of `x`, in the delta
    form of `cp_diff_norm`; `seed` is unused, the error draws nothing."""
    return _finite_error(cp_diff_norm(x, result))


def run_matrix_trial(a, method, rank, sketch_dim, seed):
    """Decompose `a`, timing the sketch and ID phases separately, and
    estimate the spectral-norm error of the result by `est_spectral_norm`
    over `id_residual_operator(a, decomp)`; FloatingPointError for a
    subnormal or overflowing `a`, as there, or a non-finite estimate."""
    decomp, sketch_time, wall = decompose_matrix(a, method, rank, sketch_dim, seed)
    return decomp, _matrix_error(a, decomp, seed), sketch_time, wall


def run_tensor_trial(x, method, rank, sketch_dim, seed):
    """Reduce `x`, timing the sketch (or Gram) phase separately, and compute
    the exact Frobenius error of the result in the delta form of
    `cp_diff_norm`. The error reads the term Gram that `x` caches: the one
    the gram method's `gram_hadamard` stored, else one computed on first
    use, so `x` computes it once."""
    result, sketch_time, wall = decompose_tensor(x, method, rank, sketch_dim, seed)
    return result, _tensor_error(x, result, seed), sketch_time, wall


def generate_input(cfg, size):
    """Dataset for one sweep size, seeded per size so every trial of every
    method sees the same input."""
    gen_seed = derive_seed(cfg.seed, 0, size)
    if cfg.kind == "matrix":
        return gen_synthetic_matrix(
            size, cfg.terms, cfg.rank, cfg.density, seed=gen_seed
        )
    return gen_synthetic_tensor(
        cfg.n_modes, size, cfg.terms, cfg.rank, cfg.density, seed=gen_seed
    )


def run_experiment(cfg):
    """Run the sweep; returns (trial_reports, summary_rows).

    Each dataset is decomposed by every method and trial before any error
    is evaluated, so a tensor's errors reuse the term Gram that its first
    gram trial computed in its timed sketch phase; without a gram trial
    the first error computes it. Every report equals that of one
    `run_matrix_trial` / `run_tensor_trial` call per trial, timings
    aside. Per-trial failures, in either step, are recorded in the report
    status and do not stop the run. Summary rows carry the per-cell
    medians and means over the successful trials.
    """
    if cfg.kind == "matrix":
        decompose, error = decompose_matrix, _matrix_error
    else:
        decompose, error = decompose_tensor, _tensor_error
    reports = []
    for size in cfg.sizes:
        data = generate_input(cfg, size)
        decomposed = []
        for mi, method in enumerate(cfg.methods):
            sketch_dim = None if method in UNSKETCHED_METHODS else cfg.sketch_dim
            for trial in range(cfg.trials):
                seed = derive_seed(cfg.seed, 1, size, mi, trial)
                report = IdReport(
                    kind=cfg.kind,
                    method=method,
                    size=size,
                    terms=cfg.terms,
                    rank=cfg.rank,
                    sketch_dim=sketch_dim,
                    density=cfg.density,
                    trial=trial,
                    seed=seed,
                )
                reports.append(report)
                try:
                    timed = decompose(data, method, cfg.rank, sketch_dim, seed)
                except Exception as exc:  # per-trial failures stay in the report
                    report.status = f"failed: {exc}"
                    continue
                decomposed.append((report, timed))
        for report, (result, st, wall) in decomposed:
            try:
                report.error_estimate = error(data, result, report.seed)
            except Exception as exc:
                report.status = f"failed: {exc}"
                continue
            report.error_norm_kind = ERROR_NORM_KINDS[cfg.kind]
            report.sketch_time_seconds = st
            report.wall_time_seconds = wall
    return reports, summarize(reports)


def summarize(reports):
    """One summary dict per (kind, method, size) cell with medians and means."""
    cells = {}
    for r in reports:
        cells.setdefault((r.kind, r.method, r.size), []).append(r)
    out = []
    for (kind, method, size), group in cells.items():
        ok = [r for r in group if r.status == "ok"]
        tpl = group[0]
        row = {
            "kind": kind,
            "method": method,
            "size": size,
            "terms": tpl.terms,
            "rank": tpl.rank,
            "sketch_dim": tpl.sketch_dim,
            "density": tpl.density,
            "n_ok": len(ok),
            "n_trials": len(group),
        }
        for name, attr in _SUMMARY_FIELDS.items():
            vals = [getattr(r, attr) for r in ok]
            for stat, fn in _SUMMARY_STATS.items():
                row[f"{name}_{stat}"] = float(fn(vals)) if vals else float("nan")
        out.append(row)
    return out


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def write_csv(path, reports, summaries):
    """Fixed-schema CSV: per-trial rows then per-cell summary rows."""
    rows = [{**vars(r), "row_kind": "trial"} for r in reports]
    rows += [
        {**s, "status": f"ok {s['n_ok']}/{s['n_trials']}", "row_kind": "summary"}
        for s in summaries
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in CSV_HEADER])
