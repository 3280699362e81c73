"""Span tracing of the idsketch module boundaries, installed from outside.

`Tracer.install()` replaces the public functions and methods listed in
`BOUNDARIES` with wrappers that record one span per call: its name, start,
end, parent span and the op it belongs to. Module-level functions are
replaced in every idsketch module namespace that holds them (the package
imports names with `from .x import y`), methods on their class.
`Tracer.uninstall()` puts the originals back, so untraced ops run the
unmodified library. Spans stay in memory and are written out once, at the
end of the run.

Counts are taken at the same boundaries after the call returns; the time
spent taking them is recorded as a `trace.count` span so that it is not
charged to any layer's self time.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because one thread runs everything.
"""

import contextlib
import functools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

# numpy is imported inside the count hooks only: the runner imports this
# module before it starts timing set-up, which includes numpy's import.

# (module, attribute) for functions, (module, class, method) for methods.
BOUNDARIES = [
    ("linalg", "as_csc"),
    ("linalg", "as_dense"),
    ("linalg", "cpqr"),
    ("linalg", "triangular_solve"),
    ("sketch", "CountSketchOp", "__init__"),
    ("sketch", "CountSketchOp", "apply"),
    ("sketch", "TensorSketchOp", "__init__"),
    ("sketch", "TensorSketchOp", "apply"),
    ("sketch", "GaussianOp", "apply"),
    ("sketch", "SrftOp", "apply"),
    ("sketch", "KrGaussianOp", "apply"),
    ("matrix_id", "matrix_id"),
    ("matrix_id", "matrix_sketch"),
    ("matrix_id", "countsketch_id"),
    ("matrix_id", "gaussian_id"),
    ("matrix_id", "srft_id"),
    ("cp_tensor", "gram_hadamard"),
    ("cp_tensor", "cp_norm"),
    ("cp_tensor", "cp_diff_norm"),
    ("cp_tensor", "CpTensor", "select"),
    ("cp_tensor", "tensor_id_from_sketch"),
    ("cp_tensor", "tensorsketch_id"),
    ("cp_tensor", "gaussian_tensor_id"),
    ("cp_tensor", "gram_tensor_id"),
    ("cp_tensor", "load_cp_dir"),
    ("estimators", "est_spectral_norm"),
    ("estimators", "id_residual_operator"),
    ("generators", "gen_synthetic_matrix"),
    ("generators", "gen_synthetic_tensor"),
    ("bench", "generate_input"),
    ("bench", "run_experiment"),
    ("bench", "run_matrix_trial"),
    ("bench", "run_tensor_trial"),
    ("bench", "summarize"),
    ("mmio", "read_matrix_market"),
]

COUNT_SPAN = "trace.count"
OP_SPAN = "op"
CLI_SPAN = "cli.main"  # recorded by the workload around the in-process CLI call

# Per-layer metrics: name -> (unit, better, how it is derived). Self times
# and call counts are per traced op (median over traced ops); counters are
# summed per op (median over ops); ratios are totals over all traced ops.
_SELF = "self"
_CALLS = "calls"
_COUNTER = "counter"
_RATIO = "ratio"

LAYER_METRICS = {
    "linalg.validate_s": ("s", "lower", _SELF, ["linalg.as_csc", "linalg.as_dense"]),
    "linalg.cpqr_s": ("s", "lower", _SELF, ["linalg.cpqr"]),
    "linalg.cpqr_calls": ("count", "lower", _CALLS, ["linalg.cpqr"]),
    "linalg.solve_s": ("s", "lower", _SELF, ["linalg.triangular_solve"]),
    "sketch.countsketch_build_s": ("s", "lower", _SELF, ["sketch.CountSketchOp.__init__"]),
    "sketch.countsketch_apply_s": ("s", "lower", _SELF, ["sketch.CountSketchOp.apply"]),
    "sketch.countsketch_nnz": ("count", "lower", _COUNTER, ["sketch.countsketch_nnz"]),
    "sketch.countsketch_bytes": ("B", "lower", _COUNTER, ["sketch.countsketch_bytes"]),
    "sketch.gaussian_apply_s": ("s", "lower", _SELF, ["sketch.GaussianOp.apply"]),
    "sketch.gaussian_values": ("count", "lower", _COUNTER, ["sketch.gaussian_values"]),
    "sketch.srft_apply_s": ("s", "lower", _SELF, ["sketch.SrftOp.apply"]),
    "sketch.tensorsketch_build_s": ("s", "lower", _SELF, ["sketch.TensorSketchOp.__init__"]),
    "sketch.tensorsketch_apply_s": ("s", "lower", _SELF, ["sketch.TensorSketchOp.apply"]),
    "sketch.kr_gaussian_apply_s": ("s", "lower", _SELF, ["sketch.KrGaussianOp.apply"]),
    "sketch.kr_gaussian_rows_ratio": (
        "ratio", "lower", _RATIO, ["sketch.kr_rows_generated", "sketch.kr_rows_total"]),
    "matrix_id.self_s": ("s", "lower", _SELF, [
        "matrix_id.matrix_id", "matrix_id.matrix_sketch", "matrix_id.countsketch_id",
        "matrix_id.gaussian_id", "matrix_id.srft_id"]),
    "matrix_id.deficient_ratio": (
        "ratio", "lower", _RATIO, ["matrix_id.deficient", "matrix_id.decompositions"]),
    "matrix_id.fact1_exceed": ("count", "lower", _COUNTER, ["matrix_id.fact1_exceed"]),
    "cp_tensor.gram_hadamard_s": ("s", "lower", _SELF, ["cp_tensor.gram_hadamard"]),
    "cp_tensor.diff_norm_s": ("s", "lower", _SELF, ["cp_tensor.cp_diff_norm"]),
    "cp_tensor.select_s": ("s", "lower", _SELF, ["cp_tensor.CpTensor.select"]),
    "cp_tensor.gram_id_s": ("s", "lower", _SELF, ["cp_tensor.gram_tensor_id"]),
    "estimators.spectral_s": ("s", "lower", _SELF, ["estimators.est_spectral_norm"]),
    "estimators.residual_op_s": ("s", "lower", _SELF, [
        "estimators.id_residual_operator", "estimators.residual_apply",
        "estimators.residual_adjoint"]),
    "estimators.applies": ("count", "lower", _CALLS, [
        "estimators.residual_apply", "estimators.residual_adjoint"]),
    "generators.matrix_s": ("s", "lower", _SELF, ["generators.gen_synthetic_matrix"]),
    "generators.tensor_s": ("s", "lower", _SELF, ["generators.gen_synthetic_tensor"]),
    "bench.self_s": ("s", "lower", _SELF, [
        "bench.generate_input", "bench.run_experiment", "bench.run_matrix_trial",
        "bench.run_tensor_trial", "bench.summarize"]),
    "bench.trials": ("count", "higher", _COUNTER, ["bench.trials"]),
    "bench.trials_failed": ("count", "lower", _COUNTER, ["bench.trials_failed"]),
    "mmio.read_s": ("s", "lower", _SELF, ["mmio.read_matrix_market"]),
    "mmio.bytes_read": ("B", "lower", _COUNTER, ["mmio.bytes_read"]),
    "cli.self_s": ("s", "lower", _SELF, [CLI_SPAN]),
    "cli.json_bytes": ("B", "lower", _COUNTER, ["cli.json_bytes"]),
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.op = None
        self._stack = []
        self._patches = []
        self._modules = [
            m for name, m in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]

    # -- spans ----------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, value):
        self.counters[self.op][name] += value

    # -- patching -------------------------------------------------------
    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                cidx = tracer.open(COUNT_SPAN)
                try:
                    result = after(tracer, args, result)
                finally:
                    tracer.close(cidx)
            return result

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        for entry in BOUNDARIES:
            module = sys.modules[f"{pkg}.{entry[0]}"]
            if len(entry) == 2:
                original = getattr(module, entry[1])
                name = f"{entry[0]}.{entry[1]}"
                wrapped = self.wrap(name, original, _AFTER.get(name))
                for mod in self._modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
            else:
                cls = getattr(module, entry[1])
                original = cls.__dict__[entry[2]]
                name = f"{entry[0]}.{entry[1]}.{entry[2]}"
                self._patches.append((cls, entry[2], original))
                setattr(cls, entry[2], self.wrap(name, original, _AFTER.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": {str(k): dict(v) for k, v in self.counters.items()},
                },
                fh,
            )

    def per_op(self):
        """op id -> {"self": name -> s, "calls": name -> n, "wall": s,
        "covered": s, "spans": n} for every op that has a root span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            rec = ops.setdefault(
                op,
                {"self": defaultdict(float), "calls": defaultdict(int),
                 "wall": None, "covered": 0.0, "spans": 0},
            )
            if name == OP_SPAN:
                rec["wall"] = end - start
                rec["covered"] = child_time[idx]
                continue
            rec["spans"] += 1
            rec["self"][name] += (end - start) - child_time[idx]
            rec["calls"][name] += 1
        return {op: rec for op, rec in ops.items() if rec["wall"] is not None}

    def layer_metrics(self):
        """Every metric of LAYER_METRICS plus trace.coverage and
        trace.spans (absent ones as 0.0), and the reasons for the absent
        ones."""
        ops = self.per_op()
        counters = [self.counters.get(op, {}) for op in ops]
        values, absent = {}, {}
        for metric, (_, _, kind, names) in LAYER_METRICS.items():
            if kind in (_SELF, _CALLS):
                key = "self" if kind == _SELF else "calls"
                seen = any(n in rec["calls"] for rec in ops.values() for n in names)
                per = [sum(rec[key].get(n, 0) for n in names) for rec in ops.values()]
                what = "no " + " / ".join(names) + " call in a traced op"
            elif kind == _COUNTER:
                seen = any(names[0] in c for c in counters)
                per = [c.get(names[0], 0.0) for c in counters]
                what = f"no {names[0]} counted in a traced op"
            else:
                num = sum(c.get(names[0], 0.0) for c in counters)
                den = sum(c.get(names[1], 0.0) for c in counters)
                seen = den > 0
                per = [num / den] if seen else []
                what = f"no {names[1]} counted in a traced op"
            if seen and per:
                values[metric] = float(statistics.median(per))
            else:
                values[metric] = 0.0
                absent[metric] = what
        coverage = [rec["covered"] / rec["wall"] for rec in ops.values() if rec["wall"] > 0]
        values["trace.coverage"] = float(statistics.median(coverage)) if coverage else 0.0
        values["trace.spans"] = float(statistics.median(rec["spans"] for rec in ops.values())) if ops else 0.0
        return values, absent


# -- counts taken at the boundaries ------------------------------------
def _countsketch_apply(tracer, args, result):
    op, a = args[0], args[1]
    if hasattr(a, "nnz"):
        nnz = int(a.nnz)
        index_bytes = a.indices.itemsize
        indptr_bytes = (a.shape[1] + 1) * a.indptr.itemsize
    else:
        nnz = int(a.size)
        index_bytes = 0
        indptr_bytes = 0
    # computed, not measured: input values and indices, the bucket and sign
    # arrays, and the dense output
    moved = (
        nnz * (8 + index_bytes) + indptr_bytes
        + op.in_dim * (op.bucket.itemsize + op.sign.itemsize)
        + op.out_dim * a.shape[1] * 8
    )
    tracer.count("sketch.countsketch_nnz", nnz)
    tracer.count("sketch.countsketch_bytes", moved)
    return result


def _gaussian_apply(tracer, args, result):
    op = args[0]
    tracer.count("sketch.gaussian_values", op.in_dim * op.out_dim)
    return result


def _kr_gaussian_apply(tracer, args, result):
    import numpy as np

    for dim, factor in zip(args[0].mode_dims, args[1]):
        if hasattr(factor, "tocsc"):
            indices = factor.tocsc().indices
            generated = int(np.count_nonzero(np.bincount(indices, minlength=dim)))
        else:
            generated = int(np.count_nonzero(np.any(np.asarray(factor) != 0.0, axis=1)))
        tracer.count("sketch.kr_rows_generated", generated)
        tracer.count("sketch.kr_rows_total", dim)
    return result


def _matrix_id(tracer, args, result):
    import numpy as np

    k = result.rank
    n = result.coeffs.shape[1]
    bound = math.sqrt(4 * k * (n - k) + 1)
    tracer.count("matrix_id.decompositions", 1)
    tracer.count("matrix_id.deficient", int(result.rank_deficient))
    tracer.count("matrix_id.fact1_exceed", int(np.abs(result.coeffs).max() > bound))
    return result


def _residual_operator(tracer, args, result):
    apply, adjoint = result
    return (
        tracer.wrap("estimators.residual_apply", apply),
        tracer.wrap("estimators.residual_adjoint", adjoint),
    )


def _run_experiment(tracer, args, result):
    reports = result[0]
    tracer.count("bench.trials", len(reports))
    tracer.count("bench.trials_failed", sum(r.status != "ok" for r in reports))
    return result


def _read_matrix_market(tracer, args, result):
    tracer.count("mmio.bytes_read", os.path.getsize(args[0]))
    return result


_AFTER = {
    "sketch.CountSketchOp.apply": _countsketch_apply,
    "sketch.GaussianOp.apply": _gaussian_apply,
    "sketch.KrGaussianOp.apply": _kr_gaussian_apply,
    "matrix_id.matrix_id": _matrix_id,
    "estimators.id_residual_operator": _residual_operator,
    "bench.run_experiment": _run_experiment,
    "mmio.read_matrix_market": _read_matrix_market,
}
