"""The benchmark's span tracer wraps idsketch functions by name; every name
it lists must exist, and the decomposition paths must call them through
module globals so that the wrapped versions run."""

import importlib
import importlib.util
from pathlib import Path

import idsketch
import idsketch.bench as bench
from idsketch.estimators import est_spectral_norm
from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("idsketch_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    for entry in load_tracing().BOUNDARIES:
        module = importlib.import_module(f"idsketch.{entry[0]}")
        if len(entry) == 2:
            assert callable(getattr(module, entry[1], None)), entry
        else:
            cls = getattr(module, entry[1])
            assert entry[2] in cls.__dict__, entry


def test_trials_run_through_traced_boundaries():
    tracing = load_tracing()
    tracer = tracing.Tracer(idsketch)
    a = gen_synthetic_matrix(200, 40, 8, 0.1, seed=0)
    x = gen_synthetic_tensor(3, 12, 24, 6, 0.3, seed=0)
    # called through the module, whose attributes the tracer replaces
    tracer.install()
    try:
        for method in ("countsketch", "gaussian", "srft", "deterministic"):
            bench.run_matrix_trial(a, method, 6, 10, 1)
        for method in ("tensorsketch", "gaussian", "gram"):
            bench.run_tensor_trial(x, method, 6, 10, 1)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for name in (
        "bench.run_matrix_trial", "bench.run_tensor_trial", "linalg.as_csc",
        "linalg.as_dense", "matrix_id.matrix_sketch", "matrix_id.matrix_id",
        "sketch.CountSketchOp.apply", "sketch.GaussianOp.apply",
        "sketch.SrftOp.apply", "sketch.TensorSketchOp.apply",
        "sketch.KrGaussianOp.apply", "cp_tensor.gram_hadamard",
        "cp_tensor.gram_tensor_id", "cp_tensor.tensor_id_from_sketch",
        "cp_tensor.cp_diff_norm", "estimators.est_spectral_norm",
    ):
        assert name in names, name


def test_traced_residual_pair_keeps_its_scale():
    # the benchmark's 200k op unpacks the pair the tracer returns, so the
    # adjoint test sees the pair's scale only if the wrapper keeps it
    tracer = load_tracing().Tracer(idsketch)
    a = gen_synthetic_matrix(200, 40, 8, 0.1, seed=0)
    d = idsketch.countsketch_id(a, 6, 10, seed=1)
    untraced = idsketch.id_residual_operator(a, d)[0]
    tracer.install()
    try:
        apply, adjoint = idsketch.id_residual_operator(a, d)
        est_spectral_norm(apply, adjoint, cols=40, seed=0)
    finally:
        tracer.uninstall()
    assert apply.__wrapped__.scale == apply.scale == untraced.scale > 0.0
    assert "estimators.residual_apply" in {span[0] for span in tracer.spans}
