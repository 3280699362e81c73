"""Malformed input is rejected where it enters, with the documented error."""

import importlib
import json

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner
from scipy.io import mmwrite

from idsketch.bench import ExperimentConfig, run_matrix_trial, run_tensor_trial
from idsketch.cli import EXIT_ARGUMENT, EXIT_NUMERICAL, _emit, main
from idsketch.cp_tensor import (
    CpTensor, cp_diff_norm, cp_norm, decompose, gram_tensor_id, load_cp_dir,
    save_cp_dir,
)
from idsketch.generators import gen_synthetic_matrix, gen_synthetic_tensor
from idsketch.linalg import as_dense, cpqr, triangular_solve
from idsketch.matrix_id import MATRIX_METHODS, countsketch_id, matrix_sketch
from idsketch.matrix_id import decompose as matrix_decompose
from idsketch.mmio import read_matrix_market, write_matrix_market
from idsketch.sketch import (
    CountSketchOp, GaussianOp, KrGaussianOp, SrftOp, TensorSketchOp,
)

BANNER = "%%MatrixMarket matrix coordinate real general\n"
BENCH_CONFIG = {
    "kind": "matrix", "sizes": [300], "terms": 60, "rank": 8, "sketch_dim": 18,
    "density": 0.05, "methods": ["countsketch"], "trials": 1, "seed": 1,
}


@pytest.mark.parametrize(
    "text",
    [
        BANNER + "3 2 3\n1 1 1.0\n",
        "%%MatrixMarket matrix array real general\n3 2\n1.0\n2.0\n",
        "3 2 2\n1 1 1.0\n2 2 1.0\n",
        "",
    ],
    ids=["truncated-coordinate", "truncated-array", "no-banner", "empty"],
)
def test_malformed_mtx_is_an_input_error(tmp_path, text):
    mtx = tmp_path / "bad.mtx"
    mtx.write_text(text)
    res = CliRunner().invoke(main, ["matrix-id", str(mtx), "--rank", "1"])
    assert res.exit_code == EXIT_ARGUMENT == 2
    assert res.output.startswith("error: ")


@pytest.mark.parametrize(
    "method, exit_code, message",
    [
        ("deterministic", 0, '"rows": 1'),
        ("countsketch", EXIT_ARGUMENT,
         "error: sketch dimension 11 must be < 1 input rows"),
    ],
)
def test_single_row_matrix(tmp_path, method, exit_code, message):
    mtx = tmp_path / "row.mtx"
    mtx.write_text(BANNER + "1 3 3\n1 1 1.0\n1 2 2.0\n1 3 3.0\n")
    res = CliRunner().invoke(
        main, ["matrix-id", str(mtx), "--rank", "1", "--method", method]
    )
    assert res.exit_code == exit_code, res.output
    assert message in res.output


@pytest.mark.parametrize("method", ["deterministic", "countsketch"])
def test_cli_nonfinite_matrix_is_an_input_error(tmp_path, method):
    # bad input, caught while the file is read: exit 2, not the numerical 3
    mtx = tmp_path / "nan.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 nan\n2 2 1.0\n"
    )
    res = CliRunner().invoke(
        main, ["matrix-id", str(mtx), "--rank", "1", "--method", method]
    )
    assert res.exit_code == EXIT_ARGUMENT == 2
    assert "error: a contains non-finite entries" in res.output


def test_cli_complex_matrix_is_an_input_error(tmp_path):
    # mmread returns complex128 for this file; the ID of its real part used
    # to be reported with exit 0
    vals = np.random.default_rng(3).standard_normal((2, 40, 6))
    mtx = tmp_path / "complex.mtx"
    mmwrite(mtx, sp.coo_array(vals[0] + 1j * vals[1]))
    assert mtx.read_text().startswith(
        "%%MatrixMarket matrix coordinate complex general"
    )
    res = CliRunner().invoke(main, ["matrix-id", str(mtx), "--rank", "2"])
    assert res.exit_code == EXIT_ARGUMENT == 2
    assert "error: a has complex entries" in res.output


def test_countsketch_id_rejects_complex_input():
    # it used to decompose the real part, with only a ComplexWarning
    a = sp.random_array((50, 8), density=0.5, rng=1, format="csc") * (1 + 1j)
    with pytest.raises(ValueError, match="a has complex entries"):
        countsketch_id(a, 2)


def test_cp_tensor_rejects_complex_weights():
    with pytest.raises(ValueError, match="weights have complex entries"):
        CpTensor(np.array([1.0, 2.0j, 3.0]), [np.eye(3), np.eye(3)])


COMPLEX_INPUT = np.random.default_rng(2).standard_normal((40, 6)) * (1 + 1j)
REAL_TENSOR = CpTensor(np.arange(1.0, 6.0), [np.eye(6, 5) + 0.1] * 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CountSketchOp(40, 8).apply(COMPLEX_INPUT), "sketch input has"),
        (lambda: CountSketchOp(40, 8).apply(sp.csc_array(COMPLEX_INPUT)),
         "sketch input has"),
        (lambda: SrftOp(40, 8).apply(COMPLEX_INPUT), "sketch input has"),
        (lambda: GaussianOp(40, 8).apply(COMPLEX_INPUT), "sketch input has"),
        (lambda: TensorSketchOp([40], 8).apply([COMPLEX_INPUT]), "sketch input has"),
        (lambda: KrGaussianOp([40], 8).apply([COMPLEX_INPUT.real], np.ones(6) * 1j),
         "weights have"),
        (lambda: TensorSketchOp([40], 8).apply([COMPLEX_INPUT.real], np.ones(6) * 1j),
         "weights have"),
    ],
    ids=["countsketch", "countsketch-sparse", "srft", "gaussian", "tensorsketch",
         "kr-gaussian-weights", "tensorsketch-weights"],
)
def test_complex_sketch_input_is_rejected(call, message):
    # each used to sketch or decompose the real part, with at most a
    # ComplexWarning; the Gaussian sketch returned complex128 and the sparse
    # CountSketch failed in bincount with a TypeError
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{message} complex entries; input must be real"


# one call per argument rule that no other test reaches
ARGUMENT_RULES = [
    (lambda: ExperimentConfig(
        kind="matrix", sizes=[], terms=10, rank=2, sketch_dim=4, density=0.5,
        methods=["countsketch"]), "sizes must be nonempty"),
    (lambda: CpTensor([], []), "need at least one factor matrix"),
    (lambda: CpTensor([1.0, 2.0], [np.ones((3, 1))]),
     "weights must have length 1, got (2,)"),
    (lambda: CpTensor([np.inf], [np.ones((3, 1))]), "weights must be finite"),
    (lambda: decompose(REAL_TENSOR, "bogus", 2), "unknown tensor method 'bogus'"),
    # the rank was checked first: "rank must be in [1, 10], got 0"
    (lambda: matrix_decompose(np.ones((50, 10)), "bogus", 0),
     "unknown matrix method 'bogus'"),
    (lambda: gen_synthetic_tensor(3, 10, 4, 2, 0.0),
     "density must be in (0, 1], got 0.0"),
    (lambda: cpqr(sp.eye_array(3, format="csc"), 1),
     "a must be dense; densify sparse input explicitly"),
    (lambda: as_dense(np.ones(3)), "a must be 2-D, got ndim=1"),
    (lambda: matrix_sketch(np.ones((20, 4)), "bogus", 5),
     "unknown sketch method 'bogus'"),
    (lambda: TensorSketchOp([3, 3], 2).apply([np.ones((3, 1))]),
     "expected 2 factors, got 1"),
    (lambda: KrGaussianOp([3], 2).apply([np.ones((3, 2))], [1.0]),
     "weights must have length 2, got (1,)"),
    (lambda: CountSketchOp(3, 2).apply(np.ones(3)), "sketch input must be 2-D"),
    (lambda: CountSketchOp(0, 2), "dimensions must be positive"),
    (lambda: SrftOp(4, 0), "dimensions must be positive"),
    # the sketches returned a NaN column for a NaN weight
    pytest.param(
        lambda: KrGaussianOp([3], 2).apply([np.ones((3, 2))], [np.nan, 1.0]),
        "weights must be finite", id="kr-gaussian-nan-weight"),
    pytest.param(
        lambda: TensorSketchOp([3], 2).apply([np.ones((3, 2))], [np.nan, 1.0]),
        "weights must be finite", id="tensorsketch-nan-weight"),
]


@pytest.mark.parametrize("call, message", ARGUMENT_RULES)
def test_argument_rule_is_a_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_cli_error_estimate_beyond_float64_range_exits_3(tmp_path):
    # finite input too close to the float64 limit for the estimator's
    # iterates: a numerical failure (exit 3), where the estimate read 0.0
    a = np.random.default_rng(0).standard_normal((60, 12)) * 1e307
    mtx = tmp_path / "huge.mtx"
    write_matrix_market(str(mtx), sp.csc_array(a))
    with np.errstate(over="ignore", invalid="ignore"):
        res = CliRunner().invoke(
            main, ["matrix-id", str(mtx), "--rank", "4", "--method", "deterministic"]
        )
    assert res.exit_code == EXIT_NUMERICAL == 3
    assert "numerical failure" in res.output


@pytest.mark.parametrize(
    "meta",
    [
        {"rank": 2, "mode_dims": [3, 4]},
        {"n_modes": 2, "mode_dims": [3, 4]},
        {"n_modes": 2, "rank": 2},
        {"n_modes": "2", "rank": 2, "mode_dims": [3, 4]},
        {"n_modes": 2.5, "rank": 2, "mode_dims": [3, 4]},
        [2, 2, [3, 4]],
    ],
    ids=["no-n_modes", "no-rank", "no-mode_dims", "str-n_modes", "float-n_modes", "list"],
)
def test_malformed_cp_meta_is_an_input_error(tmp_path, meta):
    rng = np.random.default_rng(0)
    save_cp_dir(tmp_path, CpTensor([1.0, 2.0], [rng.random((3, 2)), rng.random((4, 2))]))
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="meta.json"):
        load_cp_dir(tmp_path)
    res = CliRunner().invoke(main, ["tensor-id", str(tmp_path), "--rank", "1"])
    assert res.exit_code == EXIT_ARGUMENT == 2
    assert "error: " in res.output


def overflowing_tensor(scale=1e160):
    # finite weights whose squares overflow in the weighted Gram of the gram method
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((8, 10)) for _ in range(3)]
    return CpTensor((rng.random(10) + 0.5) * scale, factors)


@pytest.mark.parametrize("method", ["tensorsketch", "gaussian"])
def test_nonfinite_tensor_error_is_a_numerical_failure(tmp_path, monkeypatch, method):
    # the reduction succeeds but its error is NaN: exit 3 with no report,
    # where the CLI exited 0 and wrote "error_estimate": NaN
    monkeypatch.setattr("idsketch.bench.cp_diff_norm", lambda x, y: float("nan"))
    x = CpTensor([1.0, 2.0, 3.0], [np.eye(4, 3)] * 3)
    save_cp_dir(tmp_path, x)
    res = CliRunner().invoke(
        main, ["tensor-id", str(tmp_path), "--rank", "2", "--method", method]
    )
    assert res.exit_code == EXIT_NUMERICAL == 3, res.output
    assert "numerical failure: non-finite error" in res.output
    assert "NaN" not in res.output
    with pytest.raises(FloatingPointError, match="non-finite error"):
        run_tensor_trial(x, method, 2, 3, seed=0)


def test_singular_triangle_is_a_numerical_failure(tmp_path, monkeypatch):
    # the CLI catches SingularTriangleError as the LinAlgError it subclasses
    # `idsketch.matrix_id` names the function, so patch the module itself
    module = importlib.import_module("idsketch.matrix_id")
    monkeypatch.setattr(
        module, "triangular_solve", lambda r, b: triangular_solve(np.zeros_like(r), b)
    )
    mtx = tmp_path / "a.mtx"
    write_matrix_market(mtx, np.random.default_rng(3).standard_normal((30, 8)))
    res = CliRunner().invoke(main, ["matrix-id", str(mtx), "--rank", "2"])
    assert res.exit_code == EXIT_NUMERICAL == 3, res.output
    assert "numerical failure: zero diagonal entry at index 0" in res.output


@pytest.mark.parametrize("method", ["tensorsketch", "gaussian"])
def test_overflowing_weights_give_a_finite_error(tmp_path, method):
    # the squared weights overflow in the error's Gram: the error is
    # computed on power-of-two scaled weights, where it exited 3
    save_cp_dir(tmp_path, overflowing_tensor())
    res = CliRunner().invoke(
        main, ["tensor-id", str(tmp_path), "--rank", "3", "--method", method]
    )
    assert res.exit_code == 0, res.output
    error = json.loads(res.output)["error_estimate"]
    assert 0.0 < error <= cp_norm(overflowing_tensor())


@pytest.mark.parametrize("method", ["deterministic", "gaussian", "srft", "countsketch"])
def test_overflowing_matrix_is_a_numerical_failure(tmp_path, method):
    # finite input whose sketch (or, for deterministic, pivoted QR) overflows:
    # exit 3, where it exited 2 as if the input held non-finite entries
    signs = np.where(np.random.default_rng(0).random((50, 8)) < 0.5, -1.0, 1.0)
    mtx = tmp_path / "huge.mtx"
    write_matrix_market(str(mtx), sp.csc_array(signs * 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"):
        res = CliRunner().invoke(
            main, ["matrix-id", str(mtx), "--rank", "3", "--method", method]
        )
    assert res.exit_code == EXIT_NUMERICAL == 3, res.output
    assert res.output.startswith("numerical failure: ")


def test_overflowing_gram_is_a_numerical_failure(tmp_path):
    # the weighted Gram of finite weights x1e160 overflowed and the CLI
    # exited 3; the Gram of power-of-two scaled weights picks the columns
    # of the unscaled tensor, with its error times 1e160
    save_cp_dir(tmp_path, overflowing_tensor())
    res = CliRunner().invoke(
        main, ["tensor-id", str(tmp_path), "--rank", "3", "--method", "gram"]
    )
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    base, base_error = run_tensor_trial(overflowing_tensor(1.0), "gram", 3, None, 0)
    assert report["id"]["j"] == base.cols.tolist() == [9, 8, 7]
    assert abs(report["error_estimate"] / 1e160 - base_error) <= 1e-12 * base_error


def test_overflowing_gram_direct_call_is_a_numerical_failure():
    # gram_tensor_id and decompose raised FloatingPointError ("the sketch
    # overflowed"); both now reduce the tensor as they do the unscaled one
    x, base = overflowing_tensor(), overflowing_tensor(1.0)
    expected = gram_tensor_id(base, 3)
    base_error = cp_diff_norm(base, expected)
    for result in (gram_tensor_id(x, 3), decompose(x, "gram", 3)):
        assert result.cols.tolist() == expected.cols.tolist() == [9, 8, 7]
        error = cp_diff_norm(x, result)
        assert abs(error / 1e160 - base_error) <= 1e-12 * base_error


def overflowing_norms_dir(path):
    # unit factor columns and finite weights 1.5e308; factor_1 scaled by 4
    # folds column norms 4 into the weights, beyond the float64 range
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((6, 10)) for _ in range(3)]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    save_cp_dir(path, CpTensor(np.full(10, 1.5e308), factors))
    factor = path / "factor_1.mtx"
    write_matrix_market(factor, 4.0 * read_matrix_market(factor))
    return path


def test_weights_overflowing_on_load_are_a_numerical_failure(tmp_path):
    # load_cp_dir returned weights [inf, ...] with only a RuntimeWarning
    with pytest.raises(FloatingPointError, match="weights"):
        load_cp_dir(overflowing_norms_dir(tmp_path))


@pytest.mark.parametrize("method", ["tensorsketch", "gram"])
def test_cli_weights_overflowing_on_load_exit_3(tmp_path, method):
    # the CLI exited 3 blaming the sketch: "the sketch overflowed"
    res = CliRunner().invoke(
        main, ["tensor-id", str(overflowing_norms_dir(tmp_path)), "--rank", "3",
               "--method", method],
    )
    assert res.exit_code == EXIT_NUMERICAL == 3, res.output
    assert res.output.startswith("numerical failure: weights")


def huge_signs():
    # finite entries of magnitude 1.5e308: any sum of two overflows
    signs = np.where(np.random.default_rng(0).random((50, 8)) < 0.5, -1.0, 1.0)
    return sp.csc_array(signs * 1.5e308)


def nan_error_trial(monkeypatch):
    monkeypatch.setattr("idsketch.bench.cp_diff_norm", lambda x, y: float("nan"))
    run_tensor_trial(CpTensor([1.0, 2.0, 3.0], [np.eye(4, 3)] * 3), "tensorsketch",
                     2, 3, seed=0)


NUMERICAL_FAILURES = [
    pytest.param(lambda mp: matrix_decompose(huge_signs(), "deterministic", 3),
                 "pivoted QR overflowed: R has non-finite entries", id="cpqr"),
    pytest.param(lambda mp: matrix_decompose(huge_signs(), "countsketch", 3),
                 "the sketch overflowed: it has non-finite entries", id="sketch"),
    pytest.param(lambda mp: CpTensor([1.5e308] * 2, [np.ones((3, 2))] * 3),
                 "weights overflow once the factor column norms are folded in",
                 id="cp-weights"),
    # the column's squares overflow, and its norm once scaled back
    pytest.param(lambda mp: CpTensor([1.0], [sp.csc_array(np.full((4, 1), 1.5e308))]),
                 "weights overflow once the factor column norms are folded in",
                 id="cp-column-norm"),
    pytest.param(nan_error_trial, "non-finite error nan", id="trial-error"),
]


@pytest.mark.parametrize("call, message", NUMERICAL_FAILURES)
def test_numerical_failure_messages(monkeypatch, call, message):
    # a non-finite value computed from finite input: each site's own
    # FloatingPointError, byte for byte
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            call(monkeypatch)
    assert str(exc.value) == message


SKETCH_CALLS = [
    pytest.param(lambda a: CountSketchOp(50, 8).apply(a), id="countsketch"),
    pytest.param(lambda a: SrftOp(50, 8).apply(a), id="srft"),
    pytest.param(lambda a: KrGaussianOp([50], 8).apply([a]), id="kr-gaussian"),
    pytest.param(lambda a: TensorSketchOp([50], 8).apply([a]), id="tensorsketch"),
]


@pytest.mark.parametrize("container", [np.asarray, sp.csc_array], ids=["dense", "sparse"])
@pytest.mark.parametrize("call", SKETCH_CALLS)
@pytest.mark.parametrize(
    "entry, error, message",
    [
        (np.nan, ValueError, "sketch input has non-finite entries"),
        (np.inf, ValueError, "sketch input has non-finite entries"),
        (None, FloatingPointError, "the sketch overflowed: it has non-finite entries"),
    ],
    ids=["nan", "inf", "overflow"],
)
def test_sketch_checks_its_output(container, call, entry, error, message):
    # a non-finite input entry gave a NaN column with no error; finite input
    # whose sketch overflows stays a numerical failure
    a = huge_signs().toarray()
    if entry is not None:
        a[7, 2] = entry
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(error) as exc:
            call(container(a))
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "config",
    [
        {**BENCH_CONFIG, "trails": 2},
        {k: v for k, v in BENCH_CONFIG.items() if k != "density"},
        list(BENCH_CONFIG.values()),
        # mistyped fields raised TypeError out of run_experiment (exit 1)
        {**BENCH_CONFIG, "sizes": 2000},
        {**BENCH_CONFIG, "sizes": [300.0]},
        {**BENCH_CONFIG, "trials": 1.5},
        {**BENCH_CONFIG, "kind": "tensor", "methods": ["gram"], "n_modes": "3"},
        # a bare string was read as methods 'c', 'o', ...: "unknown matrix
        # method 'c'", a ValueError that did not name the config
        {**BENCH_CONFIG, "methods": "countsketch"},
    ],
    ids=["unknown-key", "missing-key", "list", "int-sizes", "float-size",
         "float-trials", "str-n-modes", "str-methods"],
)
def test_malformed_bench_config_is_an_input_error(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match="cfg.json"):
        ExperimentConfig.from_json(path)
    kind = config["kind"] if isinstance(config, dict) else "matrix"
    res = CliRunner().invoke(main, ["bench", kind, "--config", str(path)])
    assert res.exit_code == EXIT_ARGUMENT == 2, res.output
    assert res.output.startswith("error: config ")


def test_report_with_nan_is_not_written():
    with pytest.raises(ValueError):
        _emit({"error_estimate": float("nan")}, None)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_report_with_non_finite_coefficient_is_not_written(tmp_path, monkeypatch, value):
    # json's allow_nan=False error, which the CLI maps to exit 2 (not 3)
    def trial(*args):
        result, err = run_matrix_trial(*args)
        result.coeffs[-1, 1] = value
        return result, err

    monkeypatch.setattr("idsketch.cli.run_matrix_trial", trial)
    mtx, out = tmp_path / "m.mtx", tmp_path / "id.json"
    write_matrix_market(mtx, gen_synthetic_matrix(200, 30, 5, 0.1, seed=0))
    for extra in ([], ["--out", str(out)]):
        res = CliRunner().invoke(main, ["matrix-id", str(mtx), "--rank", "5", *extra])
        assert res.exit_code == EXIT_ARGUMENT == 2
        assert res.output == (
            f"error: Out of range float values are not JSON compliant: {value!r}\n")
    assert not out.exists()


def unsorted_csc_with_zeros(dtype):
    """300 x 40 CSC of 2400 entries: 60 distinct rows per column in random
    order, every fifth value an explicit zero."""
    rng = np.random.default_rng(8)
    rows = np.concatenate([rng.permutation(300)[:60] for _ in range(40)])
    values = (rng.standard_normal(2400) * 100).astype(dtype)
    values[::5] = 0
    return sp.csc_array((values, rows, np.arange(0, 2401, 60)), shape=(300, 40))


def snapshot(a):
    return a.nnz, a.indices.copy(), a.indptr.copy(), a.data.copy()


def assert_unchanged(a, before):
    nnz, indices, indptr, data = before
    assert a.nnz == nnz
    assert np.array_equal(a.indices, indices)
    assert np.array_equal(a.indptr, indptr)
    assert np.array_equal(a.data, data)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_countsketch_id_leaves_the_callers_matrix_unchanged(dtype):
    a = unsorted_csc_with_zeros(dtype)
    before = snapshot(a)
    assert before[0] == 2400 and not a.has_sorted_indices
    d = countsketch_id(a, 5, seed=1)
    assert_unchanged(a, before)
    # the ID is that of the canonical matrix
    canonical = sp.csc_array(a.toarray())
    assert np.array_equal(d.cols, countsketch_id(canonical, 5, seed=1).cols)


@pytest.mark.parametrize("method", MATRIX_METHODS)
def test_matrix_ids_leave_the_callers_matrix_unchanged(method):
    a = unsorted_csc_with_zeros(np.float64)
    before = snapshot(a)
    matrix_decompose(a, method, 5, seed=1)
    assert_unchanged(a, before)


def test_cp_tensor_leaves_the_callers_factors_unchanged():
    factors = [unsorted_csc_with_zeros(np.float64), unsorted_csc_with_zeros(np.int64)]
    before = [snapshot(f) for f in factors]
    x = CpTensor(np.ones(40), factors)
    for method in ("tensorsketch", "gaussian", "gram"):
        decompose(x, method, 5, seed=1)
    for f, b in zip(factors, before):
        assert_unchanged(f, b)
