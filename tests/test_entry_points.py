"""The library functions, the bench trials and the CLI run one decomposition
path per data kind: at fixed seeds they select the same columns with equal
coefficients and report the same error."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import idsketch
from idsketch import (
    countsketch_id,
    gaussian_id,
    gaussian_tensor_id,
    gen_synthetic_matrix,
    gen_synthetic_tensor,
    gram_tensor_id,
    load_cp_dir,
    matrix_id,
    read_matrix_market,
    save_cp_dir,
    srft_id,
    tensorsketch_id,
    write_matrix_market,
)
from idsketch.bench import run_matrix_trial, run_tensor_trial
from idsketch.cli import main

RANK = 6
OVERSAMPLE = 4
SEED = 13

MATRIX_LIBRARY = {
    "deterministic": lambda a: matrix_id(a.toarray(), RANK),
    "countsketch": lambda a: countsketch_id(a, RANK, RANK + OVERSAMPLE, seed=SEED),
    "gaussian": lambda a: gaussian_id(a, RANK, RANK + OVERSAMPLE, seed=SEED),
    "srft": lambda a: srft_id(a, RANK, RANK + OVERSAMPLE, seed=SEED),
}

TENSOR_LIBRARY = {
    "gram": lambda x: gram_tensor_id(x, RANK),
    "tensorsketch": lambda x: tensorsketch_id(x, RANK, RANK + OVERSAMPLE, seed=SEED),
    "gaussian": lambda x: gaussian_tensor_id(x, RANK, RANK + OVERSAMPLE, seed=SEED),
}

TENSOR_ID_KEYS = [
    "method", "k", "j", "p", "new_svalues", "numerical_rank", "rank_deficient",
]


def cli_payload(*args):
    res = CliRunner().invoke(
        main,
        [*args, "--rank", str(RANK), "--oversample", str(OVERSAMPLE),
         "--seed", str(SEED)],
    )
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def assert_same_id(payload_id, cols, coeffs):
    assert payload_id["j"] == [int(c) for c in cols]
    assert np.array_equal(np.array(payload_id["p"]), coeffs)


@pytest.fixture(scope="module")
def mtx_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "a.mtx"
    write_matrix_market(path, gen_synthetic_matrix(200, 40, 8, 0.1, seed=2))
    return path


@pytest.fixture(scope="module")
def cp_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("tensor") / "cp"
    save_cp_dir(path, gen_synthetic_tensor(3, 12, 24, 6, 0.3, seed=4))
    return path


@pytest.mark.parametrize("method", sorted(MATRIX_LIBRARY))
def test_matrix_entry_points_agree(mtx_path, method):
    a = read_matrix_market(mtx_path)
    lib = MATRIX_LIBRARY[method](a)
    trial, err = run_matrix_trial(a, method, RANK, RANK + OVERSAMPLE, SEED)
    payload = cli_payload("matrix-id", str(mtx_path), "--method", method)
    assert np.array_equal(trial.cols, lib.cols)
    assert np.array_equal(trial.coeffs, lib.coeffs)
    assert trial.method == lib.method == payload["id"]["method"] == method
    assert_same_id(payload["id"], lib.cols, lib.coeffs)
    assert payload["error_estimate"] == err


@pytest.mark.parametrize("method", sorted(TENSOR_LIBRARY))
def test_tensor_entry_points_agree(cp_path, method):
    x = load_cp_dir(cp_path)
    lib = TENSOR_LIBRARY[method](x)
    trial, err = run_tensor_trial(x, method, RANK, RANK + OVERSAMPLE, SEED)
    payload = cli_payload("tensor-id", str(cp_path), "--method", method)
    assert np.array_equal(trial.cols, lib.cols)
    assert np.array_equal(trial.coeffs, lib.coeffs)
    assert np.array_equal(trial.new_weights, lib.new_weights)
    assert trial.method == lib.method == payload["id"]["method"] == method
    assert_same_id(payload["id"], lib.cols, lib.coeffs)
    assert payload["id"]["new_svalues"] == lib.new_weights.tolist()
    assert payload["error_estimate"] == err


def test_tensor_id_keys(cp_path):
    payload = cli_payload("tensor-id", str(cp_path))
    assert list(payload["id"]) == TENSOR_ID_KEYS
    assert payload["id"]["k"] == RANK


def test_every_public_name_resolves():
    missing = [name for name in idsketch.__all__ if not hasattr(idsketch, name)]
    assert missing == []


PUBLIC_NAMES = [
    "CountSketchOp", "CpTensor", "ExperimentConfig", "GaussianOp", "IdReport",
    "InterpolativeDecomposition", "KrGaussianOp", "NormEstimate",
    "SingularTriangleError", "SrftOp", "TensorIdResult", "TensorSketchOp",
    "countsketch_id", "cp_diff_norm", "cp_norm", "cpqr", "est_spectral_norm",
    "gaussian_id", "gaussian_tensor_id", "gen_synthetic_matrix",
    "gen_synthetic_tensor", "gram_hadamard", "gram_tensor_id",
    "id_residual_operator", "load_cp_dir", "matrix_id", "matrix_sketch",
    "read_matrix_market", "run_experiment", "save_cp_dir", "srft_id",
    "tensor_id_from_sketch", "tensorsketch_id", "triangular_solve", "write_csv",
    "write_matrix_market",
]


def test_public_surface_is_pinned():
    # adding or removing a public name is a deliberate change to this list
    assert sorted(idsketch.__all__) == PUBLIC_NAMES
