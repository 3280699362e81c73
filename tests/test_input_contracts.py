"""Malformed input is rejected where it enters, with the documented error."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

from idsketch.cli import EXIT_ARGUMENT, EXIT_NUMERICAL, main
from idsketch.cp_tensor import CpTensor, load_cp_dir, save_cp_dir
from idsketch.mmio import write_matrix_market
from idsketch.sketch import CountSketchOp


@pytest.mark.parametrize(
    "bucket, out_dim",
    [([0, 5, 1], 3), ([0, -1, 1], 3), ([-1, 0, 1], None)],
)
def test_countsketch_from_arrays_rejects_out_of_range_buckets(bucket, out_dim):
    with pytest.raises(ValueError, match="buckets must lie in"):
        CountSketchOp.from_arrays(bucket, [1.0, -1.0, 1.0], out_dim=out_dim)


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
