import json

import numpy as np
import pytest
from click.testing import CliRunner

from idsketch import cli, cp_tensor
from idsketch.bench import run_matrix_trial
from idsketch.cli import _emit, main
from idsketch.cp_tensor import TENSOR_METHODS
from idsketch.generators import gen_synthetic_matrix
from idsketch.matrix_id import MATRIX_METHODS
from idsketch.mmio import read_matrix_market, write_matrix_market


def invoke(*args):
    return CliRunner().invoke(main, list(args))


class TestGen:
    def test_matrix(self, tmp_path):
        out = tmp_path / "m.mtx"
        res = invoke(
            "gen", "matrix", "--rows", "300", "--cols", "80", "--rank", "10",
            "--density", "0.03", "--seed", "1", "--out", str(out),
        )
        assert res.exit_code == 0, res.output
        a = read_matrix_market(out)
        assert a.shape == (300, 80)

    def test_tensor(self, tmp_path):
        out = tmp_path / "cp"
        res = invoke(
            "gen", "tensor", "--modes", "3", "--rows", "40", "--cols", "20",
            "--rank", "5", "--density", "0.1", "--seed", "1", "--out", str(out),
        )
        assert res.exit_code == 0, res.output
        assert (out / "meta.json").exists()
        assert (out / "svalues.txt").exists()
        assert (out / "factor_3.mtx").exists()

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_matrix_rank_below_one_exit_code(self, tmp_path, rank):
        # rank 0 exited 1 with a ZeroDivisionError; rank -3 exited 2 with
        # "cannot convert float NaN to integer"
        out = tmp_path / "x.mtx"
        res = invoke("gen", "matrix", "--rank", rank, "--out", str(out))
        assert res.exit_code == 2
        assert res.output == f"error: rank must be >= 1, got {rank}\n"
        assert not out.exists()


class TestMatrixId:
    def test_end_to_end(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        invoke("gen", "matrix", "--rows", "300", "--cols", "80", "--rank", "10",
               "--density", "0.03", "--seed", "1", "--out", str(mtx))
        out = tmp_path / "id.json"
        res = invoke("matrix-id", str(mtx), "--rank", "10",
                     "--method", "countsketch", "--seed", "5", "--out", str(out))
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert payload["id"]["k"] == 10
        assert len(payload["id"]["j"]) == 10
        assert len(payload["id"]["p"]) == 10 and len(payload["id"]["p"][0]) == 80
        assert payload["error_estimate"] < 1e-4
        # selected columns are 0-based on disk
        assert all(0 <= j < 80 for j in payload["id"]["j"])

    def test_dense_array_input(self, tmp_path):
        mtx = tmp_path / "dense.mtx"
        rng = np.random.default_rng(0)
        write_matrix_market(mtx, rng.standard_normal((40, 12)))
        res = invoke("matrix-id", str(mtx), "--rank", "12", "--method", "deterministic")
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["error_estimate"] <= 1e-9

    def test_tiny_input_exit_code(self, tmp_path):
        # NaN coefficients from a subnormal floor in the solve made this exit 3
        rng2, rng3 = np.random.default_rng(2), np.random.default_rng(3)
        a = rng2.standard_normal((60, 3)) @ rng3.standard_normal((3, 15))
        mtx = tmp_path / "tiny.mtx"
        write_matrix_market(mtx, a * 2.0**-990)
        res = invoke("matrix-id", str(mtx), "--rank", "6")
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)["id"]
        assert payload["numerical_rank"] == 3 and payload["rank_deficient"]

    def test_subnormal_input_exit_code(self, tmp_path):
        # every entry below 2.2e-308 used to fail the adjoint test: exit 2
        mtx = tmp_path / "subnormal.mtx"
        a = gen_synthetic_matrix(300, 40, 8, 0.1, seed=0) * 2.0**-1060
        write_matrix_market(mtx, a)
        res = invoke("matrix-id", str(mtx), "--rank", "8")
        assert res.exit_code == 3, res.output
        assert "subnormal" in res.output

    def test_argument_error_exit_code(self, tmp_path):
        mtx = tmp_path / "m.mtx"
        invoke("gen", "matrix", "--rows", "100", "--cols", "40", "--rank", "5",
               "--density", "0.1", "--seed", "0", "--out", str(mtx))
        res = invoke("matrix-id", str(mtx), "--rank", "0")
        assert res.exit_code == 2
        res = invoke("matrix-id", str(mtx), "--rank", "5", "--method", "bogus")
        assert res.exit_code == 2
        res = invoke("matrix-id", str(tmp_path / "none.mtx"), "--rank", "5")
        assert res.exit_code == 2

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch):
        # numpy's MemoryError, as from densifying a 2,000,000 x 1,000,000
        # file for the deterministic method, exited 1 with a traceback; the
        # trial is replaced, as whether a 16 TB request fails at once
        # depends on the host
        message = ("Unable to allocate 14.6 TiB for an array with shape "
                   "(2000000, 1000000) and data type float64")

        def trial(*args):
            raise MemoryError(message)

        monkeypatch.setattr("idsketch.cli.run_matrix_trial", trial)
        mtx = tmp_path / "m.mtx"
        write_matrix_market(mtx, gen_synthetic_matrix(100, 40, 5, 0.1, seed=0))
        res = invoke("matrix-id", str(mtx), "--rank", "1", "--method", "deterministic")
        assert res.exit_code == 2
        assert res.output == f"error: {message}\n"


class TestTensorId:
    def test_end_to_end(self, tmp_path):
        cp = tmp_path / "cp"
        invoke("gen", "tensor", "--modes", "3", "--rows", "40", "--cols", "20",
               "--rank", "5", "--density", "0.1", "--seed", "1", "--out", str(cp))
        out = tmp_path / "id.json"
        res = invoke("tensor-id", str(cp), "--rank", "5",
                     "--method", "tensorsketch", "--seed", "2", "--out", str(out))
        assert res.exit_code == 0, res.output
        payload = json.loads(out.read_text())
        assert len(payload["id"]["j"]) == 5
        assert len(payload["id"]["new_svalues"]) == 5
        assert payload["error_norm_kind"] == "frobenius-exact"

    def test_gram_method_computes_one_term_gram(self, tmp_path, monkeypatch):
        # the error reuses the Gram that the gram method's sketch computed
        cp = tmp_path / "cp"
        invoke("gen", "tensor", "--modes", "3", "--rows", "40", "--cols", "20",
               "--rank", "5", "--density", "0.1", "--seed", "1", "--out", str(cp))
        calls = []
        original = cp_tensor._term_gram
        monkeypatch.setattr(
            cp_tensor, "_term_gram", lambda f, g: calls.append(1) or original(f, g)
        )
        res = invoke("tensor-id", str(cp), "--rank", "5", "--method", "gram")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["error_norm_kind"] == "frobenius-exact"
        assert len(calls) == 1

    def test_rank_too_large_exit_code(self, tmp_path):
        cp = tmp_path / "cp"
        invoke("gen", "tensor", "--modes", "3", "--rows", "40", "--cols", "20",
               "--rank", "5", "--density", "0.1", "--seed", "1", "--out", str(cp))
        res = invoke("tensor-id", str(cp), "--rank", "21")
        assert res.exit_code == 2


class TestBench:
    def test_end_to_end(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "matrix", "sizes": [300], "terms": 60, "rank": 8,
            "sketch_dim": 18, "density": 0.05,
            "methods": ["countsketch", "gaussian"], "trials": 2, "seed": 1,
        }))
        out = tmp_path / "results.csv"
        res = invoke("bench", "matrix", "--config", str(cfg), "--out", str(out))
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 + 2  # header + trials + summaries

    def test_kind_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "matrix", "sizes": [300], "terms": 60, "rank": 8,
            "sketch_dim": 18, "density": 0.05,
            "methods": ["countsketch"], "trials": 1, "seed": 1,
        }))
        res = invoke("bench", "tensor", "--config", str(cfg))
        assert res.exit_code == 2

    def test_rank_zero_exit_code(self, tmp_path):
        # the generator divided by zero: exit 1 with a ZeroDivisionError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "matrix", "sizes": [300], "terms": 60, "rank": 0,
            "sketch_dim": 18, "density": 0.05,
            "methods": ["countsketch"], "trials": 1, "seed": 1,
        }))
        res = invoke("bench", "matrix", "--config", str(cfg))
        assert res.exit_code == 2
        assert res.output == "error: rank must be >= 1, got 0\n"


def test_id_commands_share_documented_options():
    # both commands list the same options, each with help text
    listed = {}
    for command in ("matrix-id", "tensor-id"):
        res = invoke(command, "--help")
        assert res.exit_code == 0, res.output
        options = main.commands[command].params[1:]
        assert all(p.help for p in options), command
        listed[command] = [p.opts for p in options]
        for p in options:
            assert p.opts[0] in res.output
    assert listed["matrix-id"] == listed["tensor-id"]
    assert [o[0] for o in listed["matrix-id"]] == [
        "--rank", "--method", "--oversample", "--seed", "--out"]


def assert_report_text(text, payload):
    """`text` is json.dumps(payload, indent=2, allow_nan=False) plus a newline.
    A mismatch names its first offset: pytest's own diff of a megabyte-long
    report takes minutes."""
    want = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if text != want:
        i = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
                 min(len(text), len(want)))
        lo = max(i - 40, 0)
        raise AssertionError(f"report text differs at offset {i}: "
                             f"{text[lo:i + 40]!r} != {want[lo:i + 40]!r}")


@pytest.fixture
def emitted(monkeypatch):
    """The payloads the ID commands hand to `_emit`, in call order."""
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda p, out: payloads.append(p) or emit(p, out))
    return payloads


@pytest.fixture(scope="module")
def id_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    mtx, cp = root / "m.mtx", root / "cp"
    invoke("gen", "matrix", "--rows", "300", "--cols", "80", "--rank", "10",
           "--density", "0.03", "--seed", "1", "--out", str(mtx))
    invoke("gen", "tensor", "--modes", "3", "--rows", "40", "--cols", "20",
           "--rank", "5", "--density", "0.1", "--seed", "1", "--out", str(cp))
    return {"matrix-id": str(mtx), "tensor-id": str(cp)}


@pytest.mark.parametrize(
    "command, method",
    [("matrix-id", m) for m in MATRIX_METHODS] + [("tensor-id", m) for m in TENSOR_METHODS],
)
def test_report_times(id_inputs, command, method):
    # the reports dropped the sketch time that every trial computes
    res = invoke(command, id_inputs[command], "--rank", "5", "--method", method)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert list(report)[-3:] == ["sketch_time_seconds", "wall_time_seconds", "id"]
    sketch, wall = report["sketch_time_seconds"], report["wall_time_seconds"]
    assert 0.0 <= sketch <= wall
    if method == "deterministic":
        assert sketch == 0.0
    if method == "gram":  # the term Gram
        assert sketch > 0.0


class TestReportText:
    """`_emit` writes json.dumps(payload, indent=2, allow_nan=False) byte for
    byte, though it renders id.p itself."""

    @pytest.mark.parametrize(
        "command, method",
        [("matrix-id", m) for m in MATRIX_METHODS] + [("tensor-id", m) for m in TENSOR_METHODS],
    )
    @pytest.mark.parametrize("rank", [1, 5])
    def test_every_method_stdout_and_out(self, tmp_path, id_inputs, emitted,
                                         command, method, rank):
        args = [command, id_inputs[command], "--rank", str(rank), "--method", method]
        res = invoke(*args)
        assert res.exit_code == 0, res.output
        assert len(emitted[0]["id"]["p"]) == rank
        assert_report_text(res.stdout, emitted[0])
        out = tmp_path / "id.json"
        res = invoke(*args, "--out", str(out))
        assert res.exit_code == 0, res.output
        assert_report_text(out.read_text(), emitted[1])
        assert res.stdout == ""

    def test_cli_files_shape(self, tmp_path, emitted):
        # the 32000 x 500 rank-100 report of the cli-files benchmark workload
        mtx, out = tmp_path / "a.mtx", tmp_path / "id.json"
        write_matrix_market(mtx, gen_synthetic_matrix(32_000, 500, 100, 0.005, seed=0))
        res = invoke("matrix-id", str(mtx), "--rank", "100", "--out", str(out))
        assert res.exit_code == 0, res.output
        assert np.shape(emitted[0]["id"]["p"]) == (100, 500)
        assert_report_text(out.read_text(), emitted[0])

    def report(self, path="a.mtx", p=None):
        a = gen_synthetic_matrix(60, 12, 3, 0.2, seed=3)
        result, err = run_matrix_trial(a, "countsketch", 3, 8, 0)
        ident = result.to_dict()
        if p is not None:
            ident["p"] = p
        return {"input": path, "rows": 60, "cols": 12, "error_estimate": err,
                "sketch_time_seconds": result.sketch_time_seconds,
                "wall_time_seconds": result.wall_time_seconds, "id": ident}

    def test_float_formats(self, capsys):
        # where float repr switches between fixed and exponent form, and the
        # signed zero, the extremes and the subnormals
        p = [[-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 0.0001],
             [1e15, 9999999999999998.0, -2.2250738585072014e-308, 0.1, 1 / 3, -1e-300]]
        payload = self.report(p=p)
        _emit(payload, None)
        assert_report_text(capsys.readouterr().out, payload)

    @pytest.mark.parametrize("p", [[], [[]], [[1.0], []]], ids=["none", "empty", "empty-last"])
    def test_empty_lists(self, capsys, p):
        payload = self.report(p=p)
        _emit(payload, None)
        assert_report_text(capsys.readouterr().out, payload)

    @pytest.mark.parametrize("path", [
        'in "quotes".mtx',
        "back\\slash\\a.mtx",
        "caf\u00e9/\u6570\u636e/\U0001f600.mtx",
        "\\u0000p",             # the sentinel's escaped form, as typed text
        '"\\u0000p"',
        "\t\x7f\u2028.mtx",
    ])
    def test_input_path_text(self, tmp_path, path):
        payload = self.report(path)
        out = tmp_path / "id.json"
        _emit(payload, str(out))
        assert_report_text(out.read_text(), payload)
        assert json.loads(out.read_text())["input"] == path
