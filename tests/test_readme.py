"""The README's Python quick tour and CLI block run as written.

The `bench` line of the CLI block and the bench config example are not
run here yet.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from idsketch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks():
    """(language, text) of every fenced block of the README."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_quick_tour_runs():
    (tour,) = [text for lang, text in fenced_blocks() if lang == "python"]
    names = {}
    exec(compile(tour, str(README), "exec"), names)
    assert names["approx"].shape == (20_000, 500)
    assert names["rel_err"] < 1e-4


def cli_lines():
    """The `idsketch ...` lines of the README's fenced block that runs `gen`."""
    (block,) = [text for _, text in fenced_blocks() if "idsketch gen " in text]
    return [line for line in block.splitlines() if line.startswith("idsketch ")]


def test_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = cli_lines()
    run = [line for line in lines if not line.startswith("idsketch bench ")]
    assert [shlex.split(line)[1] for line in run] == ["gen", "gen", "matrix-id", "tensor-id"]
    assert len(run) == len(lines) - 1
    for line in run:
        res = CliRunner().invoke(main, shlex.split(line)[1:])
        assert res.exit_code == 0, (line, res.output)

    for name, cols in [("id.json", 500), ("tid.json", 200)]:
        report = json.loads((tmp_path / name).read_text())
        ident = report["id"]
        k = report["rank"]
        assert ident["k"] == k and len(ident["j"]) == k
        p = np.array(ident["p"])
        assert p.shape == (k, cols)
        # 0-based indices: the identity block of P sits at columns j
        np.testing.assert_array_equal(p[:, ident["j"]], np.eye(k))
        assert 0 <= report["error_estimate"] < 1
