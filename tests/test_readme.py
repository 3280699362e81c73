"""The README's CLI block runs as written.

The `bench` line of that block, the bench config example and the Python
quick tour are not run here yet.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from idsketch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_lines():
    """The `idsketch ...` lines of the README's fenced block that runs `gen`."""
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README.read_text(), re.M | re.S)
    (block,) = [text for text in blocks if "idsketch gen " in text]
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
