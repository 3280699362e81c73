"""The README's Python quick tour, CLI block and bench config run as written."""

import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from idsketch.bench import CSV_HEADER
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
        # the two times the README names, just before the ID
        assert list(report)[-3:] == ["sketch_time_seconds", "wall_time_seconds", "id"]
        assert 0.0 <= report["sketch_time_seconds"] <= report["wall_time_seconds"]


def test_bench_line_runs_the_config(tmp_path, monkeypatch):
    # criterion 5's sweep: 3 sizes x 3 methods x 10 trials, a few seconds
    monkeypatch.chdir(tmp_path)
    (config,) = [text for lang, text in fenced_blocks() if lang == "json"]
    (tmp_path / "cfg.json").write_text(config)
    (line,) = [line for line in cli_lines() if line.startswith("idsketch bench ")]
    res = CliRunner().invoke(main, shlex.split(line)[1:])
    assert res.exit_code == 0, res.output

    with open(tmp_path / "results.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == CSV_HEADER
    kinds = [row[header.index("row_kind")] for row in rows]
    assert kinds == ["trial"] * 90 + ["summary"] * 9
    assert {row[header.index("status")] for row in rows[90:]} == {"ok 10/10"}
