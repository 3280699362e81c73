"""`import idsketch` loads only what the pipeline runs.

The sketches use numpy's FFT, and `scipy.io` is imported by the first
Matrix Market read or write. `scipy.fft` with the `scipy.special` it
loads (70-90 ms under `python -X importtime`) and `scipy.io` (15-18 ms)
would take more than a 200k-row CountSketch ID with its error estimate.
The check runs in a fresh interpreter, since the test process has loaded
everything; it costs one child start, import and seven small IDs, 0.6-1 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from idsketch import write_matrix_market

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys

import click, dataclasses, json, numpy, scipy.linalg, scipy.sparse

before = set(sys.modules)
import idsketch, idsketch.cli
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "idsketch")
assert not added, f"import idsketch loaded {added}"

from idsketch.bench import run_matrix_trial, run_tensor_trial
from idsketch.cp_tensor import TENSOR_METHODS
from idsketch.matrix_id import MATRIX_METHODS

a = idsketch.gen_synthetic_matrix(300, 40, 5, 0.05, seed=1)
for method in MATRIX_METHODS:
    run_matrix_trial(a, method, 5, 8, seed=2)
run_matrix_trial(a.toarray(), "srft", 5, 8, seed=2)  # the dense FFT path
x = idsketch.gen_synthetic_tensor(3, 30, 20, 4, 0.3, seed=3)
for method in TENSOR_METHODS:
    run_tensor_trial(x, method, 4, 8, seed=4)
loaded = [m for m in ("scipy.fft", "scipy.special", "scipy.io") if m in sys.modules]
assert not loaded, f"the decompositions loaded {loaded}"

idsketch.read_matrix_market(sys.argv[1])
assert "scipy.io" in sys.modules, "read_matrix_market ran without scipy.io"
print("ok")
"""


def test_import_and_decompositions_load_no_unused_scipy(tmp_path):
    mtx = tmp_path / "a.mtx"
    write_matrix_market(mtx, np.eye(3))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(mtx)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr
