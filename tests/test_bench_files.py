"""Every committed BENCH_*.json, the record a performance claim leaves,
parses and states its claim and the environment it was measured in."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_found():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_states_claim_and_environment(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert "claim" in record
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "nproc"):
        assert key in env, key
