"""The power-of-two norm rule lives in `linalg` alone: only `linalg.py`
uses `frexp`, and no module of the package imports a private name of the
estimator, whose numerics are its own."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/idsketch/*.py"))


def frexp_uses(source):
    """Lines that name `frexp`: `frexp(x)`, `math.frexp(x)`, `np.frexp(x)`."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if getattr(node, "attr", getattr(node, "id", None)) == "frexp"
    )


def private_estimator_imports(source):
    """`line: name` of every underscore name imported from the estimator."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "estimators"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_frexp_only_in_linalg():
    users = [p.name for p in MODULES if frexp_uses(p.read_text())]
    assert users == ["linalg.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_estimator_import(path):
    assert private_estimator_imports(path.read_text()) == []


def test_checkers_see_frexp_and_private_imports():
    source = (
        "import math\nfrom .estimators import _norm, est\n"
        "from idsketch.estimators import _unit\nnp.frexp(v)\nmath.frexp(1.0)\n"
    )
    assert frexp_uses(source) == [4, 5]
    assert private_estimator_imports(source) == ["2: _norm", "3: _unit"]
