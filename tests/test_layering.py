"""The power-of-two norm rule lives in `linalg` alone: only `linalg.py`
uses `frexp`, and no module of the package imports a private name of the
estimator, whose numerics are its own. The sketch overflow message is the
sketch operators' own: only `sketch.py` names `_SKETCH_OVERFLOW` in code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/idsketch/*.py"))


def name_uses(source, name):
    """Lines whose code names `name`: as a name (`frexp(x)`), an attribute
    (`math.frexp(x)`) or an import (`from .sketch import name`); a mention
    in a string or docstring is no use."""
    tree = ast.parse(source)
    names = [
        node.lineno for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == name
    ]
    imports = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names}
    ]
    return sorted(names + imports)


def frexp_uses(source):
    """Lines that name `frexp`: `frexp(x)`, `math.frexp(x)`, `np.frexp(x)`."""
    return name_uses(source, "frexp")


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


def test_sketch_overflow_message_only_in_sketch():
    users = [p.name for p in MODULES if name_uses(p.read_text(), "_SKETCH_OVERFLOW")]
    assert users == ["sketch.py"]


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


def test_name_checker_skips_strings():
    source = (
        '"""Raises _SKETCH_OVERFLOW."""\nfrom .sketch import _SKETCH_OVERFLOW\n'
        "raise E(_SKETCH_OVERFLOW)\nsketch._SKETCH_OVERFLOW\n"
    )
    assert name_uses(source, "_SKETCH_OVERFLOW") == [2, 3, 4]
