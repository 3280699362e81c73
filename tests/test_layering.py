"""The power-of-two norm rule lives in `linalg` alone: only `linalg.py`
uses `frexp`, and no module of the package imports a private name of the
estimator, whose numerics are its own. The sketch overflow message is the
sketch operators' own: only `sketch.py` names `_SKETCH_OVERFLOW` in code.
Containers are decided in `linalg`: outside it, only the four functions
its docstring names test for sparse input. The clock is read in the
decompositions alone, and every Gaussian factor is drawn at one site."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/idsketch/*.py"))


def names(node, name):
    """Whether the AST `node` names `name`: as a name (`frexp(x)`), an
    attribute (`math.frexp(x)`) or an import (`from .sketch import name`);
    a mention in a string or docstring is no use."""
    if isinstance(node, ast.ImportFrom):
        return name in {a.name for a in node.names}
    return getattr(node, "attr", getattr(node, "id", None)) == name


def name_uses(source, name):
    """Lines whose code names `name`."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree) if names(node, name))


def name_users(source, scope, name):
    """`scope.Class.function` of each function whose code names `name`; a
    use outside any function counts as `scope` or `scope.Class`."""
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if names(node, name):
            users.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), scope)
    return sorted(users)


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


def test_four_functions_outside_linalg_test_for_sparse_input():
    users = [
        user for p in MODULES if p.name != "linalg.py"
        for user in name_users(p.read_text(), p.stem, "issparse")
    ]
    assert users == [
        "estimators.id_residual_operator",
        "sketch.CountSketchOp.apply",
        "sketch.SrftOp.apply",
        "sketch._finite_sketch",
    ]


def test_clock_read_only_in_the_decompositions():
    # the ID record carries its own timings: bench and cli read them there
    users = [
        user for p in MODULES for user in name_users(p.read_text(), p.stem, "perf_counter")
    ]
    assert users == [
        "cp_tensor.decompose", "matrix_id._sketch_and_id", "matrix_id.decompose"
    ]


def test_sfc64_named_only_in_the_gaussian_draw():
    users = [
        user for p in MODULES for user in name_users(p.read_text(), p.stem, "SFC64")
    ]
    assert users == ["sketch.KrGaussianOp.apply"]


def test_scope_checker_names_the_enclosing_function():
    source = (
        '"""issparse."""\nfrom scipy.sparse import issparse\n'
        "class Op:\n    def apply(self, a):\n        return sp.issparse(a)\n"
        "def f(a):\n    def g():\n        return issparse(a)\n    return g\n"
    )
    assert name_users(source, "m", "issparse") == ["m", "m.Op.apply", "m.f.g"]
