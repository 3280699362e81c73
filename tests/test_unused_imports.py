"""Every imported name is used: in the module's code, or listed in its
`__all__`, which is how a package re-exports a name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/idsketch/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{imported[n]}: {n}" for n in imported.keys() - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_reexported_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\n__all__ = ['w']\na.c\n"
    assert unused_imports(source) == ["1: os", "3: z"]
