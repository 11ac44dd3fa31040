"""Source hygiene of the package, checked with the standard library alone."""

import ast
from pathlib import Path

import pytest

import caloron

MODULES = sorted(p for p in Path(caloron.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # __init__ re-exports its imports


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "d")]
