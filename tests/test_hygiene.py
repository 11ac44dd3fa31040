"""Source hygiene of the package, checked with the standard library alone."""

import ast
import os
import subprocess
import sys
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


def test_package_imports_no_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    code = ("import sys, caloron.cli, caloron.connection, caloron.greens, "
            "caloron.oracle; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(caloron.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _private_definitions(tree):
    """Module-level `_`-prefixed functions, classes and constants."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _reads(tree):
    """Every name the tree loads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _unread_private_names(trees):
    read = set().union(*map(_reads, trees.values()))
    return sorted((path, line, name) for path, tree in trees.items()
                  for name, line in _private_definitions(tree).items()
                  if name not in read)


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in Path(caloron.__file__).parent.glob("*.py")}
    assert _unread_private_names(trees) == []


def test_unread_private_name_is_found():
    a = ast.parse("_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _B\nclass _K: pass\n")
    b = ast.parse("import a\nprint(a._K, a.__name__)\n")
    assert _unread_private_names({"a": a, "b": b}) == [("a", 1, "_A"), ("a", 2, "_C"),
                                                        ("a", 3, "_f")]
