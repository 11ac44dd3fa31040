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


# a call with *args or **kwargs passes every parameter
_EVERYTHING = "*"


def _options(trees):
    """Every parameter with a default of every function and method, as
    (module, line, function, parameter, position, callees): position None
    for a keyword-only one, and callees the names its calls go by, a method
    by its own name and an __init__ by its class's and those of the
    subclasses that inherit it."""
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def inherit(cls):
        heirs = {cls}
        for name, node in classes.items():
            own = any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                      for f in node.body)
            if not own and any(isinstance(b, ast.Name) and b.id == cls
                               for b in node.bases):
                heirs |= inherit(name)
        return heirs

    out = []
    for module, tree in trees.items():
        owner = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls, args = owner.get(id(fn)), fn.args
            positional = args.posonlyargs + args.args
            if cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in fn.decorator_list):
                positional = positional[1:]
            name, callees = fn.name, {fn.name}
            if cls is not None and fn.name == "__init__":
                name, callees = cls.name, inherit(cls.name)
            first = len(positional) - len(args.defaults)
            params = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            params += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            out += [(module, fn.lineno, name, p, i, callees) for p, i in params]
    return out


def _passed(trees):
    """Per callee name, the positions and keywords its calls pass."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            given = passed.setdefault(name, set())
            given.update(range(len(node.args)), (k.arg for k in node.keywords))
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                given.add(_EVERYTHING)
    return passed


def _unpassed_options(package, callers):
    """Parameters with a default in the package trees that no call in the
    caller trees passes, by position or by keyword: (module, line, function,
    parameter)."""
    passed = _passed(callers)
    return sorted((module, line, name, param)
                  for module, line, name, param, pos, callees in _options(package)
                  if not any({_EVERYTHING, pos, param} & passed.get(c, set())
                             for c in callees))


def test_every_option_is_passed_somewhere():
    # an option no caller sets is a constant: src/, tests/ and perfbench/ call
    repo = Path(__file__).resolve().parents[1]
    package = {p.name: ast.parse(p.read_text(), str(p))
               for p in Path(caloron.__file__).parent.glob("*.py")}
    callers = [ast.parse(p.read_text(), str(p)) for d in ("src", "tests", "perfbench")
               for p in sorted((repo / d).rglob("*.py"))]
    assert _unpassed_options(package, callers) == []


def test_unpassed_option_is_found():
    a = ast.parse("def f(x, y=1, *, z=2, w=3):\n    pass\n"
                  "class K:\n    def __init__(self, p=0, q=0):\n        pass\n"
                  "    def m(self, r=1):\n        pass\n"
                  "class L(K):\n    pass\n"
                  "def g(u=1):\n    pass\n")
    b = ast.parse("f(0, 5, w=4)\nL(1)\nK().m()\ng(*args)\n")
    assert _unpassed_options({"a": a}, [a, b]) == [("a", 1, "f", "z"), ("a", 4, "K", "q"),
                                                   ("a", 6, "m", "r")]


def _public_definitions(tree):
    """Module-level public functions and classes."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _uncalled_public_routines(package, callers):
    """Public routines of the package trees that no caller tree reads:
    (module, line, name)."""
    read = set().union(*map(_reads, callers))
    return sorted((module, line, name) for module, tree in package.items()
                  for name, line in _public_definitions(tree).items()
                  if name not in read)


def test_every_public_routine_has_a_caller_outside_the_unit_tests():
    # a routine that only its unit tests call belongs in the tests: the
    # package, the benchmark or the acceptance gate must read each one.
    # oracle.py is exempt, as it holds the references the tests compare to
    repo = Path(__file__).resolve().parents[1]
    sources = {p.name: ast.parse(p.read_text(), str(p))
               for p in Path(caloron.__file__).parent.glob("*.py")}
    package = {name: tree for name, tree in sources.items() if name != "oracle.py"}
    callers = list(sources.values()) + [
        ast.parse(p.read_text(), str(p))
        for p in sorted((repo / "perfbench").rglob("*.py"))
        + [repo / "tests" / "test_acceptance.py"]]
    assert _uncalled_public_routines(package, callers) == []


def test_uncalled_public_routine_is_found():
    a = ast.parse("def f():\n    return g()\ndef g():\n    pass\n"
                  "def h():\n    pass\nclass K:\n    def m(self):\n        pass\n"
                  "class L:\n    pass\ndef _p():\n    pass\n")
    b = ast.parse("import a\nprint(a.L)\n")
    assert _uncalled_public_routines({"a": a}, [a, b]) == [("a", 1, "f"), ("a", 5, "h"),
                                                          ("a", 7, "K")]
