"""Static checks that every module of the package uses each name it imports
and that every function reads each parameter it takes."""
import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "poissonlab").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from __future__` binds nothing
                if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unused_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter that its function's body,
    nested functions included, never reads; self, cls and _names are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [(node.lineno, getattr(node, "name", "<lambda>"), p) for p in params
                if p not in used and p not in ("self", "cls") and not p.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_parameters(path):
    assert _unused_parameters(path.read_text()) == []


def test_unused_import_is_caught():
    assert _unused_imports("import os\nimport sys\nfrom a import b, c\nsys.exit(c)\n") == [
        (1, "os"), (3, "b")]


def test_unused_parameter_is_caught():
    source = ("def f(a, b, _c, *args, d, **kw):\n"
              "    def g():\n"
              "        return a\n"
              "    return g() + d\n"
              "class K:\n"
              "    def m(self, x, /, y):\n"
              "        return (lambda z: 0)(x)\n")
    assert _unused_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "kw"), (6, "m", "y"), (7, "<lambda>", "z")]
