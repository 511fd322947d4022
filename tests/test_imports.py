"""Static checks that every module of the package uses each name it imports,
that every function reads each parameter it takes, that no call restates a
literal default, and that the defaulted parameters of public functions and
the public functions that the package never calls are the pinned sets."""
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


def _defaulted_parameters(source: str) -> set:
    """(function, parameter) for each parameter with a default of a public
    module-level function or method (named Class.method); nested functions
    are not counted."""
    out = set()
    for node in ast.parse(source).body:
        cls = node.name + "." if isinstance(node, ast.ClassDef) else ""
        for fn in node.body if cls else [node]:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                a = fn.args
                positional = [*a.posonlyargs, *a.args]
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out |= {(cls + fn.name, p.arg) for p in named}
    return out


def _public_functions(source: str) -> list:
    """(qualified name, name) of each public module-level function and each
    public method of a public class; nested functions are not counted."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out += [(f"{node.name}.{fn.name}", fn.name) for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append((node.name, node.name))
    return out


def _read_names(source: str) -> set:
    """Every bare name and attribute name that the source mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))}


_NOT_LITERAL = object()


def _literal(node):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _signatures(tree) -> dict:
    """{name: (positional parameters, {parameter: literal default})} of each
    function, method (self or cls dropped) and dataclass (its fields) of the
    tree; a name defined twice maps to None."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = [p.arg for p in (*a.posonlyargs, *a.args)]
            defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)
            positional = positional[positional[:1] in (["self"], ["cls"]):]
        elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d)
                                                    for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            positional = [s.target.id for s in fields]
            defaults = {s.target.id: s.value for s in fields if s.value}
        else:
            continue
        literal = {p: v for p, d in defaults.items() if (v := _literal(d)) is not _NOT_LITERAL}
        out[node.name] = None if node.name in out else (positional, literal)
    return out


def _restated_defaults(sources: dict) -> list:
    """(module, line, callee, parameter) for each call that passes, by position
    or keyword, a literal equal to the parameter's literal default; callees
    are resolved by simple name across all the sources, and a name defined
    more than once is skipped."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    sigs = {}
    for tree in trees.values():
        for name, sig in _signatures(tree).items():
            sigs[name] = None if name in sigs else sig
    out = []
    for module, tree in trees.items():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if not sigs.get(name):
                continue
            positional, defaults = sigs[name]
            for param, node in [*zip(positional, call.args),
                                *((k.arg, k.value) for k in call.keywords)]:
                v, d = _literal(node), defaults.get(param, _NOT_LITERAL)
                # 1 == True, but a bool restates only a bool
                if d is not _NOT_LITERAL and v == d and (type(v) is bool) == (type(d) is bool):
                    out.append((module, call.lineno, name, param))
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


def test_no_call_restates_a_default():
    # a default is written once: a call that passes it again is a second copy
    assert _restated_defaults({path.stem: path.read_text() for path in MODULES}) == []


def test_restated_default_is_caught():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Rec:\n    a: int\n    b: float = 1.0\n    c: str = ''\n"
              "class K:\n    def m(self, x, y=None, z=(1, 2)):\n        pass\n"
              "    def dup(self, w=0):\n        pass\n"
              "def f(p, q=2, *, flag=False, n=TOP):\n    pass\n"
              "def dup(w=0):\n    pass\n"
              "f(1, 2, flag=False, n=3)\n"
              "f(1, 3.0, flag=0)\n"
              "Rec(0, 1.0, c='x')\n"
              "Rec(1, c='')\n"
              "K().m(0, None, z=(1, 3))\n"
              "dup(w=0)\n")
    assert _restated_defaults({"m": source}) == [
        ("m", 16, "f", "flag"), ("m", 16, "f", "q"), ("m", 18, "Rec", "b"),
        ("m", 19, "Rec", "c"), ("m", 20, "m", "y")]


def test_defaulted_parameters_are_pinned():
    # each default is a settable value; a new one is added here on purpose
    found = {}
    for path in MODULES:
        for fn, param in sorted(_defaulted_parameters(path.read_text())):
            found.setdefault(f"{path.stem}.{fn}", []).append(param)
    assert {name: " ".join(params) for name, params in found.items()} == {
        "cli.main": "argv",
        "estimates.field_zygmund_norm": "radius",
        "estimates.max_principle_corpus": "n_r n_theta",
        "estimates.run_interior_corpus": "solver_tol",
        "estimates.solve_case": "tol",
        "pde.DiscreteField.as_samples": "radius",
        "pde.DiscreteField.l1_norm": "radius",
        "pde.DiscreteField.min_max": "radius",
        "pde.DiscreteField.quadrature": "radius",
        "pde.DiscreteField.sup_norm": "radius",
        "pde.cg": "callback",
        "pde.solve_dirichlet": "tol",
        "surface.ball_volume": "n_r",
        "surface.isoperimetric_constant": "p",
        "surface.sample_ball": "n_r n_theta",
    }
    assert sum(map(len, found.values())) == 17


def test_defaulted_parameter_is_caught():
    source = ("def f(a, b=1, *, c, d=2):\n    pass\n"
              "def _g(e=3):\n    pass\n"
              "class K:\n    def m(self, x=4):\n        def inner(y=5):\n            pass\n")
    assert _defaulted_parameters(source) == {("f", "b"), ("f", "d"), ("K.m", "x")}


def test_uncalled_public_functions_are_pinned():
    # public API that no module of the package reads; only tests and bench
    # call these, and a new one is added here on purpose.  Entries marked
    # "reference" are general routines that tests compare a specialised path against
    sources = {path.stem: path.read_text() for path in MODULES}
    read = set().union(*map(_read_names, sources.values()))
    uncalled = sorted(f"{module}.{qualname}" for module, source in sources.items()
                      for qualname, name in _public_functions(source) if name not in read)
    assert uncalled == [
        "estimates.bmo_duality_check",
        "estimates.kernel_bmo_estimate",
        "estimates.max_principle_corpus",
        "estimates.mean_value_deviation",
        "estimates.moser_resolve",
        "estimates.random_zero_boundary_field",
        "estimates.sobolev_check",
        "pde.DiscreteField.as_samples",
        "pde.field_from_function",
        "pde.laplace_beltrami_apply",
        "pde.log_potential",  # reference: the counterexample family's U1
        "rearrange.atom_check",  # reference: the counterexample family's atom
        "rearrange.pairing_upper",
        "rearrange.zygmund_modular",
        "surface.flux_exponent_fit",
        "surface.kernel_pairing_check",
        "surface.kernel_rearrangement_bound",
    ]
