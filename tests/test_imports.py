"""Every top-level import of a package module is used in that module,
every import anywhere in the package is relative or from the standard
library, no module but ``scalars`` touches how a ring element is stored,
no module but ``errors`` states a bound check of its own, an int or a
monomial is read only by its one reader, every name the benchmark
tracer wraps still exists, and a CLI call that needs neither ``Fraction``
nor the verify suites loads neither.

A name counts as used when the module reads it anywhere, including
inside a string annotation; the package ``__init__`` may also re-export
it through ``__all__``.
"""

import ast
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import grasstau

MODULES = sorted(Path(grasstau.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for the imports directly in the module body."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= _read_names(ast.parse(ann.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree)
    if path.stem == "__init__":
        used |= _exported(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    # numpy and sympy may be installed where the tests run; the package
    # must not come to need them
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
        ]
    assert not found, f"{path.name}: {found}"


# how a RingElement stores its coefficients, and the monomial keys it stores
# them under, are scalars.py's business: other modules read ``coeffs`` and
# build elements through the ring
RING_STORAGE = {"_num", "_den", "_key", "_monomial", "_places", "_step", "_limit"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "scalars"], ids=lambda p: p.stem)
def test_ring_element_storage_stays_private(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in RING_STORAGE:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "RingElement":
                found.append(f"line {node.lineno}: RingElement(...)")
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "errors"], ids=lambda p: p.stem)
def test_bound_checks_go_through_the_one_reader(path):
    # ``errors._at_least`` is the one check of a size, bound or order
    # argument; a DomainError of its own saying "must be >= " would restate
    # it, without the reader's refusal of floats and bools
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "DomainError"
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and "must be >= " in part.value
            for part in ast.walk(node)
        )
    ]
    assert not found, f"{path.name}: {found}"


def _scoped(node: ast.AST, scope: tuple = ()):
    """(qualified name of the enclosing class or function, node) for every
    node under ``node``."""
    yield ".".join(scope), node
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


# ``errors._an_int`` reads an int argument; the other modules named here hold
# the one reader of an int inside a larger value: a partition or a diagram
# (partitions), a monomial, a weight or a power (scalars), a sign (gamma)
INT_READERS = {"errors", "partitions", "scalars", "gamma"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in INT_READERS], ids=lambda p: p.stem)
def test_int_checks_go_through_the_readers(path):
    # a ``type(x) is not int`` of its own would be a second int reader,
    # free to word its refusal, or to skip it, differently
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "id", None) == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(getattr(c, "id", None) == "int" for c in node.comparators)
    ]
    assert not found, f"{path.name}: {found}"


def test_monomials_are_refused_only_by_their_reader():
    # ``CoeffRing._key`` reads every monomial tuple, for the constructor and
    # for ``coefficient`` alike; a second "bad monomial" check could let a
    # read accept what construction refuses
    raised = set()
    for path in MODULES:
        for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and any(
                isinstance(part, ast.Constant) and isinstance(part.value, str) and "bad monomial" in part.value
                for part in ast.walk(node)
            ):
                raised.add(f"{path.stem}.{scope}")
    assert raised == {"scalars.CoeffRing._key"}


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_name_the_bench_tracer_wraps_exists():
    # the tracer looks each of these up on install; a missing one would
    # crash every traced benchmark run
    tracing = runpy.run_path(str(TRACING))
    for mod, fn in tracing["FUNCTIONS"].values():
        assert callable(getattr(importlib.import_module(f"grasstau.{mod}"), fn, None)), f"{mod}.{fn}"
    for mod, cls, meth in tracing["METHODS"].values():
        owner = getattr(importlib.import_module(f"grasstau.{mod}"), cls)
        assert callable(vars(owner).get(meth)), f"{mod}.{cls}.{meth}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "scalars"], ids=lambda p: p.stem)
def test_only_scalars_imports_fractions(path):
    # scalars imports fractions on first use, through ``_fraction``; an
    # import anywhere else would load it, and the decimal it imports, in
    # every process
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] in ("fractions", "decimal") for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("fractions", "decimal")
    ]
    assert not found, f"{path.name}: {found}"


def _terms(*pairs):
    return [{"exponents": [e], "coeff": c} for e, c in pairs]


def _laurent(terms: dict) -> dict:
    return {"terms": [{"exp": e, "coeff": _terms(*c)} for e, c in terms.items()]}


_Q = {"field": "q", "num_vars": 1, "degree_bound": 2}
_SCHUR_Q = {"field": "q", "num_vars": 2, "degree_bound": 2, "weights": [1, 2]}
_POINT = {"tail_depth": 1, "columns": [_laurent({-1: [(0, "1")], 1: [(0, "3/4")]})]}
BUDGET_CALLS = [
    (["factor"], {"ring": _Q, "series": _laurent({-1: [(1, "3/4")], 0: [(0, "2"), (1, "3/4")], 1: [(0, "1/2")]})}),
    (["tau", "--deg", "2"], {"ring": _Q, "point": _POINT}),
    (["pair"], {"ring": _Q, "f": _laurent({-1: [(1, "3/4")], 0: [(0, "1")]}), "g": _laurent({0: [(0, "1")], 1: [(1, "3/4")]})}),
    (["plucker"], {"ring": _Q, "point": _POINT, "diagram": {"partition": []}}),
    (["schur", "--deg", "2"], {"partition": [1]}),
    (["bosonize"], {"ring": _SCHUR_Q, "coords": [{"partition": [1], "coeff": "3/4"}, {"partition": [1, 1], "coeff": "-1/2"}]}),
    (["bosonize"], {"ring": _SCHUR_Q, "polynomial": [{"exponents": [1, 0], "coeff": "3/4"}, {"exponents": [0, 1], "coeff": "1/3"}]}),
]
# prints the lazy modules loaded after the import, then after each call
BUDGET_PROBE = """
import io, json, sys
lazy = lambda: sorted(m for m in ("fractions", "decimal", "grasstau.verify") if m in sys.modules)
import grasstau
print(json.dumps(["import", 0, lazy()]))
import grasstau.cli
for argv, payload in json.loads(sys.stdin.read()):
    sys.stdin, out, real = io.StringIO(json.dumps(payload)), io.StringIO(), sys.stdout
    sys.stdout = out
    code = grasstau.cli.main(argv)
    sys.stdout = real
    print(json.dumps([argv[0], code, lazy()]))
"""


def test_cli_calls_over_q_load_neither_fractions_nor_verify():
    # every CLI call is a fresh process, so what it imports is paid per call:
    # ring elements cross the JSON boundary as int ratios, and the suites
    # load only for verify.  A fresh interpreter, since pytest itself may
    # load decimal; -S keeps site's own imports out of the count.
    env = dict(os.environ, PYTHONPATH=str(Path(grasstau.__file__).parent.parent))
    run = subprocess.run(
        [sys.executable, "-S", "-c", BUDGET_PROBE], input=json.dumps(BUDGET_CALLS), env=env,
        capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert lines == [["import", 0, []]] + [[argv[0], 0, []] for argv, _ in BUDGET_CALLS]


def test_the_lazy_names_still_bind():
    # run_suite and suite_names load the suites on first use; a star import
    # reads every __all__ name, those two included
    assert grasstau.run_suite is importlib.import_module("grasstau.verify").run_suite
    assert grasstau.suite_names() == importlib.import_module("grasstau.verify").suite_names()
    namespace: dict = {}
    exec("from grasstau import *", namespace)
    assert set(grasstau.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        grasstau.nope
