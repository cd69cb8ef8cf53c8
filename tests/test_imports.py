"""Every top-level import of a package module is used in that module,
every import anywhere in the package is relative or from the standard
library, no module but ``scalars`` touches how a ring element is stored,
no module but ``errors`` states a bound check of its own, an int or a
monomial is read only by its one reader, and every name the benchmark
tracer wraps still exists.

A name counts as used when the module reads it anywhere, including
inside a string annotation; the package ``__init__`` may also re-export
it through ``__all__``.
"""

import ast
import importlib
import runpy
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
