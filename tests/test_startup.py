"""Start-up stays cheap. Generating the code of a dataclass is a large share
of what `import evslib.cli` costs, so the package has one dataclass,
core.EvsInstance, and only core.py imports `dataclasses`. EvsInstance stays
a dataclass because perfbench/tracer.py and tests/test_kernel.py swap its
operations with `dataclasses.replace`.

The package is layered, so that a command can import only the modules it
runs: errors, rationals and metrics import none of the verifier (core), the
order tools (order), the instances (instances) or the norms (norms); norms
imports none of core, instances, order, packed or cli; core imports none of
metrics, norms, instances or order. Only the verifier's `pack` hooks import
a module of the package inside a function (packed.py, which the other
commands never load), and the import graph has no cycle."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import evslib

PACKAGE = Path(evslib.__file__).parent


def package_trees() -> dict:
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    return {path.name: ast.parse(path.read_text("utf-8")) for path in paths}


def is_dataclass_decorator(node: ast.expr) -> bool:
    """`@dataclass`, `@dataclasses.dataclass`, called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass"
            or isinstance(node, ast.Attribute) and node.attr == "dataclass")


def imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"


def test_only_evs_instance_is_a_dataclass():
    decorated = {f"{name}:{node.name}"
                 for name, tree in package_trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(map(is_dataclass_decorator, node.decorator_list))}
    assert decorated == {"core.py:EvsInstance"}


def test_only_core_imports_dataclasses():
    importers = {name for name, tree in package_trees().items()
                 if any(map(imports_dataclasses, ast.walk(tree)))}
    assert importers == {"core.py"}


def imported_modules(node: ast.AST) -> list:
    """The package modules an import statement names, without "evslib.";
    relative imports are from within the package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = "evslib" if node.level == 1 else ""
        base = ".".join(filter(None, (base, node.module)))
        names = ([f"{base}.{alias.name}" for alias in node.names]
                 if base == "evslib" else [base])
    else:
        return []
    return [name.split(".")[1] for name in names
            if name.startswith("evslib.")]


def package_imports() -> list:
    """(importer, enclosing function or None, imported module) for every
    import of a package module, by module name without ".py"."""
    out = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (child.name if function is None
                         else f"{function}.{child.name}")
                visit(child, module, inner)
                continue
            out.extend((module, function, target)
                       for target in imported_modules(child))
            visit(child, module, function)

    for name, tree in package_trees().items():
        visit(tree, name.removesuffix(".py"), None)
    return out


def imported_by(module: str) -> set:
    return {target for importer, _, target in package_imports()
            if importer == module}


@pytest.mark.parametrize("module, forbidden", [
    ("norms", {"core", "instances", "order", "packed", "cli"}),
    ("core", {"metrics", "norms", "instances", "order"}),
    ("rationals", {"core", "instances", "norms", "order"}),
    ("errors", {"core", "instances", "norms", "order"}),
    ("metrics", {"core", "instances", "norms", "order"}),
])
def test_module_imports_no_higher_layer(module, forbidden):
    assert imported_by(module) & forbidden == set()


def test_only_the_pack_hooks_import_inside_a_function():
    deferred = sorted((importer, function, target)
                      for importer, function, target in package_imports()
                      if function is not None)
    assert deferred == [
        ("instances", "hyperspace_instance.pack", "packed"),
        ("instances", "rational_tuple_instance.pack", "packed"),
    ]


def test_package_import_graph_is_acyclic():
    graph = {}
    for importer, _, target in package_imports():
        graph.setdefault(importer, set()).add(target)
    assert {"cli", "core", "instances", "metrics", "norms",
            "order"} <= graph.keys()
    tuple(TopologicalSorter(graph).static_order())   # CycleError on a cycle
