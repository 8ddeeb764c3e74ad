"""Start-up stays cheap. Generating the code of a dataclass is a large share
of what `import evslib.cli` costs, so the package has one dataclass,
core.EvsInstance, and only core.py imports `dataclasses`. EvsInstance stays
a dataclass because perfbench/tracer.py and tests/test_kernel.py swap its
operations with `dataclasses.replace`."""

import ast
from pathlib import Path

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
