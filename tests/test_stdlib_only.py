"""The runtime stays stdlib-only: every module of the package imports only
the standard library and the package itself."""

import ast
import sys
from pathlib import Path

import evslib

PACKAGE = Path(evslib.__file__).parent


def imported_roots(tree: ast.Module) -> set:
    """Top-level names of the absolute imports of a module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    allowed = set(sys.stdlib_module_names) | {"evslib"}
    outside = {
        path.name: sorted(imported_roots(ast.parse(path.read_text("utf-8")))
                          - allowed)
        for path in modules
    }
    assert {name: roots for name, roots in outside.items() if roots} == {}
