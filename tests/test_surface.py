"""The public surface carries no dead code: every public module-level
function or class of the package, and every public method of a public
class, is reached from the package itself, from the README, or from the
acceptance suite, unless it is listed below with the reason it stays. A
method counts as reached when its name is."""

import ast
import re
from pathlib import Path

import evslib

PACKAGE = Path(evslib.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package, the README or the acceptance
# suite reaches, each kept for the reason given
KEPT = {
    "scale_lazy": "builds the composite families pinned in test_closed_form",
}


def public_definitions(tree: ast.Module) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def public_methods(tree: ast.Module) -> set:
    """(class, method) for every public method of a public class."""
    return {(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")}


def referenced_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def package_trees() -> list:
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 1
    return [ast.parse(path.read_text("utf-8")) for path in modules]


def reached_names(trees: list) -> set:
    """Names the package refers to, and words of the README and the
    acceptance suite."""
    text = "\n".join((ROOT / name).read_text("utf-8")
                     for name in ("README.md", "tests/test_acceptance.py"))
    return set().union(*map(referenced_names, trees), re.findall(r"\w+", text))


def test_every_public_definition_is_reached():
    trees = package_trees()
    defined = set().union(*map(public_definitions, trees))
    assert defined - reached_names(trees) == set(KEPT)


def test_every_public_method_is_reached():
    trees = package_trees()
    methods = set().union(*map(public_methods, trees))
    assert len(methods) > 1
    reached = reached_names(trees)
    assert {f"{cls}.{name}" for cls, name in methods
            if name not in reached} == set()
