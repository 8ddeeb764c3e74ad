"""The public surface carries no dead code: every public module-level
function or class of the package, and every public method of a public
class, is reached from the package itself, from the README, or from the
acceptance suite, unless it is listed below with the reason it stays. A
method counts as reached when its name is, unless another class of the
package, or a builtin type, has a method of that name too: a use of such a
name may be the other one's, so the method counts as reached only through
its own class, as `Class.name`, `Class(...).name`, or `self.name` and
`cls.name` inside the class. Shared names reached otherwise are listed
below with the use that reaches them."""

import ast
import re
from collections import Counter
from pathlib import Path

import evslib

PACKAGE = Path(evslib.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package, the README or the acceptance
# suite reaches, each kept for the reason given
KEPT = {
    "scale_lazy": "builds the composite families pinned in test_closed_form",
}

# methods whose name another class or a builtin type shares, reached where
# the receiver's class is not written out
SHARED = {
    "WeightMap.to_json": "`evs norms weights` prints weight_function's map",
    "WitnessDirection.to_json": "WitnessReport.to_json prints each direction",
    "WitnessReport.to_json": "`evs norms witness` prints its report by it",
}

BUILTIN_TYPES = (dict, list, set, frozenset, tuple, str, int)


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


def class_name(node, classes: set):
    """The class `node` names or constructs, as in `Class`, `mod.Class` or
    `Class(...)`, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr",
                                                              None)
    return name if name in classes else None


def resolved_methods(tree: ast.Module, classes: set) -> set:
    """(class, attribute) for each attribute read whose receiver's class
    the code writes out (see the module docstring)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found |= {(node.name, sub.attr) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in ("self", "cls")}
        elif isinstance(node, ast.Attribute):
            cls = class_name(node.value, classes)
            if cls is not None:
                found.add((cls, node.attr))
    return found


def test_every_public_method_is_reached():
    trees = package_trees()
    methods = set().union(*map(public_methods, trees))
    assert len(methods) > 1
    classes = {cls for cls, _ in methods}
    owners = Counter(name for _, name in methods)
    shared = {name for name in owners if owners[name] > 1 or any(
        hasattr(t, name) for t in BUILTIN_TYPES)}
    acceptance = ast.parse((ROOT / "tests/test_acceptance.py").read_text(
        "utf-8"))
    resolved = set().union(*(resolved_methods(t, classes)
                             for t in trees + [acceptance]))
    reached = reached_names(trees)
    assert {f"{cls}.{name}" for cls, name in methods
            if (cls, name) not in resolved
            and (name in shared or name not in reached)} == set(SHARED)
