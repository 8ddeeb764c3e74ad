"""The public surface carries no dead code: every public module-level
function or class of the package, and every public method of a public
class, is reached from the package itself, from the README, or from the
acceptance suite, unless it is listed below with the reason it stays. A
method counts as reached when its name is, unless another class of the
package, or a builtin type, has a method of that name too: a use of such a
name may be the other one's, so the method counts as reached only through
its own class, as `Class.name`, `Class(...).name`, or `self.name` and
`cls.name` inside the class. Shared names reached otherwise are listed
below with the use that reaches them.

Then, by what runs rather than by what is named: every function the
package defines with `def`, public or not, is entered inside `cli.main` by
the commands of the pin files and the CLI tests, unless it is listed below
with the reason no command enters it."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import evslib

PACKAGE = Path(evslib.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public names that nothing in the package, the README or the acceptance
# suite reaches, each kept for the reason given
KEPT = {}

# methods whose name another class or a builtin type shares, reached where
# the receiver's class is not written out
SHARED = {
    "MetricMatrix.to_json": "the table document of the library, and of "
    "the tests that compare tables by value; reports hold the MetricMatrix "
    "itself, which prints by json_text",
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


# The tests whose `cli.main` calls are scanned: the byte pins of every
# command, and the CLI's examples and error paths. Deselected: the
# hypothesis tests of test_cli.py, which draw hundreds of argv of commands
# its examples already run.
SCANNED = ["tests/test_golden.py", "tests/test_table_pins.py",
           "tests/test_order_pins.py", "tests/test_action_pins.py",
           "tests/test_closed_form.py", "tests/test_cli.py",
           "tests/test_order_cli.py::"
           "test_feasible_on_a_hyperspace_universe_takes_the_subsets"]
DESELECTED = "not reference_model and not to_json_prints"

# functions that no scanned command enters, each kept for the reason given.
# An instance has no add or scale of its own, since only the packed
# instance of a verifier context adds and scales (the `pack` hook,
# packed.py), and the reference ops of the tests live in tests/reference.py.
UNENTERED = {
    "metrics.MetricMatrix.to_json": "the library's table document; a "
    "command prints a table from its text slot by json_text",
}

# Loaded into the scanning run by `-p`: it replaces cli.main before the
# test modules import it, and records the (file, first line) of each code
# object entered while it runs.
SCAN_PLUGIN = '''
import json
import os
import sys

from evslib import cli

_entered, _main = set(), cli.main


def _record(frame, event, arg):
    if event == "call":
        _entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def _traced(argv=None):
    sys.setprofile(_record)
    try:
        return _main(argv)
    finally:
        sys.setprofile(None)


def pytest_configure(config):
    cli.main = _traced


def pytest_unconfigure(config):
    with open(os.environ["ENTERED_OUT"], "w", encoding="utf-8") as fh:
        json.dump(sorted(_entered), fh)
'''


def defined_functions() -> dict:
    """(file name, first line) -> "module.qualified name" for every `def`
    of the package, methods and nested functions included. A function's
    code object starts at its first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found[(path.name, first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path, "")
    return found


def test_every_function_is_entered_by_a_scanned_command(tmp_path):
    (tmp_path / "entered_scan.py").write_text(SCAN_PLUGIN, encoding="utf-8")
    out = tmp_path / "entered.json"
    env = dict(os.environ, ENTERED_OUT=str(out), PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(PACKAGE.parent)]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "entered_scan", "-k", DESELECTED, *SCANNED],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:]
    package = PACKAGE.resolve()
    entered = {(Path(name).name, line) for name, line in json.loads(
        out.read_text("utf-8")) if Path(name).resolve().parent == package}
    assert {name for key, name in defined_functions().items()
            if key not in entered} == set(UNENTERED)
