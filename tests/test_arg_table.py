"""The argument table reads a well-formed `evs` argv with no parser built
(cli._read_args) and gives exactly the namespace of the full parser tree;
it leaves every other argv to argparse by returning None. Argv are drawn
over every leaf's flags and values, in both option spellings, with and
without what only argparse reads: help, "--", abbreviations, separate
values that start with "-", repeated single-valued options, and missing,
clashing, unknown or malformed arguments. Every argv of the benchmark job
lists and of the README is read from the table, and a valid call never
imports argparse."""

import argparse
import contextlib
import importlib.util
import io
import os
import shlex
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import cli

ROOT = Path(__file__).resolve().parent.parent

# what the reader reads of an add_argument call
READ_KWARGS = {"help", "metavar", "type", "choices", "required", "default",
               "action"}


@cache
def parser():
    return cli._build_parser()


def tree(argv):
    """vars() of the full tree's parse of argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser().parse_args(list(argv)))
        except SystemExit:
            return None


def tree_leaves(node, path=()) -> dict:
    """leaf path -> subparser, for every parser of the tree under node
    that has no subparsers of its own, found by walking the subparsers."""
    subparsers = [action for action in node._actions
                  if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        return {path: node}
    (action,) = subparsers
    return {leaf: p for name, child in action.choices.items()
            for leaf, p in tree_leaves(child, (*path, name)).items()}


def test_the_table_defines_every_leaf_with_what_the_reader_reads():
    assert set(cli._LEAVES) == set(tree_leaves(parser()))
    assert all(1 <= len(path) <= 2 for path in cli._LEAVES)
    for leaf in cli._LEAVES.values():
        flags = [flag for flag, _ in leaf.entries]
        assert len(set(flags)) == len(flags)
        for flag, kwargs in leaf.entries:
            assert set(kwargs) <= READ_KWARGS
            assert kwargs.get("action") in (None, "store_true", "append")
            assert flag.startswith("--") or flag.isidentifier()
        for group in leaf.groups:
            assert set(group) <= set(flags)
            assert all(flag.startswith("--") for flag in group)


def test_each_report_command_has_one_handler_and_one_inputs_reader():
    """main and --replay dispatch through one map, report command ->
    handler, and the leaves of one command (the five order actions) share
    its handler and its inputs reader."""
    by_command = {}
    for leaf in cli._LEAVES.values():
        assert callable(leaf.inputs) and callable(leaf.handler)
        by_command.setdefault(leaf.command, set()).add(
            (leaf.inputs, leaf.handler))
    assert all(len(pairs) == 1 for pairs in by_command.values())
    assert cli._HANDLERS == {command: handler for command, ((_, handler),)
                             in by_command.items()}
    # the names replayed reports carry
    assert set(by_command) == {
        "validate", "combine", "compare", "transform", "builtin",
        "partial-compare", "cauchy-demo", "norms-partition", "norms-weights",
        "norms-eval", "norms-witness", "norms-embed", "axioms", "order"}
    assert {path for path, leaf in cli._LEAVES.items()
            if leaf.command == "order"} == {
        path for path in tree_leaves(parser()) if path[0] == "order"}


TEXTS = ["a.json", "1/2", "", "x=y", "a b", "3", "kappa"]
INTS = ["0", "7", "+3", "1_0", " 12 "]
BAD_INTS = ["x", "1.5", ""]
DASHED = ["-1", "-h", "--x", "-", "-a b"]


@st.composite
def values(draw, kwargs, rare):
    """A value for an argument, malformed where `rare` says so. A value
    that starts with "-" is a defect only as a separate token, which the
    caller judges."""
    if "choices" in kwargs:
        if rare("not a choice"):
            return "nope"
        return draw(st.sampled_from(kwargs["choices"]))
    if kwargs.get("type") is int:
        if rare("not an int"):
            return draw(st.sampled_from(BAD_INTS))
        return draw(st.sampled_from(INTS))
    return draw(st.sampled_from(TEXTS + DASHED))


@st.composite
def option(draw, flag, kwargs, flags, rare):
    """The tokens of one use of an option: its flag in full or
    abbreviated, and its value, separate or after "="."""
    prefixes = [flag[:k] for k in range(3, len(flag))
                if flag[:k] not in flags]
    if prefixes and rare("abbreviated"):
        flag = draw(st.sampled_from(prefixes))
    if kwargs.get("action") == "store_true":
        if rare("a switch given a value"):
            return [flag + "=" + draw(st.sampled_from(TEXTS + DASHED))]
        return [flag]
    value = draw(values(kwargs, rare))
    if value.startswith("-"):
        if not rare("a separate value starts with -"):
            return [flag + "=" + value]
    elif draw(st.booleans()):
        return [flag + "=" + value]
    return [flag, value]


@st.composite
def leaf_argv(draw):
    """(argv, defects): an argv of a drawn leaf, and what in it only
    argparse reads; it is well formed where defects is empty. Half of the
    argv are drawn with no defect."""
    path = draw(st.sampled_from(sorted(cli._LEAVES)))
    entries, groups = cli._LEAVES[path].entries, cli._LEAVES[path].groups
    defects, pieces, used = [], [], {}
    faulty = draw(st.booleans())

    def rare(defect=None) -> bool:
        """Whether to put a defect in, and record it where it is named:
        never in a well-formed argv."""
        if not (faulty and draw(st.integers(0, 7)) == 0):
            return False
        if defect:
            defects.append(defect)
        return True

    flags = {flag for flag, _ in entries}
    chosen = {draw(st.sampled_from(group)) for group in groups}
    grouped = {flag for group in groups for flag in group}
    wanted = given = 0
    for flag, kwargs in entries:
        if not flag.startswith("-"):   # judged once all are drawn
            uses = 0 if rare() else 2 if rare() else 1
            wanted, given = wanted + 1, given + uses
            for _ in range(uses):
                value = draw(values(kwargs, rare))
                while value.startswith("-") and not rare(
                        "a positional starts with -"):
                    value = draw(values(kwargs, rare))
                pieces.append([value])
            continue
        if flag in grouped:   # judged once the group is drawn
            uses = (flag in chosen) != rare()
        elif kwargs.get("required"):
            uses = not rare("a required option left out")
        else:
            uses = draw(st.booleans())
        if uses and kwargs.get("action") == "append":
            uses = draw(st.integers(1, 3))
        elif uses and rare("repeated"):
            uses = 2
        used[flag] = uses
        for _ in range(uses):
            pieces.append(draw(option(flag, kwargs, flags, rare)))
    for group in groups:
        if sum(used[flag] > 0 for flag in group) != 1:
            defects.append("a group of two or none")
    if given != wanted:
        defects.append("positionals left out or too many")
    for token in ("-h", "--help", "--", "--bogus", "-x"):
        if rare(token):
            pieces.append([token])
    argv = [*path]
    for piece in draw(st.permutations(pieces)):
        argv += piece
    return argv, defects


@settings(max_examples=600, deadline=None)
@given(leaf_argv())
def test_the_table_reads_exactly_the_well_formed_argv(case):
    argv, defects = case
    read = cli._read_args(argv)
    if defects:
        assert read is None, defects
    else:
        assert read is not None
        assert vars(read) == tree(argv)


@pytest.mark.parametrize("argv", [
    ["builtin", "nope", "--depth", "3"],          # not a choice
    ["builtin", "kappa", "--depth", "3.5"],       # not an int
    ["transform", "--min=", "m.json"],            # a switch given a value
    ["axioms", "--instance", "cone", "--seed", "1", "--properties=yes"],
    ["order", "in-l", "--universe", "u", "--x", "x", "--y", "y", "--x", "z"],
    ["combine", "--scale", "-2", "a.json"],       # argparse reads -2
    ["validate", "-"],
    ["compare", "a.json"], ["compare", "a.json", "b.json", "c.json"],
    ["transform", "--min", "--bounded", "m.json"], ["transform", "m.json"],
    ["norms", "witness", "--eps", "1"],
])
def test_the_table_leaves_the_rest_to_argparse(argv):
    assert cli._read_args(argv) is None


@pytest.mark.parametrize("argv", [
    ["transform", "--min", "m.json"],             # a switch left out: False
    ["axioms", "--instance", "cone", "--seed", "1"],   # the int defaults
    ["combine", "--scale=-2", "a.json"],          # a "-" value after "="
    ["norms", "witness", "--spec", "p", "--eps", "1", "--spec=q"],
])
def test_the_table_fills_every_default_the_tree_fills(argv):
    assert vars(cli._read_args(argv)) == tree(argv)


def job_lists() -> dict:
    """workload -> the argv of its job list at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {workload: [job["argv"] for job in module.generate(workload, 0)[0]]
            for workload in module.WORKLOADS}


def readme_examples() -> list:
    """The `evs` lines of the README's command-line block, but --replay."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("evs ") and "--replay" not in line]


def test_every_benchmark_and_readme_argv_is_read_with_no_parser_built(
        monkeypatch):
    corpus = [*job_lists().values(), readme_examples()]
    assert all(corpus)
    expected = [[tree(argv) for argv in argvs] for argvs in corpus]

    def refuse(self, *args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argvs, namespaces in zip(corpus, expected):
        for argv, namespace in zip(argvs, namespaces):
            assert namespace is not None
            assert vars(cli._parse_args(list(argv))) == namespace


def test_a_valid_call_never_imports_argparse():
    script = ("import sys\n"
              "from evslib.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def last_line(*argv):
        return subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines()[-1]

    assert last_line("norms", "partition", "--depth", "4") == "0 []"
    # help is read by argparse
    assert last_line("norms", "partition", "--depth", "4",
                     "-h") == "0 ['argparse', 'gettext']"
