"""`evs` reads a well-formed argv from its argument table and hands every
other argv to the full parser tree. Over a corpus of argv that name a leaf
(a command and, for norms and order, an action) or none, that route gives
the namespace, exit code, stdout and stderr of the tree alone at two
terminal widths. It builds no parser where the table reads the argv, and
the tree wherever it does not."""

import argparse

import pytest

from evslib import cli

WIDTHS = ("80", "200")

# every leaf path; tests/test_arg_table.py checks them against the tree
LEAVES = [list(path) for path in cli._LEAVES]

# argv that name a leaf: valid, abbreviated, after a "--", missing or
# clashing arguments, and help at the leaf
LEAF_ARGV = [
    ["validate", "m.json"],
    ["combine", "--add", "b.json", "a.json"],
    ["combine", "a.json", "--scale", "1/2", "--out", "o.json"],
    ["combine", "--scale=-2", "a.json"],
    ["combine", "--scale", "-2", "a.json"],
    ["combine", "--sc", "2", "a.json"],
    ["compare", "a.json", "b.json"],
    ["transform", "--bounded", "m.json"],
    ["transform", "--min", "m.json", "--out", "o.json"],
    ["builtin", "kappa", "--depth", "5"],
    ["builtin", "usual-grid", "--step", "1/2", "--dep", "4"],
    ["builtin", "cauchy-dn", "--n", "3", "--depth", "3", "--points",
     "p.json", "--out", "o.json"],
    ["partial-compare", "--first", "discrete", "--second", "shrinking",
     "--depths", "5,10"],
    ["partial-compare", "--fi", "cauchy-dn:n=2", "--second", "usual",
     "--depths=3", "--points", "p.json"],
    ["cauchy-demo", "--indices", "1,2", "--pairs", "p.json"],
    ["norms", "partition", "--depth", "3"],
    ["norms", "weights", "--spec", "s.json"],
    ["norms", "eval", "--spec", "s.json", "--vector", "v.json"],
    ["norms", "eval", "--weights", "w.json", "--vec", "v.json"],
    ["norms", "witness", "--spec", "p.json", "--spec", "q.json", "--eps",
     "1/10"],
    ["norms", "embed", "--weights", "w.json", "--points", "p.json", "--out",
     "o.json"],
    ["axioms", "--instance", "metrics", "--seed", "0"],
    ["axioms", "--inst", "cone", "--se", "1", "--sample", "5", "--carrier",
     "3", "--depth", "4", "--dim", "3", "--prop"],
    ["order", "in-l", "--universe", "u.json", "--x", "x.json", "--y",
     "y.json"],
    ["order", "in-l", "--uni", "u.json", "--x", "x.json", "--y", "y.json"],
    ["order", "indep", "--universe=u.json", "--e=1/3"],
    ["order", "indep", "--universe", "u.json"],
    ["order", "generates", "--universe", "u.json", "--generator", "g.json",
     "--generator", "h.json"],
    ["order", "basis", "--universe", "u.json", "--gen", "g.json", "--eps",
     "1/2"],
    ["order", "feasible", "--universe", "u.json", "--x", "x.json"],
    # "--" ends the options
    ["validate", "--", "m.json"],
    ["validate", "--", "--bogus"],
    ["compare", "a.json", "--", "b.json"],
    ["builtin", "--depth", "3", "--", "kappa"],
    # missing, clashing or malformed arguments
    ["validate"], ["cauchy-demo"], ["combine", "a.json"],
    ["combine", "--add", "b.json", "--scale", "2", "a.json"],
    ["transform", "--bounded", "--min", "m.json"],
    ["builtin", "kappa"], ["builtin", "nope", "--depth", "3"],
    ["partial-compare", "--first", "discrete"],
    ["norms", "partition", "--depth", "x"],
    ["norms", "witness", "--spec", "p.json"],
    ["axioms", "--seed", "0"], ["axioms", "--instance", "metrics", "--seed",
                                "x"],
    ["axioms", "--instance", "metrics", "--seed", "0", "--d", "3"],
    ["order", "in-l", "--universe", "u.json", "--x", "x.json"],
    ["order", "in-l", "--universe"],
    ["order", "generates", "--universe", "u.json"],
    # help at the leaf, spelled out or abbreviated
    *([*leaf, "-h"] for leaf in LEAVES),
    ["order", "in-l", "--help"], ["builtin", "--h"],
    ["order", "feasible", "--universe", "u.json", "-h"],
]

# argv that name no leaf
NO_LEAF_ARGV = [
    [], ["-h"], ["--help"], ["-h", "validate"], ["bogus"], ["--bogus"],
    ["norms"], ["order"], ["norms", "-h"], ["order", "-h"],
    ["norms", "bogus"], ["order", "bogus", "--universe", "u.json"],
    ["norms", "--", "eval"], ["--", "validate", "m.json"],
]

# argv that name a leaf and hold arguments it does not take
LEFT_OVER_ARGV = [
    ["validate", "a.json", "b.json"], ["validate", "--bogus", "a.json"],
    ["compare", "a.json", "b.json", "c.json", "-x"],
    ["norms", "partition", "--depth", "3", "--bogus"],
    ["order", "in-l", "--universe", "u.json", "--x", "x.json", "--y",
     "y.json", "extra"],
    ["axioms", "--instance", "metrics", "--seed", "0", "--", "extra"],
    # a trailing "--" is left over too
    ["order", "feasible", "--universe", "u.json", "--x", "x.json", "--"],
]


def outcome(monkeypatch, capsys, parse, argv) -> tuple:
    """The namespace (or None), exit code, stdout and stderr of
    parse(argv), and the number of ArgumentParsers it built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counting)
        try:
            namespace, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    captured = capsys.readouterr()
    return (namespace, code, captured.out, captured.err), len(built)


def tree(argv):
    return cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("argv", LEAF_ARGV + NO_LEAF_ARGV + LEFT_OVER_ARGV,
                         ids=" ".join)
def test_the_leaf_route_prints_and_parses_as_the_tree(monkeypatch, capsys,
                                                      argv, width):
    monkeypatch.setenv("COLUMNS", width)
    leaf, built = outcome(monkeypatch, capsys, cli._parse_args, argv)
    expected, tree_built = outcome(monkeypatch, capsys, tree, argv)
    assert leaf == expected
    assert tree_built > 1
    assert built == (0 if cli._read_args(argv) is not None else tree_built)


def test_the_corpus_covers_every_leaf_and_both_outcomes(monkeypatch, capsys):
    named = {tuple(argv[:len(leaf)]) for argv in LEAF_ARGV
             for leaf in LEAVES if argv[:len(leaf)] == leaf}
    assert named == set(map(tuple, LEAVES))
    codes = {outcome(monkeypatch, capsys, tree, argv)[0][1]
             for argv in LEAF_ARGV + NO_LEAF_ARGV + LEFT_OVER_ARGV}
    assert codes == {None, 0, 2}

