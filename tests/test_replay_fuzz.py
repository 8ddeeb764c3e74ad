"""Replay of damaged reports: one report of each command, with one node of
its "inputs" replaced or dropped, replays through cli.main to exit 0, 1
or 2 (a match, a mismatch, an input error), never 3, an internal fault.
Every integer put in is far under the input caps, so no example costs
more than a small run."""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from evslib.cli import main
from evslib.metrics import builtin_metric


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def table(rows) -> dict:
    """A table over the carrier of the builtin discrete table."""
    return {"labels": [f"x{k}" for k in range(1, len(rows) + 1)],
            "rows": rows}


A = table([["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
B = table([["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]])
SPEC_P = {"depth": 12, "subsetC": ["h0"], "gamma": "2"}
SPEC_Q = {"depth": 12, "subsetC": ["h2"], "gamma": "3"}


def argvs(d) -> list:
    """A cheap argv of every handler, over files written in d."""
    a, b = write_json(d / "a.json", A), write_json(d / "b.json", B)
    disc = write_json(d / "disc.json",
                      builtin_metric("discrete", {}, 3).to_json())
    p, q = write_json(d / "p.json", SPEC_P), write_json(d / "q.json", SPEC_Q)
    w = write_json(d / "w.json", {"h0": "1", "h1": "3"})
    v = write_json(d / "v.json", {"h0": "1", "h1": "-2"})
    pts = write_json(d / "pts.json", [{}, {"h0": "1"}, {"h1": "2"}])
    plane = write_json(d / "plane.json",
                       [["0", "0"], ["1", "1/2"], ["1", "0"]])
    pairs = write_json(d / "pairs.json",
                       [[[0, 0], [0, 1]], [[1, 0], [2, 5]]])
    metric_u = write_json(d / "mu.json", {"instance": "metrics",
                                          "elements": ["a.json", "b.json",
                                                       "disc.json"]})
    family_u = write_json(d / "fu.json", {"instance": "norm-family",
                                          "depth": 12,
                                          "elements": ["p.json", "q.json"]})
    write_json(d / "c1.json", {"r": "1", "v": ["1", "0"]})
    write_json(d / "c2.json", {"r": "2", "v": ["1/2", "1"]})
    cone_u = write_json(d / "cu.json", {"instance": "cone", "dim": 2,
                                        "elements": ["c1.json", "c2.json"]})
    write_json(d / "h1.json", [["0", "0"], ["1", "0"]])
    write_json(d / "h2.json", [["0", "1/2"]])
    hyper_u = write_json(d / "hu.json", {"instance": "hyperspace", "dim": 2,
                                         "elements": ["h1.json", "h2.json"]})
    return [
        ["validate", a],
        ["combine", "--add", b, a],
        ["combine", "--scale", "3/2", a],
        ["compare", a, b],
        ["transform", "--bounded", a],
        ["transform", "--min", b],
        ["builtin", "kappa", "--depth", "5", "--step", "1/2"],
        ["builtin", "cauchy-dn", "--depth", "3", "--n", "2",
         "--points", plane],
        ["partial-compare", "--first", "discrete", "--second", "shrinking",
         "--depths", "3,5"],
        ["partial-compare", "--first", "cauchy-dn:n=2",
         "--second", "cauchy-dn:n=3",
         "--depths", "2,3", "--points", plane],
        ["cauchy-demo", "--indices", "2,3", "--pairs", pairs],
        ["norms", "partition", "--depth", "6"],
        ["norms", "weights", "--spec", p],
        ["norms", "eval", "--spec", p, "--vector", v],
        ["norms", "eval", "--weights", w, "--vector", v],
        ["norms", "witness", "--spec", p, "--spec", q, "--eps", "1/10"],
        ["norms", "embed", "--weights", w, "--points", pts],
        ["axioms", "--instance", "metrics", "--seed", "0", "--sample", "4",
         "--carrier", "3"],
        ["axioms", "--instance", "metrics-reversed-order", "--seed", "0",
         "--sample", "4", "--carrier", "3"],
        ["axioms", "--instance", "norms", "--seed", "1", "--sample", "4",
         "--depth", "6"],
        ["axioms", "--instance", "cone", "--seed", "2", "--sample", "4"],
        ["axioms", "--instance", "hyperspace", "--seed", "3", "--sample",
         "3"],
        ["order", "in-l", "--universe", metric_u, "--x", disc, "--y", a],
        ["order", "indep", "--universe", metric_u],
        ["order", "generates", "--universe", metric_u, "--generator", disc],
        ["order", "basis", "--universe", metric_u, "--generator", a,
         "--generator", b, "--eps", "1/100"],
        ["order", "feasible", "--universe", metric_u, "--x", a],
        ["order", "indep", "--universe", family_u, "--eps", "1/1000"],
        ["order", "in-l", "--universe", cone_u, "--x", str(d / "c1.json"),
         "--y", str(d / "c2.json")],
        ["order", "feasible", "--universe", hyper_u,
         "--x", str(d / "h1.json")],
    ]


def call(*argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The report of every argv, and a file to write a damaged one to."""
    d = tmp_path_factory.mktemp("fuzz")
    docs = []
    for argv in argvs(d):
        code, out, err = call(*argv)
        assert code in (0, 1) and err == "", (argv, code, err)
        docs.append(json.loads(out))
    return docs, d / "damaged.json"


def nodes(value, path=()):
    """The path of every node under value, value itself left out."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from nodes(child, path + (key,))


# values far under every cap: a depth, a sample, a dimension or an index
# of at most 16, and spellings that each reader sees
REPLACEMENTS = (
    st.none() | st.booleans() | st.integers(-2, 16)
    | st.sampled_from(["", "x", "0", "1", "-1", "2", "1/2", "-3/4", "1/0",
                       "0/0", "1e3", "0.5", "h0", "h3", "d(h0,1)", "e(h0,2)",
                       "discrete", "shrinking", "kappa", "metrics", "cone",
                       "norms", "norm-family", "add", "scale", "bounded",
                       "indep", "in-l", "B"])
    | st.sampled_from([[], {}, [[]], ["0"], [0, 1], {"h0": "1"},
                       {"labels": [], "rows": []}, A, SPEC_P]))


@settings(max_examples=1500, deadline=None)
@given(data=st.data())
def test_a_damaged_report_replays_without_an_internal_fault(reports, data):
    docs, damaged = reports
    doc = json.loads(json.dumps(data.draw(st.sampled_from(docs))))
    path = data.draw(st.sampled_from(list(nodes(doc["inputs"]))))
    parent = doc["inputs"]
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(REPLACEMENTS)
    damaged.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = call("--replay", str(damaged))
    assert code in (0, 1, 2), err
