"""`evs order in-l`, `indep` and `feasible` on random metric universes,
through cli.main, against the reference model's `spectrum` and `below`:
the verdicts, certificates and exit codes, the echo of every input table,
and the replay of each report. Then `feasible` on random hyperspace
universes, whose down-set is a subset check."""

import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

import reference
from evslib.cli import main


def cli(*argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def tables(draw, n, scaled_from=None):
    """A symmetric n-point table of nonnegative entries with a zero
    diagonal, not all zero, and in one table of three some zeros off the
    diagonal; or a multiple of `scaled_from`. Returned as Fractions and as the rows of a
    table document, which spell an integer entry as an int or as "p/1"."""
    if scaled_from is not None:
        factor = draw(st.sampled_from((Fraction(1, 2), 1, 2, Fraction(3, 2))))
        full = [[factor * v for v in row] for row in scaled_from]
    else:
        full = [[Fraction(0)] * n for _ in range(n)]
        zeros = draw(st.integers(0, 2)) == 0
        for i, j in combinations(range(n), 2):
            zero = zeros and draw(st.booleans())
            num = 0 if zero else draw(st.integers(1, 12))
            full[i][j] = full[j][i] = Fraction(num, draw(st.integers(1, 4)))
        if not any(map(any, full)):
            full[0][1] = full[1][0] = Fraction(1)
    spelled = [[v.numerator if v.denominator == 1 and draw(st.booleans())
                else reference.text(v) for v in row] for row in full]
    return tuple(map(tuple, full)), spelled


@st.composite
def universes(draw):
    """(labels, elements): 1-5 tables on 2-4 points, some of them
    multiples of an earlier one, so that down-sets and positive
    memberships occur."""
    n = draw(st.integers(2, 4))
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        base = (draw(st.sampled_from(elements))[0]
                if elements and draw(st.booleans()) else None)
        elements.append(draw(tables(n, base)))
    return [f"p{k}" for k in range(n)], elements


def write_universe(directory, labels, elements) -> str:
    """The path of a manifest of element files e0.json, e1.json, ..."""
    names = [f"e{k}.json" for k in range(len(elements))]
    for name, (_, spelled) in zip(names, elements):
        (Path(directory) / name).write_text(
            json.dumps({"labels": labels, "rows": spelled}), encoding="utf-8")
    manifest = Path(directory) / "universe.json"
    manifest.write_text(json.dumps({"instance": "metrics", "elements": names}),
                        encoding="utf-8")
    return str(manifest)


def pick(data, directory, labels, elements, name):
    """A universe element or a fresh table, as (full, path)."""
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(elements) - 1))
        return elements[k][0], str(Path(directory) / f"e{k}.json")
    full, spelled = data.draw(tables(len(labels)))
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps({"labels": labels, "rows": spelled}),
                    encoding="utf-8")
    return full, str(path)


def certificate(x, y) -> dict:
    """The in-l report of y in L(x), for x positive off the diagonal: the
    comparing value is the largest lam of the spectrum with lam*x <= y."""
    alpha = reference.spectrum(x, y)
    assert reference.below(alpha, x, y)
    if alpha > 0:
        return {"status": "positive", "alpha": reference.text(alpha)}
    return {"status": "refuted", "alpha": "0/1",
            "reason": "comparing value is exactly zero"}


def vanishing(labels, x):
    """The error for an x with a zero off the diagonal, or None."""
    for i, j in combinations(range(len(x)), 2):
        if x[i][j] == 0:
            return {"error": f"relative element vanishes on the distinct "
                             f"pair ({labels[i]}, {labels[j]}); not a metric"}
    return None


def check_document(directory, out, labels, elements, **tables_by_key):
    """The printed document is json.dumps(indent=2, sort_keys=True) of
    itself, echoes every input table as the model prints it, and its
    report replays."""
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    inputs = doc["inputs"]
    assert inputs["universe"] == {
        "instance": "metrics",
        "elements": [reference.matrix(labels, e) for e, _ in elements]}
    for key, full in tables_by_key.items():
        assert inputs[key] == reference.matrix(labels, full)
    saved = Path(directory) / "report.json"
    saved.write_text(out, encoding="utf-8")
    code, replayed, err = cli("--replay", str(saved))
    assert (code, json.loads(replayed)["match"], err) == (0, True, "")
    return doc["report"]


@settings(max_examples=200, deadline=None)
@given(universes(), st.data())
def test_in_l_agrees_with_the_reference_model(universe, data):
    labels, elements = universe
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_universe(tmp, labels, elements)
        x, x_path = pick(data, tmp, labels, elements, "x")
        y, y_path = pick(data, tmp, labels, elements, "y")
        code, out, err = cli("order", "in-l", "--universe", manifest,
                             "--x", x_path, "--y", y_path)
        error = vanishing(labels, x)
        if error is not None:
            assert (code, out, json.loads(err)) == (2, "", error)
            return
        expected = certificate(x, y)
        assert (code, err) == (0 if expected["status"] == "positive" else 1,
                               "")
        report = check_document(tmp, out, labels, elements, x=x, y=y)
        assert report == expected


@settings(max_examples=200, deadline=None)
@given(universes(), st.data())
def test_feasible_agrees_with_the_reference_model(universe, data):
    labels, elements = universe
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_universe(tmp, labels, elements)
        x, x_path = pick(data, tmp, labels, elements, "x")
        code, out, err = cli("order", "feasible", "--universe", manifest,
                             "--x", x_path)
        down = [e for e, _ in elements if reference.below(1, e, x)]
        error = vanishing(labels, x) if down else None
        if error is not None:
            assert (code, out, json.loads(err)) == (2, "", error)
            return
        memberships = [{"element": reference.matrix(labels, e),
                        "certificate": certificate(x, e)} for e in down]
        refuted = [m["element"] for m in memberships
                   if m["certificate"]["status"] == "refuted"]
        expected = {"status": "fail" if refuted else "pass",
                    "universeRelative": True, "downSetSize": len(down),
                    "memberships": memberships}
        if refuted:
            expected["failureWitness"] = refuted[0]
        assert (code, err) == (1 if refuted else 0, "")
        assert check_document(tmp, out, labels, elements, x=x) == expected


@settings(max_examples=200, deadline=None)
@given(universes(), st.sampled_from((None, "1/3", "2/6", "1e-6")))
def test_indep_agrees_with_the_reference_model(universe, eps):
    labels, elements = universe
    tables = [e for e, _ in elements]
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_universe(tmp, labels, elements)
        argv = ["order", "indep", "--universe", manifest]
        if eps is not None:
            argv += ["--eps", eps]
        code, out, err = cli(*argv)
        # the first pair that names an element with a zero off the
        # diagonal asks for a comparing value relative to it
        errors = (vanishing(labels, x) for x in tables)
        error = next(filter(None, errors), None) if len(tables) > 1 else None
        if error is not None:
            assert (code, out, json.loads(err)) == (2, "", error)
            return
        pairs = [{"x": reference.matrix(labels, x),
                  "y": reference.matrix(labels, y),
                  "yInLx": certificate(x, y), "xInLy": certificate(y, x)}
                 for x, y in combinations(tables, 2)]
        dependent = any(pair[key]["status"] == "positive" for pair in pairs
                        for key in ("yInLx", "xInLy"))
        expected = {"status": "fail" if dependent else "pass",
                    "universeRelative": True, "pairs": pairs}
        if eps is not None:
            expected["epsilon"] = reference.text(Fraction(eps))
        assert (code, err) == (1 if dependent else 0, "")
        assert check_document(tmp, out, labels, elements) == expected


COORDINATES = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def point_sets(draw, dim, within=None):
    """A set of 1-4 points of dimension dim with coordinates p/q, |p| <= 2
    and q <= 3, drawn from the points `within` where given; returned as a
    frozenset of Fraction tuples and as a point list, which spells an
    integer coordinate as an int or as "p/1" and may repeat a point."""
    point = (st.sampled_from(sorted(within)) if within
             else st.tuples(*[COORDINATES] * dim))
    points = draw(st.lists(point, min_size=1, max_size=4))
    spelled = [[c.numerator if c.denominator == 1 and draw(st.booleans())
                else reference.text(c) for c in p] for p in points]
    return frozenset(points), spelled


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_feasible_on_a_hyperspace_universe_takes_the_subsets(dim, data):
    x, x_spelled = data.draw(point_sets(dim))
    # some elements are drawn from x's points, so that down-sets occur
    elements = [data.draw(point_sets(dim, x if data.draw(st.booleans())
                                     else None))
                for _ in range(data.draw(st.integers(1, 4)))]
    zero = frozenset({(Fraction(0),) * dim})
    assume(x != zero and all(e != zero for e, _ in elements))
    with tempfile.TemporaryDirectory() as tmp:
        names = [f"e{k}.json" for k in range(len(elements))]
        for name, (_, spelled) in zip(names, elements):
            (Path(tmp) / name).write_text(json.dumps(spelled),
                                          encoding="utf-8")
        manifest, x_path = Path(tmp) / "universe.json", Path(tmp) / "x.json"
        manifest.write_text(json.dumps(
            {"instance": "hyperspace", "dim": dim, "elements": names}),
            encoding="utf-8")
        x_path.write_text(json.dumps(x_spelled), encoding="utf-8")
        code, out, err = cli("order", "feasible", "--universe", str(manifest),
                             "--x", str(x_path))
        down = [e for e, _ in elements if e <= x]
        assert (code, err) == (1 if down else 0, "")
        doc = json.loads(out)
        assert doc["inputs"] == {
            "action": "feasible", "x": x_spelled,
            "universe": {"instance": "hyperspace", "dim": dim,
                         "elements": [spelled for _, spelled in elements]}}
        # the instance has no comparing function, so no membership is
        # decided
        assert doc["report"] == {
            "status": "inconclusive" if down else "pass",
            "universeRelative": True, "downSetSize": len(down),
            "memberships": [
                {"element": sorted([reference.text(c) for c in p] for p in e),
                 "certificate": {"status": "inconclusive", "reason":
                                 "instance exposes no exact comparing "
                                 "function"}}
                for e in down]}
        saved = Path(tmp) / "report.json"
        saved.write_text(out, encoding="utf-8")
        code, replayed, err = cli("--replay", str(saved))
        assert (code, json.loads(replayed)["match"], err) == (0, True, "")


@st.composite
def cone_in_l_cases(draw):
    """(dim, x, z, elements) of cone elements (r, v) as Fractions: x has r
    = 0 or v = 0, the two cases a membership search refuses or solves
    from the radii alone; z is nonzero, and now and then the universe
    holds the primitive (0, w) of z = (s, w)."""
    dim = draw(st.integers(1, 3))
    vector = st.tuples(*[COORDINATES] * dim)
    radius = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
    zero = (Fraction(0),) * dim
    if draw(st.booleans()):
        x = (Fraction(0), draw(vector.filter(any)))
    else:
        x = (draw(radius.filter(bool)), zero)
    nonzero = st.tuples(radius, vector).filter(lambda e: e[0] or any(e[1]))
    z = draw(nonzero)
    elements = draw(st.lists(nonzero, min_size=1, max_size=3))
    if any(z[1]) and draw(st.booleans()):
        elements.append((Fraction(0), z[1]))
    return dim, x, z, elements


def cone_doc(element) -> dict:
    r, v = element
    return {"r": reference.text(r), "v": [reference.text(c) for c in v]}


@settings(max_examples=200, deadline=None)
@given(cone_in_l_cases())
def test_in_l_on_a_cone_universe_solves_from_the_radii(case):
    """For x = (r, v) with r = 0 no alpha != 0 scales x under z, so the
    search finds no witness. For v = 0, z = (s, w) >= alpha*x + p pins
    the primitive p = (0, w), which the candidates hold when w = 0 (the
    zero element) or the universe lists it, and alpha = s/r, which is a
    certificate when s > 0."""
    dim, x, z, elements = case
    (r, v), (s, w) = x, z
    with tempfile.TemporaryDirectory() as tmp:
        names = [f"e{k}.json" for k in range(len(elements))]
        for name, element in zip(names, elements):
            (Path(tmp) / name).write_text(json.dumps(cone_doc(element)),
                                          encoding="utf-8")
        paths = {}
        for key, element in (("x", x), ("y", z)):
            paths[key] = Path(tmp) / f"{key}.json"
            paths[key].write_text(json.dumps(cone_doc(element)),
                                  encoding="utf-8")
        manifest = Path(tmp) / "universe.json"
        manifest.write_text(json.dumps(
            {"instance": "cone", "dim": dim, "elements": names}),
            encoding="utf-8")
        code, out, err = cli("order", "in-l", "--universe", str(manifest),
                             "--x", str(paths["x"]), "--y", str(paths["y"]))
        primitive = (Fraction(0), w)
        solved = (r != 0 and s > 0
                  and (not any(w) or primitive in elements))
        if solved:
            alpha = s / r
            # z >= alpha*x + p in the cone order: radii below, vectors equal
            assert abs(alpha) * r + primitive[0] <= s
            assert tuple(alpha * a + b for a, b in zip(v, primitive[1])) == w
            expected = {"status": "positive", "alpha": reference.text(alpha),
                        "primitive": cone_doc(primitive)}
        else:
            expected = {"status": "inconclusive", "reason":
                        "universe lacks a primitive witness for this pair"}
        assert (code, err) == (0 if solved else 1, "")
        doc = json.loads(out)
        assert doc["report"] == expected
        assert doc["inputs"] == {
            "action": "in-l", "x": cone_doc(x), "y": cone_doc(z),
            "universe": {"instance": "cone", "dim": dim,
                         "elements": [cone_doc(e) for e in elements]}}
        saved = Path(tmp) / "report.json"
        saved.write_text(out, encoding="utf-8")
        code, replayed, err = cli("--replay", str(saved))
        assert (code, json.loads(replayed)["match"], err) == (0, True, "")
