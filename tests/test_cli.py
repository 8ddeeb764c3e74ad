"""End-to-end CLI behavior: exit codes, JSON reports, determinism, replay."""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from evslib.cli import main
from evslib.errors import InputError
from evslib.instances import (MAX_CARRIER, MAX_DEPTH, MAX_DIM, MAX_SAMPLE,
                              build_instance)
from evslib import metrics, norms
from evslib.metrics import (MAX_BUILTIN_DEPTH, Carrier, LazyMetric,
                            MetricMatrix, builtin_metric,
                            cauchy_incompleteness_demo, transform_bounded)
from evslib.norms import (MAX_PARTITION_DEPTH, FSVector, PartitionSpec,
                          WeightMap)
from evslib.rationals import MAX_DIGITS, fmt, ratios_to_ints

FLOAT_PATTERN = re.compile(r"\d+\.\d")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def disc_file(tmp_path):
    return write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())


def test_validate_pass(capsys, disc_file):
    code, doc, _ = run(capsys, "validate", disc_file)
    assert code == 0
    assert doc["report"]["pass"] is True


def test_validate_fail_carries_violation(capsys, tmp_path):
    bad = write_json(tmp_path / "bad.json",
                     {"labels": ["a", "b"], "rows": [["0", "0"], ["0", "0"]]})
    code, doc, _ = run(capsys, "validate", bad)
    assert code == 1
    assert doc["report"]["violation"]["axiom"] == "identity-of-indiscernibles"


def test_missing_file_is_input_error(capsys):
    code, doc, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "no such file" in err


def test_validate_csv(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n0,1/2\n1/2,0\n", encoding="utf-8")
    code, doc, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_validate_reads_a_mirrored_table_with_a_decimal_entry(capsys,
                                                              tmp_path):
    """A table that mirrors exactly but holds a decimal, which the scan
    of plain numerals refuses, has each entry read by parse_rational."""
    path = write_json(tmp_path / "m.json", {"labels": ["a", "b", "c"], "rows": [
        ["0", "0.5", "1"], ["0.5", "0", "1"], ["1", "1", "0"]]})
    code, doc, err = run(capsys, "validate", path)
    assert (code, err, doc["report"]["pass"]) == (0, "", True)
    assert doc["inputs"]["matrix"]["rows"] == [
        ["0/1", "1/2", "1/1"], ["1/2", "0/1", "1/1"], ["1/1", "1/1", "0/1"]]


def test_combine_scale_halves_entries(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "combine", "--scale=-1/2", disc_file)
    assert code == 0
    assert doc["report"]["matrix"]["rows"][0][1] == "1/2"


def test_combine_add_writes_output_file(capsys, tmp_path, disc_file):
    out = tmp_path / "sum.json"
    code, doc, _ = run(capsys, "combine", "--add", disc_file, disc_file,
                       "--out", str(out))
    assert code == 0
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["rows"][0][1] == "2/1"


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
def test_a_result_table_is_formatted_once(capsys, monkeypatch, tmp_path,
                                          out):
    """`evs builtin kappa --depth 9` formats its table's rows once, also
    when --out writes the table too, and the file holds the bytes of
    json.dumps of the printed table."""
    calls = []
    text_rows = metrics._text_rows
    monkeypatch.setattr(metrics, "_text_rows", lambda *args: calls.append(
        args) or text_rows(*args))
    path = tmp_path / "k.json"
    argv = ["builtin", "kappa", "--depth", "9"]
    assert main(argv + ["--out", str(path)] if out else argv) == 0
    printed = json.loads(capsys.readouterr().out)["report"]["matrix"]
    assert len(calls) == 1
    if out:
        assert path.read_text(encoding="utf-8") == json.dumps(
            printed, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("where, strerror", [
    ("no-such-dir/x.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_an_out_path_that_cannot_be_written_is_an_input_error(
        capsys, tmp_path, where, strerror):
    """`evs builtin discrete --depth 2 --out PATH` where PATH lies in a
    directory that does not exist, or is a directory: the report prints
    in full, then the run exits 2 with the path and the reason, not 3 with
    a traceback, and writes no file."""
    out = tmp_path / where
    before = sorted(tmp_path.rglob("*"))
    code, doc, err = run(capsys, "builtin", "discrete", "--depth", "2",
                         "--out", str(out))
    assert code == 2
    assert doc["report"]["matrix"]["labels"] == ["x1", "x2"]
    assert json.loads(err) == {"error": f"cannot write {out}: {strerror}"}
    assert sorted(tmp_path.rglob("*")) == before


def test_compare_bounded_companion(capsys, tmp_path):
    rho = MetricMatrix.from_rows(("a", "b", "c"),
                                 [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    f1 = write_json(tmp_path / "rho.json", rho.to_json())
    f2 = write_json(tmp_path / "rb.json", transform_bounded(rho).to_json())
    code, doc, _ = run(capsys, "compare", f1, f2)
    assert code == 0
    assert doc["report"]["classification"] == "mutually-dependent"
    assert doc["report"]["sandwich"]["lowerHolds"] is True


@st.composite
def signed_tables(draw, n):
    """A symmetric table on n points: signed entries over mixed
    denominators, a nonzero diagonal, and now and then a zero off the
    diagonal, as Fractions and as the rows of a table document, which spell
    an entry as an integer or as "p/q"."""
    def entry(nonzero):
        num = draw(st.integers(-30, 30).filter(bool) if nonzero
                   else st.integers(-30, 30))
        return Fraction(num, draw(st.integers(1, 12)))

    full = [[None] * n for _ in range(n)]
    for i in range(n):
        full[i][i] = entry(nonzero=True)
        for j in range(i + 1, n):
            full[i][j] = full[j][i] = entry(nonzero=False)
    spelled = [[v.numerator if v.denominator == 1 and draw(st.booleans())
                else f"{v.numerator}/{v.denominator}" for v in row]
               for row in full]
    return tuple(map(tuple, full)), spelled


def cli(*argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_table(directory, name, labels, spelled, as_csv):
    """A table file of spelled rows: CSV with a header row of labels, or a
    JSON table document."""
    if as_csv:
        path = Path(directory) / f"{name}.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n"
                                for row in [labels, *spelled]),
                        encoding="utf-8")
        return str(path)
    return write_json(Path(directory) / f"{name}.json",
                      {"labels": labels, "rows": spelled})


def assert_replays(directory, out):
    """The printed report `out`, saved and replayed, says match: true."""
    saved = Path(directory) / "report.json"
    saved.write_text(out, encoding="utf-8")
    code, out, _ = cli("--replay", str(saved))
    assert (code, json.loads(out)["match"]) == (0, True)


# the label of a pair by its two testing-set memberships
CLASSIFICATIONS = {(True, True): "mutually-dependent",
                   (True, False): "one-sided-second-in-L(first)",
                   (False, True): "one-sided-first-in-L(second)",
                   (False, False): "orderly-independent"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compare_agrees_with_the_reference_model(data):
    """`evs compare` on two random signed tables gives the model's comparing
    values, label, testing-set memberships and sandwich flags, and its report
    replays; a zero off the diagonal exits 2 naming the first zero pair of
    the first table that has one."""
    n = data.draw(st.integers(2, 6))
    d, first = data.draw(signed_tables(n))
    rho, second = data.draw(signed_tables(n))
    labels = [f"p{k}" for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        files = [write_json(Path(tmp) / f"{name}.json",
                            {"labels": labels, "rows": table})
                 for name, table in (("d", first), ("rho", second))]
        code, out, err = cli("compare", *files)
        zeros = [(i, j) for table in (d, rho)
                 for i, j in combinations(range(n), 2) if table[i][j] == 0]
        if zeros:
            i, j = zeros[0]
            assert (code, out, json.loads(err)) == (2, "", {
                "error": f"relative element vanishes on the distinct pair "
                         f"({labels[i]}, {labels[j]}); not a metric"})
            return
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        c1, c2 = reference.comparing(d, rho), reference.comparing(rho, d)
        assert report["comparingSecondRelativeFirst"] == reference.text(c1)
        assert report["comparingFirstRelativeSecond"] == reference.text(c2)
        assert report["classification"] == CLASSIFICATIONS[c1 > 0, c2 > 0]
        assert report["secondInTestingSetOfFirst"] == (c1 > 0)
        assert report["firstInTestingSetOfSecond"] == (c2 > 0)
        if c1 > 0 and c2 > 0:
            assert report["sandwich"] == {
                "lower": reference.text(c2), "upper": reference.text(1 / c1),
                "lowerHolds": reference.below(c2, rho, d),
                "upperHolds": reference.below(c1, d, rho)}
        else:
            assert report["sandwich"] is None
        assert_replays(tmp, out)


POSITIVE_RATIONALS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
NONZERO_RATIONALS = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                              st.integers(1, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_embedded_norms_compare_by_their_least_weight_ratio(data):
    """`evs norms embed` of two weight maps over one support prints the
    model's table of |x - y|_w. Over points that include 0 and every unit
    vector of the support, `evs compare` of the two tables gives the exact
    comparing values: the least w2(h)/w1(h) relative to the first table,
    and the least w1(h)/w2(h) relative to the second. Every report
    replays."""
    names = [f"h{k}" for k in range(data.draw(st.integers(1, 6)))]
    maps = st.fixed_dictionaries({h: POSITIVE_RATIONALS for h in names})
    w1, w2 = data.draw(maps), data.draw(maps)
    extra = data.draw(st.lists(st.dictionaries(
        st.sampled_from(names), NONZERO_RATIONALS, min_size=1), max_size=3))
    points = []
    for p in [{}, *({h: Fraction(1)} for h in names), *extra]:
        if p not in points:
            points.append(p)
    points = data.draw(st.permutations(points))
    labels = [f"p{k}" for k in range(1, len(points) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        pts = write_json(Path(tmp) / "points.json", [
            {h: reference.text(x) for h, x in p.items()} for p in points])
        tables = []
        for name, w in (("first", w1), ("second", w2)):
            weights = write_json(Path(tmp) / f"{name}-weights.json",
                                 {h: reference.text(v) for h, v in w.items()})
            code, out, err = cli("norms", "embed", "--weights", weights,
                                 "--points", pts)
            full = tuple(tuple(reference.sup_norm(w, {
                h: p.get(h, 0) - q.get(h, 0) for h in names})
                for q in points) for p in points)
            assert (code, err) == (0, "")
            report = json.loads(out)["report"]
            assert report == {"matrix": reference.matrix(labels, full),
                              "validation": reference.metric_axioms(labels,
                                                                    full)}
            assert_replays(tmp, out)
            tables.append(write_json(Path(tmp) / f"{name}.json",
                                     report["matrix"]))
        code, out, err = cli("compare", *tables)
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["comparingSecondRelativeFirst"] == reference.text(
            min(w2[h] / w1[h] for h in names))
        assert report["comparingFirstRelativeSecond"] == reference.text(
            min(w1[h] / w2[h] for h in names))
        assert_replays(tmp, out)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_norms_partition_and_weights_agree_with_the_reference_model(data):
    """`evs norms partition` prints the model's backbone and the name of
    every position's tag (reference.partition_tag), and `evs norms weights`
    of a family (C, gamma) the model's weight of every position
    (reference.family_weight), over depths 4 to 60, every proper nonempty
    C of the backbone and four gammas. Both reports replay."""
    depth = data.draw(st.integers(4, 60))
    backbone = [f"h{k}" for k in range(0, depth, 2)]
    subset = data.draw(st.lists(st.sampled_from(backbone), min_size=1,
                                max_size=len(backbone) - 1, unique=True))
    gamma = data.draw(st.sampled_from(["2", "3/2", "5/4", "7/3"]))
    tags = {f"h{k}": reference.partition_tag(k) for k in range(depth)}
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = cli("norms", "partition", "--depth", str(depth))
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == {
            "depth": depth, "B": backbone,
            "assignment": {h: "B" if tag[0] == "B" else
                           f"{tag[0]}({tag[1]},{tag[2]})"
                           for h, tag in tags.items()}}
        assert_replays(tmp, out)
        spec = {"depth": depth, "subsetC": subset, "gamma": gamma}
        code, out, err = cli("norms", "weights", "--spec", write_json(
            Path(tmp) / "family.json", spec))
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == {
            "spec": {**spec, "subsetC": sorted(subset),
                     "gamma": reference.text(Fraction(gamma))},
            "weights": {f"h{k}": reference.text(reference.family_weight(
                k, set(subset), Fraction(gamma))) for k in range(depth)}}
        assert_replays(tmp, out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_combine_agrees_with_the_reference_model(data):
    """`evs combine --add` and `--scale` on random signed tables, JSON or
    CSV, print the model's sum or |alpha| multiple and whether it is the
    zero table, and the report replays. Now and then the second table is
    the negation of the first, whose sum is zero."""
    n = data.draw(st.integers(1, 6))
    a, spelled = data.draw(signed_tables(n))
    labels = [f"p{k}" for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        first = write_table(tmp, "a", labels, spelled, data.draw(st.booleans()))
        if data.draw(st.booleans()):
            if data.draw(st.booleans()) and data.draw(st.booleans()):
                b = tuple(tuple(-v for v in row) for row in a)
                spelled = [[reference.text(v) for v in row] for row in b]
            else:
                b, spelled = data.draw(signed_tables(n))
            second = write_table(tmp, "b", labels, spelled,
                                 data.draw(st.booleans()))
            code, out, err = cli("combine", "--add", second, first)
            expected = reference.added(a, b)
        else:
            num, den = data.draw(st.integers(-30, 30)), data.draw(
                st.integers(1, 12))
            code, out, err = cli("combine", f"--scale={num}/{den}", first)
            expected = reference.scaled(Fraction(num, den), a)
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == {
            "matrix": reference.matrix(labels, expected),
            "isZero": not any(map(any, expected))}
        assert_replays(tmp, out)


BIG = 2 ** 64


@st.composite
def forms(draw):
    """An n-point table's integer form: a few values repeated all over the
    upper triangle, or all distinct values; signed, with zeros, now and
    then past 2^64, over one common denominator."""
    n = draw(st.integers(1, 7))
    size = n * (n + 1) // 2
    value = st.one_of(st.integers(-9, 9), st.integers(-4 * BIG, 4 * BIG))
    if draw(st.booleans()):
        pool = draw(st.lists(value, min_size=1, max_size=3))
        nums = [draw(st.sampled_from(pool)) for _ in range(size)]
    else:
        nums = draw(st.lists(value, min_size=size, max_size=size,
                             unique=True))
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 4 * BIG)))
    return n, ratios_to_ints(nums, [den] * size)


@settings(max_examples=300, deadline=None)
@given(forms(), st.integers(-30, 30), st.integers(1, 12))
def test_to_json_prints_every_entry_as_fmt_does(form, num, den):
    """MetricMatrix.to_json prints entry (i, j) of a form as
    fmt(Fraction(v, den)) of its upper entry v, however often the form
    repeats its values; `evs combine --scale` of the printed table prints
    the model's |alpha| multiple, and its report replays."""
    n, (nums, common) = form
    labels = tuple(f"p{k}" for k in range(n))
    upper = {}
    for k, (i, j) in enumerate((i, j) for i in range(n)
                               for j in range(i, n)):
        upper[i, j] = upper[j, i] = Fraction(nums[k], common)
    full = tuple(tuple(upper[i, j] for j in range(n)) for i in range(n))
    doc = MetricMatrix(labels, (nums, common)).to_json()
    assert doc == {"labels": list(labels),
                   "rows": [[fmt(v) for v in row] for row in full]}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "m.json", doc)
        code, out, err = cli("combine", f"--scale={num}/{den}", path)
        expected = reference.scaled(Fraction(num, den), full)
        assert (code, err) == (0, "")
        assert json.loads(out)["report"] == {
            "matrix": reference.matrix(labels, expected),
            "isZero": not any(map(any, expected))}
        assert_replays(tmp, out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_transform_agrees_with_the_reference_model(data):
    """`evs transform --bounded` and `--min` on a random signed table, JSON
    or CSV, print the model's image, its metric-axiom check and whether it
    lies below the input, with exit code 0 or 1, and the report replays;
    under --bounded an entry of -1 off the diagonal exits 2 naming the
    first such pair in row order."""
    n = data.draw(st.integers(1, 6))
    full, spelled = data.draw(signed_tables(n))
    kind = data.draw(st.sampled_from(["bounded", "min"]))
    labels = [f"p{k}" for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_table(tmp, "m", labels, spelled, data.draw(st.booleans()))
        code, out, err = cli("transform", f"--{kind}", path)
        undefined = [(i, j) for i, j in combinations(range(n), 2)
                     if full[i][j] == -1]
        if kind == "bounded" and undefined:
            i, j = undefined[0]
            assert (code, out, json.loads(err)) == (2, "", {
                "error": f"transform bounded is undefined on the entry "
                         f"-1/1 at ({labels[i]}, {labels[j]})"})
            return
        image = reference.transformed(
            reference.bounded if kind == "bounded" else reference.capped,
            full)
        validation = reference.metric_axioms(labels, image)
        assert (code, err) == (0 if validation["pass"] else 1, "")
        assert json.loads(out)["report"] == {
            "matrix": reference.matrix(labels, image),
            "validation": validation,
            "belowInput": reference.below(reference.ONE, image, full)}
        assert_replays(tmp, out)


# A field of the packed triangle check holds bit_length(max) + 2 bits,
# rounded up to whole bytes: 2^k - 1 and 2^k fall in fields of different
# widths at k = 6, 14, ..., 62 (a 64-bit field), ..., and 2^(B-2) - 1 and
# 2^(B-2) on the two sides of B = PACKED_FIELD_BITS.
EDGE_BITS = (1, 6, 7, 14, 30, 62, 63, 64, 126, 190, 191,
             metrics.PACKED_FIELD_BITS - 2, metrics.PACKED_FIELD_BITS - 1, 254)


@st.composite
def axiom_tables(draw):
    """A table on 1 to 12 points as Fractions and as spelled rows: entries
    p/r over one denominator r, so that they print with mixed
    denominators, and numerators in [top/2, top] (a metric), with top
    small or next to 2^k for k in EDGE_BITS. Then up to three pairs are
    redrawn, mostly positive and up to 3 * top, and now and then a diagonal
    entry."""
    n = draw(st.integers(1, 12))
    top = draw(st.one_of(
        st.integers(1, 40),
        st.builds(lambda k, e: 2**k + e, st.sampled_from(EDGE_BITS),
                  st.integers(-1, 1))))
    box = st.integers((top + 1) // 2, top)
    nums = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        nums[i][j] = nums[j][i] = draw(box)
    if n > 1:                         # top is the widest entry
        nums[0][1] = nums[1][0] = top

    def rarely():                     # about one time in eight
        return all(draw(st.booleans()) for _ in range(3))

    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.sampled_from(list(combinations(range(n), 2))))
        nums[i][j] = nums[j][i] = draw(st.integers(1, 3 * top)) * (
            draw(st.sampled_from((0, -1))) if rarely() else 1)
    if rarely():
        k = draw(st.integers(0, n - 1))
        nums[k][k] = draw(st.integers(-top, 3 * top))
    r = draw(st.integers(1, 12))
    full = tuple(tuple(Fraction(v, r) for v in row) for row in nums)
    spelled = [[v.numerator if v.denominator == 1 and draw(st.booleans())
                else f"{v.numerator}/{v.denominator}" for v in row]
               for row in full]
    return full, spelled


@settings(max_examples=200, deadline=None)
@given(axiom_tables(), st.booleans())
def test_validate_agrees_with_the_reference_model(table, as_csv):
    """`evs validate` of a JSON or CSV table reports the model's first
    violated axiom, or a pass, with exit code 1 or 0, and its report
    replays."""
    full, spelled = table
    labels = [f"p{k}" for k in range(len(full))]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_table(tmp, "table", labels, spelled, as_csv)
        code, out, err = cli("validate", path)
        expected = reference.metric_axioms(labels, full)
        assert (code, err) == (0 if expected["pass"] else 1, "")
        assert json.loads(out)["report"] == expected
        assert_replays(tmp, out)


def test_bounded_transform_of_minus_one_names_the_pair(capsys, tmp_path):
    path = write_json(tmp_path / "m.json", {
        "labels": ["a", "b"], "rows": [["0", "-1"], ["-1", "0"]]})
    code, out, err = run(capsys, "transform", "--bounded", path)
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": "transform bounded is undefined "
                                        "on the entry -1/1 at (a, b)"}


def test_builtin_emits_matrix(capsys):
    code, doc, _ = run(capsys, "builtin", "kappa", "--depth", "21",
                       "--step", "1/10")
    assert code == 0
    assert doc["report"]["matrix"]["labels"][0] == "x1"


def test_builtin_bad_params_exit_two(capsys):
    code, _, err = run(capsys, "builtin", "kappa", "--depth", "10")
    assert code == 2 and "odd" in err


def test_builtin_depth_past_the_limit_exits_two(capsys, tmp_path,
                                                monkeypatch):
    def materialize(self, depth):
        raise AssertionError(f"materialized at depth {depth}")
    monkeypatch.setattr(LazyMetric, "materialize", materialize)
    depth = MAX_BUILTIN_DEPTH + 1
    error = {"error": f"depth {depth} exceeds the limit of "
                      f"{MAX_BUILTIN_DEPTH}"}
    code, out, err = run(capsys, "builtin", "kappa", "--depth", str(depth))
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "builtin", "inputs": {
        "name": "discrete", "params": {}, "depth": depth}, "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_builtin_depth_limit_admits_the_limit(monkeypatch):
    # the deepest table of perfbench/ is 121 points; the limit itself is
    # admitted but not materialized here
    assert MAX_BUILTIN_DEPTH >= 121
    seen = []
    monkeypatch.setattr(LazyMetric, "materialize",
                        lambda self, depth, carrier=None: seen.append(depth))
    builtin_metric("discrete", {}, MAX_BUILTIN_DEPTH)
    assert seen == [MAX_BUILTIN_DEPTH]


def test_partial_compare_trend(capsys):
    code, doc, _ = run(capsys, "partial-compare", "--first", "discrete",
                       "--second", "shrinking", "--depths", "10,25,50")
    assert code == 0
    assert doc["report"]["upperBounds"] == ["1/90", "1/600", "1/2450"]
    assert doc["report"]["nonincreasing"] is True


def test_partial_compare_without_depths_is_input_error(capsys):
    code, out, err = run(capsys, "partial-compare", "--first", "discrete",
                         "--second", "shrinking", "--depths", ",")
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "need at least one depth"})


def test_replay_without_depths_is_input_error(capsys, tmp_path):
    report = {"command": "partial-compare", "inputs": {
        "first": {"name": "discrete", "params": {}},
        "second": {"name": "shrinking", "params": {}}, "depths": []},
        "report": {"upperBounds": [], "nonincreasing": True}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "need at least one depth"})


@pytest.mark.parametrize("depth", [MAX_BUILTIN_DEPTH + 1, 10 ** 12])
def test_partial_compare_depth_past_the_limit_exits_two(capsys, tmp_path,
                                                        monkeypatch, depth):
    def at(self, depth):
        raise AssertionError(f"carrier built at depth {depth}")
    monkeypatch.setattr(Carrier, "at", at)
    error = {"error": f"depth {depth} exceeds the limit of "
                      f"{MAX_BUILTIN_DEPTH}"}
    code, out, err = run(capsys, "partial-compare", "--first", "discrete",
                         "--second", "shrinking", "--depths", f"10,{depth}")
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "partial-compare", "inputs": {
        "first": {"name": "discrete", "params": {}},
        "second": {"name": "shrinking", "params": {}}, "depths": [depth]},
        "report": {"upperBounds": [], "nonincreasing": True}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_partial_compare_past_one_table_of_pairs_exits_two(capsys,
                                                          monkeypatch):
    def at(self, depth):
        raise AssertionError(f"carrier built at depth {depth}")
    monkeypatch.setattr(Carrier, "at", at)
    code, out, err = run(capsys, "partial-compare", "--first", "kappa",
                         "--second", "usual", "--depths", "961,999")
    assert (code, out, json.loads(err)) == (2, None, {
        "error": "the depths need 959781 pairs per metric, past the limit "
                 "of 499500 (one depth-1000 table)"})


def test_partial_compare_usual_alias_on_kappa_grid(capsys):
    code, doc, _ = run(capsys, "partial-compare", "--first", "kappa",
                       "--second", "usual", "--depths", "11,21,41")
    assert code == 0
    assert doc["report"]["upperBounds"] == ["1/10", "1/20", "1/40"]


def test_cauchy_demo(capsys, tmp_path):
    pairs = write_json(tmp_path / "pairs.json",
                       [[[0, 0], [0, 1]], [[1, 0], [2, 5]]])
    code, doc, _ = run(capsys, "cauchy-demo", "--indices", "10,20,40",
                       "--pairs", pairs)
    assert code == 0
    assert doc["report"]["demonstratesIncompleteness"] is True


def trip(what):
    def tripwire(*args, **kwargs):
        raise AssertionError(f"{what} started")
    return tripwire


# the pairs of one table at the depth limit, and the cauchy-demo check
# limit, a sixth of its entries
TABLE_PAIRS = MAX_BUILTIN_DEPTH * (MAX_BUILTIN_DEPTH - 1) // 2
CHECKS = MAX_BUILTIN_DEPTH ** 2 // 6


def plane_pairs(count):
    """`count` point pairs [[k, 0], [k, 1]], each a witness: 2 * count
    distinct points."""
    return [[[k, 0], [k, 1]] for k in range(count)]


@pytest.mark.parametrize("indices, pairs, error", [
    (2, MAX_BUILTIN_DEPTH // 2 + 1,
     f"{MAX_BUILTIN_DEPTH + 2} distinct points exceed the limit of "
     f"{MAX_BUILTIN_DEPTH}"),
    (MAX_BUILTIN_DEPTH + 1, 1,
     f"the indices and pairs need {TABLE_PAIRS + MAX_BUILTIN_DEPTH} "
     f"checks, past the limit of {CHECKS} (a sixth of the entries of one "
     f"depth-{MAX_BUILTIN_DEPTH} table)"),
    (578, 1,
     f"the indices and pairs need 166753 checks, past the limit of "
     f"{CHECKS} (a sixth of the entries of one "
     f"depth-{MAX_BUILTIN_DEPTH} table)"),
])
def test_cauchy_demo_past_a_limit_exits_two(capsys, tmp_path, monkeypatch,
                                            indices, pairs, error):
    monkeypatch.setattr(metrics, "combinations", trip("the Cauchy checks"))
    ns = list(range(1, indices + 1))
    path = write_json(tmp_path / "pairs.json", plane_pairs(pairs))
    code, out, err = run(capsys, "cauchy-demo", "--indices",
                         ",".join(map(str, ns)), "--pairs", path)
    assert (code, out, json.loads(err)) == (2, None, {"error": error})
    report = {"command": "cauchy-demo", "inputs": {
        "indices": ns, "pairs": plane_pairs(pairs)}, "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, {"error": error})


# one witness pair, repeated: the checks count every copy
WITNESS = [[0, 0], [0, 1]]


def test_cauchy_demo_one_check_past_the_limit_exits_two(capsys, tmp_path,
                                                        monkeypatch):
    """Two indices and CHECKS + 1 point pairs: the limit is read at the
    call, from MAX_BUILTIN_DEPTH, and no pair is read."""
    monkeypatch.setattr(metrics, "combinations", trip("the Cauchy checks"))
    monkeypatch.setattr(metrics, "_plane_points", trip("reading a pair"))
    path = write_json(tmp_path / "pairs.json", [WITNESS] * (CHECKS + 1))
    code, out, err = run(capsys, "cauchy-demo", "--indices", "1,2",
                         "--pairs", path)
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": (
        f"the indices and pairs need {CHECKS + 1} checks, past the limit of "
        f"{CHECKS} (a sixth of the entries of one "
        f"depth-{MAX_BUILTIN_DEPTH} table)")}
    monkeypatch.setattr(metrics, "MAX_BUILTIN_DEPTH", 12)
    with pytest.raises(InputError, match="need 25 checks, past the limit "
                       "of 24 .* depth-12 table"):
        cauchy_incompleteness_demo([1, 2], [WITNESS] * 25)


@pytest.mark.parametrize("indices, pairs", [
    (2, MAX_BUILTIN_DEPTH // 2), (577, 1)])
def test_cauchy_demo_limits_admit_the_limits(monkeypatch, indices, pairs):
    # the limits themselves are admitted but not computed here; 577
    # indices make 166,176 checks, the most one pair admits
    monkeypatch.setattr(metrics, "combinations", trip("the Cauchy checks"))
    with pytest.raises(AssertionError, match="the Cauchy checks started"):
        cauchy_incompleteness_demo(range(1, indices + 1), plane_pairs(pairs))


# Two consecutive indices near 10^(MAX_DIGITS / 2) with a spread of 1: the
# checks print 1/(n*m), whose denominator has MAX_DIGITS digits for the
# first pair and one more for the second.
HALF = 10 ** (MAX_DIGITS // 2)


@pytest.mark.parametrize("ns, printed", [
    ([HALF - 1, HALF], True), ([HALF, HALF + 1], False)])
def test_cauchy_demo_indices_at_the_digit_limit(capsys, tmp_path,
                                                monkeypatch, ns, printed):
    path = write_json(tmp_path / "pairs.json", [WITNESS])
    code, doc, err = run(capsys, "cauchy-demo", "--indices",
                         ",".join(map(str, ns)), "--pairs", path)
    if printed:
        assert code == 0
        gap = doc["report"]["cauchyChecks"][0]["maxGap"]
        assert gap == f"1/{ns[0] * ns[1]}"
        assert len(gap) == len("1/") + MAX_DIGITS
        report = write_json(tmp_path / "r.json", doc)
        assert run(capsys, "--replay", report)[1]["match"] is True
        return
    error = {"error": "the indices and pairs would print ratios past the "
                      f"{MAX_DIGITS}-digit limit"}
    assert (code, doc, json.loads(err)) == (2, None, error)
    # the limit is read at the call: one digit more admits the pair
    monkeypatch.setattr(metrics, "MAX_DIGITS", MAX_DIGITS + 1)
    monkeypatch.setattr(metrics, "combinations", trip("the Cauchy checks"))
    with pytest.raises(AssertionError, match="the Cauchy checks started"):
        cauchy_incompleteness_demo(ns, [WITNESS])


# Two first coordinates that print within the digit limit while their
# distance in the limit table does not (a 6,001-digit denominator), and one
# whose distance to 0 prints at the limit itself.
NEAR = 10 ** 3000
AT_LIMIT = f"1/{10 ** MAX_DIGITS - 1}"


@pytest.mark.parametrize("pairs, printed", [
    ([[[f"1/{NEAR + 1}", 0], [f"1/{NEAR + 1}", 1]],
      [[f"1/{NEAR + 3}", 0], [f"1/{NEAR + 3}", 0]]], False),
    ([WITNESS, [[AT_LIMIT, 0], [AT_LIMIT, 0]]], True),
])
def test_cauchy_demo_limit_table_at_the_digit_limit(capsys, tmp_path,
                                                    pairs, printed):
    path = write_json(tmp_path / "pairs.json", pairs)
    code, doc, err = run(capsys, "cauchy-demo", "--indices", "1,2",
                         "--pairs", path)
    if printed:
        assert (code, err) == (0, "")
        assert AT_LIMIT in doc["report"]["limitMatrix"]["rows"][0]
        report = write_json(tmp_path / "r.json", doc)
        assert run(capsys, "--replay", report)[1]["match"] is True
        return
    error = {"error": "the pairs' first coordinates differ by ratios past "
                      f"the {MAX_DIGITS}-digit limit"}
    assert (code, doc, json.loads(err)) == (2, None, error)
    report = {"command": "cauchy-demo",
              "inputs": {"indices": [1, 2], "pairs": pairs}, "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


# A 3-point table whose triangle (a, b, c) fails: each entry prints, and
# the sum d(a,b) + d(b,c) prints with a 4,299-digit denominator, or does
# not with a 6,001-digit one or with 10^4300, the least past the limit.
@pytest.mark.parametrize("p, q, printed", [
    (10 ** 2149 + 1, 10 ** 2149 + 3, True),
    (NEAR + 1, NEAR + 3, False),
    (2 ** MAX_DIGITS, 5 ** MAX_DIGITS, False),
], ids=["printed", "past the limit", "at the limit"])
def test_validate_triangle_sum_at_the_digit_limit(capsys, tmp_path, p, q,
                                                  printed):
    rows = [["0", f"1/{p}", "1"], [f"1/{p}", "0", f"1/{q}"],
            ["1", f"1/{q}", "0"]]
    path = write_json(tmp_path / "t.json",
                      {"labels": ["a", "b", "c"], "rows": rows})
    code, doc, err = run(capsys, "validate", path)
    if printed:
        assert (code, err) == (1, "")
        assert doc["report"]["violation"] == {
            "axiom": "triangle", "indices": ["a", "b", "c"], "lhs": "1/1",
            "rhs": reference.text(Fraction(1, p) + Fraction(1, q))}
        report = write_json(tmp_path / "r.json", doc)
        assert run(capsys, "--replay", report)[1]["match"] is True
        return
    error = {"error": "a number of the report would print past the "
                      f"{MAX_DIGITS}-digit limit"}
    assert (code, doc, json.loads(err)) == (2, None, error)


def test_norms_embed_past_the_limit_exits_two(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(norms, "eval_weighted_norm", trip("a norm"))
    w = write_json(tmp_path / "w.json", {"h0": "1"})
    points = [{"h0": k} for k in range(MAX_BUILTIN_DEPTH + 1)]
    pts = write_json(tmp_path / "pts.json", points)
    error = {"error": f"{MAX_BUILTIN_DEPTH + 1} embed points exceed the "
                      f"limit of {MAX_BUILTIN_DEPTH}"}
    code, out, err = run(capsys, "norms", "embed", "--weights", w,
                         "--points", pts)
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "norms-embed", "inputs": {
        "weights": {"h0": "1"}, "points": points}, "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_norms_embed_limit_admits_the_limit(monkeypatch):
    monkeypatch.setattr(norms, "eval_weighted_norm", trip("a norm"))
    points = [FSVector.from_dict({"h0": k}) for k in range(MAX_BUILTIN_DEPTH)]
    with pytest.raises(AssertionError, match="a norm started"):
        norms.embed_norm_to_metric(WeightMap({"h0": 1}), points)


@pytest.mark.parametrize("subset", [{"h0": 1}, "h0", "h0h2", None, 0])
def test_family_subset_that_is_not_a_list_exits_two(capsys, tmp_path,
                                                    subset):
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": subset, "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "2"})
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", "1/1000")
    assert (code, out, json.loads(err)) == (2, None, {
        "error": 'family spec "subsetC" must be a list of backbone members'})


def test_feasible_on_a_norm_family_universe_exits_two(capsys, tmp_path):
    """Family norms have no order: the down-set of `order feasible` asks
    for one, and the instance's `unsupported` op refuses it."""
    specs = [{"depth": 12, "subsetC": ["h0"], "gamma": "2"},
             {"depth": 12, "subsetC": ["h2", "h4"], "gamma": "3/2"}]
    names = [Path(write_json(tmp_path / f"f{k}.json", spec)).name
             for k, spec in enumerate(specs)]
    manifest = write_json(tmp_path / "universe.json", {
        "instance": "norm-family", "depth": 12, "elements": names})
    error = {"error": "family norms support only epsilon-witness comparisons"}
    code, out, err = run(capsys, "order", "feasible", "--universe", manifest,
                         "--x", str(tmp_path / "f0.json"))
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "order", "report": {}, "inputs": {
        "action": "feasible", "x": specs[0], "universe": {
            "instance": "norm-family", "depth": 12, "elements": specs}}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_norms_partition_and_weights(capsys, tmp_path):
    code, doc, _ = run(capsys, "norms", "partition", "--depth", "12")
    assert code == 0
    assert doc["report"]["assignment"]["h1"] == "d(h0,1)"

    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    code, doc, _ = run(capsys, "norms", "weights", "--spec", spec)
    assert code == 0
    assert doc["report"]["weights"]["h1"] == "2/1"


def test_partition_depth_past_the_limit_exits_two(capsys, tmp_path):
    depth = MAX_PARTITION_DEPTH + 1
    error = {"error": f"partition depth {depth} exceeds the limit of "
                      f"{MAX_PARTITION_DEPTH}"}
    spec = write_json(tmp_path / "p.json",
                      {"depth": depth, "subsetC": ["h0"], "gamma": "2"})
    manifest = write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": depth, "elements": ["p.json"]})
    for argv in (["norms", "partition", "--depth", str(depth)],
                 ["norms", "weights", "--spec", spec],
                 ["order", "indep", "--universe", manifest]):
        code, out, err = run(capsys, *argv)
        assert (code, out, json.loads(err)) == (2, None, error), argv


def test_partition_depth_limit_admits_the_limit():
    assert PartitionSpec(MAX_PARTITION_DEPTH).depth == MAX_PARTITION_DEPTH


def fiber_position(i: int) -> int:
    """The position whose tag is ("D", "h0", i): pair rank r = 2(i - 1) of
    backbone member a = 0, so its Cantor index is r(r + 1)/2 + r."""
    r = 2 * (i - 1)
    return 2 * (r * (r + 1) // 2 + r) + 1


@pytest.mark.parametrize("form", ["fiber", "positional"])
def test_fiber_index_past_the_limit_exits_two(capsys, tmp_path, form):
    index = MAX_PARTITION_DEPTH + 1
    name = (f"d(h0,{index})" if form == "fiber"
            else f"h{fiber_position(index)}")
    assert PartitionSpec(12).tag_of_position(fiber_position(index)) == \
        ("D", "h0", index)
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {name: "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"fiber index {index} of {name} exceeds the limit of "
                 f"{MAX_PARTITION_DEPTH}"})


def test_fiber_index_limit_admits_the_limit():
    # resolved only: the weight 2**100000 of this index is not printable
    part = PartitionSpec(12)
    for name in (f"e(h0,{MAX_PARTITION_DEPTH})",
                 f"h{fiber_position(MAX_PARTITION_DEPTH)}"):
        assert part.resolve(name)[2] == MAX_PARTITION_DEPTH


def test_norms_eval(capsys, tmp_path):
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {"e(h0,5)": "1"})
    code, doc, _ = run(capsys, "norms", "eval", "--spec", spec, "--vector", vec)
    assert code == 0
    assert doc["report"]["value"] == "1/32"


def test_norms_witness_reaches_spec_ratio(capsys, tmp_path):
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "2"})
    code, doc, _ = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                       "--eps", "1/1000")
    assert code == 0
    direction = doc["report"]["firstRelativeToSecond"]
    assert direction["index"] == 10
    assert direction["ratioAtIndex"] == "1/1024"


def test_norms_embed(capsys, tmp_path):
    w = write_json(tmp_path / "w.json", {"h0": "1", "h1": "3"})
    pts = write_json(tmp_path / "pts.json",
                     [{}, {"h0": "1"}, {"h1": "2"}])
    code, doc, _ = run(capsys, "norms", "embed", "--weights", w, "--points", pts)
    assert code == 0
    assert doc["report"]["matrix"]["rows"][0][2] == "6/1"
    assert doc["report"]["validation"]["pass"] is True


def test_axioms_deterministic_for_fixed_seed(capsys):
    args = ("axioms", "--instance", "metrics", "--seed", "0",
            "--sample", "12", "--carrier", "4")
    code1, doc1, _ = run(capsys, *args)
    code2, doc2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_axioms_mutant_fails_with_exit_one(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "metrics-reversed-order",
                       "--seed", "0", "--sample", "12", "--carrier", "4")
    assert code == 1
    failed = [e for e in doc["report"]["axioms"] if e["status"] == "fail"]
    assert any(e["axiom"] == "A6" for e in failed)
    assert all("counterexample" in e for e in failed)


def test_axioms_with_properties(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "cone", "--seed", "0",
                       "--sample", "12", "--dim", "2", "--properties")
    assert code == 0
    props = {p["axiom"]: p["status"] for p in doc["report"]["properties"]}
    assert props["zero-primitive"] == "fail"
    assert props["single-primitive"] == "pass"


@pytest.mark.parametrize("flag, value, error", [
    ("--sample", MAX_SAMPLE + 1,
     f"sample size {MAX_SAMPLE + 1} exceeds the limit of {MAX_SAMPLE}"),
    ("--carrier", MAX_CARRIER + 1,
     f"carrier size {MAX_CARRIER + 1} exceeds the limit of {MAX_CARRIER}"),
    ("--carrier", 1, "a carrier needs two points, not 1"),
    ("--carrier", 0, "a carrier needs two points, not 0"),
])
def test_axioms_inputs_past_a_limit_exit_two(capsys, flag, value, error):
    code, out, err = run(capsys, "axioms", "--instance", "metrics",
                         "--seed", "0", flag, str(value))
    assert (code, out, json.loads(err)) == (2, None, {"error": error})


def test_axioms_limits_admit_the_values_in_use():
    # the limits themselves are accepted; the suite is not run on them
    assert MAX_SAMPLE >= 50 and MAX_CARRIER >= 6
    inst, sample, _ = build_instance("metrics", carrier=MAX_CARRIER,
                                     sample=MAX_SAMPLE)
    assert len(sample) == MAX_SAMPLE
    assert len(sample[0][0]) == MAX_CARRIER * (MAX_CARRIER + 1) // 2
    inst, sample, _ = build_instance("metrics-no-abs-scale", carrier=2)
    assert len(sample[1][0]) == 3


def test_axioms_norms_depth_past_the_limit_exits_two(capsys, tmp_path):
    error = {"error": f"depth {MAX_DEPTH + 1} exceeds the limit of "
                      f"{MAX_DEPTH}"}
    code, out, err = run(capsys, "axioms", "--instance", "norms", "--seed",
                         "0", "--sample", "4", "--depth", str(MAX_DEPTH + 1))
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "axioms", "inputs": {
        "instance": "norms", "seed": 0, "sample": 4, "carrier": 6,
        "depth": MAX_DEPTH + 1, "dim": 2, "properties": False},
        "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_axioms_norms_depth_limit_admits_the_depths_in_use():
    # the default, the depths of tests/ and perfbench/ (which runs the
    # default) and the limit itself build; the suite is not run on them
    for depth in (6, 8, 12, MAX_DEPTH):
        _, sample, _ = build_instance("norms", depth=depth, sample=4)
        assert len(sample[0][0]) == depth + 6
    _, sample, _ = build_instance("norms", sample=4)
    assert len(sample[0][0]) == 12 + 6


# sha256 of the stdout of `evs axioms --instance NAME --seed SEED --sample 12
# --properties` and its exit code, recorded from the verifier as it was before
# its checks were collapsed into one law table. The bytes are the contract.
AXIOMS_GOLDEN = {
    ("metrics", 0): (0, "3127b62f4e864390d1c1924be1fa40b09d8ccf9d4f8e7cb38bd3a6df911e2518"),
    ("metrics", 1): (0, "5d59648fdf20dd21dc0f2e641d91d146b898044ae09f9cec3c9c778b47a6595c"),
    ("norms", 0): (0, "f18408c7af09378c12e035b461c8d7c1981c00eced27d30c447a00bc2094bc11"),
    ("norms", 1): (0, "3c811b25a8d595bb21ca10d9fcb1e817e8107afa446cdbfa053950968756ba0f"),
    ("cone", 0): (0, "aa66499d2f29f03f5298c9b4caa07d204387a53db74f2a8322b6e9b7506493d0"),
    ("cone", 1): (0, "4ffcead5381e4096abbe212f777f62ea6621e6eaf0ef98e676667440750b2ff3"),
    ("hyperspace", 0): (0, "d8e1b4cb513774c11cd6c57b26841121b48d7dc63604b6bea63bbdd404849650"),
    ("hyperspace", 1): (0, "fed15099cba8570816c2ee4ed90c4c58c8cebf92e58aebd5092768779d6310c1"),
    ("metrics-reversed-order", 0): (1, "b2533be456e61a750c642baa2e9d9f7943e0266fdddeb280645c61a1b0ecf38c"),
    ("metrics-reversed-order", 1): (1, "52d2489a63034da74ba488647bb85241f4e87a85e1d04a574444421a72457bb2"),
    ("metrics-no-abs-scale", 0): (1, "2b5bba8e990d16a6f13c876535bf709887cd60b87a67494ebd747ee5f14a3480"),
    ("metrics-no-abs-scale", 1): (1, "3d6d975c1b571b46bcfb404062c37301d73d32282cd113d0da0d21f61da0e1a8"),
}


@pytest.mark.parametrize(("name", "seed"), sorted(AXIOMS_GOLDEN))
def test_axioms_stdout_bytes_match_golden(capsys, name, seed):
    code = main(["axioms", "--instance", name, "--seed", str(seed),
                 "--sample", "12", "--properties"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == AXIOMS_GOLDEN[(name, seed)]


def test_not_applicable_axiom_counts_as_not_passed(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "metrics", "--seed",
                       "0", "--sample", "1", "--properties")
    assert code == 1
    statuses = {e["axiom"]: e["status"] for e in doc["report"]["axioms"]}
    assert statuses.pop("A2") == "not-applicable"
    assert set(statuses.values()) == {"pass"}
    assert doc["report"]["pass"] is False
    assert {p["status"] for p in doc["report"]["properties"]} == {"pass"}


def make_metric_universe(tmp_path, count=4):
    labels = ("x1", "x2", "x3", "x4")
    import random

    from evslib.metrics import random_metric

    rng = random.Random(3)
    refs = []
    for k in range(count):
        m = random_metric(rng, labels)
        write_json(tmp_path / f"u{k}.json", m.to_json())
        refs.append(f"u{k}.json")
    manifest = write_json(tmp_path / "universe.json",
                          {"instance": "metrics", "elements": refs})
    return manifest, labels


def test_order_in_l_and_generates(capsys, tmp_path):
    manifest, labels = make_metric_universe(tmp_path)
    disc = write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())
    code, doc, _ = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", disc, "--y", str(tmp_path / "u0.json"))
    assert code == 0
    assert doc["report"]["status"] == "positive"

    code, doc, _ = run(capsys, "order", "generates", "--universe", manifest,
                       "--generator", disc)
    assert code == 0
    assert doc["report"]["status"] == "pass"


def test_order_indep_fails_on_dependent_universe(capsys, tmp_path):
    manifest, _ = make_metric_universe(tmp_path, count=3)
    code, doc, _ = run(capsys, "order", "indep", "--universe", manifest)
    assert code == 1
    assert doc["report"]["status"] == "fail"


def test_order_basis_and_feasible(capsys, tmp_path):
    manifest, _ = make_metric_universe(tmp_path)
    disc = write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())
    code, doc, _ = run(capsys, "order", "basis", "--universe", manifest,
                       "--generator", disc)
    assert code == 0 and doc["report"]["status"] == "pass"

    code, doc, _ = run(capsys, "order", "feasible", "--universe", manifest,
                       "--x", str(tmp_path / "u0.json"))
    assert code == 0 and doc["report"]["status"] == "pass"


def test_order_reads_each_element_file_once_per_invocation(tmp_path,
                                                          monkeypatch):
    """`evs order` loads a file once however often the manifest, --x, --y
    and --generator name it, loads it again in the next invocation, and
    prints the report that a copy of the file under another name gives."""
    from evslib import cli as cli_module

    manifest, _ = make_metric_universe(tmp_path)
    elements = [str(tmp_path / f"u{k}.json") for k in range(4)]
    u0, u1 = elements[:2]
    copy = write_json(tmp_path / "copy.json",
                      json.loads(Path(u0).read_text(encoding="utf-8")))
    calls, load = [], cli_module._load_element

    def counting(kind, path):
        calls.append(path)
        return load(kind, path)

    monkeypatch.setattr(cli_module, "_load_element", counting)
    for action, *argv in (["in-l", "--x", u0, "--y", u1],
                          ["in-l", "--x", u0, "--y", u0],
                          ["feasible", "--x", u1],
                          ["generates", "--generator", u0,
                           "--generator", u0],
                          ["basis", "--generator", u0, "--generator", u1]):
        outs = []
        for _ in range(2):
            calls.clear()
            code, out, err = cli("order", action, "--universe", manifest,
                                 *argv)
            assert (code in (0, 1), err) == (True, "")
            assert calls == elements
            outs.append(out)
        argv = [copy if a == u0 else a for a in argv]
        calls.clear()
        code, out, _ = cli("order", action, "--universe", manifest, *argv)
        assert calls == elements + [copy] * (copy in argv)
        assert outs == [out, out]


def other_carrier_table(tmp_path):
    """A valid 4-point table over labels no universe here uses."""
    m = builtin_metric("discrete", {}, 4).to_json()
    return write_json(tmp_path / "other.json",
                      {"labels": ["a", "b", "c", "d"], "rows": m["rows"]})


def assert_carrier_mismatch(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, None)
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert list(doc) == ["error"]
    assert "different carrier" in doc["error"]


@pytest.mark.parametrize("action", ["in-l", "indep", "generates", "basis",
                                    "feasible"])
def test_order_manifest_element_over_other_labels_exits_two(capsys, tmp_path,
                                                            action):
    manifest, _ = make_metric_universe(tmp_path, count=2)
    other_carrier_table(tmp_path)
    write_json(tmp_path / "universe.json", {
        "instance": "metrics", "elements": ["u0.json", "other.json"]})
    u0 = str(tmp_path / "u0.json")
    extra = {"in-l": ["--x", u0, "--y", u0], "feasible": ["--x", u0],
             "generates": ["--generator", u0], "basis": ["--generator", u0]}
    assert_carrier_mismatch(capsys, "order", action, "--universe", manifest,
                            *extra.get(action, []))


@pytest.mark.parametrize("argv", [
    ["in-l", "--x", "OTHER", "--y", "U0"],
    ["in-l", "--x", "U0", "--y", "OTHER"],
    ["feasible", "--x", "OTHER"],
    ["generates", "--generator", "OTHER"],
    ["basis", "--generator", "OTHER"],
])
def test_order_element_over_other_labels_exits_two(capsys, tmp_path, argv):
    manifest, _ = make_metric_universe(tmp_path, count=2)
    files = {"OTHER": other_carrier_table(tmp_path),
             "U0": str(tmp_path / "u0.json")}
    action, *rest = argv
    assert_carrier_mismatch(capsys, "order", action, "--universe", manifest,
                            *[files.get(a, a) for a in rest])


def test_order_norm_family_indep_with_eps(capsys, tmp_path):
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "3"})
    manifest = write_json(tmp_path / "nu.json",
                          {"instance": "norm-family", "depth": 12,
                           "elements": ["p.json", "q.json"]})
    code, doc, _ = run(capsys, "order", "indep", "--universe", manifest,
                       "--eps", "1/1000000")
    assert code == 0
    assert doc["report"]["status"] == "pass-with-eps"


def test_replay_round_trip(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "compare", disc_file, disc_file)
    assert code == 0
    report_file = write_json(tmp_path / "report.json", doc)
    code, replay_doc, _ = run(capsys, "--replay", report_file)
    assert code == 0
    assert replay_doc["match"] is True


def test_replay_detects_tampering(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "compare", disc_file, disc_file)
    doc["report"]["classification"] = "orderly-independent"
    report_file = write_json(tmp_path / "tampered.json", doc)
    code, replay_doc, _ = run(capsys, "--replay", report_file)
    assert code == 1
    assert replay_doc["match"] is False


def test_no_floating_point_in_reports(capsys, tmp_path, disc_file):
    for args in (
        ("validate", disc_file),
        ("combine", "--scale", "1/3", disc_file),
        ("partial-compare", "--first", "discrete", "--second", "shrinking",
         "--depths", "5,10"),
    ):
        code = main(list(args))
        out = capsys.readouterr().out
        assert code == 0
        assert not FLOAT_PATTERN.search(out), args


@pytest.mark.parametrize("doc", [
    {"labels": ["a", "b"], "rows": 5},
    {"labels": "ab", "rows": [["0", "1"], ["1", "0"]]},
    {"labels": ["a", "b"], "rows": [["0", "1"], "10"]},
])
def test_validate_malformed_matrix_is_input_error(capsys, tmp_path, doc):
    code, _, err = run(capsys, "validate", write_json(tmp_path / "m.json", doc))
    assert code == 2
    assert "error" in json.loads(err)


def test_order_malformed_cone_element_is_input_error(capsys, tmp_path):
    write_json(tmp_path / "e.json", {"r": "1"})
    manifest = write_json(tmp_path / "u.json", {"instance": "cone", "dim": 2,
                                                "elements": ["e.json"]})
    x = write_json(tmp_path / "x.json", {"r": "1", "v": ["0", "0"]})
    code, _, err = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", x, "--y", x)
    assert code == 2
    assert "error" in json.loads(err)


NEGATIVE_RADIUS = {"r": "-1", "v": ["1", "0"]}
VALID_CONE_ELEMENT = {"r": "1", "v": ["1", "0"]}


@pytest.mark.parametrize("action", ["in-l", "feasible"])
@pytest.mark.parametrize("where", ["x", "universe"])
def test_negative_cone_radius_is_input_error(capsys, tmp_path, action, where):
    """The cone carrier is [0, inf) x V: a negative radius in --x or in a
    manifest element exits 2 with an error naming the radius."""
    bad = write_json(tmp_path / "bad.json", NEGATIVE_RADIUS)
    good = write_json(tmp_path / "good.json", VALID_CONE_ELEMENT)
    x, element = (bad, good) if where == "x" else (good, bad)
    manifest = write_json(tmp_path / "u.json", {
        "instance": "cone", "dim": 2, "elements": [element]})
    extra = ["--y", x] if action == "in-l" else []
    code, out, err = run(capsys, "order", action, "--universe", manifest,
                         "--x", x, *extra)
    assert (code, out) == (2, None)
    assert json.loads(err) == {
        "error": "cone radius r must be nonnegative, not -1/1"}


@pytest.mark.parametrize("doc", [
    {"command": "axioms", "inputs": {}, "report": {}},
    {"command": "axioms", "inputs": [], "report": {}},
    {"command": "validate", "report": {}},
    {"command": ["validate"], "inputs": {}, "report": {}},
    {"command": "order", "inputs": {"action": "in-l",
                                    "universe": {"instance": "cone"}},
     "report": {}},
    {"command": "order", "inputs": {"action": "in-l", "universe": 5},
     "report": {}},
    {"command": "order", "inputs": {"action": "in-l", "universe": {
        "instance": "metrics", "elements": 5}}, "report": {}},
    {"command": "partial-compare", "inputs": {
        "first": "discrete", "second": {"name": "shrinking", "params": {}},
        "depths": [5]}, "report": {}},
])
def test_replay_malformed_inputs_is_input_error(capsys, tmp_path, doc):
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", doc))
    assert (code, out) == (2, None)
    assert "internal" not in json.loads(err)


AXIOMS_INPUTS = {"instance": "cone", "seed": 0, "sample": 4, "carrier": 6,
                 "depth": 12, "dim": 2, "properties": False}
DISCRETE = {"name": "discrete", "params": {}}

# command, inputs with one integer, list or object input spelled otherwise,
# and the error
NON_INTEGER_INPUTS = {
    "builtin-depth-string": (
        "builtin", {**DISCRETE, "depth": "5"},
        """"depth" must be an integer, not '5'"""),
    "builtin-depth-float": (
        "builtin", {**DISCRETE, "depth": 2.5},
        '"depth" must be an integer, not 2.5'),
    "norms-partition-depth-string": (
        "norms-partition", {"depth": "12"},
        """"depth" must be an integer, not '12'"""),
    "axioms-sample-string": (
        "axioms", {**AXIOMS_INPUTS, "sample": "5"},
        """"sample" must be an integer, not '5'"""),
    "axioms-dim-string": (
        "axioms", {**AXIOMS_INPUTS, "dim": "2"},
        """"dim" must be an integer, not '2'"""),
    "partial-compare-depths-strings": (
        "partial-compare",
        {"first": DISCRETE, "second": DISCRETE, "depths": ["5", "9"]},
        """"depths" entry must be an integer, not '5'"""),
    "partial-compare-depths-int": (
        "partial-compare",
        {"first": DISCRETE, "second": DISCRETE, "depths": 5},
        '"depths" must be a list of integers, not 5'),
    "cauchy-demo-indices": (
        "cauchy-demo",
        {"indices": ["x", 2], "pairs": [[["0", "0"], ["0", "1"]]]},
        """"indices" entry must be an integer, not 'x'"""),
    "order-generators-int": (
        "order", {"action": "generates", "generators": 5, "universe": {
            "instance": "cone", "dim": 2,
            "elements": [{"r": "1", "v": ["1", "0"]}]}},
        '"generators" must be a list, not 5'),
    "builtin-params-int": (
        "builtin", {"name": "discrete", "params": 5, "depth": 3},
        '"params" must be an object, not 5'),
    "builtin-params-pairs": (
        "builtin", {"name": "usual-grid", "params": [["step", "1"]],
                    "depth": 3},
        """"params" must be an object, not [['step', '1']]"""),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_replayed_non_integer_input_is_input_error(capsys, tmp_path, name):
    command, inputs, error = NON_INTEGER_INPUTS[name]
    report = write_json(tmp_path / "r.json", {
        "command": command, "inputs": inputs, "report": {}})
    code, out, err = run(capsys, "--replay", report)
    assert (code, out, err.count("\n"), json.loads(err)) == (
        2, None, 1, {"error": error})


AXIOM_INPUTS = {"seed": 0, "sample": 4, "carrier": 6, "depth": 12, "dim": 2,
                "properties": False}


@pytest.mark.parametrize("command, inputs, error", [
    ("axioms", dict(AXIOM_INPUTS, instance=instance),
     "an instance name must be a string")
    for instance in (["x"], {"name": "metrics"})] + [
    ("builtin", {"name": name, "params": {}, "depth": 3},
     "a builtin metric name must be a string")
    for name in (["discrete"], {})])
def test_replayed_non_string_name_is_input_error(capsys, tmp_path, command,
                                                 inputs, error):
    report = write_json(tmp_path / "r.json", {
        "command": command, "inputs": inputs, "report": {}})
    code, out, err = run(capsys, "--replay", report)
    assert (code, out, err.count("\n"), json.loads(err)) == (
        2, None, 1, {"error": error})


@pytest.mark.parametrize("depth, shown", [
    ('"abc"', "'abc'"), ("1e400", "inf"), ("12.5", "12.5"), ('"12"', "'12'")])
def test_non_integer_family_spec_depth_is_input_error(capsys, tmp_path,
                                                      depth, shown):
    (tmp_path / "p.json").write_text(
        '{"depth": %s, "subsetC": ["h0"], "gamma": "2"}' % depth,
        encoding="utf-8")
    manifest = write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": 12, "elements": ["p.json"]})
    error = {"error": f'family spec "depth" must be an integer, not {shown}'}
    for argv in (["norms", "weights", "--spec", str(tmp_path / "p.json")],
                 ["order", "indep", "--universe", manifest]):
        code, out, err = run(capsys, *argv)
        assert (code, out, json.loads(err)) == (2, None, error), argv


LONG_INT = "1" + "0" * 4999   # past Python's 4300-digit int-from-str limit

# name -> argv reading the file m.json, and that file's text
LONG_INT_INPUTS = {
    "validate-entry": (
        ["validate", "m.json"],
        '{"labels": ["a", "b"], "rows": [["0", %s], [%s, "0"]]}'
        % (LONG_INT, LONG_INT)),
    "norms-weights-depth": (
        ["norms", "weights", "--spec", "m.json"],
        '{"depth": %s, "subsetC": ["h0"], "gamma": "2"}' % LONG_INT),
    "replay-builtin-depth": (
        ["--replay", "m.json"],
        '{"command": "builtin", "inputs": {"name": "discrete", "params": {}, '
        '"depth": %s}, "report": {}}' % LONG_INT),
}


@pytest.mark.parametrize("name", sorted(LONG_INT_INPUTS))
def test_over_long_json_integer_is_input_error(capsys, tmp_path, name):
    argv, text = LONG_INT_INPUTS[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(path) if a == "m.json" else a
                                   for a in argv])
    assert (code, out, err.count("\n")) == (2, None, 1)
    assert json.loads(err)["error"].startswith(
        f"malformed JSON in {path}: Exceeds the limit (4300 digits)")


def test_internal_fault_exits_three(capsys, monkeypatch):
    """A fault of the program itself, here a handler that raises, is an
    internal fault: exit 3 with a JSON error on stderr and no report, not a
    traceback and exit 1."""
    from evslib import cli

    def fault(inputs):
        raise RuntimeError("a handler fault")
    monkeypatch.setitem(cli._HANDLERS, "norms-partition", fault)
    code, out, err = run(capsys, "norms", "partition", "--depth", "4")
    assert (code, out) == (3, None)
    doc = json.loads(err)
    assert doc["internal"] is True
    assert doc["error"] == "RuntimeError: a handler fault"
    assert doc["traceback"].startswith("Traceback")


def evs_process(*argv, stdout):
    """`python -m evslib.cli *argv` on this tree, its stdout and stderr
    piped, and its stdout block-buffered, as it is by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(metrics.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "evslib.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_a_reader_that_stops_early_is_not_an_internal_fault():
    """`evs builtin shrinking --depth 200 | head -c 10`: the reader closes
    the pipe inside an 843 kB report. The run exits 141 (128 + SIGPIPE),
    neither 1, a domain failure, nor 3, an internal fault, and prints
    nothing on stderr."""
    proc = evs_process("builtin", "shrinking", "--depth", "200",
                       stdout=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "comma'
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


@pytest.mark.parametrize("replayed", [False, True], ids=["run", "replay"])
def test_a_stdout_closed_before_a_short_report_exits_141(tmp_path, replayed):
    """A report far shorter than the pipe's buffer, written after its
    reader has gone: the write is flushed where main catches it, not at
    interpreter exit, where it would print "Exception ignored" and exit
    120. A replay's verdict line behaves the same."""
    argv = ["norms", "partition", "--depth", "4"]
    if replayed:
        out = StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        argv = ["--replay", str(tmp_path / "r.json")]
        Path(argv[1]).write_text(out.getvalue(), encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = evs_process(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.wait(), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


@pytest.mark.parametrize("gamma, eps", [("11/10", "1e-4299"),
                                        ("1000001/1000000", "1e-30"),
                                        ("1001/1000", "1e-60")])
def test_decay_index_past_the_fiber_cap_is_input_error(capsys, tmp_path,
                                                       gamma, eps):
    """A witness whose index would pass the fiber-index cap of `norms eval`
    (103,859 for gamma 11/10, about 69 million for 1000001/1000000, 138,225
    for 1001/1000, whose 10-bit powers reach the cap inside the bit budget)
    exits 2 with a JSON error."""
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": gamma})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": gamma})
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", eps)
    assert (code, out) == (2, None)
    assert json.loads(err)["error"] == (
        "the decay index exceeds the fiber-index limit of 100000")


def test_decay_power_past_the_bit_budget_is_input_error(capsys, tmp_path):
    """A 400-digit gamma needs an index near 100,000 at this epsilon, where
    a power of its 1,329-bit ratio denominator has about 133 million bits:
    the witness exits 2 with a JSON error before it builds a power past
    2^20 bits."""
    gamma = f"{10 ** 400 + 1}/{10 ** 400}"
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": gamma})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": gamma})
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", "0." + "9" * 395)
    assert (code, out) == (2, None)
    assert json.loads(err)["error"] == (
        "the decay index exceeds 788, past which a power of the 1329-bit "
        "ratio denominator could pass the budget of 1048576 bits")


def family_specs(tmp_path, gamma):
    """Two family specs of one gamma, with C {h0} and {h2}."""
    return [write_json(tmp_path / f"{name}.json",
                       {"depth": 12, "subsetC": [t], "gamma": gamma})
            for name, t in (("p", "h0"), ("q", "h2"))]


def refuse_to_search(monkeypatch):
    """Make any entry into the decay-index search fail."""
    def search(base, eps):
        raise AssertionError("the decay-index search ran")

    monkeypatch.setattr(norms, "_smallest_decay_index", search)


def test_unprintable_witness_is_refused_before_its_search(capsys, tmp_path,
                                                          monkeypatch):
    """At gamma 1001/1000 and epsilon 1e-10 the least index is 23,038,
    whose ratio has a denominator of about 69,000 digits: `norms witness`
    exits 2 with the print-limit error, and `order indep` on a universe of
    the two specs does too, without searching for the index."""
    refuse_to_search(monkeypatch)
    p, q = family_specs(tmp_path, "1001/1000")
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", "1e-10")
    assert (code, out, json.loads(err)) == (2, None, {"error": PRINT_LIMIT})
    manifest = write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": 12,
        "elements": ["p.json", "q.json"]})
    code, out, err = run(capsys, "order", "indep", "--universe", manifest,
                         "--eps", "1e-10")
    assert (code, out, json.loads(err)) == (2, None, {"error": PRINT_LIMIT})


# base 10/11: 11**4129 has 4,300 digits and 11**4130 has 4,301, so a
# ratio base**i prints exactly for i < 4130
TENTH = Fraction(10, 11)


@functools.cache
def least_tenth_index(k: int) -> tuple:
    """The model's least decay index of 10/11 at epsilon (10/11)**k."""
    return reference.least_decay_index(TENTH, TENTH ** k)


def move_estimate(monkeypatch, move: int) -> None:
    estimate = norms._decay_index_estimate
    monkeypatch.setattr(norms, "_decay_index_estimate",
                        lambda a, b, e, f: estimate(a, b, e, f) + move)


@pytest.mark.parametrize("move", [0, 1, 1000])
def test_witness_at_the_last_printable_index_prints_and_replays(
        tmp_path, monkeypatch, move):
    """At gamma 11/10 and epsilon (10/11)**4128 the least index is 4,129,
    whose ratio prints: `norms witness` reports it and replays, with the
    float estimate of the index where it is or moved above it."""
    index, ratio = least_tenth_index(4128)
    assert index == 4129 and len(str(ratio.denominator)) == MAX_DIGITS
    move_estimate(monkeypatch, move)
    p, q = family_specs(tmp_path, "11/10")
    code, out, err = cli("norms", "witness", "--spec", p, "--spec", q,
                         "--eps", reference.text(TENTH ** 4128))
    assert (code, err) == (0, "")
    for key in ("firstRelativeToSecond", "secondRelativeToFirst"):
        direction = json.loads(out)["report"][key]
        assert (direction["index"], direction["ratioAtIndex"]) == \
            (index, reference.text(ratio))
    assert_replays(tmp_path, out)


@pytest.mark.parametrize("move", [0, -1])
def test_witness_at_the_first_unprintable_index_is_refused(
        capsys, tmp_path, monkeypatch, move):
    """At epsilon (10/11)**4129, whose 4,300-digit denominator still
    parses, the least index is 4,130, whose ratio does not print: the
    witness exits 2 with the print-limit error before any search, with
    the estimate where it is or one below."""
    index, ratio = least_tenth_index(4129)
    assert index == 4130
    with pytest.raises(ValueError):
        str(ratio.denominator)
    move_estimate(monkeypatch, move)
    refuse_to_search(monkeypatch)
    p, q = family_specs(tmp_path, "11/10")
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", reference.text(TENTH ** 4129))
    assert (code, out, json.loads(err)) == (2, None, {"error": PRINT_LIMIT})


def test_unprintable_witness_past_half_the_cap_still_searches(
        capsys, tmp_path, monkeypatch):
    """At gamma 1001/1000 and epsilon 1e-30 the estimate 69,113 is past
    half the fiber-index cap, where the search alone may tell the index
    from one past the cap: the search runs, and its ratio then meets the
    print-limit error."""
    assert 2 * norms._decay_index_estimate(1000, 1001, 1, 10 ** 30) > \
        MAX_PARTITION_DEPTH
    bases = []
    search = norms._smallest_decay_index

    def spy(base, eps):
        bases.append(base)
        return search(base, eps)

    monkeypatch.setattr(norms, "_smallest_decay_index", spy)
    p, q = family_specs(tmp_path, "1001/1000")
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", "1e-30")
    assert (code, out, json.loads(err)) == (2, None, {"error": PRINT_LIMIT})
    assert bases == [Fraction(1000, 1001)]


BIG_GAMMA = f"{10 ** 100 + 1}/{10 ** 100}"   # a 333-bit numerator


@pytest.mark.parametrize("vector", [{"d(h0,100000)": "1"},
                                    {"h0": "1", "e(h0,100000)": "1"}])
def test_fiber_weight_past_the_bit_budget_is_input_error(capsys, tmp_path,
                                                         vector):
    """gamma^100000 and gamma^-100000 of a 333-bit gamma could have 33
    million bits: `norms eval` exits 2 before it builds either, within a
    second, also where the weighted coordinate is not the maximum."""
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": BIG_GAMMA})
    vec = write_json(tmp_path / "v.json", vector)
    start = time.perf_counter()
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, None)
    assert json.loads(err)["error"] == (
        "the weight of fiber index 100000 is a power of the 333-bit gamma "
        "that could pass the budget of 1048576 bits")


@pytest.mark.parametrize("gamma, index, code", [
    ("1001/1000", 100000, 0),                  # 10 bits: within the budget
    ("65535/65534", 1 << 16, 0),               # 16 bits: at the budget
    ("65535/65534", (1 << 16) + 1, 2),         # one index past it
])
def test_fiber_weight_budget_admits_what_it_bounds(capsys, tmp_path, gamma,
                                                   index, code):
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": gamma})
    vec = write_json(tmp_path / "v.json",
                     {"h0": "1", f"e(h0,{index})": "1"})
    got, out, err = run(capsys, "norms", "eval", "--spec", spec,
                        "--vector", vec)
    assert got == code
    if code == 0:
        assert (out["report"], err) == ({"value": "1/1"}, "")


def test_norms_eval_weighs_only_the_coordinates_of_its_vector(
        capsys, tmp_path, monkeypatch):
    """`norms eval --spec` weighs each coordinate of its vector by the
    closed form and no other index: three coordinates at depth 100,000
    take three weights."""
    tags = []
    weight_of_tag = norms.NormFamilyParams.weight_of_tag

    def counted(self, tag):
        tags.append(tag)
        return weight_of_tag(self, tag)

    monkeypatch.setattr(norms.NormFamilyParams, "weight_of_tag", counted)
    spec = write_json(tmp_path / "p.json", {
        "depth": MAX_PARTITION_DEPTH, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json",
                     {"h0": "1", "h1": "3", "e(h0,3)": "5"})
    code, doc, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, doc["report"], err) == (0, {"value": "6/1"}, "")
    assert sorted(tags) == [("B", "h0"), ("D", "h0", 1), ("E", "h0", 3)]


# a 6,977-bit numerator: gamma^151 could pass the bit budget, and at depth
# 100,000 the prefix holds fibers of h0 up to index 158
WIDE_GAMMA = f"{10 ** 2100 + 1}/{10 ** 2100}"


def test_a_wide_gamma_weighs_a_vector_without_wide_fibers(capsys, tmp_path):
    """`norms eval` prints the value of a vector that names no fiber whose
    weight could pass the bit budget, and replays it; a bad coordinate
    name is the error it reports. (`norms weights`, which prints every
    prefix weight, exits 2 on this spec.)"""
    spec = write_json(tmp_path / "p.json", {
        "depth": MAX_PARTITION_DEPTH, "subsetC": ["h0"], "gamma": WIDE_GAMMA})
    vec = write_json(tmp_path / "v.json", {"h0": "1"})
    code, out, err = cli("norms", "eval", "--spec", spec, "--vector", vec)
    assert (code, json.loads(out)["report"], err) == (0, {"value": "1/1"}, "")
    assert_replays(tmp_path, out)
    bad = write_json(tmp_path / "x.json", {"x": "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", bad)
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "unrecognized index name 'x'"})


def test_norms_weights_refuses_a_wide_gamma_before_it_builds_a_power(
        capsys, tmp_path, monkeypatch):
    """Every prefix weight passes the bit budget before any power of gamma
    is built: the first weight past it, at index 151 of h0's fibers, is
    the error, and no power is built before it, where building the 300
    powers below it took about 10 s."""
    powers = []
    power = Fraction.__pow__

    def counted(a, b, *modulo):
        powers.append(b)
        return power(a, b, *modulo)

    monkeypatch.setattr(Fraction, "__pow__", counted)
    spec = write_json(tmp_path / "p.json", {
        "depth": MAX_PARTITION_DEPTH, "subsetC": ["h0"], "gamma": WIDE_GAMMA})
    code, out, err = run(capsys, "norms", "weights", "--spec", spec)
    assert (code, out, json.loads(err)) == (2, None, {"error": (
        "the weight of fiber index 151 is a power of the 6977-bit gamma "
        "that could pass the budget of 1048576 bits")})
    assert powers == []


def every_backbone_member_but(left_out: str) -> list:
    return [f"h{k}" for k in range(0, MAX_PARTITION_DEPTH, 2)
            if f"h{k}" != left_out]


def test_a_spec_of_every_backbone_member_but_one_is_read_fast(capsys,
                                                              tmp_path):
    """Two depth-100,000 specs whose C holds 49,999 of the 50,000 backbone
    members: each is checked and weighed in time linear in its size, so
    `norms eval` and `norms witness` each exit 0 within seconds."""
    p = write_json(tmp_path / "p.json", {"depth": MAX_PARTITION_DEPTH,
                   "subsetC": every_backbone_member_but("h0"), "gamma": "2"})
    last = f"h{MAX_PARTITION_DEPTH - 2}"
    q = write_json(tmp_path / "q.json", {"depth": MAX_PARTITION_DEPTH,
                   "subsetC": every_backbone_member_but(last), "gamma": "3"})
    vec = write_json(tmp_path / "v.json", {"h0": "1", "d(h2,4)": "1"})
    start = time.perf_counter()
    code, doc, err = run(capsys, "norms", "eval", "--spec", p,
                         "--vector", vec)
    assert time.perf_counter() - start < 3
    assert (code, doc["report"], err) == (0, {"value": "16/1"}, "")
    start = time.perf_counter()
    code, doc, err = run(capsys, "norms", "witness", "--spec", p,
                         "--spec", q, "--eps", "1/1000")
    assert time.perf_counter() - start < 3
    assert (code, err) == (0, "")
    direction = doc["report"]["firstRelativeToSecond"]
    assert (doc["report"]["case"], direction["t"], direction["index"],
            direction["ratioAtIndex"]) == (1, last, 10, "1/1024")


def test_witness_estimate_with_one_underflowing_log(tmp_path):
    """At eps = 1 - 10^-400, log(1/eps) underflows to 0 while log(2) does
    not: the index estimate is taken from the logs of the two logs, and
    the least index is 1."""
    eps = Fraction(10 ** 400 - 1, 10 ** 400)
    assert norms._log_ratio(eps.denominator, eps.numerator) == 0.0
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "2"})
    code, out, err = cli("norms", "witness", "--spec", p, "--spec", q,
                         "--eps", f"{eps.numerator}/{eps.denominator}")
    assert (code, err) == (0, "")
    report = json.loads(out)["report"]
    assert report["case"] == 1
    for key in ("firstRelativeToSecond", "secondRelativeToFirst"):
        assert (report[key]["index"], report[key]["ratioAtIndex"]) == \
            (1, "1/2")
    assert_replays(tmp_path, out)


@pytest.mark.parametrize("move", [1, 2, 70, -1, -2, -70, "far-above",
                                  "far-below"])
@pytest.mark.parametrize("gamma, eps", [("3", "1/2"), ("2", "1e-6"),
                                        ("11/10", "3/7"), ("101/100", "1e-3")])
def test_witness_search_recovers_from_a_wrong_estimate(
        capsys, tmp_path, monkeypatch, gamma, eps, move):
    """With the float estimate of the decay index moved off the answer,
    `norms witness` gallops, bisects and, more than 64 below its start,
    recomputes the powers, and still reports the least index and its
    ratio."""
    estimate = norms._decay_index_estimate

    def moved(a, b, e, f):
        i = estimate(a, b, e, f)
        if move == "far-above":
            return 40 * i + 500
        return 1 if move == "far-below" else max(1, i + move)

    monkeypatch.setattr(norms, "_decay_index_estimate", moved)
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": gamma})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": gamma})
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", eps)
    index, ratio = reference.least_decay_index(1 / Fraction(gamma),
                                               Fraction(eps))
    assert (code, err) == (0, "")
    for key in ("firstRelativeToSecond", "secondRelativeToFirst"):
        direction = out["report"][key]
        assert (direction["index"], direction["ratioAtIndex"]) == \
            (index, reference.text(ratio))


# file contents (by name), the argv that reads them, and the error it exits
# 2 with; each input is malformed in its JSON shape, out of range or against
# a precondition of the command, or the argv asks for what the command does
# not take
SPEC_DOC = {"depth": 12, "subsetC": ["h0"], "gamma": "2"}
AB_TABLE = {"labels": ["a", "b"], "rows": [["0", "1"], ["1", "0"]]}
ZERO_TABLE = {"labels": ["a", "b"], "rows": [["0", "0"], ["0", "0"]]}
GAMMA_NEAR_ONE = {**SPEC_DOC, "gamma": "1001/1000"}
PRINT_LIMIT = ("a number of the report would print past the "
               f"{MAX_DIGITS}-digit limit")
CONE_UNIVERSE = {"instance": "cone", "dim": 2,
                 "elements": [{"r": "1", "v": ["0", "1"]}]}
MALFORMED_INPUTS = {
    "manifest-elements-int": (
        {"u.json": {"instance": "metrics", "elements": 5}},
        ["order", "feasible", "--universe", "u.json", "--x", "u.json"],
        'universe manifest "elements" must list file names'),
    "manifest-elements-int-list": (
        {"u.json": {"instance": "metrics", "elements": [5]}},
        ["order", "feasible", "--universe", "u.json", "--x", "u.json"],
        'universe manifest "elements" must list file names'),
    "manifest-no-instance": (
        {"u.json": {"elements": []}},
        ["order", "indep", "--universe", "u.json"],
        'universe manifest needs "instance" and "elements"'),
    "manifest-no-elements": (
        {"u.json": {"instance": "cone"}},
        ["order", "indep", "--universe", "u.json"],
        'universe manifest needs "instance" and "elements"'),
    "manifest-unknown-instance": (
        {"u.json": {"instance": "bogus", "elements": ["x.json"]},
         "x.json": {}},
        ["order", "indep", "--universe", "u.json"],
        "unknown universe instance 'bogus'"),
    "eval-weights-list": (
        {"w.json": [1, 2], "v.json": {"h0": "1"}},
        ["norms", "eval", "--weights", "w.json", "--vector", "v.json"],
        "a weight map is an object of weights"),
    "embed-weights-list": (
        {"w.json": [1, 2], "p.json": [{"h0": "1"}, {"h1": "1"}]},
        ["norms", "embed", "--weights", "w.json", "--points", "p.json"],
        "a weight map is an object of weights"),
    "embed-points-object": (
        {"w.json": {"h0": "1"}, "p.json": {"h0": "1"}},
        ["norms", "embed", "--weights", "w.json", "--points", "p.json"],
        "embed points must be a list of vectors"),
    "eval-vector-list": (
        {"w.json": {"h0": "1"}, "v.json": [1, 2]},
        ["norms", "eval", "--weights", "w.json", "--vector", "v.json"],
        "a vector is an object of coordinates"),
    "eval-spec-and-weights": (
        {"p.json": SPEC_DOC, "w.json": {"h0": "1"}, "v.json": {"h0": "1"}},
        ["norms", "eval", "--spec", "p.json", "--weights", "w.json",
         "--vector", "v.json"],
        "give exactly one of --spec / --weights"),
    "eval-neither-spec-nor-weights": (
        {"v.json": {"h0": "1"}},
        ["norms", "eval", "--vector", "v.json"],
        "give exactly one of --spec / --weights"),
    "witness-one-spec": (
        {"p.json": SPEC_DOC},
        ["norms", "witness", "--spec", "p.json", "--eps", "1/2"],
        "witness needs exactly two --spec files"),
    "builtin-points-list": (
        {"p.json": [1, 2]},
        ["builtin", "cauchy-dn", "--n", "2", "--points", "p.json",
         "--depth", "2"],
        "plane point must be a list of rationals"),
    "partial-compare-depths": (
        {},
        ["partial-compare", "--first", "discrete", "--second", "shrinking",
         "--depths", "1,x"],
        "bad depth list '1,x'"),
    "partial-compare-spec-parameter": (
        {},
        ["partial-compare", "--first", "usual-grid:step", "--second",
         "discrete", "--depths", "3"],
        "bad parameter 'step' in spec 'usual-grid:step'"),
    "cauchy-demo-pairs-list": (
        {"p.json": [1, 2]},
        ["cauchy-demo", "--indices", "10,20", "--pairs", "p.json"],
        "plane points must be a list of [u, v] points"),
    "axioms-cone-dim-0": (
        {}, ["axioms", "--instance", "cone", "--seed", "0", "--sample", "4",
             "--dim", "0"],
        "dimension must be at least 1, not 0"),
    "axioms-hyperspace-dim-0": (
        {}, ["axioms", "--instance", "hyperspace", "--seed", "0",
             "--sample", "4", "--dim", "0"],
        "dimension must be at least 1, not 0"),
    "partial-compare-depth-1": (
        {}, ["partial-compare", "--first", "discrete", "--second", "kappa",
             "--depths", "1,5"],
        "all depths must be at least 2"),
    "partial-compare-decreasing": (
        {}, ["partial-compare", "--first", "discrete", "--second", "kappa",
             "--depths", "5,3"],
        "depths must be strictly increasing"),
    "partial-compare-usual-on-discrete": (
        {}, ["partial-compare", "--first", "usual", "--second", "discrete",
             "--depths", "2,3"],
        "the usual metric needs a one-dimensional coordinate carrier"),
    "partial-compare-unknown": (
        {}, ["partial-compare", "--first", "foo", "--second", "discrete",
             "--depths", "2,3"],
        "unknown builtin metric 'foo'; choose from ('discrete', "
        "'usual-grid', 'shrinking', 'kappa', 'cauchy-dn')"),
    "cauchy-demo-one-index": (
        {"p.json": [[[0, 0], [0, 1]]]},
        ["cauchy-demo", "--indices", "10", "--pairs", "p.json"],
        "need at least two indices n >= 1"),
    "cauchy-demo-pairs-object": (
        {"p.json": {"u": [0, 0]}},
        ["cauchy-demo", "--indices", "10,20", "--pairs", "p.json"],
        "point pairs must be a list of [[u,u'],[v,v']] pairs"),
    "cauchy-demo-three-points": (
        {"p.json": [[[0, 0], [0, 1], [0, 2]]]},
        ["cauchy-demo", "--indices", "10,20", "--pairs", "p.json"],
        "a point pair holds exactly two plane points"),
    "cauchy-demo-no-witness": (
        {"p.json": [[[0, 0], [1, 1]]]},
        ["cauchy-demo", "--indices", "10,20", "--pairs", "p.json"],
        "need a witness pair with equal first coordinates and distinct "
        "second coordinates"),
    "partition-depth-3": (
        {}, ["norms", "partition", "--depth", "3"],
        "partition depth must be at least 4 to make the backbone and both "
        "fiber kinds available"),
    "eval-fiber-of-h1": (
        {"p.json": SPEC_DOC, "v.json": {"d(h1,2)": "1"}},
        ["norms", "eval", "--spec", "p.json", "--vector", "v.json"],
        "h1 is not a backbone member"),
    "eval-fiber-of-h01": (
        {"p.json": SPEC_DOC, "v.json": {"e(h01,2)": "1"}},
        ["norms", "eval", "--spec", "p.json", "--vector", "v.json"],
        "h01 is not a backbone member"),
    "eval-name-x": (
        {"p.json": SPEC_DOC, "v.json": {"x": "1"}},
        ["norms", "eval", "--spec", "p.json", "--vector", "v.json"],
        "unrecognized index name 'x'"),
    "spec-empty-c": (
        {"p.json": {**SPEC_DOC, "subsetC": []}},
        ["norms", "weights", "--spec", "p.json"],
        "the subset C must be nonempty"),
    "spec-c-h1": (
        {"p.json": {**SPEC_DOC, "subsetC": ["h1"]}},
        ["norms", "weights", "--spec", "p.json"],
        "C must consist of backbone members"),
    "spec-c-backbone": (
        {"p.json": {**SPEC_DOC,
                    "subsetC": [f"h{k}" for k in range(0, 12, 2)]}},
        ["norms", "weights", "--spec", "p.json"],
        "C must be a proper subset of the backbone"),
    "spec-gamma-1": (
        {"p.json": {**SPEC_DOC, "gamma": "1"}},
        ["norms", "weights", "--spec", "p.json"],
        "gamma must exceed 1"),
    "witness-mixed-depths": (
        {"p.json": SPEC_DOC, "q.json": {**SPEC_DOC, "depth": 14}},
        ["norms", "witness", "--spec", "p.json", "--spec", "q.json",
         "--eps", "1/2"],
        "the two parameter sets use different partitions"),
    "witness-equal-specs": (
        {"p.json": SPEC_DOC},
        ["norms", "witness", "--spec", "p.json", "--spec", "p.json",
         "--eps", "1/2"],
        "parameter sets are equal; no independence witness"),
    "witness-eps-0": (
        {"p.json": SPEC_DOC, "q.json": {**SPEC_DOC, "subsetC": ["h2"]}},
        ["norms", "witness", "--spec", "p.json", "--spec", "q.json",
         "--eps", "0"],
        "epsilon must lie strictly between 0 and 1"),
    "embed-one-point": (
        {"w.json": {"h0": "1"}, "p.json": [{"h0": "1"}]},
        ["norms", "embed", "--weights", "w.json", "--points", "p.json"],
        "need at least two points"),
    "embed-twin-points": (
        {"w.json": {"h0": "1"}, "p.json": [{"h0": "1"}, {"h0": "1"}]},
        ["norms", "embed", "--weights", "w.json", "--points", "p.json"],
        "points must be pairwise distinct"),
    "indep-zero-element": (
        {"a.json": AB_TABLE, "z.json": ZERO_TABLE,
         "u.json": {"instance": "metrics", "elements": ["a.json", "z.json"]}},
        ["order", "indep", "--universe", "u.json"],
        "universe elements must be nonzero"),
    "in-l-zero-x": (
        {"a.json": AB_TABLE, "z.json": ZERO_TABLE,
         "u.json": {"instance": "metrics", "elements": ["a.json"]}},
        ["order", "in-l", "--universe", "u.json", "--x", "z.json",
         "--y", "a.json"],
        "testing sets are defined for nonzero elements only"),
    "compare-other-labels": (
        {"a.json": AB_TABLE, "c.json": {**AB_TABLE, "labels": ["c", "d"]}},
        ["compare", "a.json", "c.json"],
        "matrices are over different carriers (label mismatch)"),
    "compare-zero": (
        {"a.json": AB_TABLE, "z.json": ZERO_TABLE},
        ["compare", "z.json", "a.json"],
        "classification needs two nonzero elements"),
    "transform-bounded-zero": (
        {"z.json": ZERO_TABLE}, ["transform", "--bounded", "z.json"],
        "transform of the zero element"),
    "axioms-unknown-instance": (
        {}, ["axioms", "--instance", "foo", "--seed", "0"],
        "unknown instance 'foo'; choose from metrics, norms, cone, "
        "hyperspace, metrics-reversed-order, metrics-no-abs-scale"),
    # the report would print a number past MAX_DIGITS digits: a norm value
    # gamma^90000, a sum of tables with a 6,001-digit denominator, and the
    # ratio at the decay index 23,038
    "print-limit-norms-eval": (
        {"p.json": GAMMA_NEAR_ONE, "v.json": {"d(h0,90000)": "1"}},
        ["norms", "eval", "--spec", "p.json", "--vector", "v.json"],
        PRINT_LIMIT),
    "print-limit-combine-add": (
        {name: {"labels": ["a", "b"], "rows": [
            ["0", f"1/{NEAR + k}"], [f"1/{NEAR + k}", "0"]]}
         for name, k in (("a.json", 1), ("b.json", 3))},
        ["combine", "a.json", "--add", "b.json"],
        PRINT_LIMIT),
    "print-limit-norms-witness": (
        {"p.json": GAMMA_NEAR_ONE,
         "q.json": {**GAMMA_NEAR_ONE, "subsetC": ["h2"]}},
        ["norms", "witness", "--spec", "p.json", "--spec", "q.json",
         "--eps", "1e-10"],
        PRINT_LIMIT),
    "replay-no-file": (
        {}, ["--replay"], "--replay takes exactly one report file"),
    "replay-two-files": (
        {"r.json": {}}, ["--replay", "r.json", "r.json"],
        "--replay takes exactly one report file"),
    "replay-no-command": (
        {"r.json": {"inputs": {}, "report": {}}}, ["--replay", "r.json"],
        "not a replayable report (missing command/report)"),
    "replay-no-report": (
        {"r.json": {"command": "validate", "inputs": {}}},
        ["--replay", "r.json"],
        "not a replayable report (missing command/report)"),
    # statements no other test reaches
    "validate-blank-csv": (
        {"m.csv": "\n  \n\n"}, ["validate", "m.csv"], "empty CSV"),
    "compare-one-point": (
        {"a.json": {"labels": ["a"], "rows": [["1"]]}},
        ["compare", "a.json", "a.json"],
        "comparing values need at least two carrier points"),
    "builtin-one-point": (
        {"p.json": [[0, 0]]},
        ["builtin", "cauchy-dn", "--n", "2", "--depth", "2", "--points",
         "p.json"],
        "need at least 2 carrier points"),
    "partial-compare-one-point": (
        {"p.json": [[0, 0]]},
        ["partial-compare", "--first", "cauchy-dn:n=2", "--second",
         "discrete", "--depths", "2,3", "--points", "p.json"],
        "need at least 2 carrier points"),
    "cauchy-demo-no-pairs": (
        {"p.json": []},
        ["cauchy-demo", "--indices", "1,2", "--pairs", "p.json"],
        "need at least one sample point pair"),
    "replay-order-action": (
        {"r.json": {"command": "order", "report": {}, "inputs": {
            "action": "bogus", "universe": CONE_UNIVERSE}}},
        ["--replay", "r.json"],
        "unknown order action 'bogus'"),
}


# a valid element of each universe kind, the manifest field that must be an
# integer, and its valid value
UNIVERSE_KINDS = {
    "cone": ({"r": "1", "v": ["0", "1"]}, "dim", 2),
    "hyperspace": ([["0", "1"], ["1/2", "1"]], "dim", 2),
    "norm-family": ({"depth": 12, "subsetC": ["h0"], "gamma": "2"}, "depth", 12),
}


def write_universe(tmp_path, kind, value):
    element, field, _ = UNIVERSE_KINDS[kind]
    x = write_json(tmp_path / "x.json", element)
    manifest = write_json(tmp_path / "u.json", {
        "instance": kind, field: value, "elements": ["x.json"]})
    return manifest, x


@pytest.mark.parametrize("kind", sorted(UNIVERSE_KINDS))
@pytest.mark.parametrize("value", ["abc", "2", 2.5, True, None, [2]])
def test_non_integer_universe_field_is_input_error(capsys, tmp_path, kind,
                                                   value):
    manifest, x = write_universe(tmp_path, kind, value)
    code, out, err = run(capsys, "order", "in-l", "--universe", manifest,
                         "--x", x, "--y", x)
    assert (code, out) == (2, None)
    field = UNIVERSE_KINDS[kind][1]
    assert json.loads(err) == {
        "error": f'universe "{field}" must be an integer, not {value!r}'}


def test_empty_point_set_in_a_universe_exits_two(capsys, tmp_path):
    """The loader rejects it; the Minkowski sum of an empty set would be
    empty, and the independence check would fail it with exit 1."""
    element, _, dim = UNIVERSE_KINDS["hyperspace"]
    write_json(tmp_path / "x.json", element)
    write_json(tmp_path / "e.json", [])
    manifest = write_json(tmp_path / "u.json", {
        "instance": "hyperspace", "dim": dim,
        "elements": ["x.json", "e.json"]})
    code, out, err = run(capsys, "order", "indep", "--universe", manifest)
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "point sets must be nonempty"})


@pytest.mark.parametrize("kind", sorted(UNIVERSE_KINDS))
def test_integer_universe_field_is_read(capsys, tmp_path, kind):
    manifest, x = write_universe(tmp_path, kind, UNIVERSE_KINDS[kind][2])
    code, out, _ = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", x, "--y", x)
    assert code in (0, 1)
    assert out["inputs"]["universe"][UNIVERSE_KINDS[kind][1]] == \
        UNIVERSE_KINDS[kind][2]


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_is_input_error(capsys, tmp_path, name):
    files, argv, error = MALFORMED_INPUTS[name]
    for file_name, doc in files.items():
        if file_name.endswith(".csv"):
            (tmp_path / file_name).write_text(doc, encoding="utf-8")
        else:
            write_json(tmp_path / file_name, doc)
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, json.loads(err)) == (2, None, {"error": error})


def argparse_run(argv):
    """The exit code and stderr of the parser tree's parse of argv, or its
    namespace where it does not exit."""
    from evslib import cli

    err = StringIO()
    with redirect_stderr(err):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue()


def test_a_switch_given_a_value_exits_two_as_argparse_does(capsys):
    """The argument table reads no value of a switch, and leaves the argv
    to the parser tree, which refuses it."""
    from evslib import cli

    argv = ["transform", "--bounded=1", "m.json"]
    assert cli._read_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert (2, err) == argparse_run(argv)
    assert err.endswith("error: argument --bounded: ignored explicit "
                        "argument '1'\n")


def test_a_repeated_option_is_read_as_argparse_reads_it(capsys):
    """The argument table reads a single-valued option once; given twice,
    the argv goes to the parser tree, where the last value holds."""
    from evslib import cli

    argv = ["builtin", "discrete", "--depth", "3", "--depth", "4"]
    assert cli._read_args(argv) is None
    assert argparse_run(argv) == argparse_run(argv[:2] + argv[4:])
    assert run(capsys, *argv) == run(capsys, *argv[:2], *argv[4:])


# ---------------------------------------------------------------------------
# Unreadable files, over-long index names and over-large dimensions exit 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["d.json", "d.csv"])
def test_directory_input_is_input_error(capsys, tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(f"cannot read {path}: ")


def test_empty_manifest_element_is_input_error(capsys, tmp_path):
    # "" names the manifest's own directory
    x = write_json(tmp_path / "x.json", {"r": "1", "v": ["0", "1"]})
    manifest = write_json(tmp_path / "u.json",
                          {"instance": "cone", "elements": [""]})
    code, out, err = run(capsys, "order", "feasible", "--universe", manifest,
                         "--x", x)
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(f"cannot read {tmp_path}: ")


def test_non_utf8_csv_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(
        f"malformed CSV in {path}: 'utf-8' codec can't decode")


def test_csv_field_past_the_csv_size_limit_is_input_error(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("a,b\n0," + "1" * 200_000 + "\n1,0\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": f"malformed CSV in {path}: field "
                                        "larger than field limit (131072)"}


@pytest.mark.parametrize("argv", [["validate"], ["--replay"]])
def test_json_nested_past_the_recursion_limit_is_input_error(capsys, tmp_path,
                                                             argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(
        f"malformed JSON in {path}: maximum recursion depth exceeded")


# files whose bytes text mode reads otherwise than they are: the JSON text
# of the file, its bytes written as the file, and what a read of it says
# after "malformed JSON in <path>: "
TWO_POINTS = json.dumps({"labels": ["a", "b"],
                         "rows": [["0/1", "1/2"], ["1/2", "0/1"]]}, indent=2)
MISREAD_JSON = {
    "cr-only": (b'{"labels": ["a", "b"],\r"rows": [\r["0/1"]\r',
                "Expecting ',' delimiter: line 4 column 1 (char 41)"),
    "bom": (b"\xef\xbb\xbf" + TWO_POINTS.encode(),
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
            "(char 0)"),
    "xff": (TWO_POINTS.encode()[:10] + b"\xff" + TWO_POINTS.encode()[10:],
            "'utf-8' codec can't decode byte 0xff in position 10: invalid "
            "start byte"),
    "surrogate": (TWO_POINTS.encode()[:12] + b"\xed\xa0\x80"
                  + TWO_POINTS.encode()[12:],
                  "'utf-8' codec can't decode byte 0xed in position 12: "
                  "invalid continuation byte"),
}


@pytest.mark.parametrize("argv", [["validate"], ["--replay"]])
@pytest.mark.parametrize("name", sorted(MISREAD_JSON))
def test_json_that_text_mode_misreads_is_input_error(capsys, tmp_path, argv,
                                                     name):
    """A CR-only line break counts as a line, a BOM is kept, and bytes
    that are not UTF-8 are refused."""
    data, error = MISREAD_JSON[name]
    path = tmp_path / f"{name}.json"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (2, None, json.dumps(
        {"error": f"malformed JSON in {path}: {error}"}) + "\n")


def test_json_with_crlf_line_breaks_reads_as_with_lf(capsys, tmp_path):
    """A table and a report written with CRLF line breaks read as with LF:
    the same report, and a replay that matches."""
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(TWO_POINTS.encode())
    crlf.write_bytes(TWO_POINTS.replace("\n", "\r\n").encode())
    reports = []
    for path in (lf, crlf):
        assert main(["validate", str(path)]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert reports[0].err == ""
    report = tmp_path / "report.json"
    report.write_bytes(reports[0].out.replace("\n", "\r\n").encode())
    code, doc, err = run(capsys, "--replay", str(report))
    assert (code, doc, err) == (0, {"replay": True, "command": "validate",
                                    "match": True}, "")


@pytest.mark.parametrize("name", [
    "h" + "2" * 5000,
    "d(h0," + "1" * 5000 + ")",
    "e(h" + "2" * 5000 + ",1)",
], ids=["position", "fiber-index", "backbone-member"])
def test_index_name_past_the_digit_limit_exits_two(capsys, tmp_path, name):
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {name: "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"a number of 5000 digits in an index name exceeds the "
                 f"limit of {MAX_DIGITS} digits"})


@pytest.mark.parametrize("name, value", [
    ("d(h0,1)", "2/1"), ("d(h00,1)", "2/1"), ("d(h\u0660,1)", "2/1"),
    ("e(h0,2)", "1/4"), ("e(h\u0660,2)", "1/4"), ("e(h000,2)", "1/4"),
    ("d(h02,1)", "1/1"),
])
def test_a_fiber_names_its_backbone_member_by_position(capsys, tmp_path,
                                                       name, value):
    """A backbone member written with leading zeros or other decimal
    digits is the member at that position, so its fiber weighs as the
    one of the member written plainly: with C = {h0} and gamma 2,
    d(h00,1) weighs 2 and e(h\u0660,2) weighs 1/4."""
    spec = write_json(tmp_path / "p.json", SPEC_DOC)
    vec = write_json(tmp_path / "v.json", {name: "1"})
    code, doc, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, err, doc["report"]) == (0, "", {"value": value})


@pytest.mark.parametrize("vector, value", [
    ({"h3": "1", "h03": "-1"}, "0/1"),
    ({"d(h0,1)": "1", "d(h00,1)": "-1"}, "0/1"),
    ({"h1": "1", "d(h0,1)": "1/2"}, "3/1"),
    ({"d(h0,1)": "1", "d(h00,1)": "1", "h2": "3"}, "4/1"),
])
def test_names_of_one_index_are_one_coordinate(capsys, tmp_path, vector,
                                               value):
    """Under a family spec, the names that resolve to one partition tag
    are summed into one coordinate before the sup: with C = {h0} and
    gamma 2, h1 is d(h0,1), which weighs 2."""
    spec = write_json(tmp_path / "p.json", SPEC_DOC)
    vec = write_json(tmp_path / "v.json", vector)
    code, doc, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, err, doc["report"]) == (0, "", {"value": value})


def test_names_of_one_index_resolve_in_sorted_order(capsys, tmp_path):
    """The first bad name in sorted order raises, though an earlier name
    of the file is bad too; a weight map reads each name as written."""
    spec = write_json(tmp_path / "p.json", SPEC_DOC)
    vec = write_json(tmp_path / "v.json",
                     {"zz": "1", "h3": "1", "h03": "-1", "q1": "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "unrecognized index name 'q1'"})
    weights = write_json(tmp_path / "w.json", {"h3": "1", "h03": "2"})
    vec = write_json(tmp_path / "v.json", {"h3": "1", "h03": "-1"})
    code, doc, err = run(capsys, "norms", "eval", "--weights", weights,
                         "--vector", vec)
    assert (code, err, doc["report"]) == (0, "", {"value": "2/1"})


def test_index_digit_limit_admits_the_limit_and_leading_zeros():
    part = PartitionSpec(12)
    assert part.resolve("h" + "0" * 5000 + "7") == part.resolve("h7")
    assert part.resolve("d(h0," + "0" * 5000 + "2)") == ("D", "h0", 2)
    position = "2" * MAX_DIGITS
    assert part.resolve("h" + position) == ("B", "h" + position)


@pytest.mark.parametrize("instance", ["cone", "hyperspace"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2 ** 70])
def test_axioms_dimension_past_the_limit_exits_two(capsys, instance, dim):
    code, out, err = run(capsys, "axioms", "--instance", instance,
                         "--seed", "0", "--sample", "2", "--dim", str(dim))
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"dimension {dim} exceeds the limit of {MAX_DIM}"})


@pytest.mark.parametrize("kind", ["cone", "hyperspace"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2 ** 70])
def test_universe_dimension_past_the_limit_exits_two(capsys, tmp_path, kind,
                                                     dim):
    manifest, x = write_universe(tmp_path, kind, dim)
    code, out, err = run(capsys, "order", "in-l", "--universe", manifest,
                         "--x", x, "--y", x)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"dimension {dim} exceeds the limit of {MAX_DIM}"})


@pytest.mark.parametrize("instance", ["cone", "hyperspace"])
def test_dimension_limit_admits_the_limit(instance):
    # the instance and a two-element sample are built; no suite is run
    inst, sample, _ = build_instance(instance, dim=MAX_DIM, sample=2)
    assert inst.name == f"{instance}[dim {MAX_DIM}]" and len(sample) == 2


def nested(depth: int):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# an unread key, nested 500 deep, that the report echoes: each loads, since
# the JSON reader stops well past that depth, and only printing recurses
DEEP = nested(500)
DEEP_ECHO_INPUTS = {
    "order-indep-manifest-note": lambda tmp: [
        "order", "indep", "--universe", write_json(tmp / "u.json", {
            "instance": "metrics", "note": DEEP,
            "elements": [write_json(tmp / "d.json", builtin_metric(
                "discrete", {}, 3).to_json())]})],
    "norms-weights-spec-field": lambda tmp: [
        "norms", "weights", "--spec", write_json(tmp / "p.json", {
            "depth": 12, "subsetC": ["h0"], "gamma": "2", "extra": DEEP})],
    "order-in-l-cone-element-field": lambda tmp: [
        "order", "in-l", "--universe", write_json(tmp / "u.json", {
            "instance": "cone", "dim": 2, "elements": ["x.json"]}),
        "--x", write_json(tmp / "x.json", {"r": "1", "v": ["1", "0"],
                                           "extra": DEEP}),
        "--y", str(tmp / "x.json")],
}


@pytest.mark.parametrize("name", sorted(DEEP_ECHO_INPUTS))
def test_echoed_input_nested_too_deep_exits_two(capsys, tmp_path, name):
    code, out, err = run(capsys, *DEEP_ECHO_INPUTS[name](tmp_path))
    assert (code, out, json.loads(err)) == (2, None, {
        "error": "an input is nested too deep to echo in the report"})


def weights_spec_with_extra(tmp_path, extra):
    """A `norms weights` argv whose spec holds an unread field `extra`: the
    report echoes it under "inputs", then "spec", so an array nested n
    levels inside it (nested(n), n + 1 arrays) reaches depth n + 4."""
    return ["norms", "weights", "--spec", write_json(tmp_path / "p.json", {
        "depth": 12, "subsetC": ["h0"], "gamma": "2", "extra": extra})]


def test_the_deepest_echo_prints_through_the_module(tmp_path):
    """An array at depth 500, the report at depth 1, prints through
    `python -m evslib.cli`, where the writer recurses once per level."""
    from evslib.cli import MAX_ECHO_DEPTH
    assert MAX_ECHO_DEPTH == 500
    proc = evs_process(*weights_spec_with_extra(tmp_path, nested(496)),
                       stdout=subprocess.PIPE)
    out, err = proc.communicate()
    assert (proc.returncode, err) == (0, b"")
    assert json.loads(out)["inputs"]["spec"]["extra"] == nested(496)


def test_one_level_past_the_deepest_echo_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, *weights_spec_with_extra(tmp_path,
                                                          nested(497)))
    assert (code, out, json.loads(err)) == (2, None, {
        "error": "an input is nested too deep to echo in the report"})


def write_family_universe(tmp_path, element_depths):
    """A depth-12 family universe whose elements have the given depths."""
    names = []
    for k, depth in enumerate(element_depths):
        write_json(tmp_path / f"e{k}.json",
                   {"depth": depth, "subsetC": ["h0"], "gamma": str(k + 2)})
        names.append(f"e{k}.json")
    return write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": 12, "elements": names})


def test_family_universe_element_of_another_depth_exits_two(capsys,
                                                            tmp_path):
    manifest = write_family_universe(tmp_path, [12, 14])
    code, out, err = run(capsys, "order", "indep", "--universe", manifest)
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "family element uses a different depth"})


@pytest.mark.parametrize("action", ["generates", "basis"])
def test_family_generator_of_another_depth_exits_two(capsys, tmp_path,
                                                     action):
    manifest = write_family_universe(tmp_path, [12, 12])
    generator = write_json(tmp_path / "g.json",
                           {"depth": 14, "subsetC": ["h0"], "gamma": "2"})
    code, out, err = run(capsys, "order", action, "--universe", manifest,
                         "--generator", generator)
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "family element uses a different depth"})
