"""The text slot of a metric table, one "p/q,p/q,..." string per row, on
random tables read from every spelling an input may use: the printed text
is the value of each entry in lowest terms, json_text is json.dumps of
to_json at any indent, a table read back from its to_json keeps its form
and its slot, and a report replays by its printed bytes, whether its table
is a parsed document or the MetricMatrix itself."""

import json
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

from hypothesis import example, given, settings, strategies as st

import reference
from evslib.cli import main
from evslib.metrics import MetricMatrix

VALUES = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def spelled(draw, v: Fraction):
    """v as an input may write it: "p/q" in lowest terms, "p/q" times a
    factor (such as "2/4"), "-0/1" or "0" for zero, and a plain integer
    string or a JSON int for an integer."""
    ways = [reference.text(v)]
    k = draw(st.integers(2, 4))
    ways.append(f"{v.numerator * k}/{v.denominator * k}")
    if v == 0:
        ways += ["-0/1", "-0/3", "0"]
    if v.denominator == 1:
        ways += [str(v.numerator), v.numerator]
    return draw(st.sampled_from(ways))


@st.composite
def tables(draw):
    """(labels, values, rows): an n-point symmetric table of Fractions,
    n = 1..5, its entries repeated from a pool of one to three values or
    mostly distinct, and its rows as an input spells them: each entry as
    it prints in one table of two, or else in any spelling, once for both
    of its mirror places or, in one table of four, at each place."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        pool = draw(st.lists(VALUES, min_size=1, max_size=3))
        value = st.sampled_from(pool)
    else:
        value = VALUES
    upper = {(i, j): draw(value) for i in range(n) for j in range(i, n)}
    values = [[upper[min(i, j), max(i, j)] for j in range(n)]
              for i in range(n)]
    plain, mirrored = draw(st.booleans()), draw(st.integers(0, 3)) > 0
    words = {key: reference.text(v) if plain else draw(spelled(v))
             for key, v in upper.items()}
    rows = [[words[min(i, j), max(i, j)] if mirrored or i <= j
             else draw(spelled(values[i][j])) for j in range(n)]
            for i in range(n)]
    labels = [f"x{k}" for k in range(n)]
    return labels, values, rows


INDENTS = st.integers(0, 6).map(lambda k: "\n" + "  " * k)


@settings(max_examples=400, deadline=None)
@given(tables(), INDENTS)
@example((["x0", "x1"], [[Fraction(0), Fraction(1, 2)],
                         [Fraction(1, 2), Fraction(0)]],
          [["-0/1", "1/2"], ["1/2", "0/1"]]), "\n")
def test_a_table_prints_each_entry_in_lowest_terms_at_any_indent(table,
                                                                 indent):
    labels, values, rows = table
    m = MetricMatrix.from_json({"labels": labels, "rows": rows})
    text = "".join(m.json_text(indent))
    doc = m.to_json()
    assert doc == {"labels": labels, "rows": [list(map(reference.text, row))
                                              for row in values]}
    assert text == json.dumps(doc, indent=2, sort_keys=True).replace(
        "\n", indent)
    doc["rows"][0][0] = "mutated"
    assert m.to_json()["rows"][0][0] == reference.text(values[0][0])


@settings(max_examples=300, deadline=None)
@given(tables())
def test_a_table_read_from_its_to_json_keeps_its_form_and_slot(table):
    labels, _, rows = table
    m = MetricMatrix.from_json({"labels": labels, "rows": rows})
    again = MetricMatrix.from_json(m.to_json())
    assert again.form == m.form
    assert again._rows == m._rows
    assert all(type(row) is str for row in again._rows)


def cli(*argv):
    """main(argv): its exit code and the text it prints."""
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(tables(), VALUES)
def test_a_report_replays_by_its_printed_bytes(tmp_path_factory, table,
                                               alpha):
    """`combine --scale` holds its result as a MetricMatrix; the report it
    printed, read back, holds the same table as a document, and replays.
    So does the report rewritten in other whitespace; a report whose false
    became 0 equals it as a value but prints otherwise, and does not."""
    labels, _, rows = table
    tmp = tmp_path_factory.mktemp("replay")
    (tmp / "t.json").write_text(json.dumps({"labels": labels, "rows": rows}),
                                encoding="utf-8")
    code, out = cli("combine", f"--scale={reference.text(alpha)}",
                    str(tmp / "t.json"))
    assert code == 0
    doc = json.loads(out)
    report = tmp / "report.json"
    for variant in (out, json.dumps(doc, indent=None)):
        report.write_text(variant, encoding="utf-8")
        assert cli("--replay", str(report)) == (0, _replayed(True))
    doc["report"]["isZero"] = int(doc["report"]["isZero"])
    report.write_text(json.dumps(doc), encoding="utf-8")
    assert cli("--replay", str(report)) == (1, _replayed(False))


def _replayed(match: bool) -> str:
    return json.dumps({"command": "combine", "match": match, "replay": True},
                      indent=2, sort_keys=True) + "\n"

