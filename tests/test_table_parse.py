"""A table that mirrors exactly reads its upper triangle alone, each
distinct entry once where it repeats its entries, and any other table
reads every entry once: a mirrored entry spelled otherwise still gives
the canonical report, and malformed tables fail with the errors, in the
order, that a full parse of every entry gave. Entries are read by one of
two routes: one scan of a mirrored table of plain numerals, or the one
reader, parse_rational; every table gives the form, or the error, of a
parse_rational call on every entry."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from evslib import metrics
from evslib.cli import main
from evslib.errors import InputError
from evslib.metrics import MetricMatrix
from evslib.rationals import parse_rational, to_ints
from test_boundary import recording_reads


def validate_doc(capsys, tmp_path, rows) -> tuple:
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "rows": rows}),
                    encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mirror_spelled_otherwise_gives_the_canonical_report(capsys,
                                                             tmp_path):
    canonical = [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]]
    spelled = [["0", "1/2", "1"], ["2/4", "0", 1], ["1/1", "1.0", 0]]
    decimal = [["0", "1/2", "1"], ["0.5", "0", "1"], [1, "1", "0"]]
    expected = validate_doc(capsys, tmp_path, canonical)
    assert expected[0] == 0
    assert validate_doc(capsys, tmp_path, spelled) == expected
    assert validate_doc(capsys, tmp_path, decimal) == expected


# rows -> the error of `evs validate`, as the full parse of commit 976c320
# raised it: bad entries, non-list rows and ragged tables in their order
MALFORMED = [
    ([["0", "1", "2"], ["1", "0", "1"], ["2", "3/2", "0"]],
     "matrix is not symmetric at (c, b)"),
    ([["0", "1", "2"], ["1", "0", "1"], ["x", "1", "0"]],
     "not a rational: 'x'"),
    ([["0", "1", "y"], ["1", "0", "1"], ["x", "1", "0"]],
     "not a rational: 'y'"),
    ([["0", "1", "2"], "row", ["x", "1", "0"]],
     "matrix row must be a list of rationals"),
    ([["0", "1", "2"], ["1", "0", "z"], "row"],
     "not a rational: 'z'"),
    ([["0", "1", "2"], ["1", "0"], ["2", "1", "0"]],
     "matrix is not square with one row per label"),
    ([["0", "1"], ["1", "0", "1"], ["2", "1", "0", "q"]],
     "not a rational: 'q'"),
    ([["0", True, "2"], [True, "0", "1"], ["2", "1", "0"]],
     "not a rational: True"),
    ([["0", 1, "2"], [True, "0", "1"], ["2", "1", "0"]],
     "not a rational: True"),
]


@pytest.mark.parametrize("rows, error", MALFORMED)
def test_malformed_table_errors_keep_their_precedence(capsys, tmp_path,
                                                      rows, error):
    code, out, err = validate_doc(capsys, tmp_path, rows)
    assert (code, out, json.loads(err)) == (2, "", {"error": error})


@pytest.mark.parametrize("entry", ["1e5000", "1e-5000", "1e100000"])
def test_huge_decimal_exponent_exits_two(capsys, tmp_path, entry):
    rows = [["0", entry, "1"], [entry, "0", "1"], ["1", "1", "0"]]
    code, out, err = validate_doc(capsys, tmp_path, rows)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"not a rational: {entry!r} "
                                        "exceeds the 4300-digit limit"}


def test_decimal_exponent_within_the_limit_is_printed(capsys, tmp_path):
    rows = [["0", "1e400", "1e400"], ["1e400", "0", "1e400"],
            ["1e400", "1e400", "0"]]
    code, out, _ = validate_doc(capsys, tmp_path, rows)
    assert code == 0
    assert json.loads(out)["inputs"]["matrix"]["rows"][0][1] == \
        f"{10 ** 400}/1"


# -- the reader against a parse of every entry ------------------------------

LONG = "1" * 4301 + "/1"   # one digit past int()'s limit
# "-?digits/digits" spellings, unreduced and signed zeros included
PLAIN = ["1/2", "-1/2", "4/6", "-4/6", "0/1", "-0/3", "7/1", "007/010",
         "12/8", "3/4", "2/4", "01/2"]
# other spellings: integers, values, errors and padded strings
GENERAL = ["0", "1", " 1/2", "1/2 ", "+1/2", "1 / 2", "0.25", "1e-3", 2, 0.5,
           True, "1/0", "\u0661/\u0662", "\u0661/2", LONG, "1,2/3", "1_0/3",
           "1/-2", "1/2/3", "1/2,3/4", None, [1]]

plain = st.one_of(
    st.sampled_from(PLAIN),
    # a leading zero now and then, and a zero denominator
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(("", "-")),
              st.integers(0, 60).map(str) | st.sampled_from(("00", "01")),
              st.integers(0, 24).map(str) | st.sampled_from(("00", "07"))))
entries = st.one_of(plain, st.sampled_from(GENERAL))


@st.composite
def raw_tables(draw):
    """Labels and raw rows: plain or mixed upper triangles, lower triangles
    that mirror them or spell entries otherwise ("2/4" or "3/4" below
    "1/2"), now and then a repeated label or a short row."""
    n = draw(st.integers(1, 4))
    upper_entry = draw(st.sampled_from((plain, entries)))
    lower_entry = draw(st.sampled_from((None, plain, entries)))
    upper = {(i, j): draw(upper_entry) for i in range(n) for j in range(i, n)}
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if j >= i:
                rows[i][j] = upper[i, j]
            elif lower_entry is None or draw(st.booleans()):
                rows[i][j] = upper[j, i]
            else:
                rows[i][j] = draw(lower_entry)
    labels = ["a", "b", "c", "d"][:n]
    if n > 1 and draw(st.integers(0, 9)) == 0:
        labels[-1] = labels[0]
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    return labels, rows


def outcome(build):
    """The form build() returns, or the text of its InputError."""
    try:
        return build()
    except InputError as exc:
        return str(exc)


def reference(labels, rows):
    """parse_rational on every entry in row order, then the shape and
    symmetry checks, then the integer form of the upper triangle."""
    parsed = [[parse_rational(v) for v in row] for row in rows]
    n = len(labels)
    if n == 0:
        raise InputError("empty carrier")
    if len(set(labels)) != n:
        raise InputError("carrier labels must be distinct")
    if len(parsed) != n or any(len(row) != n for row in parsed):
        raise InputError("matrix is not square with one row per label")
    for i in range(n):
        for j in range(i):
            if parsed[i][j] != parsed[j][i]:
                raise InputError(
                    f"matrix is not symmetric at ({labels[i]}, {labels[j]})")
    return to_ints([v for i, row in enumerate(parsed) for v in row[i:]])


def csv_text(labels, rows):
    """The table as CSV text, or None where CSV cannot carry it as is."""
    cells = [*labels, *(v for row in rows for v in row)]
    if not all(type(c) is str and c and c == c.strip()
               and not set(c) & set(',"\r\n') for c in cells):
        return None
    return "\n".join(",".join(r) for r in [labels, *rows])


def among_plain(entry) -> tuple:
    """A 3-point table that mirrors exactly, with entry at (a, b) among
    plain "p/q" entries, three distinct ones among six."""
    return (["a", "b", "c"], [["0/1", entry, "1/2"], [entry, "0/1", "1/2"],
                              ["1/2", "1/2", "0/1"]])


@settings(max_examples=500, deadline=None)
@given(raw_tables())
@example((["a", "b"], [["0/2", "4/6"], ["4/6", "-0/3"]]))
@example((["a", "b"], [["0/1", "1/0"], ["1/0", "0/1"]]))
@example((["a", "b"], [["0/1", "1/2"], ["3/4", "0/1"]]))
@example((["a", "b"], [["0/1", "1/2"], ["2/4", "0/1"]]))
@example((["a", "b"], [["0", "007"], ["007", "-0"]]))
@example((["a", "b"], [[0, "1/2"], ["1/2", 0]]))
@example((["a", "b"], [["0", "1" * 4301], ["1" * 4301, "0"]]))
# hash-equal entries of different types, which must not share a read
@example((["a", "b"], [[0, True], [True, 0]]))
@example((["a", "b"], [["0", 1], [1.0, "0"]]))
@example((["a", "b"], [[1, True], [True, 1]]))
@example((["a", "b"], [[0, 1], [True, 0]]))
@example((["a", "b"], [[0, 2 ** 60], [float(2 ** 60), 0]]))
# two spellings of one value among repeated entries
@example((["a", "b", "c"], [["0", "1/2", "2/4"], ["1/2", "0", "1/2"],
                            ["2/4", "1/2", "0"]]))
# mostly distinct entries
@example((["a", "b", "c"], [["0", "1", "2"], ["1", "0", "3"],
                            ["2", "3", "0"]]))
# a row that is not a list, and a ragged row
@example((["a", "b"], [["0", "1/2"], ("1/2", "0")]))
@example((["a", "b"], [["0", "1/2"], ["1/2"]]))
# spellings the scan of plain "p/q" entries must refuse, among such entries
@example(among_plain("01/2"))
@example(among_plain("-0/3"))
@example(among_plain("1/0"))
@example(among_plain("1/-2"))
@example(among_plain("+1/2"))
@example(among_plain(" 1/2"))
@example(among_plain("1_0/3"))
@example(among_plain("\u0661/2"))
@example(among_plain("1/2/3"))
@example(among_plain("1,2/3"))
@example(among_plain("1/2,3/4"))
@example(among_plain(LONG))
# integer spellings the scan reads as n/1, and ones it must refuse
@example(among_plain("0"))
@example(among_plain("-3"))
@example(among_plain(3))
@example(among_plain("-0"))
@example(among_plain("00"))
@example(among_plain(""))
@example(among_plain("-"))
@example(among_plain(10 ** 5000))
def test_bulk_parse_matches_a_parse_of_every_entry(table):
    labels, rows = table
    expected = outcome(lambda: reference(labels, rows))
    assert outcome(lambda: MetricMatrix.from_json(
        {"labels": labels, "rows": rows}).form) == expected
    text = csv_text(labels, rows)
    if text is not None:
        assert outcome(lambda: MetricMatrix.from_csv_text(text).form) == \
            expected


# -- the printed text of a parsed table --------------------------------------

# "p/q" spellings, canonical ("1/2", "0/1") or not: unreduced, signed zeros
# and leading zeros
spellings = st.one_of(
    st.sampled_from(["2/4", "-0/1", "007/1", "4/2", "0/5", "1/2", "0/1",
                     "-1/3"]),
    st.builds(lambda sign, zero, p, q: f"{sign}{zero}{p}/{q}",
              st.sampled_from(("", "-")), st.sampled_from(("", "0")),
              st.integers(0, 12), st.integers(1, 6)))


@st.composite
def repeated_tables(draw):
    """Labels and rows that mirror exactly over one to three spellings,
    so that most tables repeat their entries."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(spellings, min_size=1, max_size=3))
    upper = {(i, j): draw(st.sampled_from(pool))
             for i in range(n) for j in range(i, n)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(n)]
            for i in range(n)]
    return ["a", "b", "c", "d", "e"][:n], rows


@settings(max_examples=300, deadline=None)
@given(repeated_tables(), st.sampled_from(("\n", "\n  ", "\n      ")))
@example(among_plain("2/4"), "\n")
@example(among_plain("-0/1"), "\n")
@example(among_plain("007/1"), "\n  ")
@example(among_plain("4/2"), "\n")
@example(among_plain("1/1"), "\n")
def test_a_parsed_table_prints_as_its_form(table, indent):
    """to_json and json_text of a table read from JSON or CSV, whose
    printed text may come from its input, equal those of a table built
    from its form alone, which formats every entry."""
    labels, rows = table
    for m in (MetricMatrix.from_json({"labels": labels, "rows": rows}),
              MetricMatrix.from_csv_text(csv_text(labels, rows))):
        fresh = MetricMatrix(m.labels, m.form)
        assert m.json_text(indent) == fresh.json_text(indent)
        assert m.to_json() == fresh.to_json()


def four_points(key: str) -> list:
    """A 4-point table that mirrors exactly over four distinct keys, in
    order "0/1", `key`, "2/3" and "3/4", among its ten upper entries."""
    upper = {(0, 1): key, (0, 2): "2/3", (0, 3): "3/4", (1, 2): "2/3",
             (1, 3): key, (2, 3): "3/4"}
    return [[upper.get((min(i, j), max(i, j)), "0/1") for j in range(4)]
            for i in range(4)]


@pytest.mark.parametrize("key", ["1/2", "01/2", "-0/1", "2/4", "x", "1"])
@pytest.mark.parametrize("part", [1, 2, 3])
def test_the_scan_reads_a_table_in_parts_as_in_one(monkeypatch, key, part):
    """Read SCAN_KEYS keys at a time, a table gives the form, the error
    and the printed text it gives in one part, where a part before the
    last holds a key that the scan refuses or that is not printed as
    written."""
    doc = {"labels": list("abcd"), "rows": four_points(key)}

    def read():
        try:
            m = MetricMatrix.from_json(doc)
        except InputError as exc:
            return str(exc)
        assert m.json_text("\n") == MetricMatrix(m.labels,
                                                 m.form).json_text("\n")
        return m.form, m.to_json()

    whole = read()
    monkeypatch.setattr(metrics, "SCAN_KEYS", part)
    assert read() == whole


@pytest.mark.parametrize("rows, seeded", [
    (four_points("1/2"), True),
    # four distinct entries among six
    ([["0/1", "1/2", "2/1"], ["1/2", "0/1", "3/1"], ["2/1", "3/1", "0/1"]],
     True),
    # written otherwise than printed, or not plain
    (four_points("2/4"), False),
    (four_points("-0/1"), False),
    (four_points("01/2"), False),
    ([["0", "1/2"], ["1/2", "0"]], False),
    ([[0, "1/2"], ["1/2", 0]], False),
])
def test_an_input_table_is_its_own_text_where_it_prints_as_written(
        rows, seeded):
    """The text slot of a table read from its rows holds those rows, each
    joined with commas, where every entry is written as it prints, whether
    or not the entries repeat: n strings, one per row, so that no string of
    the input per entry is kept. Otherwise it is filled from the form when
    the table first prints."""
    copied = json.loads(json.dumps(rows))   # one string object per entry
    m = MetricMatrix.from_rows(list("abcd")[:len(rows)], copied)
    assert (m._rows is not None) is seeded
    if seeded:
        assert type(m._rows) is list and len(m._rows) == len(rows)
        assert all(type(row) is str for row in m._rows)
        assert m._rows == [",".join(row) for row in rows]
    assert m.to_json()["rows"] == MetricMatrix(m.labels,
                                               m.form).to_json()["rows"]


@pytest.mark.parametrize("rows, reads", [
    # four distinct entries among six: every upper entry, in row order
    ([["0", "1", "2"], ["1", "0", "3"], ["2", "3", "0"]],
     [("scan", v) for v in ["0", "1", "2", "0", "3", "0"]]),
    ([["0/1", "1/2", "2/1"], ["1/2", "0/1", "3/1"], ["2/1", "3/1", "0/1"]],
     [("scan", v) for v in ["0/1", "1/2", "2/1", "0/1", "3/1", "0/1"]]),
    # three among six: each distinct entry once
    ([["0/1", "1/2", "0/1"], ["1/2", "0/1", "2/4"], ["0/1", "2/4", "0/1"]],
     [("scan", v) for v in ["0/1", "1/2", "2/4"]]),
    ([["0", "1/2", "0"], ["1/2", "0", "2/4"], ["0", "2/4", "0"]],
     [("scan", v) for v in ["0", "1/2", "2/4"]]),
    # the first unreadable one last, whichever entry the scan refuses
    ([["0", "x", "0"], ["x", "0", "y"], ["0", "y", "0"]],
     [("ratio", v) for v in ["0", "x"]]),
    ([["0/1", "x", "0/1"], ["x", "0/1", "y"], ["0/1", "y", "0/1"]],
     [("ratio", v) for v in ["0/1", "x"]]),
    ([["0/1", "1/0", "0/1"], ["1/0", "0/1", "y"], ["0/1", "y", "0/1"]],
     [("ratio", v) for v in ["0/1", "1/0"]]),
])
def test_a_mirrored_table_reads_its_upper_entries(monkeypatch, rows, reads):
    """A table that mirrors exactly reads each distinct upper entry once,
    in order of first occurrence, where at most half of them are
    distinct, and every upper entry in row order otherwise: all of them
    in one scan where each is a plain numeral ("p/q" or "p"), and each by
    the reader otherwise. The first unreadable one raises as a parse of every entry
    would."""
    expected = outcome(lambda: reference(list("abc"), rows))
    recorded = recording_reads(monkeypatch)
    doc = {"labels": list("abc"), "rows": rows}
    assert outcome(lambda: MetricMatrix.from_json(doc).form) == expected
    assert recorded == reads


@pytest.mark.parametrize("v", PLAIN + GENERAL)
def test_a_table_that_is_not_mirrored_reads_every_entry_in_row_order(
        monkeypatch, v):
    """A table that does not mirror exactly (a tuple row, "2/4" under
    "1/2", 1 under "1") reads every entry once, in row order, up to the
    first entry the reader refuses."""
    calls, read = [], metrics.parse_rational

    def counting(value):
        calls.append(value)
        return read(value)

    monkeypatch.setattr(metrics, "parse_rational", counting)
    rows = [["0/1", v, "1/2"], (v, "0", "1"), ["2/4", 1, 0]]
    order = ["0/1", v, "1/2", v, "0", "1", "2/4", 1, 0]
    got = outcome(lambda: MetricMatrix.from_json(
        {"labels": list("abc"), "rows": rows}).form)
    assert got == outcome(lambda: reference(list("abc"), rows))
    assert calls == (order[:2] if isinstance(got, str) else order)
