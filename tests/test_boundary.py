"""The JSON boundary: byte pins on the table commands, replay of reports
written before the single-parse boundary (commit 211fc81), the one reader
of input rationals behind parse_rational, and the number of reads per input
entry."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evslib import metrics
from evslib.cli import main
from evslib.errors import InputError
from evslib.rationals import fmt, parse_rational
from reference import reference_parse

DATA = Path(__file__).parent / "data" / "boundary"

LABELS = ["a", "b", "c", "d"]

# Input tables in the spellings a user may write: canonical "p/q", plain
# integers, JSON numbers, decimals, unreduced fractions and padded strings.
# The reports must print every entry as canonical "p/q".
TABLES = {
    "t1": [[0, "1", "3/2", "2"],
           [1, "0", " 1/2", "1.5"],
           ["6/4", "0.5", 0, "2/2"],
           ["2", "3/2", 1, "0/7"]],
    "t2": [["0", "2/3", "2/3", "4/3"],
           ["2/3", "0", "4/3", "2/3"],
           ["2/3", "4/3", "0", "2/3"],
           ["4/3", "2/3", "2/3", "0"]],
    "half": [["0", "1/2", "3/4", "1"],
             ["1/2", "0", "1/4", "3/4"],
             ["3/4", "1/4", "0", "1/2"],
             ["1", "3/4", "1/2", "0"]],
    "t1x2": [["0", "2", "3", "4"],
             ["2", "0", "1", "3"],
             ["3", "1", "0", "2"],
             ["4", "3", "2", "0"]],
    "broken": [["0", "1", "1", "5"],
               ["1", "0", "1", "1"],
               ["1", "1", "0", "1"],
               ["5", "1", "1", "0"]],
    "discrete": [["0", "1", "1", "1"],
                 ["1", "0", "1", "1"],
                 ["1", "1", "0", "1"],
                 ["1", "1", "1", "0"]],
}
UNIVERSE = ("t1", "t1x2", "half", "t2")


def write_inputs(root: Path) -> None:
    """Every table as JSON (`NAME.json`), the two validate subjects also as
    CSV (`NAME.csv`), and the universe manifest `universe.json`."""
    for name, rows in TABLES.items():
        (root / f"{name}.json").write_text(
            json.dumps({"labels": LABELS, "rows": rows}), encoding="utf-8")
    for name in ("t1", "broken"):
        lines = [",".join(LABELS)]
        lines += [",".join(str(v).strip() for v in row) for row in TABLES[name]]
        (root / f"{name}.csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    (root / "universe.json").write_text(json.dumps(
        {"instance": "metrics",
         "elements": [f"{name}.json" for name in UNIVERSE]}), encoding="utf-8")


# job name -> argv; file names are relative to the input directory
JOBS = {
    "validate-json-pass": ["validate", "t1.json"],
    "validate-json-broken": ["validate", "broken.json"],
    "validate-csv-pass": ["validate", "t1.csv"],
    "validate-csv-broken": ["validate", "broken.csv"],
    "combine-add": ["combine", "--add", "t2.json", "t1.json"],
    "combine-scale": ["combine", "--scale", "-0.75", "t1.json"],
    "compare": ["compare", "t1.json", "half.json"],
    "transform-bounded": ["transform", "--bounded", "t1.json"],
    "transform-min": ["transform", "--min", "t2.json"],
    "order-in-l": ["order", "in-l", "--universe", "universe.json",
                   "--x", "half.json", "--y", "t1x2.json"],
    "order-feasible": ["order", "feasible", "--universe", "universe.json",
                       "--x", "t1x2.json"],
    "order-indep": ["order", "indep", "--universe", "universe.json",
                    "--eps", "1/10"],
    "order-generates": ["order", "generates", "--universe", "universe.json",
                        "--generator", "discrete.json"],
    "order-basis": ["order", "basis", "--universe", "universe.json",
                    "--generator", "discrete.json", "--generator", "t2.json"],
}

# job name -> (exit code, sha256 of stdout), recorded at commit 211fc81
GOLDEN = {
    "combine-add": (0, "16a31aeafd5e07bab51fcecb67ec897d8d1052a3621046132edef00bf0bbb3a4"),
    "combine-scale": (0, "cdf7001eea11290ec75541c01542f2367b039fa1ae837151cf8f52d93dae4e61"),
    "compare": (0, "89a90dae58067a7f36bcbd8d78d99db22c48a81a74be8c7b1a7a3f499e62d491"),
    "order-basis": (1, "2fc06ff31ab092a2a600c24656cbeec1ee20849787f6fdfe6fe132d63698b992"),
    "order-feasible": (0, "ab3ce3bf6860d7b6272192034f6e588694b1c82707751b1ceec562ea5890e916"),
    "order-generates": (0, "73088bc21e185673b3f290a4d512046372e1ecfff90b9f4f8aaa5d563bb56953"),
    "order-in-l": (0, "8a4866374c0cd2646e5c9b6a747363f296fd979dc9ebf4c951ae7176c27a50ff"),
    "order-indep": (1, "e86b11142455df5a0633f23bc684db87a6769d72d11b31268359e35adb651fc7"),
    "transform-bounded": (0, "ad11011247e534084d7cfbabeadbd1219b02d02f68ec19685540614126934794"),
    "transform-min": (0, "cd9a30fbc6a16f54a4eb2fa16bfb2f6592e2216192f5225f25336eae1a4b9943"),
    "validate-csv-broken": (1, "f99432c92790930830743af5ca87c0f3ac457aba46eb0b68d37596679c95dc74"),
    "validate-csv-pass": (0, "2e24f409e801adf6342be2c01e86fe9f6817a976675c8b88ed63bbfdfd5dd9b1"),
    "validate-json-broken": (1, "f99432c92790930830743af5ca87c0f3ac457aba46eb0b68d37596679c95dc74"),
    "validate-json-pass": (0, "2e24f409e801adf6342be2c01e86fe9f6817a976675c8b88ed63bbfdfd5dd9b1"),
}


def run_job(root: Path, name: str) -> int:
    argv = [a if not a.endswith((".json", ".csv")) else str(root / a)
            for a in JOBS[name]]
    return main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    write_inputs(root)
    return root


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stdout_bytes_match_golden(capsys, inputs, name):
    code = run_job(inputs, name)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_recorded_report_replays(capsys, name):
    code = main(["--replay", str(DATA / f"{name}.json")])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["match"]) == (0, True)


# -- one parse per input entry --------------------------------------------


def recording_reads(monkeypatch) -> list:
    """A list that records, in order, each entry read: every key that the
    one scan of plain entries (metrics._scan) reads, and every entry the
    reader, parse_rational, reads one by one."""
    reads, scan, read = [], metrics._scan, metrics.parse_rational

    def scanning(keys):
        scanned = scan(keys)
        if scanned is not None:
            reads.extend(("scan", key) for key in keys)
        return scanned

    def counting(value):
        reads.append(("ratio", value))
        return read(value)

    monkeypatch.setattr(metrics, "_scan", scanning)
    monkeypatch.setattr(metrics, "parse_rational", counting)
    return reads


def write_table(path, labels, rows) -> None:
    if path.suffix == ".json":
        path.write_text(json.dumps({"labels": labels, "rows": rows}),
                        encoding="utf-8")
    else:
        path.write_text("\n".join(",".join(map(str, r))
                                  for r in [labels] + rows),
                        encoding="utf-8")


@pytest.mark.parametrize("suffix", (".json", ".csv"))
def test_validate_parses_each_entry_once(capsys, monkeypatch, tmp_path, suffix):
    """Whatever the diagonal's spelling ("0", "0/1" or a JSON 0, which CSV
    writes as "0"), each distinct entry of the upper triangle, the
    diagonal included, is read once, in order of first occurrence in row
    order: the table repeats its entries, so no entry is read twice. A
    table of plain numerals ("p/q", "0" or 0) is read by the scan alone,
    and any other by the reader alone; the first entry the reader refuses
    raises with its text."""
    n = 6
    labels = [f"x{k}" for k in range(n)]
    reads = recording_reads(monkeypatch)
    path = tmp_path / f"m{suffix}"
    for diagonal, bad in (("0", None), ("0/1", None), (0, None),
                          ("0/1", "x"), ("0", "x")):
        # entries between 1 and 7/4, so the triangle inequality holds
        rows = [[f"{4 + (3 * min(i, j) + 5 * max(i, j)) % 4}/4" if i != j
                 else diagonal for j in range(n)] for i in range(n)]
        if bad is not None:
            rows[2][4] = rows[4][2] = bad
        if suffix == ".csv":
            rows = [[str(v) for v in row] for row in rows]
        write_table(path, labels, rows)
        reads.clear()
        upper = [v for i, row in enumerate(rows) for v in row[i:]]
        distinct = [v for k, v in enumerate(upper) if v not in upper[:k]]
        reader = "scan" if bad is None else "ratio"
        if bad is None:
            assert main(["validate", str(path)]) == 0
            assert capsys.readouterr().err == ""
            assert len(distinct) == 5 < len(upper) == n * (n + 1) // 2
        else:
            assert main(["validate", str(path)]) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": f"not a rational: {bad!r}"}
            distinct = distinct[:distinct.index(bad) + 1]
        assert reads == [(reader, v) for v in distinct]


# -- the reader of parse_rational -------------------------------------------


def check_parse(text: str) -> None:
    expected = reference_parse(text)
    if expected is None:
        with pytest.raises(InputError):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == expected


digits = st.text("0123456789", min_size=1, max_size=12)
rational_strings = st.one_of(
    # anything over an alphabet that holds every spelling the reader must
    # leave to Fraction's parser
    st.text("0123456789-+/.e_ \u0663\u00b2", max_size=16),
    # "-?digits/digits", zero and zero-padded denominators included
    st.builds(lambda sign, num, den: f"{sign}{num}/{den}",
              st.sampled_from(("", "-", "+", " ", "--")), digits, digits),
    # numerators and denominators on both sides of int()'s 4300-digit limit
    st.builds(lambda sign, width, digit, den, swap:
              (f"{sign}{den}/{digit * width}" if swap
               else f"{sign}{digit * width}/{den}"),
              st.sampled_from(("", "-")), st.integers(4290, 4310),
              st.sampled_from("0123456789"), digits, st.booleans()),
)


@settings(max_examples=600, deadline=None)
@given(rational_strings)
def test_parse_rational_agrees_with_fraction(text):
    check_parse(text)


@pytest.mark.parametrize("text", [
    "3/4", "-3/4", "007/010", "-0/5", "0/1", "1/0", "-1/00", "+1/2",
    " 1/2", "1/2 ", "1 / 2", "1/-2", "-/2", "1/", "/2", "--1/2", "1/2/3",
    "1_0/3", "1/3_0", "\u0663/4", "3/\u0663", "\u00b2/3", "0.5", "1e3",
    "1E-3", "-7", "", " ", "1" * 4301 + "/3", "3/" + "1" * 4301,
    "1" * 4300 + "/3", "0", "-0", "007", "-12", "1" * 4301,
])
def test_parse_rational_examples(text):
    check_parse(text)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.integers(), st.booleans(), st.floats(), st.none(),
                 st.lists(st.integers(), max_size=2)))
def test_parse_rational_of_a_non_string_is_its_fraction(value):
    """An int reads as Fraction(int) and a float as Fraction of its
    shortest repr; a bool, a float that is not finite, None and a list
    are refused with their repr."""
    if type(value) is int:
        expected = Fraction(value)
    elif type(value) is float and value - value == 0:
        expected = Fraction(repr(value))
    else:
        shown = repr(value) if type(value) is float else value
        with pytest.raises(InputError) as raised:
            parse_rational(value)
        assert str(raised.value) == f"not a rational: {shown!r}"
        return
    got = parse_rational(value)
    assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e100000",
                                  "-2.5E+4300", "1e99999999999999999999"])
def test_huge_decimal_exponent_is_rejected(text):
    with pytest.raises(InputError, match="exceeds the 4300-digit limit"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1e400", "-1e-400", "1e4299", "0.5e4298"])
def test_decimal_exponent_within_the_limit_is_exact(text):
    assert parse_rational(text) == Fraction(text)
    fmt(parse_rational(text))


@given(st.one_of(st.integers(), st.fractions()))
def test_fmt_unchanged_on_int_and_fraction(q):
    as_fraction = Fraction(q)
    assert fmt(q) == f"{as_fraction.numerator}/{as_fraction.denominator}"


def test_matrix_from_json_returns_a_matrix_unchanged():
    m = metrics.MetricMatrix.from_json({"labels": LABELS,
                                        "rows": TABLES["t2"]})
    assert metrics.MetricMatrix.from_json(m) is m
