"""The report writer gives the bytes of json.dumps(indent=2,
sort_keys=True): on generated documents, on every stored report, and in
the file that --out writes."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from evslib import metrics
from evslib.cli import _dumps, main
from evslib.rationals import ratios_to_ints
from reference import reference_dumps

DATA = Path(__file__).parent / "data"


json_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text
    | st.integers(-10 ** 40, 10 ** 40)
    | st.sampled_from(("", '"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2603",
                       "\U0001f600", "0/1", "-3/4")),
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(json_text, max_size=5)
                      | st.dictionaries(json_text, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(json_documents)
def test_writer_matches_json_dumps(doc):
    assert _dumps(doc) == reference_dumps(doc)


def test_writer_writes_tuples_and_to_json_objects_as_json_dumps_does():
    m = metrics.MetricMatrix.from_json(
        {"labels": ["a", "b"], "rows": [["0", "1/2"], ["0.5", 0]]})
    doc = {"m": m, "t": ("a", 1, (None, [])), "f": 0.5}
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                     default=lambda o: o.to_json())


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 3))
    size = n * (n + 1) // 2
    labels = draw(st.lists(json_text, min_size=n, max_size=n, unique=True))
    nums = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    den = draw(st.integers(1, 6))
    return metrics.MetricMatrix(tuple(labels),
                                ratios_to_ints(nums, [den] * size))


@st.composite
def documents_with_shared_parts(draw):
    """A document that holds the same table, array and object, each one
    object, any number of times, at any depth, inside each other too."""
    table = draw(small_tables())
    array = [table, draw(json_documents), "a"]
    obj = {"table": table, "array": array, "doc": draw(json_documents)}
    shared = st.sampled_from((table, array, obj, array[1], obj["doc"]))
    return draw(st.recursive(
        shared | st.none() | st.integers() | json_text,
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(json_text, children, max_size=4)),
        max_leaves=20))


@settings(max_examples=300, deadline=None)
@given(documents_with_shared_parts())
def test_writer_matches_json_dumps_on_shared_parts(doc):
    """A part written again at the same indentation copies the pieces of
    its first text, and at another one is written anew: either way the
    text is json.dumps's."""
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                     default=metrics.MetricMatrix.to_json)


def test_a_repeated_table_document_is_written_once():
    """A document that holds one 16-point table document 200 times is
    written with one list of pieces and one join: the writer's peak memory
    stays under 1.5 times the text it returns (a writer that joins each
    level's text, and every copy of the table anew, peaks near 3 times)."""
    labels = [f"p{i}" for i in range(16)]
    table = metrics.MetricMatrix.from_rows(labels, [
        [Fraction(abs(i - j), 7) for j in range(16)]
        for i in range(16)]).to_json()
    doc = {"tables": [table] * 200}
    tracemalloc.start()
    try:
        text = _dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference_dumps(doc)
    assert peak < 1.5 * len(text)


STORED_REPORTS = (sorted(DATA.glob("*.json"))
                  + sorted((DATA / "boundary").glob("*.json")))


@pytest.mark.parametrize("path", STORED_REPORTS, ids=lambda p: p.name)
def test_writer_matches_json_dumps_on_stored_reports(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert _dumps(doc) == reference_dumps(doc)


def test_stored_report_count():
    assert len(STORED_REPORTS) == 32


# sha256 of the file that `evs builtin ... --out FILE` writes, recorded at
# commit 976c320
OUT_FILE_GOLDEN = {
    "kappa": "b7f262b2508b7ee0e15fdf6d34f23d8ed53cf28031a254d3b47bf09d2c10ac8c",
    "cauchy-dn": "31d516bcbbd886cb2032cce5881befd9e9c658f57d02431e3a57e2bf1c4be381",
}


@pytest.mark.parametrize("name", sorted(OUT_FILE_GOLDEN))
def test_out_file_bytes_match_golden(capsys, tmp_path, name):
    points = tmp_path / "points.json"
    points.write_text('[["0","0"],["1","1/2"],["1","0"]]', encoding="utf-8")
    out = tmp_path / "out.json"
    argv = (["builtin", "kappa", "--depth", "5"] if name == "kappa" else
            ["builtin", "cauchy-dn", "--n", "3", "--depth", "3",
             "--points", str(points)])
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUT_FILE_GOLDEN[name]
