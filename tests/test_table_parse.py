"""Tables parse each unordered pair once: a mirrored entry spelled
otherwise still gives the canonical report, and malformed tables fail with
the errors, in the order, that a full parse of every entry gave."""

import json

import pytest

from evslib.cli import main


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
