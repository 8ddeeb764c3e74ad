"""Every `evs` line of the README's "Command line" block runs: on small
inputs written under the file names the examples use, each exits 0 (the
`metrics-reversed-order` suite exits 1, as the README says), and its
report replays with `match: true` through the README's own
`evs --replay report.json`."""

import json
import shlex
from pathlib import Path

import pytest

from evslib.cli import main

ROOT = Path(__file__).resolve().parent.parent


def table(*rows) -> dict:
    return {"labels": ["a", "b", "c"], "rows": [list(row) for row in rows]}


# the inputs of the examples, by the file names they give
FILES = {
    "kappa.json": table(["0", "1/2", "2"], ["1/2", "0", "2"],
                        ["2", "2", "0"]),
    "a.json": table(["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]),
    "b.json": table(["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]),
    "d.json": table(["0", "1", "3/2"], ["1", "0", "1"], ["3/2", "1", "0"]),
    "rho.json": table(["0", "2", "3"], ["2", "0", "2"], ["3", "2", "0"]),
    "discrete.json": table(["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]),
    "points.json": [[0, 0], [1, 0], [0, 1], ["1/2", "1/3"]],
    "pairs.json": [[[0, 0], [0, 1]], [["1/2", "-1"], ["3/2", "2"]]],
    "family.json": {"depth": 12, "subsetC": ["h0"], "gamma": "2"},
    "x.json": {"h0": "2", "e(h0,5)": "-1/3"},
    "p.json": {"depth": 12, "subsetC": ["h0"], "gamma": "2"},
    "q.json": {"depth": 12, "subsetC": ["h2"], "gamma": "3/2"},
    "w.json": {"h0": "1", "h1": "3", "h2": "1/2"},
    "pts.json": [{}, {"h0": "1"}, {"h1": "-2", "h2": "1/3"}],
    "universe.json": {"instance": "metrics",
                      "elements": ["d.json", "rho.json", "discrete.json"]},
    "family-universe.json": {"instance": "norm-family", "depth": 12,
                             "elements": ["p.json", "q.json"]},
}


def command_lines() -> tuple:
    """The `evs` lines of the README's command-line block, as argv: every
    example, and the replay line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [shlex.split(line, comments=True)[1:]
             for line in block.split("```", 1)[0].splitlines()
             if line.startswith("evs ")]
    replays = [argv for argv in lines if argv[:1] == ["--replay"]]
    return [argv for argv in lines if argv not in replays], replays


EXAMPLES, REPLAYS = command_lines()


def test_the_block_holds_the_examples_and_one_replay():
    assert len(EXAMPLES) >= 18 and REPLAYS == [["--replay", "report.json"]]
    assert {" ".join(argv[:2]) for argv in EXAMPLES} >= {
        "norms partition", "norms weights", "norms eval", "norms witness",
        "norms embed", "order in-l", "order indep", "order generates",
        "order basis", "order feasible"}


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_a_readme_example_runs_and_replays(capsys, monkeypatch, tmp_path,
                                           argv):
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == (1 if "metrics-reversed-order" in argv else 0), \
        captured.err
    assert captured.err == ""
    report = json.loads(captured.out)
    if "--out" in argv:
        saved = json.loads(Path(argv[argv.index("--out") + 1]).read_text(
            encoding="utf-8"))
        assert saved == report["report"]["matrix"]
    Path("report.json").write_text(captured.out, encoding="utf-8")
    assert main(list(REPLAYS[0])) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": report["command"], "match": True, "replay": True}
