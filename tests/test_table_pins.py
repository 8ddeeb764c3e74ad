"""Byte pins on the commands that decide order and comparing values on
metric tables, recorded at commit 9567c42, where those decisions were made
by Fraction arithmetic: `evs compare`, `evs transform` and every `evs order`
action on a metric universe. The tables under tests/data/kernel mix
denominators, and include signed tables and tables with a nonzero diagonal,
which `compare` and the universe loader accept unvalidated. Each recorded
report replays `match: true`. The four `order` reports whose signed tables
give a negative comparing value (in-l-signed, indep, basis, feasible) were
re-recorded when their refutations began to state that value and its sign
in place of "0/1" and "exactly zero"."""

import hashlib
import json
from pathlib import Path

import pytest

from evslib.cli import main

DATA = Path(__file__).parent / "data" / "kernel"

# job name -> argv; file names are relative to DATA
JOBS = {
    "compare-dependent": ["compare", "p.json", "q.json"],
    "compare-diagonal": ["compare", "dneg.json", "dpos.json"],
    "compare-signed": ["compare", "s1.json", "s2.json"],
    "transform-bounded": ["transform", "--bounded", "p.json"],
    "transform-bounded-diagonal": ["transform", "--bounded", "dneg.json"],
    "transform-bounded-signed": ["transform", "--bounded", "s1.json"],
    "transform-min": ["transform", "--min", "q.json"],
    "transform-min-signed": ["transform", "--min", "s1.json"],
    "order-in-l-diagonal": ["order", "in-l", "--universe", "universe.json",
                            "--x", "dpos.json", "--y", "dneg.json"],
    "order-in-l-signed": ["order", "in-l", "--universe", "universe.json",
                          "--x", "s1.json", "--y", "q.json"],
    "order-feasible": ["order", "feasible", "--universe", "universe.json",
                       "--x", "big.json"],
    "order-indep": ["order", "indep", "--universe", "universe.json"],
    "order-generates": ["order", "generates", "--universe", "universe.json",
                        "--generator", "disc.json", "--generator", "s2.json"],
    "order-basis": ["order", "basis", "--universe", "universe.json",
                    "--generator", "p.json", "--generator", "s2.json"],
}

# job name -> (exit code, sha256 of stdout)
GOLDEN = {
    "compare-dependent": (0, "69a23f2a65c78e79547a6fba3b7aeb3af97914b213ffe89785a6af994373a775"),
    "compare-diagonal": (0, "6f23d23a415ed435484c3670eae8b0f999480e467c310b183775c0785b3cf60b"),
    "compare-signed": (0, "03f543de18f5ecab312ab8f7fa4ed0a3df68ce7e675a63bb6e1fe562bb267cad"),
    "order-basis": (1, "5a40d59c3607136a01800fd9e4bef5d982452c1196284a4350c0343b339342b8"),
    "order-feasible": (1, "c3d9e8427d3b721e0bc0ce9c7ead29695bb60dd0cb6698aa44202419c4196627"),
    "order-generates": (1, "1c46bd0e5af4bd5654068dfc98aefd16012a7f34640c38d0cdea93b95d147749"),
    "order-in-l-diagonal": (0, "36467a942a4d9af7437930185a234887ade31a1b60771b3bcdb08e963de0a142"),
    "order-in-l-signed": (1, "70e0f02bdaf1f8618c4571ac69617fd958753aee8c7dbef24be354dfdff9e69b"),
    "order-indep": (1, "8c3c0d68f3861e746967863ff88331ff9c370044f5bccfc99e56cfada62a2c3d"),
    "transform-bounded": (0, "a1c55efc8a51cd266eaa2be0a79caa50f7cd4e5d6638c1e8d69fabaae84ae9d0"),
    "transform-bounded-diagonal": (0, "6d975818fe59cf757bde956bed12b30670df8ba26e49f8077b1a87025933a6ab"),
    "transform-bounded-signed": (1, "20dc691eda83c6c83f5531279d8429de46dcfff9927087efaefef0010d866382"),
    "transform-min": (0, "6430d57b0f61b62885ee9cb4294b4976a54d0e691105cab9424f623ac383583b"),
    "transform-min-signed": (1, "17daa533e38f0d5ee946452a6541e4d8c6a0b4780298c57c160aff44e75cfbd2"),
}

# zp vanishes on the pairs (a, d) and (b, c); the error names the first
ZERO_PAIR_ERROR = ('{"error": "relative element vanishes on the distinct '
                   'pair (a, d); not a metric"}\n')


def run(argv: list) -> int:
    return main([str(DATA / a) if a.endswith(".json") else a for a in argv])


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stdout_bytes_match_golden(capsys, name):
    code = run(JOBS[name])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_recorded_report_replays(capsys, name):
    code = main(["--replay", str(DATA / "reports" / f"{name}.json")])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["match"]) == (0, True)


@pytest.mark.parametrize("argv", (["compare", "zp.json", "p.json"],
                                  ["compare", "p.json", "zp.json"]))
def test_zero_pair_error_text(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", ZERO_PAIR_ERROR)
