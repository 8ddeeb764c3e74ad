"""Byte pins on the two commands with actions, `evs norms` and `evs order`,
recorded at commit 28fab2c, where the parser of every action was built on
each call and the embedding evaluated both orders of every pair: the stdout
of `evs norms embed`, and the usage errors of an action's arguments at two
terminal widths. Then the stdout of every other `evs norms` action, with
each branch of the witness, and of `evs cauchy-demo`, recorded at commit
231912a."""

import hashlib
import json

import pytest

from evslib.cli import main
from test_usage import run

WEIGHTS = {"h0": "1", "h1": "3", "h2": "1/2", "h5": "7/4"}
POINTS = [{}, {"h0": "1"}, {"h1": "2"}, {"h0": "-1/3", "h2": "5"},
          {"h1": "1/2", "h5": "-2"},
          {"h0": "2", "h1": "-1", "h2": "1/7", "h5": "3"}]


def test_norms_embed_stdout_matches_golden(capsys, tmp_path):
    w, p = tmp_path / "w.json", tmp_path / "p.json"
    w.write_text(json.dumps(WEIGHTS), encoding="utf-8")
    p.write_text(json.dumps(POINTS), encoding="utf-8")
    code = main(["norms", "embed", "--weights", str(w), "--points", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6fda0275b942e1ff58d1b2d1ff86c05119341cebb6c50f953fe1a2803a03d04a"


# " ".join(argv) -> (exit code, sha256 of stdout and stderr at both widths)
GOLDEN = {
    "order in-l --bogus": (2, "72840b47aebb02a300edefbf4bee9c7676668d7f29ab2899c96227846a6605f4"),
    "norms witness --spec p.json --spec q.json": (2, "4bad16d7d99c2ab27e521e84b795bbb4fe75565b11745c65283e8d5c0e31de46"),
    "order basis --universe u.json": (2, "3334cd0418c29c62f954fb1302a8fdc716ef655c9e648a99a3e131187c96ead4"),
    "norms embed --weights w.json": (2, "7e1913f0b92f941f1a11190f9690b1b284b2725c12bfbbe86f9a87f566988365"),
    "order feasible --universe u.json --x a.json --eps 1": (2, "31b66d8565c9f984b48d38487406c39e0c2062c7315fe07cc03f736ce44b9872"),
    "norms partition": (2, "b877215c0a99b38758a9bc7c64d877be1393b7c8fed3fefa609c1750d9d0fb30"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_action_usage_bytes_match_golden(capsys, monkeypatch, argv):
    assert run(capsys, monkeypatch, argv.split()) == GOLDEN[argv]


# input files, by name, of the stdout pins below
FILES = {
    "p.json": {"depth": 12, "subsetC": ["h0"], "gamma": "2"},
    "q.json": {"depth": 12, "subsetC": ["h2"], "gamma": "3/2"},
    "pq.json": {"depth": 12, "subsetC": ["h0", "h4"], "gamma": "5/4"},
    "p3.json": {"depth": 12, "subsetC": ["h0"], "gamma": "3"},
    "w.json": WEIGHTS,
    "v.json": {"h0": "-2/3", "h1": "1", "d(h0,3)": "5", "e(h0,2)": "-7",
               "h11": "1/9"},
    "u.json": {"h0": "3", "h2": "-1/4", "h5": "2/7"},
    "pairs.json": [[[0, 0], [0, 1]], [["1/2", "-1"], ["3/2", "2"]],
                   [[1, 1], [1, "-1/3"]]],
}

# " ".join(argv) -> sha256 of the stdout of a run that exits 0
STDOUT = {
    "norms partition --depth 12": "ac36068672f038bfc9c0c6ac6d38d94b81c3bf5d4462bb2b4df691b3a2528960",
    "norms weights --spec p.json": "355b0c5e1d1b02dacfb81efeb70e59b2531c1297530ff81b9e8b1653eb87d71e",
    "norms eval --spec p.json --vector v.json": "c8f0984bc495253c192ca0673c20203bb087ba67652ca418d03417c6f2eb9718",
    "norms eval --weights w.json --vector u.json": "6b4478b7d8706ddea4cc81560a909cd490d8fc388e94243725705bd06730d7b8",
    # case 1, C_p not inside C_q: the fibers of h0 in p's C
    "norms witness --spec p.json --spec q.json --eps 1/1000": "3a102200853e8775876a94c41fb519ddf544be4ad2df887ba91d2b90fa49cd0b",
    # case 1, C_q not inside C_p: the fibers of h4 in q's C
    "norms witness --spec p.json --spec pq.json --eps 1/1000": "a1c28ea3f49f4d2b8ca2e9d0ea1d24d8042606f227d1ae26887be1e4a9d2eef0",
    # case 2, one C and two gammas, the larger first and then second
    "norms witness --spec p3.json --spec p.json --eps 1/1000": "96549277d757437e4f18d26d9846c9c6c268bd0c03e3dcae22d0732852ee6590",
    "norms witness --spec p.json --spec p3.json --eps 1/1000": "1f25259c569b81bd2225eb3cda1c626bec5a18d3cb06ec86abec757e4c9ee6f5",
    "cauchy-demo --indices 10,20,40 --pairs pairs.json": "ef26e206471218b8ad5f081bd51b1157e0d0bfb7fd804fefc6148bb2cdf0b0fb",
}


@pytest.mark.parametrize("argv", sorted(STDOUT))
def test_stdout_matches_golden(capsys, monkeypatch, tmp_path, argv):
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT[argv]
