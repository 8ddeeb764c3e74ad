"""Byte pins on the two commands with actions, `evs norms` and `evs order`,
recorded at commit 28fab2c, where the parser of every action was built on
each call and the embedding evaluated both orders of every pair: the stdout
of `evs norms embed`, and the usage errors of an action's arguments at two
terminal widths."""

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
