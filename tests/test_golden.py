"""Byte pins on the verifier and the metric validator, recorded from the
Fraction-tuple implementation that preceded the integer kernel (commit
d34a16b), and replay of reports that implementation wrote."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from evslib.cli import main
from evslib.metrics import builtin_metric

DATA = Path(__file__).parent / "data"

# For each instance: the exit codes of `evs axioms --instance NAME --seed S
# --sample 12 --properties` for S = 0..20, and the sha256 of their
# concatenated stdout.
AXIOMS_SEEDS_GOLDEN = {
    "metrics": (0, "9b78f019ed8908292a7611d207087ea21cae794d6f4e4b4bc3c57fdfe502b930"),
    "norms": (0, "b18cce70c7b97124b7c5b7c96bcf80f5c46b222ed81775abd71d771d49436655"),
    "cone": (0, "b1b8769a61dec16a0ca6618e08edcc0874e01be8a6516fbb0cff2e710ccd794e"),
    "hyperspace": (0, "6a349bacc8445c0aefce245e7e22fbfdf372c6b3231416a05e313cd0966e6404"),
    "metrics-reversed-order": (1, "93c1f4a90fb2969f5708c6c16a0f508d78de78b5ea4bf6d89d0c51a7fe723935"),
    "metrics-no-abs-scale": (1, "0fa45213621d6aefe27dc1b3a741f2b7b1679191f1dcedee8c62d452438bad1f"),
}


@pytest.mark.parametrize("name", sorted(AXIOMS_SEEDS_GOLDEN))
def test_axioms_seeds_0_to_20_match_golden(capsys, name):
    code, digest = AXIOMS_SEEDS_GOLDEN[name]
    h = hashlib.sha256()
    for seed in range(21):
        assert main(["axioms", "--instance", name, "--seed", str(seed),
                     "--sample", "12", "--properties"]) == code, seed
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def broken_table() -> dict:
    """A 7-point box table (entries 7/6 .. 2) with d(x3, x6) raised to 23/6,
    above d(x3, x1) + d(x1, x6) = 19/6: the first violating triple,
    (x3, x1, x6), has i > 0 and j < i."""
    n = 7
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(7 + (3 * i + 5 * j) % 6, 6)
    rows[2][5] = rows[5][2] = Fraction(23, 6)
    return {"labels": [f"x{k}" for k in range(1, n + 1)],
            "rows": [[f"{v.numerator}/{v.denominator}" for v in r]
                     for r in rows]}


# exit code and sha256 of the stdout of `evs validate FILE`
VALIDATE_GOLDEN = {
    "kappa-41": (0, "59e2a24e2885d1e32b08c2194bd761f38d1027ced8f9d06b77b3c8c6c6db57b6"),
    "kappa-81": (0, "16aaaa36cc005e41f8df0ae2db4f8c3a6edaa5ad355ef2fc7aa7aeec5f9ac058"),
    "broken-7": (1, "c63feef01626ae8df809b50eb2f18289182e66cec226586736c21dbb0e6e2780"),
}


@pytest.mark.parametrize("key", sorted(VALIDATE_GOLDEN))
def test_validate_stdout_bytes_match_golden(capsys, tmp_path, key):
    if key == "broken-7":
        doc = broken_table()
    else:
        doc = builtin_metric("kappa", {}, int(key.split("-")[1])).to_json()
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == VALIDATE_GOLDEN[key]
    if key == "broken-7":
        assert json.loads(out)["report"]["violation"] == {
            "axiom": "triangle", "indices": ["x3", "x1", "x6"],
            "lhs": "23/6", "rhs": "19/6"}


@pytest.mark.parametrize("name", ("metrics", "norms", "metrics-reversed-order",
                                  "metrics-no-abs-scale"))
def test_recorded_axioms_report_replays(capsys, name):
    """`evs axioms --instance NAME --seed 3 --sample 10 --properties`, as
    written before the integer kernel."""
    code = main(["--replay", str(DATA / f"axioms-{name}.json")])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["match"]) == (0, True)
