"""Byte pins on every `evs order` action, recorded at commit b66ff2f, where
`orderly_independent_set` and `generates` returned report objects that the
command serialized: the exit code and the sha256 of stdout of each status a
small universe reaches, on metric tables (including a signed one and a
pseudometric), a norm family and a cone. Each recorded report replays
`match: true`."""

import hashlib
import json
from pathlib import Path

import pytest

from evslib.cli import main

DATA = Path(__file__).parent / "data" / "order"

LABELS = ["a", "b", "c"]
TABLES = {
    "line": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    "half": [["0", "1/2", "1/2"], ["1/2", "0", "1/2"], ["1/2", "1/2", "0"]],
    "disc": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
    "signed": [["0", "-1", "1"], ["-1", "0", "1"], ["1", "1", "0"]],
    "pseudo": [["0", "0", "1"], ["0", "0", "1"], ["1", "1", "0"]],
}
FAMILY = {"fam-p": {"depth": 12, "subsetC": ["h0"], "gamma": "2"},
          "fam-q": {"depth": 12, "subsetC": ["h2"], "gamma": "2"}}
CONE = {"cone-prim": {"r": "0", "v": ["0", "1"]},
        "cone-unit": {"r": "1", "v": ["1", "0"]},
        "cone-far": {"r": "5", "v": ["3", "1"]}}
UNIVERSES = {
    "metrics": {"instance": "metrics", "elements": ["line", "half", "disc"]},
    "metrics-pseudo": {"instance": "metrics", "elements": ["line", "pseudo"]},
    "family": {"instance": "norm-family", "depth": 12,
               "elements": ["fam-p", "fam-q"]},
    "cone": {"instance": "cone", "dim": 2, "elements": sorted(CONE)},
}


def write_inputs(root: Path) -> None:
    """Every element as `NAME.json` and every universe manifest as
    `u-NAME.json`, its elements named by file."""
    docs = {name: {"labels": LABELS, "rows": rows}
            for name, rows in TABLES.items()}
    for name, doc in {**docs, **FAMILY, **CONE}.items():
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for name, manifest in UNIVERSES.items():
        manifest = {**manifest,
                    "elements": [f"{e}.json" for e in manifest["elements"]]}
        (root / f"u-{name}.json").write_text(json.dumps(manifest),
                                             encoding="utf-8")


def order(action, universe, *rest):
    return ["order", action, "--universe", f"u-{universe}.json", *rest]


# job name -> argv; file names are relative to the input directory
JOBS = {
    "in-l-positive": order("in-l", "metrics", "--x", "disc.json",
                           "--y", "line.json"),
    "in-l-signed-refuted": order("in-l", "metrics", "--x", "signed.json",
                                 "--y", "line.json"),
    "in-l-cone-lsolve": order("in-l", "cone", "--x", "cone-unit.json",
                              "--y", "cone-far.json"),
    "indep-metrics-fail": order("indep", "metrics"),
    "indep-family-eps": order("indep", "family", "--eps", "1/1000"),
    "indep-family-inconclusive": order("indep", "family"),
    "generates-pass": order("generates", "metrics", "--generator",
                            "disc.json"),
    "generates-fail": order("generates", "metrics-pseudo", "--generator",
                            "disc.json"),
    "generates-cone-inconclusive": order("generates", "cone", "--generator",
                                         "cone-unit.json"),
    "basis-pass": order("basis", "metrics", "--generator", "disc.json"),
    "basis-fail": order("basis", "metrics", "--generator", "disc.json",
                        "--generator", "half.json"),
    "basis-family-eps": order("basis", "family", "--generator", "fam-p.json",
                              "--generator", "fam-q.json", "--eps", "1/1000"),
    "feasible-pass": order("feasible", "metrics", "--x", "disc.json"),
    "feasible-fail": order("feasible", "metrics-pseudo", "--x", "disc.json"),
}

# job name -> (exit code, sha256 of stdout)
GOLDEN = {
    "basis-fail": (1, "a526f36367b5cfb5f23aed9ac43cd53a1b91c73226df1ac12b2526fabd27ee2d"),
    "basis-family-eps": (1, "ec34778da938855f3456f95556b671b8e9f9e452cb768aec451b26b3282478fc"),
    "basis-pass": (0, "b12f352f2a159b59f7faa6313d7700728d3f19bee56520b6ebc737586ea88629"),
    "feasible-fail": (1, "25a751e439c80792afe18d48607638dd4e8693c79a0e5f52c8bd838eec7d8291"),
    "feasible-pass": (0, "e56bd146f7933006035e376f9070c7388beabd21d8d9f3e8c37292ebc08db460"),
    "generates-cone-inconclusive": (1, "f88bb4e7c95a051e637768d34174ac05d162e524b63d87e5130b03a3791aea44"),
    "generates-fail": (1, "551e11987759f6714d74b60273f070e31d2f8b8653fd3c94e95ab7d043489ace"),
    "generates-pass": (0, "1c5533859628e8dd0e4d4322e5702a922a9d81663d890809bb9cb8c140b624c4"),
    "in-l-cone-lsolve": (0, "203764f06c85558af31ce59583897e988945a3e17b09b566809badb94719f3a3"),
    "in-l-positive": (0, "4629a3c24e5edb5f812bab10fb4c1c915a2218d6c956e640bb513828d49750f9"),
    "in-l-signed-refuted": (1, "069d050e406a7f6c8623d5cee0e15d8d44bcb05103c02bf568e4c917a111fb11"),
    "indep-family-eps": (0, "cb5539d0a03853db5613530b9cd42e00a0283f88f1b1a20e3d891cabddc46a7e"),
    "indep-family-inconclusive": (1, "726beddf0c84fadd66b747b00d094314291bce2cedd1d5324c2052a7f0bc795c"),
    "indep-metrics-fail": (1, "9ea638eef8a4118f5381611fc083a8f8793e8d9819abede9fc055736bc24b0c9"),
}


def run_job(root: Path, name: str) -> int:
    return main([str(root / a) if a.endswith(".json") else a
                 for a in JOBS[name]])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("order")
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
