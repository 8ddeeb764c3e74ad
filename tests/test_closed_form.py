"""Byte pins on the closed-form metrics: the stdout of `evs builtin` and
`evs partial-compare` for every shipped family and pairing, the messages of
their input errors, and replay of partial-compare reports. All were
recorded at commit 810612a, before the family table of
`metrics._PAIR_FNS`."""

import hashlib
import json
from pathlib import Path

import pytest

from evslib.cli import main

DATA = Path(__file__).parent / "data" / "boundary"

POINTS = [[0, 0], [1, 0], [0, 1], ["1/2", "3/2"], [-1, "2/3"]]

# job name -> argv; "pts.json" names the file holding POINTS
JOBS = {
    "builtin-discrete-2": ["builtin", "discrete", "--depth", "2"],
    "builtin-discrete-9": ["builtin", "discrete", "--depth", "9"],
    "builtin-discrete-40": ["builtin", "discrete", "--depth", "40"],
    "builtin-shrinking-2": ["builtin", "shrinking", "--depth", "2"],
    "builtin-shrinking-9": ["builtin", "shrinking", "--depth", "9"],
    "builtin-shrinking-40": ["builtin", "shrinking", "--depth", "40"],
    "builtin-usual-grid-2": ["builtin", "usual-grid", "--step", "1/3",
                             "--depth", "2"],
    "builtin-usual-grid-9": ["builtin", "usual-grid", "--step", "1/3",
                             "--depth", "9"],
    "builtin-usual-grid-40": ["builtin", "usual-grid", "--step", "5/2",
                              "--depth", "40"],
    "builtin-kappa-3": ["builtin", "kappa", "--depth", "3"],
    "builtin-kappa-11": ["builtin", "kappa", "--depth", "11"],
    "builtin-kappa-41": ["builtin", "kappa", "--depth", "41"],
    "builtin-kappa-step-21": ["builtin", "kappa", "--step", "1/10",
                              "--depth", "21"],
    "builtin-cauchy-dn-2": ["builtin", "cauchy-dn", "--n", "3",
                            "--points", "pts.json", "--depth", "2"],
    "builtin-cauchy-dn-5": ["builtin", "cauchy-dn", "--n", "3",
                            "--points", "pts.json", "--depth", "5"],
    # input errors: exit 2, no report
    "builtin-discrete-1": ["builtin", "discrete", "--depth", "1"],
    "builtin-discrete-step": ["builtin", "discrete", "--step", "1",
                              "--depth", "4"],
    "builtin-shrinking-n": ["builtin", "shrinking", "--n", "2",
                            "--depth", "4"],
    "builtin-usual-grid-no-step": ["builtin", "usual-grid", "--n", "2",
                                   "--depth", "4"],
    "builtin-usual-grid-zero-step": ["builtin", "usual-grid", "--step", "0",
                                     "--depth", "4"],
    "builtin-kappa-step-mismatch": ["builtin", "kappa", "--step", "1/10",
                                    "--depth", "11"],
    "builtin-kappa-even": ["builtin", "kappa", "--depth", "12"],
    "builtin-kappa-2": ["builtin", "kappa", "--depth", "2"],
    "builtin-kappa-n": ["builtin", "kappa", "--n", "3", "--step", "1/10",
                        "--depth", "11"],
    "builtin-cauchy-dn-over": ["builtin", "cauchy-dn", "--n", "3",
                               "--points", "pts.json", "--depth", "6"],
    "builtin-cauchy-dn-no-n": ["builtin", "cauchy-dn", "--step", "1",
                               "--points", "pts.json", "--depth", "3"],
    "builtin-cauchy-dn-n-0": ["builtin", "cauchy-dn", "--n", "0",
                              "--points", "pts.json", "--depth", "3"],
    "partial-compare-discrete-shrinking": [
        "partial-compare", "--first", "discrete", "--second", "shrinking",
        "--depths", "50,100,200"],
    "partial-compare-shrinking-discrete": [
        "partial-compare", "--first", "shrinking", "--second", "discrete",
        "--depths", "10,25,50"],
    "partial-compare-kappa-usual": [
        "partial-compare", "--first", "kappa", "--second", "usual",
        "--depths", "11,21,41,81"],
    "partial-compare-usual-kappa": [
        "partial-compare", "--first", "usual", "--second", "kappa",
        "--depths", "11,21"],
    "partial-compare-usual-grid-discrete": [
        "partial-compare", "--first", "usual-grid:step=1", "--second",
        "discrete", "--depths", "5,10,20"],
    "partial-compare-discrete-usual-grid": [
        "partial-compare", "--first", "discrete", "--second",
        "usual-grid:step=1/2", "--depths", "5,10"],
    "partial-compare-usual-grid-shrinking": [
        "partial-compare", "--first", "usual-grid:step=1/4", "--second",
        "shrinking", "--depths", "4,8,16"],
    "partial-compare-cauchy-dn": [
        "partial-compare", "--first", "cauchy-dn:n=2", "--second",
        "cauchy-dn:n=5", "--points", "pts.json", "--depths", "3,5"],
    "partial-compare-cauchy-dn-discrete": [
        "partial-compare", "--first", "cauchy-dn:n=3", "--second",
        "discrete", "--points", "pts.json", "--depths", "2,4"],
    "partial-compare-kappa-step": [
        "partial-compare", "--first", "kappa:step=1/5", "--second", "usual",
        "--depths", "11"],
    "partial-compare-kappa-kappa-step": [
        "partial-compare", "--first", "kappa", "--second", "kappa:step=1/10",
        "--depths", "21"],
    # input errors: exit 2, no report
    "partial-compare-kappa-step-mismatch": [
        "partial-compare", "--first", "kappa:step=1/5", "--second", "usual",
        "--depths", "11,21"],
    "partial-compare-kappa-even": [
        "partial-compare", "--first", "kappa", "--second", "usual",
        "--depths", "11,12"],
    "partial-compare-usual-usual": [
        "partial-compare", "--first", "usual", "--second", "usual",
        "--depths", "5"],
    "partial-compare-carrier-conflict": [
        "partial-compare", "--first", "usual-grid:step=1", "--second",
        "kappa", "--depths", "5"],
}

# job name -> (exit code, sha256 of stdout)
GOLDEN = {
    "builtin-cauchy-dn-2": (0, "6f1fcbbf37e0a11b911796ca2449f1fde178846f4d54a89d081404c69759e771"),
    "builtin-cauchy-dn-5": (0, "e2a406062870d7da2d85e5381d06583d6ebeecc86bc2fdb728cbc15f55bd4d0b"),
    "builtin-cauchy-dn-n-0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-cauchy-dn-no-n": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-cauchy-dn-over": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-discrete-1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-discrete-2": (0, "b6e359096f59958ff76d64be11b2ece8e5302dda915464bdd108c03841491153"),
    "builtin-discrete-40": (0, "12ee766b2f12ad5ef56806b9f4475eff52407cf3a38c40e53aa5460d9d199005"),
    "builtin-discrete-9": (0, "4b87768261c68d6e87680ca22fe4a8c6a4cc05a20e631c11a271700f0660077f"),
    "builtin-discrete-step": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-kappa-11": (0, "31bee96879d658110b1cc5e811a5b79061bbcbd31f19042b54422b60e1472bb2"),
    "builtin-kappa-2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-kappa-3": (0, "c5010b0f481f3cdb46c44600e4a501aa338e1c086e11d1f55453b501a75a6ffa"),
    "builtin-kappa-41": (0, "7c8160dea692169b30c31062c1c74636b887ab41ea4268e8bdc6fffbf17f6980"),
    "builtin-kappa-even": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-kappa-n": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-kappa-step-21": (0, "42d19a92ee366f72452c0046012b018289336cadd17f4259a3c1d1b8ef3f3a7f"),
    "builtin-kappa-step-mismatch": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-shrinking-2": (0, "b07693aa7e21bcd4da9c9c9b2dc26f6a3de299bdef9254741bc52475438b5761"),
    "builtin-shrinking-40": (0, "f428d76a5e68de97a0555f09f69d2cadee2d8828f1dd694f6be235d3b2469b0b"),
    "builtin-shrinking-9": (0, "e51710472379552906c3025198663730db09d183afdc9adb66e24e6eb1e28ffd"),
    "builtin-shrinking-n": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-usual-grid-2": (0, "c4484ca174e8d8d4107618e03a0721392e5da8026c5ba3900e95baf08b7278f3"),
    "builtin-usual-grid-40": (0, "df84f256fc788b30876e8c8a26788ba9693968a3037ceda4210ea5f692ac48e1"),
    "builtin-usual-grid-9": (0, "ecf7029793b014323215fb4585b560f48540e74412ff1da042929980ac14bb84"),
    "builtin-usual-grid-no-step": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "builtin-usual-grid-zero-step": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partial-compare-carrier-conflict": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partial-compare-cauchy-dn": (0, "05b0adabf64b4a8265f055c1946dd9a7335ef733a1f2257ad96cca0e12400d3b"),
    "partial-compare-cauchy-dn-discrete": (0, "76220a56f8ead471e90d64843c15f895a2fd3320096049c8ccc369d385f8505e"),
    "partial-compare-discrete-shrinking": (0, "82d01c1038d7b4c11620cc9a2f5611667748acf6dd15b8395769865e627afbd2"),
    "partial-compare-discrete-usual-grid": (0, "39a9331a0a40fa55d92d41f577296cead8401225b0fd9583066f2b9283046d3a"),
    "partial-compare-kappa-even": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partial-compare-kappa-kappa-step": (0, "983b378007175a424728038a79a57ed6f4e0d95d397eb20ae4495c1df9185666"),
    "partial-compare-kappa-step": (0, "4fab2d536d116cd62b53491413ffacc1974b8416fb7e43929b5b33a31e4b6d68"),
    "partial-compare-kappa-step-mismatch": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partial-compare-kappa-usual": (0, "539b6a43a62f486dffcac2913ecd8fa6ffb495707b422922af098c9f47ce845a"),
    "partial-compare-shrinking-discrete": (0, "8691274466ae0500204eda65a03efe792f84cbc87c842500df51e3052c7d996d"),
    "partial-compare-usual-grid-discrete": (0, "84cbd48fc23d6d6cbd1f108921704ed92d147296b577adfb6371227f62acd449"),
    "partial-compare-usual-grid-shrinking": (0, "1c3b3cf5742bb8132e7d3e573573bf1066a382a77cfa4837a16eeb0ced2d93b8"),
    "partial-compare-usual-kappa": (0, "3078587324e4ff8dae212a870d89b9d6f2241cbee81f651b2483205a86bdcef0"),
    "partial-compare-usual-usual": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

# job name -> the "error" of the JSON on stderr, for the jobs that exit 2
ERRORS = {
    "builtin-cauchy-dn-n-0":
        "cauchy-dn index n must be an integer >= 1",
    "builtin-cauchy-dn-no-n":
        "cauchy-dn needs an index n and a list of plane points",
    "builtin-cauchy-dn-over":
        "depth 6 exceeds the 5 listed points",
    "builtin-discrete-1":
        "depth must be at least 2",
    "builtin-discrete-step":
        "unexpected parameters: ['step']",
    "builtin-kappa-2":
        "symmetric grid depth must be odd and at least 3",
    "builtin-kappa-even":
        "symmetric grid depth must be odd and at least 3",
    "builtin-kappa-n":
        "unexpected parameters: ['n']",
    "builtin-kappa-step-mismatch":
        "declared step 1/10 is inconsistent with depth 11 (the symmetric grid on [-1,1] implies 1/5)",
    "builtin-shrinking-n":
        "unexpected parameters: ['n']",
    "builtin-usual-grid-no-step":
        "usual-grid needs a positive rational step",
    "builtin-usual-grid-zero-step":
        "grid step must be positive",
    "partial-compare-carrier-conflict":
        "the two metrics live on different carriers",
    "partial-compare-kappa-even":
        "symmetric grid depth must be odd and at least 3",
    "partial-compare-kappa-step-mismatch":
        "declared step 1/5 is inconsistent with depth 21 (the symmetric grid on [-1,1] implies 1/10)",
    "partial-compare-usual-usual":
        "the bare \"usual\" alias needs a coordinate carrier on the other side",
}

# the partial-compare jobs whose reports are stored under tests/data/boundary
REPLAYED = sorted(name for name in JOBS
                  if name.startswith("partial-compare") and name not in ERRORS)


def run_job(root: Path, name: str) -> int:
    argv = [str(root / a) if a.endswith(".json") else a for a in JOBS[name]]
    return main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("closed-form")
    (root / "pts.json").write_text(json.dumps(POINTS), encoding="utf-8")
    return root


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stdout_bytes_match_golden(capsys, inputs, name):
    code = run_job(inputs, name)
    captured = capsys.readouterr()
    assert (code, hashlib.sha256(captured.out.encode()).hexdigest()) \
        == GOLDEN[name]
    if name in ERRORS:
        assert json.loads(captured.err) == {"error": ERRORS[name]}


@pytest.mark.parametrize("name", REPLAYED)
def test_recorded_report_replays(capsys, name):
    code = main(["--replay", str(DATA / f"{name}.json")])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["match"]) == (0, True)

