"""End-to-end CLI behavior: exit codes, JSON reports, determinism, replay."""

import hashlib
import json
import re

import pytest

from evslib.cli import main
from evslib.instances import (MAX_CARRIER, MAX_DEPTH, MAX_DIM, MAX_SAMPLE,
                              build_instance)
from evslib.metrics import (MAX_BUILTIN_DEPTH, LazyMetric, MetricMatrix,
                            builtin_metric, transform_bounded)
from evslib.norms import MAX_INDEX_DIGITS, MAX_PARTITION_DEPTH, PartitionSpec

FLOAT_PATTERN = re.compile(r"\d+\.\d")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def disc_file(tmp_path):
    return write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())


def test_validate_pass(capsys, disc_file):
    code, doc, _ = run(capsys, "validate", disc_file)
    assert code == 0
    assert doc["report"]["pass"] is True


def test_validate_fail_carries_violation(capsys, tmp_path):
    bad = write_json(tmp_path / "bad.json",
                     {"labels": ["a", "b"], "rows": [["0", "0"], ["0", "0"]]})
    code, doc, _ = run(capsys, "validate", bad)
    assert code == 1
    assert doc["report"]["violation"]["axiom"] == "identity-of-indiscernibles"


def test_missing_file_is_input_error(capsys):
    code, doc, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    assert "no such file" in err


def test_validate_csv(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n0,1/2\n1/2,0\n", encoding="utf-8")
    code, doc, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_combine_scale_halves_entries(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "combine", "--scale=-1/2", disc_file)
    assert code == 0
    assert doc["report"]["matrix"]["rows"][0][1] == "1/2"


def test_combine_add_writes_output_file(capsys, tmp_path, disc_file):
    out = tmp_path / "sum.json"
    code, doc, _ = run(capsys, "combine", "--add", disc_file, disc_file,
                       "--out", str(out))
    assert code == 0
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["rows"][0][1] == "2/1"


def test_compare_bounded_companion(capsys, tmp_path):
    rho = MetricMatrix.from_rows(("a", "b", "c"),
                                 [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    f1 = write_json(tmp_path / "rho.json", rho.to_json())
    f2 = write_json(tmp_path / "rb.json", transform_bounded(rho).to_json())
    code, doc, _ = run(capsys, "compare", f1, f2)
    assert code == 0
    assert doc["report"]["classification"] == "mutually-dependent"
    assert doc["report"]["sandwich"]["lowerHolds"] is True


def test_bounded_transform_of_minus_one_names_the_pair(capsys, tmp_path):
    path = write_json(tmp_path / "m.json", {
        "labels": ["a", "b"], "rows": [["0", "-1"], ["-1", "0"]]})
    code, out, err = run(capsys, "transform", "--bounded", path)
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": "transform bounded-of is undefined "
                                        "on the entry -1/1 at (a, b)"}


def test_builtin_emits_matrix(capsys):
    code, doc, _ = run(capsys, "builtin", "kappa", "--depth", "21",
                       "--step", "1/10")
    assert code == 0
    assert doc["report"]["matrix"]["labels"][0] == "x1"


def test_builtin_bad_params_exit_two(capsys):
    code, _, err = run(capsys, "builtin", "kappa", "--depth", "10")
    assert code == 2 and "odd" in err


def test_builtin_depth_past_the_limit_exits_two(capsys, tmp_path,
                                                monkeypatch):
    def materialize(self, depth, carrier=None):
        raise AssertionError(f"materialized at depth {depth}")
    monkeypatch.setattr(LazyMetric, "materialize", materialize)
    depth = MAX_BUILTIN_DEPTH + 1
    error = {"error": f"depth {depth} exceeds the limit of "
                      f"{MAX_BUILTIN_DEPTH}"}
    code, out, err = run(capsys, "builtin", "kappa", "--depth", str(depth))
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "builtin", "inputs": {
        "name": "discrete", "params": {}, "depth": depth}, "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_builtin_depth_limit_admits_the_limit(monkeypatch):
    # the deepest table of perfbench/ is 121 points; the limit itself is
    # admitted but not materialized here
    assert MAX_BUILTIN_DEPTH >= 121
    seen = []
    monkeypatch.setattr(LazyMetric, "materialize",
                        lambda self, depth, carrier=None: seen.append(depth))
    builtin_metric("discrete", {}, MAX_BUILTIN_DEPTH)
    assert seen == [MAX_BUILTIN_DEPTH]


def test_partial_compare_trend(capsys):
    code, doc, _ = run(capsys, "partial-compare", "--first", "discrete",
                       "--second", "shrinking", "--depths", "10,25,50")
    assert code == 0
    assert doc["report"]["upperBounds"] == ["1/90", "1/600", "1/2450"]
    assert doc["report"]["nonincreasing"] is True


def test_partial_compare_without_depths_is_input_error(capsys):
    code, out, err = run(capsys, "partial-compare", "--first", "discrete",
                         "--second", "shrinking", "--depths", ",")
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "need at least one depth"})


def test_replay_without_depths_is_input_error(capsys, tmp_path):
    report = {"command": "partial-compare", "inputs": {
        "first": {"name": "discrete", "params": {}},
        "second": {"name": "shrinking", "params": {}}, "depths": []},
        "report": {"upperBounds": [], "nonincreasing": True}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (
        2, None, {"error": "need at least one depth"})


def test_partial_compare_usual_alias_on_kappa_grid(capsys):
    code, doc, _ = run(capsys, "partial-compare", "--first", "kappa",
                       "--second", "usual", "--depths", "11,21,41")
    assert code == 0
    assert doc["report"]["upperBounds"] == ["1/10", "1/20", "1/40"]


def test_cauchy_demo(capsys, tmp_path):
    pairs = write_json(tmp_path / "pairs.json",
                       [[[0, 0], [0, 1]], [[1, 0], [2, 5]]])
    code, doc, _ = run(capsys, "cauchy-demo", "--indices", "10,20,40",
                       "--pairs", pairs)
    assert code == 0
    assert doc["report"]["demonstratesIncompleteness"] is True


def test_norms_partition_and_weights(capsys, tmp_path):
    code, doc, _ = run(capsys, "norms", "partition", "--depth", "12")
    assert code == 0
    assert doc["report"]["assignment"]["h1"] == "d(h0,1)"

    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    code, doc, _ = run(capsys, "norms", "weights", "--spec", spec)
    assert code == 0
    assert doc["report"]["weights"]["h1"] == "2/1"


def test_partition_depth_past_the_limit_exits_two(capsys, tmp_path):
    depth = MAX_PARTITION_DEPTH + 1
    error = {"error": f"partition depth {depth} exceeds the limit of "
                      f"{MAX_PARTITION_DEPTH}"}
    spec = write_json(tmp_path / "p.json",
                      {"depth": depth, "subsetC": ["h0"], "gamma": "2"})
    manifest = write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": depth, "elements": ["p.json"]})
    for argv in (["norms", "partition", "--depth", str(depth)],
                 ["norms", "weights", "--spec", spec],
                 ["order", "indep", "--universe", manifest]):
        code, out, err = run(capsys, *argv)
        assert (code, out, json.loads(err)) == (2, None, error), argv


def test_partition_depth_limit_admits_the_limit():
    assert PartitionSpec(MAX_PARTITION_DEPTH).depth == MAX_PARTITION_DEPTH


def fiber_position(i: int) -> int:
    """The position whose tag is ("D", "h0", i): pair rank r = 2(i - 1) of
    backbone member a = 0, so its Cantor index is r(r + 1)/2 + r."""
    r = 2 * (i - 1)
    return 2 * (r * (r + 1) // 2 + r) + 1


@pytest.mark.parametrize("form", ["fiber", "positional"])
def test_fiber_index_past_the_limit_exits_two(capsys, tmp_path, form):
    index = MAX_PARTITION_DEPTH + 1
    name = (f"d(h0,{index})" if form == "fiber"
            else f"h{fiber_position(index)}")
    assert PartitionSpec(12).tag_of_position(fiber_position(index)) == \
        ("D", "h0", index)
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {name: "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"fiber index {index} of {name} exceeds the limit of "
                 f"{MAX_PARTITION_DEPTH}"})


def test_fiber_index_limit_admits_the_limit():
    # resolved only: the weight 2**100000 of this index is not printable
    part = PartitionSpec(12)
    for name in (f"e(h0,{MAX_PARTITION_DEPTH})",
                 f"h{fiber_position(MAX_PARTITION_DEPTH)}"):
        assert part.resolve(name)[2] == MAX_PARTITION_DEPTH


def test_norms_eval(capsys, tmp_path):
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {"e(h0,5)": "1"})
    code, doc, _ = run(capsys, "norms", "eval", "--spec", spec, "--vector", vec)
    assert code == 0
    assert doc["report"]["value"] == "1/32"


def test_norms_witness_reaches_spec_ratio(capsys, tmp_path):
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "2"})
    code, doc, _ = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                       "--eps", "1/1000")
    assert code == 0
    direction = doc["report"]["firstRelativeToSecond"]
    assert direction["index"] == 10
    assert direction["ratioAtIndex"] == "1/1024"


def test_norms_embed(capsys, tmp_path):
    w = write_json(tmp_path / "w.json", {"h0": "1", "h1": "3"})
    pts = write_json(tmp_path / "pts.json",
                     [{}, {"h0": "1"}, {"h1": "2"}])
    code, doc, _ = run(capsys, "norms", "embed", "--weights", w, "--points", pts)
    assert code == 0
    assert doc["report"]["matrix"]["rows"][0][2] == "6/1"
    assert doc["report"]["validation"]["pass"] is True


def test_axioms_deterministic_for_fixed_seed(capsys):
    args = ("axioms", "--instance", "metrics", "--seed", "0",
            "--sample", "12", "--carrier", "4")
    code1, doc1, _ = run(capsys, *args)
    code2, doc2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_axioms_mutant_fails_with_exit_one(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "metrics-reversed-order",
                       "--seed", "0", "--sample", "12", "--carrier", "4")
    assert code == 1
    failed = [e for e in doc["report"]["axioms"] if e["status"] == "fail"]
    assert any(e["axiom"] == "A6" for e in failed)
    assert all("counterexample" in e for e in failed)


def test_axioms_with_properties(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "cone", "--seed", "0",
                       "--sample", "12", "--dim", "2", "--properties")
    assert code == 0
    props = {p["axiom"]: p["status"] for p in doc["report"]["properties"]}
    assert props["zero-primitive"] == "fail"
    assert props["single-primitive"] == "pass"


@pytest.mark.parametrize("flag, value, error", [
    ("--sample", MAX_SAMPLE + 1,
     f"sample size {MAX_SAMPLE + 1} exceeds the limit of {MAX_SAMPLE}"),
    ("--carrier", MAX_CARRIER + 1,
     f"carrier size {MAX_CARRIER + 1} exceeds the limit of {MAX_CARRIER}"),
    ("--carrier", 1, "a carrier needs two points, not 1"),
    ("--carrier", 0, "a carrier needs two points, not 0"),
])
def test_axioms_inputs_past_a_limit_exit_two(capsys, flag, value, error):
    code, out, err = run(capsys, "axioms", "--instance", "metrics",
                         "--seed", "0", flag, str(value))
    assert (code, out, json.loads(err)) == (2, None, {"error": error})


def test_axioms_limits_admit_the_values_in_use():
    # the limits themselves are accepted; the suite is not run on them
    assert MAX_SAMPLE >= 50 and MAX_CARRIER >= 6
    inst, sample, _ = build_instance("metrics", carrier=MAX_CARRIER,
                                     sample=MAX_SAMPLE)
    assert len(sample) == MAX_SAMPLE
    assert len(sample[0][0]) == MAX_CARRIER * (MAX_CARRIER + 1) // 2
    inst, sample, _ = build_instance("metrics-no-abs-scale", carrier=2)
    assert len(sample[1][0]) == 3


def test_axioms_norms_depth_past_the_limit_exits_two(capsys, tmp_path):
    error = {"error": f"depth {MAX_DEPTH + 1} exceeds the limit of "
                      f"{MAX_DEPTH}"}
    code, out, err = run(capsys, "axioms", "--instance", "norms", "--seed",
                         "0", "--sample", "4", "--depth", str(MAX_DEPTH + 1))
    assert (code, out, json.loads(err)) == (2, None, error)
    report = {"command": "axioms", "inputs": {
        "instance": "norms", "seed": 0, "sample": 4, "carrier": 6,
        "depth": MAX_DEPTH + 1, "dim": 2, "properties": False},
        "report": {}}
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", report))
    assert (code, out, json.loads(err)) == (2, None, error)


def test_axioms_norms_depth_limit_admits_the_depths_in_use():
    # the default, the depths of tests/ and perfbench/ (which runs the
    # default) and the limit itself build; the suite is not run on them
    for depth in (6, 8, 12, MAX_DEPTH):
        _, sample, _ = build_instance("norms", depth=depth, sample=4)
        assert len(sample[0][0]) == depth + 6
    _, sample, _ = build_instance("norms", sample=4)
    assert len(sample[0][0]) == 12 + 6


# sha256 of the stdout of `evs axioms --instance NAME --seed SEED --sample 12
# --properties` and its exit code, recorded from the verifier as it was before
# its checks were collapsed into one law table. The bytes are the contract.
AXIOMS_GOLDEN = {
    ("metrics", 0): (0, "3127b62f4e864390d1c1924be1fa40b09d8ccf9d4f8e7cb38bd3a6df911e2518"),
    ("metrics", 1): (0, "5d59648fdf20dd21dc0f2e641d91d146b898044ae09f9cec3c9c778b47a6595c"),
    ("norms", 0): (0, "f18408c7af09378c12e035b461c8d7c1981c00eced27d30c447a00bc2094bc11"),
    ("norms", 1): (0, "3c811b25a8d595bb21ca10d9fcb1e817e8107afa446cdbfa053950968756ba0f"),
    ("cone", 0): (0, "aa66499d2f29f03f5298c9b4caa07d204387a53db74f2a8322b6e9b7506493d0"),
    ("cone", 1): (0, "4ffcead5381e4096abbe212f777f62ea6621e6eaf0ef98e676667440750b2ff3"),
    ("hyperspace", 0): (0, "d8e1b4cb513774c11cd6c57b26841121b48d7dc63604b6bea63bbdd404849650"),
    ("hyperspace", 1): (0, "fed15099cba8570816c2ee4ed90c4c58c8cebf92e58aebd5092768779d6310c1"),
    ("metrics-reversed-order", 0): (1, "b2533be456e61a750c642baa2e9d9f7943e0266fdddeb280645c61a1b0ecf38c"),
    ("metrics-reversed-order", 1): (1, "52d2489a63034da74ba488647bb85241f4e87a85e1d04a574444421a72457bb2"),
    ("metrics-no-abs-scale", 0): (1, "2b5bba8e990d16a6f13c876535bf709887cd60b87a67494ebd747ee5f14a3480"),
    ("metrics-no-abs-scale", 1): (1, "3d6d975c1b571b46bcfb404062c37301d73d32282cd113d0da0d21f61da0e1a8"),
}


@pytest.mark.parametrize(("name", "seed"), sorted(AXIOMS_GOLDEN))
def test_axioms_stdout_bytes_match_golden(capsys, name, seed):
    code = main(["axioms", "--instance", name, "--seed", str(seed),
                 "--sample", "12", "--properties"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == AXIOMS_GOLDEN[(name, seed)]


def test_not_applicable_axiom_counts_as_not_passed(capsys):
    code, doc, _ = run(capsys, "axioms", "--instance", "metrics", "--seed",
                       "0", "--sample", "1", "--properties")
    assert code == 1
    statuses = {e["axiom"]: e["status"] for e in doc["report"]["axioms"]}
    assert statuses.pop("A2") == "not-applicable"
    assert set(statuses.values()) == {"pass"}
    assert doc["report"]["pass"] is False
    assert {p["status"] for p in doc["report"]["properties"]} == {"pass"}


def make_metric_universe(tmp_path, count=4):
    labels = ("x1", "x2", "x3", "x4")
    import random

    from evslib.metrics import random_metric

    rng = random.Random(3)
    refs = []
    for k in range(count):
        m = random_metric(rng, labels)
        write_json(tmp_path / f"u{k}.json", m.to_json())
        refs.append(f"u{k}.json")
    manifest = write_json(tmp_path / "universe.json",
                          {"instance": "metrics", "elements": refs})
    return manifest, labels


def test_order_in_l_and_generates(capsys, tmp_path):
    manifest, labels = make_metric_universe(tmp_path)
    disc = write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())
    code, doc, _ = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", disc, "--y", str(tmp_path / "u0.json"))
    assert code == 0
    assert doc["report"]["status"] == "positive"

    code, doc, _ = run(capsys, "order", "generates", "--universe", manifest,
                       "--generator", disc)
    assert code == 0
    assert doc["report"]["status"] == "pass"


def test_order_indep_fails_on_dependent_universe(capsys, tmp_path):
    manifest, _ = make_metric_universe(tmp_path, count=3)
    code, doc, _ = run(capsys, "order", "indep", "--universe", manifest)
    assert code == 1
    assert doc["report"]["status"] == "fail"


def test_order_basis_and_feasible(capsys, tmp_path):
    manifest, _ = make_metric_universe(tmp_path)
    disc = write_json(tmp_path / "disc.json",
                      builtin_metric("discrete", {}, 4).to_json())
    code, doc, _ = run(capsys, "order", "basis", "--universe", manifest,
                       "--generator", disc)
    assert code == 0 and doc["report"]["status"] == "pass"

    code, doc, _ = run(capsys, "order", "feasible", "--universe", manifest,
                       "--x", str(tmp_path / "u0.json"))
    assert code == 0 and doc["report"]["status"] == "pass"


def other_carrier_table(tmp_path):
    """A valid 4-point table over labels no universe here uses."""
    m = builtin_metric("discrete", {}, 4).to_json()
    return write_json(tmp_path / "other.json",
                      {"labels": ["a", "b", "c", "d"], "rows": m["rows"]})


def assert_carrier_mismatch(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, None)
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert list(doc) == ["error"]
    assert "different carrier" in doc["error"]


@pytest.mark.parametrize("action", ["in-l", "indep", "generates", "basis",
                                    "feasible"])
def test_order_manifest_element_over_other_labels_exits_two(capsys, tmp_path,
                                                            action):
    manifest, _ = make_metric_universe(tmp_path, count=2)
    other_carrier_table(tmp_path)
    write_json(tmp_path / "universe.json", {
        "instance": "metrics", "elements": ["u0.json", "other.json"]})
    u0 = str(tmp_path / "u0.json")
    extra = {"in-l": ["--x", u0, "--y", u0], "feasible": ["--x", u0],
             "generates": ["--generator", u0], "basis": ["--generator", u0]}
    assert_carrier_mismatch(capsys, "order", action, "--universe", manifest,
                            *extra.get(action, []))


@pytest.mark.parametrize("argv", [
    ["in-l", "--x", "OTHER", "--y", "U0"],
    ["in-l", "--x", "U0", "--y", "OTHER"],
    ["feasible", "--x", "OTHER"],
    ["generates", "--generator", "OTHER"],
    ["basis", "--generator", "OTHER"],
])
def test_order_element_over_other_labels_exits_two(capsys, tmp_path, argv):
    manifest, _ = make_metric_universe(tmp_path, count=2)
    files = {"OTHER": other_carrier_table(tmp_path),
             "U0": str(tmp_path / "u0.json")}
    action, *rest = argv
    assert_carrier_mismatch(capsys, "order", action, "--universe", manifest,
                            *[files.get(a, a) for a in rest])


def test_order_norm_family_indep_with_eps(capsys, tmp_path):
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "3"})
    manifest = write_json(tmp_path / "nu.json",
                          {"instance": "norm-family", "depth": 12,
                           "elements": ["p.json", "q.json"]})
    code, doc, _ = run(capsys, "order", "indep", "--universe", manifest,
                       "--eps", "1/1000000")
    assert code == 0
    assert doc["report"]["status"] == "pass-with-eps"


def test_replay_round_trip(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "compare", disc_file, disc_file)
    assert code == 0
    report_file = write_json(tmp_path / "report.json", doc)
    code, replay_doc, _ = run(capsys, "--replay", report_file)
    assert code == 0
    assert replay_doc["match"] is True


def test_replay_detects_tampering(capsys, tmp_path, disc_file):
    code, doc, _ = run(capsys, "compare", disc_file, disc_file)
    doc["report"]["classification"] = "orderly-independent"
    report_file = write_json(tmp_path / "tampered.json", doc)
    code, replay_doc, _ = run(capsys, "--replay", report_file)
    assert code == 1
    assert replay_doc["match"] is False


def test_no_floating_point_in_reports(capsys, tmp_path, disc_file):
    for args in (
        ("validate", disc_file),
        ("combine", "--scale", "1/3", disc_file),
        ("partial-compare", "--first", "discrete", "--second", "shrinking",
         "--depths", "5,10"),
    ):
        code = main(list(args))
        out = capsys.readouterr().out
        assert code == 0
        assert not FLOAT_PATTERN.search(out), args


@pytest.mark.parametrize("doc", [
    {"labels": ["a", "b"], "rows": 5},
    {"labels": "ab", "rows": [["0", "1"], ["1", "0"]]},
    {"labels": ["a", "b"], "rows": [["0", "1"], "10"]},
])
def test_validate_malformed_matrix_is_input_error(capsys, tmp_path, doc):
    code, _, err = run(capsys, "validate", write_json(tmp_path / "m.json", doc))
    assert code == 2
    assert "error" in json.loads(err)


def test_order_malformed_cone_element_is_input_error(capsys, tmp_path):
    write_json(tmp_path / "e.json", {"r": "1"})
    manifest = write_json(tmp_path / "u.json", {"instance": "cone", "dim": 2,
                                                "elements": ["e.json"]})
    x = write_json(tmp_path / "x.json", {"r": "1", "v": ["0", "0"]})
    code, _, err = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", x, "--y", x)
    assert code == 2
    assert "error" in json.loads(err)


NEGATIVE_RADIUS = {"r": "-1", "v": ["1", "0"]}
VALID_CONE_ELEMENT = {"r": "1", "v": ["1", "0"]}


@pytest.mark.parametrize("action", ["in-l", "feasible"])
@pytest.mark.parametrize("where", ["x", "universe"])
def test_negative_cone_radius_is_input_error(capsys, tmp_path, action, where):
    """The cone carrier is [0, inf) x V: a negative radius in --x or in a
    manifest element exits 2 with an error naming the radius."""
    bad = write_json(tmp_path / "bad.json", NEGATIVE_RADIUS)
    good = write_json(tmp_path / "good.json", VALID_CONE_ELEMENT)
    x, element = (bad, good) if where == "x" else (good, bad)
    manifest = write_json(tmp_path / "u.json", {
        "instance": "cone", "dim": 2, "elements": [element]})
    extra = ["--y", x] if action == "in-l" else []
    code, out, err = run(capsys, "order", action, "--universe", manifest,
                         "--x", x, *extra)
    assert (code, out) == (2, None)
    assert json.loads(err) == {
        "error": "cone radius r must be nonnegative, not -1/1"}


@pytest.mark.parametrize("doc", [
    {"command": "axioms", "inputs": {}, "report": {}},
    {"command": "axioms", "inputs": [], "report": {}},
    {"command": "validate", "report": {}},
    {"command": ["validate"], "inputs": {}, "report": {}},
    {"command": "order", "inputs": {"action": "in-l",
                                    "universe": {"instance": "cone"}},
     "report": {}},
    {"command": "order", "inputs": {"action": "in-l", "universe": 5},
     "report": {}},
    {"command": "order", "inputs": {"action": "in-l", "universe": {
        "instance": "metrics", "elements": 5}}, "report": {}},
    {"command": "partial-compare", "inputs": {
        "first": "discrete", "second": {"name": "shrinking", "params": {}},
        "depths": [5]}, "report": {}},
])
def test_replay_malformed_inputs_is_input_error(capsys, tmp_path, doc):
    code, out, err = run(capsys, "--replay",
                         write_json(tmp_path / "r.json", doc))
    assert (code, out) == (2, None)
    assert "internal" not in json.loads(err)


AXIOMS_INPUTS = {"instance": "cone", "seed": 0, "sample": 4, "carrier": 6,
                 "depth": 12, "dim": 2, "properties": False}
DISCRETE = {"name": "discrete", "params": {}}

# command, inputs with one integer, list or object input spelled otherwise,
# and the error
NON_INTEGER_INPUTS = {
    "builtin-depth-string": (
        "builtin", {**DISCRETE, "depth": "5"},
        """"depth" must be an integer, not '5'"""),
    "builtin-depth-float": (
        "builtin", {**DISCRETE, "depth": 2.5},
        '"depth" must be an integer, not 2.5'),
    "norms-partition-depth-string": (
        "norms-partition", {"depth": "12"},
        """"depth" must be an integer, not '12'"""),
    "axioms-sample-string": (
        "axioms", {**AXIOMS_INPUTS, "sample": "5"},
        """"sample" must be an integer, not '5'"""),
    "axioms-dim-string": (
        "axioms", {**AXIOMS_INPUTS, "dim": "2"},
        """"dim" must be an integer, not '2'"""),
    "partial-compare-depths-strings": (
        "partial-compare",
        {"first": DISCRETE, "second": DISCRETE, "depths": ["5", "9"]},
        """"depths" entry must be an integer, not '5'"""),
    "partial-compare-depths-int": (
        "partial-compare",
        {"first": DISCRETE, "second": DISCRETE, "depths": 5},
        '"depths" must be a list of integers, not 5'),
    "cauchy-demo-indices": (
        "cauchy-demo",
        {"indices": ["x", 2], "pairs": [[["0", "0"], ["0", "1"]]]},
        """"indices" entry must be an integer, not 'x'"""),
    "order-generators-int": (
        "order", {"action": "generates", "generators": 5, "universe": {
            "instance": "cone", "dim": 2,
            "elements": [{"r": "1", "v": ["1", "0"]}]}},
        '"generators" must be a list, not 5'),
    "builtin-params-int": (
        "builtin", {"name": "discrete", "params": 5, "depth": 3},
        '"params" must be an object, not 5'),
    "builtin-params-pairs": (
        "builtin", {"name": "usual-grid", "params": [["step", "1"]],
                    "depth": 3},
        """"params" must be an object, not [['step', '1']]"""),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_replayed_non_integer_input_is_input_error(capsys, tmp_path, name):
    command, inputs, error = NON_INTEGER_INPUTS[name]
    report = write_json(tmp_path / "r.json", {
        "command": command, "inputs": inputs, "report": {}})
    code, out, err = run(capsys, "--replay", report)
    assert (code, out, err.count("\n"), json.loads(err)) == (
        2, None, 1, {"error": error})


@pytest.mark.parametrize("depth, shown", [
    ('"abc"', "'abc'"), ("1e400", "inf"), ("12.5", "12.5"), ('"12"', "'12'")])
def test_non_integer_family_spec_depth_is_input_error(capsys, tmp_path,
                                                      depth, shown):
    (tmp_path / "p.json").write_text(
        '{"depth": %s, "subsetC": ["h0"], "gamma": "2"}' % depth,
        encoding="utf-8")
    manifest = write_json(tmp_path / "u.json", {
        "instance": "norm-family", "depth": 12, "elements": ["p.json"]})
    error = {"error": f'family spec "depth" must be an integer, not {shown}'}
    for argv in (["norms", "weights", "--spec", str(tmp_path / "p.json")],
                 ["order", "indep", "--universe", manifest]):
        code, out, err = run(capsys, *argv)
        assert (code, out, json.loads(err)) == (2, None, error), argv


LONG_INT = "1" + "0" * 4999   # past Python's 4300-digit int-from-str limit

# name -> argv reading the file m.json, and that file's text
LONG_INT_INPUTS = {
    "validate-entry": (
        ["validate", "m.json"],
        '{"labels": ["a", "b"], "rows": [["0", %s], [%s, "0"]]}'
        % (LONG_INT, LONG_INT)),
    "norms-weights-depth": (
        ["norms", "weights", "--spec", "m.json"],
        '{"depth": %s, "subsetC": ["h0"], "gamma": "2"}' % LONG_INT),
    "replay-builtin-depth": (
        ["--replay", "m.json"],
        '{"command": "builtin", "inputs": {"name": "discrete", "params": {}, '
        '"depth": %s}, "report": {}}' % LONG_INT),
}


@pytest.mark.parametrize("name", sorted(LONG_INT_INPUTS))
def test_over_long_json_integer_is_input_error(capsys, tmp_path, name):
    argv, text = LONG_INT_INPUTS[name]
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *[str(path) if a == "m.json" else a
                                   for a in argv])
    assert (code, out, err.count("\n")) == (2, None, 1)
    assert json.loads(err)["error"].startswith(
        f"malformed JSON in {path}: Exceeds the limit (4300 digits)")


def test_internal_fault_exits_three(capsys, tmp_path):
    """A report that cannot be printed (its ratio's numerator is longer than
    Python's int-to-str digit limit) is an internal fault: exit 3 with a
    JSON error on stderr and no report, not a traceback and exit 1."""
    p = write_json(tmp_path / "p.json",
                   {"depth": 12, "subsetC": ["h0"], "gamma": "1001/1000"})
    q = write_json(tmp_path / "q.json",
                   {"depth": 12, "subsetC": ["h2"], "gamma": "1001/1000"})
    code, out, err = run(capsys, "norms", "witness", "--spec", p, "--spec", q,
                         "--eps", "1e-10")
    assert (code, out) == (3, None)
    doc = json.loads(err)
    assert doc["internal"] is True
    assert doc["error"].startswith("ValueError")


# file contents (by name) and the argv that reads them; each input is
# malformed in its JSON shape or out of range
MALFORMED_INPUTS = {
    "manifest-elements-int": (
        {"u.json": {"instance": "metrics", "elements": 5}},
        ["order", "feasible", "--universe", "u.json", "--x", "u.json"]),
    "manifest-elements-int-list": (
        {"u.json": {"instance": "metrics", "elements": [5]}},
        ["order", "feasible", "--universe", "u.json", "--x", "u.json"]),
    "eval-weights-list": (
        {"w.json": [1, 2], "v.json": {"h0": "1"}},
        ["norms", "eval", "--weights", "w.json", "--vector", "v.json"]),
    "embed-weights-list": (
        {"w.json": [1, 2], "p.json": [{"h0": "1"}, {"h1": "1"}]},
        ["norms", "embed", "--weights", "w.json", "--points", "p.json"]),
    "eval-vector-list": (
        {"w.json": {"h0": "1"}, "v.json": [1, 2]},
        ["norms", "eval", "--weights", "w.json", "--vector", "v.json"]),
    "builtin-points-list": (
        {"p.json": [1, 2]},
        ["builtin", "cauchy-dn", "--n", "2", "--points", "p.json",
         "--depth", "2"]),
    "cauchy-demo-pairs-list": (
        {"p.json": [1, 2]},
        ["cauchy-demo", "--indices", "10,20", "--pairs", "p.json"]),
    "axioms-cone-dim-0": (
        {}, ["axioms", "--instance", "cone", "--seed", "0", "--sample", "4",
             "--dim", "0"]),
    "axioms-hyperspace-dim-0": (
        {}, ["axioms", "--instance", "hyperspace", "--seed", "0",
             "--sample", "4", "--dim", "0"]),
}


# a valid element of each universe kind, the manifest field that must be an
# integer, and its valid value
UNIVERSE_KINDS = {
    "cone": ({"r": "1", "v": ["0", "1"]}, "dim", 2),
    "hyperspace": ([["0", "1"], ["1/2", "1"]], "dim", 2),
    "norm-family": ({"depth": 12, "subsetC": ["h0"], "gamma": "2"}, "depth", 12),
}


def write_universe(tmp_path, kind, value):
    element, field, _ = UNIVERSE_KINDS[kind]
    x = write_json(tmp_path / "x.json", element)
    manifest = write_json(tmp_path / "u.json", {
        "instance": kind, field: value, "elements": ["x.json"]})
    return manifest, x


@pytest.mark.parametrize("kind", sorted(UNIVERSE_KINDS))
@pytest.mark.parametrize("value", ["abc", "2", 2.5, True, None, [2]])
def test_non_integer_universe_field_is_input_error(capsys, tmp_path, kind,
                                                   value):
    manifest, x = write_universe(tmp_path, kind, value)
    code, out, err = run(capsys, "order", "in-l", "--universe", manifest,
                         "--x", x, "--y", x)
    assert (code, out) == (2, None)
    field = UNIVERSE_KINDS[kind][1]
    assert json.loads(err) == {
        "error": f'universe "{field}" must be an integer, not {value!r}'}


@pytest.mark.parametrize("kind", sorted(UNIVERSE_KINDS))
def test_integer_universe_field_is_read(capsys, tmp_path, kind):
    manifest, x = write_universe(tmp_path, kind, UNIVERSE_KINDS[kind][2])
    code, out, _ = run(capsys, "order", "in-l", "--universe", manifest,
                       "--x", x, "--y", x)
    assert code in (0, 1)
    assert out["inputs"]["universe"][UNIVERSE_KINDS[kind][1]] == \
        UNIVERSE_KINDS[kind][2]


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_is_input_error(capsys, tmp_path, name):
    files, argv = MALFORMED_INPUTS[name]
    for file_name, doc in files.items():
        write_json(tmp_path / file_name, doc)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, None)
    assert "internal" not in json.loads(err)


# ---------------------------------------------------------------------------
# Unreadable files, over-long index names and over-large dimensions exit 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["d.json", "d.csv"])
def test_directory_input_is_input_error(capsys, tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(f"cannot read {path}: ")


def test_empty_manifest_element_is_input_error(capsys, tmp_path):
    # "" names the manifest's own directory
    x = write_json(tmp_path / "x.json", {"r": "1", "v": ["0", "1"]})
    manifest = write_json(tmp_path / "u.json",
                          {"instance": "cone", "elements": [""]})
    code, out, err = run(capsys, "order", "feasible", "--universe", manifest,
                         "--x", x)
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(f"cannot read {tmp_path}: ")


def test_non_utf8_csv_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, None)
    assert json.loads(err)["error"].startswith(
        f"malformed CSV in {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("name", [
    "h" + "2" * 5000,
    "d(h0," + "1" * 5000 + ")",
    "e(h" + "2" * 5000 + ",1)",
], ids=["position", "fiber-index", "backbone-member"])
def test_index_name_past_the_digit_limit_exits_two(capsys, tmp_path, name):
    spec = write_json(tmp_path / "p.json",
                      {"depth": 12, "subsetC": ["h0"], "gamma": "2"})
    vec = write_json(tmp_path / "v.json", {name: "1"})
    code, out, err = run(capsys, "norms", "eval", "--spec", spec,
                         "--vector", vec)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"a number of 5000 digits in an index name exceeds the "
                 f"limit of {MAX_INDEX_DIGITS} digits"})


def test_index_digit_limit_admits_the_limit_and_leading_zeros():
    part = PartitionSpec(12)
    assert part.resolve("h" + "0" * 5000 + "7") == part.resolve("h7")
    assert part.resolve("d(h0," + "0" * 5000 + "2)") == ("D", "h0", 2)
    position = "2" * MAX_INDEX_DIGITS
    assert part.resolve("h" + position) == ("B", "h" + position)


@pytest.mark.parametrize("instance", ["cone", "hyperspace"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2 ** 70])
def test_axioms_dimension_past_the_limit_exits_two(capsys, instance, dim):
    code, out, err = run(capsys, "axioms", "--instance", instance,
                         "--seed", "0", "--sample", "2", "--dim", str(dim))
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"dimension {dim} exceeds the limit of {MAX_DIM}"})


@pytest.mark.parametrize("kind", ["cone", "hyperspace"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2 ** 70])
def test_universe_dimension_past_the_limit_exits_two(capsys, tmp_path, kind,
                                                     dim):
    manifest, x = write_universe(tmp_path, kind, dim)
    code, out, err = run(capsys, "order", "in-l", "--universe", manifest,
                         "--x", x, "--y", x)
    assert (code, out, json.loads(err)) == (2, None, {
        "error": f"dimension {dim} exceeds the limit of {MAX_DIM}"})


@pytest.mark.parametrize("instance", ["cone", "hyperspace"])
def test_dimension_limit_admits_the_limit(instance):
    # the instance and a two-element sample are built; no suite is run
    inst, sample, _ = build_instance(instance, dim=MAX_DIM, sample=2)
    assert inst.name == f"{instance}[dim {MAX_DIM}]" and len(sample) == 2
