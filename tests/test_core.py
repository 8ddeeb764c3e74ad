"""Axiom and property verification across the shipped instances and the
deliberately broken variants."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice

import pytest

from evslib import (
    InputError,
    check_axioms,
    minimal_elements,
)
from evslib.instances import (
    build_instance,
    carrier_labels,
    cone_element,
    cone_instance,
    metric_no_abs_scale_instance,
    metric_packed_instance,
    metric_reversed_order_instance,
    seeded_metric_matrices,
    seeded_metric_sample,
)
from evslib.cli import _dumps
from evslib.metrics import builtin_metric, scale_metric
from evslib.rationals import fmt
from replay import packed_context, replay_counterexample, scaled

F = Fraction

SMALL_SCALARS = (F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2))


def suite(report) -> list:
    """The entries of a suite report, listed under the suite's name."""
    return report["axioms"] if "axioms" in report else report["properties"]


def property_suite(inst, sample, scalars) -> dict:
    """The property suite's entries, from a run of both suites on one
    context, and its own `pass`, computed from them."""
    entries = check_axioms(inst, sample, scalars, seed=0,
                           properties=True)["properties"]
    return {"properties": entries,
            "pass": all(e["status"] == "pass" for e in entries)}


def entry_of(report, name: str) -> dict:
    return next(e for e in suite(report) if e["axiom"] == name)


def axiom_statuses(report):
    return {e["axiom"]: e["status"] for e in suite(report)}


def test_metrics_axioms_pass_on_four_points():
    labels = carrier_labels(4)
    inst = metric_packed_instance(labels)
    sample = seeded_metric_sample(labels, seed=0, count=50)
    report = check_axioms(inst, sample, SMALL_SCALARS, seed=0)
    assert report["pass"], axiom_statuses(report)
    assert entry_of(report, "A5")["sampleRelative"]
    assert entry_of(report, "A6")["sampleRelative"]


def test_hyperspace_axioms_pass_on_plane_sets():
    inst, sample, scalars = build_instance("hyperspace", dim=2, seed=0, sample=30)
    report = check_axioms(inst, sample, scalars, seed=0)
    assert report["pass"], axiom_statuses(report)


def test_reversed_order_mutant_fails_a6_with_replayable_counterexample():
    labels = carrier_labels(4)
    inst = metric_reversed_order_instance(labels)
    sample = seeded_metric_sample(labels, seed=0, count=30)
    report = check_axioms(inst, sample, SMALL_SCALARS, seed=0)
    entry = entry_of(report, "A6")
    assert entry["status"] == "fail"
    assert replay_counterexample(inst, entry["counterexample"], sample)


def test_counterexamples_self_certify_via_round_trip():
    labels = carrier_labels(4)
    inst = metric_no_abs_scale_instance(labels)
    sample = seeded_metric_sample(labels, seed=1, count=20)
    report = property_suite(inst, sample, SMALL_SCALARS)
    entry = entry_of(report, "homogeneous")
    assert entry["status"] == "fail"
    assert entry["counterexample"]["scalars"] == ["-1/1"]
    assert replay_counterexample(inst, entry["counterexample"], sample)


def test_metric_properties_all_pass():
    labels = carrier_labels(4)
    inst = metric_packed_instance(labels)
    sample = seeded_metric_sample(labels, seed=0, count=30)
    report = property_suite(inst, sample, SMALL_SCALARS)
    for name in ("balanced", "homogeneous", "convex", "zero-primitive"):
        assert entry_of(report, name)["status"] == "pass", name


def test_cone_single_primitive_passes_zero_primitive_fails():
    inst, sample, scalars = build_instance("cone", dim=2, seed=0, sample=30)
    report = property_suite(inst, sample, scalars)
    assert entry_of(report, "single-primitive")["status"] == "pass"
    entry = entry_of(report, "zero-primitive")
    assert entry["status"] == "fail"
    # the offending minimal element sits on the {0} x V slice
    assert entry["counterexample"]["elements"][0]["r"] == "0/1"


def test_norm_tables_axioms_pass():
    inst, sample, scalars = build_instance("norms", depth=8, seed=0, sample=30)
    report = check_axioms(inst, sample, scalars, seed=0)
    assert report["pass"], axiom_statuses(report)


def test_a3iii_holds_with_equality_for_convex_nonnegative_scalars():
    labels = carrier_labels(4)
    inst = metric_packed_instance(labels)
    sample = seeded_metric_sample(labels, seed=2, count=10)
    packed, xs, _ = packed_context(inst, sample, [F(1, 2), F(2), F(3, 2)])
    for x in xs:
        for a in (F(0), F(1, 2), F(2)):
            for b in (F(0), F(1), F(3, 2)):
                lhs = scaled(packed, a + b, x)
                rhs = packed.add(scaled(packed, a, x),
                                 scaled(packed, b, x))
                assert packed.equal(lhs, rhs)


def test_minimal_elements_examples():
    labels = carrier_labels(4)
    inst = metric_packed_instance(labels)
    disc = builtin_metric("discrete", {}, 4).form
    double = scale_metric(2, builtin_metric("discrete", {}, 4)).form
    assert minimal_elements([inst.zero, disc, double], inst) == [inst.zero]

    cone = cone_instance(2)
    v, w = (F(1), F(0)), (F(2), F(3))
    universe = [cone_element(F(0), v), cone_element(F(1), v),
                cone_element(F(2), w)]
    assert minimal_elements(universe, cone) == [cone_element(F(0), v),
                                                cone_element(F(2), w)]

    assert minimal_elements([disc], inst) == [disc]


def test_metric_element_round_trips_a_nonzero_diagonal():
    inst = metric_packed_instance(carrier_labels(2))
    doc = {"labels": ["x1", "x2"], "rows": [["1/1", "2/1"], ["2/1", "0/1"]]}
    assert inst.element_to_json(inst.element_from_json(doc)).to_json() == doc


def test_metric_sample_is_the_forms_of_the_seeded_tables():
    labels = carrier_labels(5)
    assert seeded_metric_sample(labels, seed=3, count=20) == [
        m.form for m in seeded_metric_matrices(labels, seed=3, count=20)]


def test_minimal_elements_empty_universe_rejected():
    inst = metric_packed_instance(carrier_labels(3))
    with pytest.raises(InputError):
        minimal_elements([], inst)


def partial_order_violation(inst, sample):
    """The first reflexivity, antisymmetry or transitivity failure of leq on
    the sample, as a law name and the offending indices; None if leq is a
    partial order there."""
    n = len(sample)
    for i in range(n):
        if not inst.leq(sample[i], sample[i]):
            return "reflexive", i
    for i, j in combinations(range(n), 2):
        x, y = sample[i], sample[j]
        if inst.leq(x, y) and inst.leq(y, x) and not inst.equal(x, y):
            return "antisymmetric", i, j
    above = [{j for j in range(n) if inst.leq(sample[i], sample[j])}
             for i in range(n)]
    for i in range(n):
        for j in above[i]:
            if not above[j] <= above[i]:
                return "transitive", i, j, min(above[j] - above[i])
    return None


def test_sample_order_is_a_partial_order():
    for name, kwargs in (
        ("metrics", {"carrier": 5}),
        ("cone", {"dim": 2}),
        ("hyperspace", {"dim": 2}),
        ("norms", {"depth": 6}),
    ):
        inst, sample, _ = build_instance(name, seed=0, sample=20, **kwargs)
        assert partial_order_violation(inst, sample) is None, name


def test_empty_sample_rejected():
    inst = metric_packed_instance(carrier_labels(3))
    with pytest.raises(InputError):
        check_axioms(inst, [], SMALL_SCALARS, seed=0)


def test_sample_must_contain_zero():
    labels = carrier_labels(3)
    inst = metric_packed_instance(labels)
    sample = seeded_metric_sample(labels, seed=0, count=5)[1:]
    with pytest.raises(InputError):
        check_axioms(inst, sample, SMALL_SCALARS, seed=0)


def test_scalars_must_contain_unit_elements():
    labels = carrier_labels(3)
    inst = metric_packed_instance(labels)
    sample = seeded_metric_sample(labels, seed=0, count=5)
    with pytest.raises(InputError):
        check_axioms(inst, sample, (F(0), F(1), F(2)), seed=0)


def test_instance_without_pack_rejected():
    """The verifier adds and scales only through the instance `pack`
    returns; an instance without the hook is named in an InputError."""
    labels = carrier_labels(3)
    inst = replace(metric_packed_instance(labels), pack=None)
    sample = seeded_metric_sample(labels, seed=0, count=5)
    with pytest.raises(InputError, match="has no pack hook"):
        check_axioms(inst, sample, SMALL_SCALARS, seed=0)


def test_instance_fields_are_keyword_only():
    inst = metric_packed_instance(carrier_labels(3))
    with pytest.raises(TypeError):
        type(inst)(inst.name, inst.zero, inst.leq, inst.equal,
                   inst.element_to_json, inst.element_from_json)


INSTANCE_NAMES = ("metrics", "norms", "cone", "hyperspace",
                  "metrics-reversed-order", "metrics-no-abs-scale")


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_every_counterexample_of_both_suites_replays(name):
    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    doc = check_axioms(inst, sample, scalars, seed=0, properties=True)
    for entry in doc["axioms"] + doc["properties"]:
        if entry.get("counterexample") is not None:
            assert replay_counterexample(
                inst, entry["counterexample"], sample) is True, entry["axiom"]


def test_primitive_property_counterexamples_replay():
    inst, sample, scalars = build_instance("hyperspace", seed=0, sample=12)
    report = property_suite(inst, sample, scalars)
    for name in ("zero-primitive", "single-primitive"):
        entry = entry_of(report, name)
        assert entry["status"] == "fail"
        assert replay_counterexample(inst, entry["counterexample"],
                                     sample) is True
    single = entry_of(report, "single-primitive")
    assert single["counterexample"]["primitiveCount"] > 1


def test_tampered_counterexample_does_not_replay():
    inst, sample, scalars = build_instance("cone", seed=0, sample=12)
    entry = entry_of(property_suite(inst, sample, scalars), "zero-primitive")
    tampered = dict(entry["counterexample"],
                    elements=[inst.element_to_json(inst.zero)])
    assert replay_counterexample(inst, tampered, sample) is False


@pytest.mark.parametrize("law", ("A5", "A6"))
def test_sample_relative_replay_without_sample_is_input_error(law):
    inst = metric_reversed_order_instance(carrier_labels(3))
    ce = {"law": law, "elements": [inst.element_to_json(inst.zero)],
          "scalars": []}
    with pytest.raises(InputError):
        replay_counterexample(inst, ce)


def test_not_applicable_property_makes_the_suite_fail():
    inst, sample, scalars = build_instance("metrics-reversed-order", seed=0,
                                           sample=12)
    report = property_suite(inst, sample, scalars)
    entry = entry_of(report, "additive-primitive")
    assert entry["status"] == "not-applicable"
    assert entry["reason"] == "no pair with fully witnessed primitive sets"
    assert report["pass"] is False


def test_report_serialization_shape():
    inst, sample, scalars = build_instance("metrics", carrier=4, seed=0, sample=10)
    doc = check_axioms(inst, sample, scalars, seed=0)
    assert doc["pass"] is True
    axioms = {e["axiom"]: e for e in doc["axioms"]}
    assert set(axioms) == {"A1", "A2", "A3.i", "A3.ii", "A3.iii", "A3.iv",
                           "A4", "A5", "A6"}
    assert axioms["A5"]["sampleRelative"] is True
    assert axioms["A1"]["sampleRelative"] is False


CONE_ZERO = {"r": "0/1", "v": ["0/1", "0/1"]}


@pytest.mark.parametrize(("name", "ce"), [
    # each of these crashed with the shown exception before replay checked
    # the counterexample's shape
    ("cone", {"law": "A1.identity", "elements": [], "scalars": []}),  # TypeError
    ("cone", {"law": "A1.identity", "elements": [{"r": "0/1"}],
              "scalars": []}),                                         # KeyError
    ("metrics", {"law": "A1.identity", "scalars": [],
                 "elements": [{"labels": list(carrier_labels(6)),
                               "rows": 5}]}),                          # TypeError
    ("cone", {"law": "A1.identity", "scalars": []}),                   # KeyError
    ("cone", {"elements": [CONE_ZERO], "scalars": []}),
    ("cone", {"law": ["A4"], "elements": [CONE_ZERO], "scalars": ["1"]}),
    ("cone", {"law": "A4", "elements": CONE_ZERO, "scalars": ["1"]}),
    ("cone", {"law": "A4", "elements": [CONE_ZERO], "scalars": "1"}),
    ("cone", {"law": "A3.ii", "elements": [CONE_ZERO, CONE_ZERO],
              "scalars": ["1"]}),
    ("cone", {"law": "A4", "elements": [CONE_ZERO], "scalars": ["x"]}),
    ("cone", {"law": "A4", "elements": [{"r": "0", "v": "00"}],
              "scalars": ["1"]}),
    ("hyperspace", {"law": "A1.identity", "elements": [5], "scalars": []}),
    ("norms", {"law": "A1.identity", "elements": [{"h0": "1"}],
               "scalars": []}),
    ("metrics", {"law": "A1.identity", "scalars": [],
                 "elements": [{"labels": list("abcdef"),
                               "rows": [["0"] * 6] * 6}]}),
    ("cone", ["A1.identity"]),
])
def test_malformed_counterexample_is_input_error(name, ce):
    inst, sample, _ = build_instance(name, seed=0, sample=4)
    with pytest.raises(InputError):
        replay_counterexample(inst, ce, sample)


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_law_arity_matches_the_checked_tuples(name):
    from evslib.core import AXIOMS, PROPERTIES, _context

    inst, sample, scalars = build_instance(name, seed=0, sample=8)
    c = _context(inst, sample, scalars)
    positions, listed = range(len(sample)), range(len(scalars))
    for law in AXIOMS + PROPERTIES:
        n_elements, n_scalars = law.arity
        checked = list(law.tuples(c))
        for args in checked:
            assert len(args) == n_elements + n_scalars, law.name
            assert all(type(i) is int and i in positions
                       for i in args[:n_elements]), law.name
            assert all(type(a) is int and a in listed
                       for a in args[n_elements:]), law.name
        if checked:
            assert len(list(law.verdicts(c, checked))) == len(checked), \
                law.name


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_run_and_replay_give_every_checked_tuple_one_verdict(name):
    """The first 50 tuples of each law, replayed from JSON with the sample
    given: the replay sits the elements after the sample and the scalars
    in a list of their own, and reproduces a violation exactly when the
    run's verdict on the tuple is False."""
    from evslib.core import AXIOMS, PROPERTIES, _context

    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    c = _context(inst, sample, scalars)
    for law in AXIOMS + PROPERTIES:
        n_elements = law.arity[0]
        checked = list(islice(law.tuples(c), 50))
        verdicts = list(law.verdicts(c, checked))
        assert len(verdicts) == len(checked), law.name
        for args, verdict in zip(checked, verdicts):
            ce = json.loads(_dumps({
                "law": law.name,
                "elements": [inst.element_to_json(sample[i])
                             for i in args[:n_elements]],
                "scalars": [fmt(c.scalars[a]) for a in args[n_elements:]],
            }))
            assert replay_counterexample(inst, ce, sample) is (
                verdict is False), (law.name, args, verdict)
