"""Cone and hyperspace operations, their sample structure, and replay of
their reports. The sums and scalings are those a verifier context runs,
on packed ints (replay.packed_context)."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from evslib import InputError, minimal_elements
from evslib.cli import main
from evslib.instances import (
    cone_element,
    cone_instance,
    hyperspace_instance,
    point_set,
    seeded_cone_sample,
    seeded_hyper_sample,
)
from evslib.rationals import to_fractions
from replay import packed_context, scaled

F = Fraction

DATA = Path(__file__).parent / "data"


def pt(*coords):
    return tuple(F(c) for c in coords)


def fs(*points):
    return point_set(points)


def ce(r, v):
    return cone_element(F(r), v)


# ---------------------------------------------------------------------------
# Cone
# ---------------------------------------------------------------------------


def test_cone_addition():
    cone = cone_instance(2)
    v, w = pt(1, 2), pt(3, -1)
    packed, (a, b), read = packed_context(cone, [ce(1, v), ce(2, w)])
    assert read(packed.add(a, b)) == ce(3, pt(4, 1))


def test_cone_scaling_reflects_vector_but_not_radius():
    cone = cone_instance(2)
    v = pt(1, 2)
    packed, (a,), read = packed_context(cone, [ce(1, v)], [F(-2)])
    assert read(scaled(packed, F(-2), a)) == ce(2, pt(-2, -4))


def test_cone_order_needs_equal_vector_part():
    cone = cone_instance(2)
    assert not cone.leq(ce(1, pt(0, 1)), ce(2, pt(1, 1)))
    assert cone.leq(ce(1, pt(0, 1)), ce(2, pt(0, 1)))


def test_cone_dimension_mismatch():
    cone = cone_instance(2)
    with pytest.raises(InputError, match="vector dimension 3 != 2"):
        cone.element_from_json({"r": "1", "v": ["0", "1", "2"]})


def test_cone_sample_minimal_elements_sit_on_zero_slice():
    cone = cone_instance(2)
    sample = seeded_cone_sample(2, seed=0, count=30)
    for m in minimal_elements(sample, cone):
        assert to_fractions(m)[0] == 0


# ---------------------------------------------------------------------------
# Hyperspace
# ---------------------------------------------------------------------------


def test_minkowski_sum_dimension_one():
    hyper = hyperspace_instance(1)
    a, b = fs(pt(0), pt(1)), fs(pt(0), pt(2))
    packed, (a, b), read = packed_context(hyper, [a, b])
    assert read(packed.add(a, b)) == fs(pt(0), pt(1), pt(2), pt(3))


def test_scale_by_zero_collapses_to_origin_singleton():
    hyper = hyperspace_instance(2)
    packed, (a,), read = packed_context(hyper, [fs(pt(1, 1), pt(2, -3))])
    assert read(scaled(packed, F(0), a)) == hyper.zero


def test_subset_order():
    hyper = hyperspace_instance(1)
    assert hyper.leq(fs(pt(1)), fs(pt(0), pt(1)))
    assert not hyper.leq(fs(pt(0), pt(1)), fs(pt(1)))


def test_negative_scaling_reflects():
    hyper = hyperspace_instance(1)
    packed, (a,), read = packed_context(hyper, [fs(pt(1), pt(2))])
    assert read(scaled(packed, F(-1), a)) == fs(pt(-1), pt(-2))


def test_empty_set_rejected():
    hyper = hyperspace_instance(1)
    with pytest.raises(InputError, match="point sets must be nonempty"):
        hyper.element_from_json([])


def test_a3iii_strict_inclusion_witness_found_and_recorded():
    """(a+b)A is a subset of aA + bA with strict inclusion for a non-singleton
    A at a = b = 1/2; the witness midpoint is recorded here."""
    hyper = hyperspace_instance(1)
    packed, (a,), read = packed_context(hyper, [fs(pt(0), pt(1))], [F(1, 2)])
    lhs = scaled(packed, F(1), a)
    half = scaled(packed, F(1, 2), a)
    rhs = packed.add(half, half)
    assert packed.leq(lhs, rhs)
    lhs, rhs = read(lhs), read(rhs)
    assert hyper.leq(lhs, rhs)
    (lhs_points, lhs_den), (rhs_points, rhs_den) = lhs, rhs
    assert lhs_den == 1
    witness = {tuple(F(x, rhs_den) for x in p) for p in rhs_points}
    witness -= {tuple(F(x) for x in p) for p in lhs_points}
    assert witness == {pt(F(1, 2))}


def test_hyper_sample_minimal_elements_are_exactly_sampled_singletons():
    hyper = hyperspace_instance(2)
    sample = seeded_hyper_sample(2, seed=0, count=30)
    minimal = minimal_elements(sample, hyper)
    singletons = [a for a in sample if len(a[0]) == 1]
    assert set(minimal) == set(singletons)


def test_hyper_serialization_round_trip():
    hyper = hyperspace_instance(2)
    a = fs(pt(1, 2), pt(-1, F(1, 2)))
    assert hyper.element_from_json(hyper.element_to_json(a)) == a


# ---------------------------------------------------------------------------
# Reports written by the Fraction-form cone and hyperspace (commit c69f914)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", (
    "axioms-cone.json",
    "axioms-hyperspace.json",
    "boundary/order-in-l-cone.json",
))
def test_recorded_report_replays(capsys, path):
    """`evs axioms --instance NAME --seed 0 --sample 12 --properties` for
    cone and hyperspace, and a positive cone `order in-l` (alpha -2/3 with a
    primitive from the universe), as written before the integer form."""
    code = main(["--replay", str(DATA / path)])
    doc = json.loads(capsys.readouterr().out)
    assert (code, doc["match"]) == (0, True)
