"""The exact integer kernel of the pointwise, cone and hyperspace instances
and the integer triangle check, against plain Fraction references on random
inputs, and the verifier's table of pair sums."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import InputError, MetricMatrix, check_axioms, validate_metric
from evslib.instances import (
    build_instance,
    carrier_labels,
    cone_element,
    cone_instance,
    hyperspace_instance,
    metric_no_abs_scale_instance,
    point_set,
    rational_tuple_instance,
)
from evslib.rationals import fmt, to_fractions, to_ints

WIDTH = 5

rationals = st.builds(Fraction, st.integers(-10**9, 10**9),
                      st.integers(1, 10**6))
small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
entries = st.one_of(rationals, small_rationals)
vectors = st.lists(entries, min_size=WIDTH, max_size=WIDTH).map(tuple)
scalars = st.one_of(rationals, small_rationals, st.just(Fraction(0)))

INST = rational_tuple_instance("tuples", WIDTH, "width mismatch",
                               element_to_json=None, element_from_json=None)
# the no-abs-scale mutant on a 4-point carrier works on tuples of width 10,
# the upper triangle of a table with its diagonal
MUTANT = metric_no_abs_scale_instance(carrier_labels(4))
mutant_vectors = st.lists(entries, min_size=10, max_size=10).map(tuple)


def canonical(form) -> bool:
    nums, den = form
    return (type(den) is int and den > 0
            and all(type(x) is int for x in nums)
            and gcd(den, *nums) == 1)


@given(vectors)
def test_round_trip_and_canonical_form(v):
    form = to_ints(v)
    assert canonical(form)
    assert to_fractions(form) == v


@given(vectors, vectors)
def test_add_leq_equal_match_fraction_reference(u, v):
    a, b = to_ints(u), to_ints(v)
    total = INST.add(a, b)
    assert canonical(total)
    assert to_fractions(total) == tuple(x + y for x, y in zip(u, v))
    assert INST.leq(a, b) == all(x <= y for x, y in zip(u, v))
    assert INST.equal(a, b) == (u == v)
    assert INST.equal(a, to_ints(u))


@given(vectors, vectors)
def test_leq_on_shared_denominator(u, v):
    den = Fraction(1, 7)
    u, v = tuple(x * den for x in u), tuple(y * den for y in v)
    assert INST.leq(to_ints(u), to_ints(v)) == all(
        x <= y for x, y in zip(u, v))


@given(scalars, vectors)
def test_scale_matches_fraction_reference(alpha, v):
    scaled = INST.scale(alpha, to_ints(v))
    assert canonical(scaled)
    assert to_fractions(scaled) == tuple(abs(alpha) * x for x in v)


@given(scalars, mutant_vectors)
def test_no_abs_scale_mutant_keeps_the_sign(alpha, v):
    scaled = MUTANT.scale(-abs(alpha), to_ints(v))
    assert canonical(scaled)
    assert to_fractions(scaled) == tuple(-abs(alpha) * x for x in v)


@given(vectors)
def test_zero_is_the_identity(v):
    a = to_ints(v)
    assert INST.add(a, INST.zero) == a
    assert INST.scale(Fraction(0), a) == INST.zero


@pytest.mark.parametrize("op", ("add", "leq", "equal"))
def test_width_mismatch_is_input_error(op):
    a, b = to_ints((Fraction(1),) * WIDTH), to_ints((Fraction(1),) * 4)
    with pytest.raises(InputError, match="width mismatch"):
        getattr(INST, op)(a, b)
    with pytest.raises(InputError, match="width mismatch"):
        getattr(INST, op)(b, a)


def test_scale_width_mismatch_is_input_error():
    with pytest.raises(InputError, match="width mismatch"):
        INST.scale(Fraction(2), to_ints((Fraction(1),) * 4))


# ---------------------------------------------------------------------------
# The cone and hyperspace integer forms
# ---------------------------------------------------------------------------

DIM = 2
CONE = cone_instance(DIM)
HYPER = hyperspace_instance(DIM)

radii = st.one_of(small_rationals, rationals).map(abs)
dim_vectors = st.lists(entries, min_size=DIM, max_size=DIM).map(tuple)
points = st.lists(small_rationals, min_size=DIM, max_size=DIM).map(tuple)
point_lists = st.lists(points, min_size=1, max_size=4)


def reference_cone_scale(alpha, e):
    r, v = e
    return abs(alpha) * r, tuple(alpha * x for x in v)


@st.composite
def cone_pairs(draw):
    """Two cone elements (r, v) in Fraction form; the second shares the
    vector part of the first half of the time, so the order has pairs to
    decide either way."""
    r, v, s = draw(radii), draw(dim_vectors), draw(radii)
    w = v if draw(st.booleans()) else draw(dim_vectors)
    return (r, v), (s, w)


def canonical_set(form) -> bool:
    pts, den = form
    coords = [x for p in pts for x in p]
    return (type(den) is int and den > 0 and len(pts) > 0
            and all(type(x) is int and len(p) == DIM for p in pts for x in p)
            and gcd(den, *coords) == 1)


def as_points(form) -> frozenset:
    pts, den = form
    return frozenset(tuple(Fraction(x, den) for x in p) for p in pts)


@st.composite
def point_set_pairs(draw):
    """Two point lists; the first is half of the time a subset of the
    second, so subset tests go both ways."""
    a, b = draw(point_lists), draw(point_lists)
    if draw(st.booleans()):
        a = a[:draw(st.integers(1, len(a)))]
        b = b + a
    return a, b


@given(cone_pairs())
def test_cone_add_leq_equal_match_fraction_reference(pair):
    (r, v), (s, w) = pair
    a, b = cone_element(r, v), cone_element(s, w)
    total = CONE.add(a, b)
    assert canonical(total)
    assert total == cone_element(r + s, tuple(x + y for x, y in zip(v, w)))
    assert CONE.leq(a, b) == (r <= s and v == w)
    assert CONE.equal(a, b) == ((r, v) == (s, w))
    assert CONE.equal(a, cone_element(r, v))


@given(scalars, radii, dim_vectors)
def test_cone_scale_matches_fraction_reference(alpha, r, v):
    for al in (alpha, -alpha, Fraction(0)):
        scaled = CONE.scale(al, cone_element(r, v))
        assert canonical(scaled)
        assert scaled == cone_element(*reference_cone_scale(al, (r, v)))


@given(radii, dim_vectors)
def test_cone_json_round_trip(r, v):
    e = cone_element(r, v)
    doc = CONE.element_to_json(e)
    assert doc == {"r": fmt(r), "v": [fmt(x) for x in v]}
    assert CONE.element_from_json(doc) == e


@given(point_set_pairs())
def test_hyperspace_add_leq_equal_match_fraction_reference(pair):
    u, v = pair
    a, b = point_set(u), point_set(v)
    assert canonical_set(a) and as_points(a) == frozenset(u)
    total = HYPER.add(a, b)
    assert canonical_set(total)
    assert as_points(total) == frozenset(
        tuple(x + y for x, y in zip(p, q)) for p in u for q in v)
    assert HYPER.leq(a, b) == (frozenset(u) <= frozenset(v))
    assert HYPER.leq(b, a) == (frozenset(v) <= frozenset(u))
    assert HYPER.equal(a, b) == (frozenset(u) == frozenset(v))


@given(scalars, point_lists)
def test_hyperspace_scale_matches_fraction_reference(alpha, u):
    for al in (alpha, -alpha, Fraction(0)):
        scaled = HYPER.scale(al, point_set(u))
        assert canonical_set(scaled)
        assert as_points(scaled) == frozenset(
            tuple(al * x for x in p) for p in u)
    assert HYPER.scale(Fraction(0), point_set(u)) == HYPER.zero


@given(point_lists)
def test_hyperspace_json_round_trip(u):
    a = point_set(u)
    doc = HYPER.element_to_json(a)
    assert doc == sorted([fmt(x) for x in p] for p in set(u))
    assert HYPER.element_from_json(doc) == a


@pytest.mark.parametrize("name", ("metrics", "norms", "cone", "hyperspace",
                                  "metrics-reversed-order",
                                  "metrics-no-abs-scale"))
def test_no_sampled_pair_is_added_twice(name):
    """The verifier adds each ordered pair of sampled elements at most once,
    and still adds some pairs in both orders (A1.commutativity)."""
    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    sampled = {id(x) for x in sample}
    calls = Counter()

    def add(a, b):
        if id(a) in sampled and id(b) in sampled:
            calls[id(a), id(b)] += 1
        return inst.add(a, b)

    check_axioms(replace(inst, add=add), sample, scalars, seed=0)
    assert calls and max(calls.values()) == 1
    assert any((b, a) in calls for a, b in calls if a != b)


# ---------------------------------------------------------------------------
# The integer triangle check
# ---------------------------------------------------------------------------


def reference_validation(m: MetricMatrix) -> dict:
    """The plain Fraction check: every triple (i, j, k), degenerate ones
    included, in lexicographic order, reported as validate_metric does."""
    n, rows, labels = m.size, m.rows, m.labels

    def failed(violation: dict) -> dict:
        return {"pass": False, "violation": violation, "size": n}

    for i in range(n):
        if rows[i][i] != 0:
            return failed({
                "axiom": "zero-diagonal", "indices": [labels[i]],
                "value": fmt(rows[i][i])})
    for i, j in combinations(range(n), 2):
        v = rows[i][j]
        if v < 0:
            return failed({
                "axiom": "nonnegativity", "indices": [labels[i], labels[j]],
                "value": fmt(v)})
        if v == 0:
            return failed({
                "axiom": "identity-of-indiscernibles",
                "indices": [labels[i], labels[j]], "value": "0/1"})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    return failed({
                        "axiom": "triangle",
                        "indices": [labels[i], labels[j], labels[k]],
                        "lhs": fmt(rows[i][k]),
                        "rhs": fmt(rows[i][j] + rows[j][k])})
    return {"pass": True, "violation": None, "size": n}


@st.composite
def tables(draw):
    """Symmetric tables with a zero diagonal: box tables (every entry within
    a factor two of every other, so a metric) with a few entries redrawn
    from a wider range, which breaks the triangle inequality somewhere."""
    n = draw(st.integers(1, 8))
    scale = draw(st.builds(Fraction, st.integers(1, 50), st.integers(1, 30)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            box = 1 + Fraction(draw(st.integers(0, 12)), draw(st.integers(12, 13)))
            rows[i][j] = rows[j][i] = scale * box
    for _ in range(draw(st.integers(0, 3))):
        if n < 2:
            break
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            v = draw(st.builds(Fraction, st.integers(1, 400), st.integers(1, 60)))
            rows[i][j] = rows[j][i] = v
    return MetricMatrix.from_rows(carrier_labels(n), tuple(map(tuple, rows)))


@settings(max_examples=300)
@given(tables())
def test_triangle_check_matches_fraction_reference(m):
    assert validate_metric(m) == reference_validation(m)


def test_triangle_reference_sees_both_outcomes():
    m = MetricMatrix.from_rows(carrier_labels(3),
                               [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert validate_metric(m) == reference_validation(m)
    assert validate_metric(m)["violation"]["indices"] == ["x1", "x2", "x3"]
    ok = MetricMatrix.from_rows(carrier_labels(3),
                                [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert validate_metric(ok) == reference_validation(ok)
    assert validate_metric(ok)["pass"] is True
