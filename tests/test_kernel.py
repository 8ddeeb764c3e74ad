"""The exact integer kernel of the pointwise, cone and hyperspace instances
and the integer triangle check, against plain Fraction references on random
inputs, and the verifier's tables of sums, orders and scalings of sampled
elements. The integer kernel (_add, _scale, _leq) runs on the integer
forms, as the metric sums, scalings and orders use it, and the verifier's
sums and scalings on the packed ints of a verifier context
(replay.packed_context); both against the ops of tests/reference.py."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import (InputError, MetricMatrix, check_axioms, instances,
                    metrics, validate_metric)
from evslib.cli import main
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
from evslib.rationals import _add, _scale, fmt, to_fractions, to_ints
import reference
from replay import packed_context, replay_counterexample, scaled

WIDTH = 5

rationals = st.builds(Fraction, st.integers(-10**9, 10**9),
                      st.integers(1, 10**6))
small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
entries = st.one_of(rationals, small_rationals)
vectors = st.lists(entries, min_size=WIDTH, max_size=WIDTH).map(tuple)
scalars = st.one_of(rationals, small_rationals, st.just(Fraction(0)))

INST = rational_tuple_instance("tuples", WIDTH, element_to_json=to_fractions,
                               element_from_json=to_ints)
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
    total = _add(a, b)
    assert canonical(total)
    assert to_fractions(total) == reference.pointwise_sum(u, v)
    packed, (pa, pb), read = packed_context(INST, [a, b])
    assert to_fractions(read(packed.add(pa, pb))) == \
        reference.pointwise_sum(u, v)
    assert INST.leq(a, b) == all(x <= y for x, y in zip(u, v))
    assert packed.leq(pa, pb) == INST.leq(a, b)
    assert INST.equal(a, b) == packed.equal(pa, pb) == (u == v)
    assert INST.equal(a, to_ints(u))


@given(vectors, vectors)
def test_leq_on_shared_denominator(u, v):
    den = Fraction(1, 7)
    u, v = tuple(x * den for x in u), tuple(y * den for y in v)
    assert INST.leq(to_ints(u), to_ints(v)) == all(
        x <= y for x, y in zip(u, v))


@given(scalars, vectors)
def test_scale_matches_fraction_reference(alpha, v):
    for p, reference_scale in ((abs(alpha.numerator), reference.abs_scale),
                               (alpha.numerator, reference.signed_scale)):
        form = _scale(p, alpha.denominator, to_ints(v))
        assert canonical(form)
        assert to_fractions(form) == reference_scale(alpha, v)
    packed, (x,), read = packed_context(INST, [to_ints(v)], [alpha])
    assert to_fractions(read(scaled(packed, alpha, x))) == \
        reference.abs_scale(alpha, v)


@given(scalars, mutant_vectors)
def test_no_abs_scale_mutant_keeps_the_sign(alpha, v):
    alpha = -abs(alpha)
    form = _scale(alpha.numerator, alpha.denominator, to_ints(v))
    assert canonical(form)
    assert to_fractions(form) == reference.signed_scale(alpha, v)
    packed, (x,), read = packed_context(MUTANT, [to_ints(v)], [alpha])
    assert to_fractions(read(scaled(packed, alpha, x))) == \
        reference.signed_scale(alpha, v)


@given(vectors)
def test_zero_is_the_identity(v):
    a = to_ints(v)
    assert _add(a, INST.zero) == a
    assert _scale(0, 1, a) == INST.zero
    packed, (x,), read = packed_context(INST, [a])
    assert read(packed.add(x, packed.zero)) == a
    assert scaled(packed, Fraction(0), x) == packed.zero
    assert read(packed.zero) == INST.zero


# Elements are checked where they enter, by the loader; the ops check
# nothing. Each loader takes a narrower and a wider element to InputError.
WRONG_WIDTH = {
    "metrics": ([MetricMatrix.zero(carrier_labels(k)).to_json()
                 for k in (5, 7)], "element is over a different carrier"),
    "norms": ([["1"] * k for k in (17, 19)],
              "value table over a different probe set"),
    "cone": ([{"r": "1", "v": ["1"] * k} for k in (1, 3)],
             r"vector dimension \d != 2"),
    "hyperspace": ([[["1"] * k] for k in (1, 3)],
                   r"vector dimension \d != 2"),
}


# no command reads a norm value table, so that instance has no loader;
# the replays of the tests read one with replay.read_norm_table
@pytest.mark.parametrize("name", sorted(set(WRONG_WIDTH) - {"norms"}))
def test_width_mismatch_is_input_error(name):
    # a 6-point carrier (21 wide), 18 norm probes, dimension 2
    inst, sample, _ = build_instance(name, carrier=6, depth=12, dim=2,
                                     sample=2)
    assert inst.element_from_json(inst.element_to_json(sample[1])) == \
        sample[1]
    docs, message = WRONG_WIDTH[name]
    for doc in docs:
        with pytest.raises(InputError, match=message):
            inst.element_from_json(doc)


def test_scale_width_mismatch_is_input_error():
    """A4 scales its element: replaying it with an element of another width
    stops at the loader, on every pointwise instance."""
    for name in ("metrics", "norms", "cone"):
        inst, _, _ = build_instance(name, carrier=6, depth=12, dim=2,
                                    sample=2)
        docs, message = WRONG_WIDTH[name]
        for doc in docs:
            with pytest.raises(InputError, match=message):
                replay_counterexample(inst, {
                    "law": "A4", "elements": [doc], "scalars": ["2"]})


@pytest.mark.parametrize("width", (17, 19))
def test_norms_replay_of_another_width_is_input_error(width):
    """Without the loader's check, A1.identity on a table of 17 values
    adds it to the 18-wide zero, the sum stops at the shorter operand, and
    the replay answers False."""
    inst, _, _ = build_instance("norms", depth=12, sample=2)
    with pytest.raises(InputError,
                       match="value table over a different probe set"):
        replay_counterexample(inst, {
            "law": "A1.identity", "elements": [["1"] * width],
            "scalars": []})


def test_no_op_is_a_wrapper():
    """The orders are the kernel functions themselves; only the reversed
    order mutant brings a lambda, which is its mutation. No instance but a
    packed one adds or scales."""
    for name in ("metrics", "norms", "cone", "hyperspace"):
        inst, _, _ = build_instance(name, sample=2)
        for op in ("leq", "equal"):
            qualname = getattr(inst, op).__qualname__
            assert "<lambda>" not in qualname, (name, op)
            assert "<locals>" not in qualname, (name, op)
        assert inst.add is None and inst.scale is None, name


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
    total = _add(a, b)
    assert canonical(total)
    assert total == to_ints(reference.pointwise_sum((r, *v), (s, *w)))
    packed, (pa, pb), read = packed_context(CONE, [a, b])
    assert read(packed.add(pa, pb)) == to_ints(
        reference.pointwise_sum((r, *v), (s, *w)))
    assert CONE.leq(a, b) == packed.leq(pa, pb) == (r <= s and v == w)
    assert CONE.equal(a, b) == ((r, v) == (s, w))
    assert CONE.equal(a, cone_element(r, v))


@given(scalars, radii, dim_vectors)
def test_cone_scale_matches_fraction_reference(alpha, r, v):
    packed, (x,), read = packed_context(CONE, [cone_element(r, v)],
                                        [alpha, -alpha])
    for al in (alpha, -alpha, Fraction(0)):
        assert read(scaled(packed, al, x)) == to_ints(
            reference.cone_scale(al, (r, *v)))


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
    packed, (pa, pb), read = packed_context(HYPER, [a, b])
    assert as_points(read(packed.add(pa, pb))) == reference.minkowski_sum(
        frozenset(u), frozenset(v))
    assert HYPER.leq(a, b) == packed.leq(pa, pb) == (
        frozenset(u) <= frozenset(v))
    assert HYPER.leq(b, a) == (frozenset(v) <= frozenset(u))
    assert HYPER.equal(a, b) == (frozenset(u) == frozenset(v))


@given(scalars, point_lists)
def test_hyperspace_scale_matches_fraction_reference(alpha, u):
    packed, (x,), read = packed_context(HYPER, [point_set(u)],
                                        [alpha, -alpha])
    for al in (alpha, -alpha, Fraction(0)):
        assert as_points(read(scaled(packed, al, x))) == \
            reference.point_scale(al, frozenset(u))
    assert read(scaled(packed, Fraction(0), x)) == HYPER.zero


@given(point_lists)
def test_hyperspace_json_round_trip(u):
    a = point_set(u)
    doc = HYPER.element_to_json(a)
    assert doc == sorted([fmt(x) for x in p] for p in set(u))
    assert HYPER.element_from_json(doc) == a


class Tagged(int):
    """A packed element with an object of its own: CPython shares one
    object per small int, so the packed zero 0 and every computed zero
    would otherwise be the same object."""


class Listed(Fraction):
    """A listed scalar whose numerator is a Tagged int, a new object at
    each read: the verifier context reads it once, so its packed `scale`
    can tell the p of a listed scalar from that of a product or sum."""

    @property
    def numerator(self):
        return Tagged(self._numerator)


def listed(scalars) -> list:
    return [Listed(a) for a in scalars]


def sampled_pair(sampled, x, y):
    return (id(x), id(y)) if id(x) in sampled and id(y) in sampled else None


def listed_scaling(sampled, p, q, x):
    return (id(p), id(x)) if type(p) is Tagged and id(x) in sampled else None


def counted(inst, calls, tabled):
    """`inst` whose verifier context counts the calls its packed ops make
    on tabled operands: for each op in `tabled`, calls[op, key] for every
    key = tabled[op](sampled, *operands) that is not None, where `sampled`
    holds the ids of the packed sample's elements. The scalars of a run
    must be `listed` for listed_scaling to see them."""
    def pack(sample, scalars):
        packed_inst, packed = inst.pack(sample, scalars)
        packed = [Tagged(x) if isinstance(x, int) else x for x in packed]
        sampled = {id(x) for x in packed}

        def wrap(op):
            run, key_of = getattr(packed_inst, op), tabled[op]

            def run_counted(*operands):
                key = key_of(sampled, *operands)
                if key is not None:
                    calls[op, key] += 1
                return run(*operands)
            return run_counted

        return replace(packed_inst, **{op: wrap(op) for op in tabled}), packed
    return replace(inst, pack=pack)


@pytest.mark.parametrize("name", ("metrics", "norms", "cone", "hyperspace",
                                  "metrics-reversed-order",
                                  "metrics-no-abs-scale"))
def test_no_sampled_pair_is_added_twice(name):
    """The verifier adds each ordered pair of sampled elements at most once,
    and still adds some pairs in both orders (A1.commutativity)."""
    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    calls = Counter()
    check_axioms(counted(inst, calls, {"add": sampled_pair}), sample,
                 listed(scalars), seed=0)
    assert calls and max(calls.values()) == 1
    pairs = {key for _, key in calls}
    assert any((b, a) in pairs for a, b in pairs if a != b)


@pytest.mark.parametrize("op, tabled", (("leq", sampled_pair),
                                        ("scale", listed_scaling)))
@pytest.mark.parametrize("name", ("metrics", "norms", "cone", "hyperspace",
                                  "metrics-reversed-order",
                                  "metrics-no-abs-scale"))
def test_no_tabled_operation_is_computed_twice(name, op, tabled):
    """The axiom suite, and the run of both suites on one context, test the
    order of each ordered pair of sampled elements once at most, and scale
    each sampled element by each listed scalar once at most."""
    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    for properties in (False, True):
        calls = Counter()
        check_axioms(counted(inst, calls, {op: tabled}), sample,
                     listed(scalars), seed=0, properties=properties)
        assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", ("metrics", "norms", "cone", "hyperspace",
                                  "metrics-reversed-order",
                                  "metrics-no-abs-scale"))
def test_one_context_serves_both_suites_of_a_run(monkeypatch, capsys, name):
    """`evs axioms --properties` runs both suites on one context: across
    the two, each ordered pair of sampled elements is added and ordered
    once at most, and each sampled element is scaled by each listed scalar
    once at most."""
    calls = Counter()
    build = instances.build_instance

    def counted_build(*args, **kwargs):
        inst, sample, scalars = build(*args, **kwargs)
        return counted(inst, calls, {
            "add": sampled_pair, "leq": sampled_pair,
            "scale": listed_scaling}), sample, listed(scalars)

    monkeypatch.setattr(instances, "build_instance", counted_build)
    code = main(["axioms", "--instance", name, "--seed", "0", "--sample",
                 "12", "--properties"])
    assert code == (1 if name.startswith("metrics-") else 0)
    assert '"properties": [' in capsys.readouterr().out
    assert {op for op, _ in calls} == {"add", "leq", "scale"}
    assert max(calls.values()) == 1


@pytest.mark.parametrize("name, law", (("metrics-no-abs-scale", "A2.scaling"),
                                       ("metrics-reversed-order", "A3.iii")))
def test_counterexample_read_back_from_json_replays(name, law):
    """Replayed elements are parsed afresh, so none is a sample object: the
    laws reach the instance operations directly, with the sample given to
    replay or without it."""
    inst, sample, scalars = build_instance(name, seed=0, sample=12)
    ce = next(entry["counterexample"]
              for entry in check_axioms(inst, sample, scalars, seed=0)["axioms"]
              if entry.get("counterexample", {}).get("law") == law)
    for known in (sample, None):
        assert replay_counterexample(inst, ce, known) is True


# ---------------------------------------------------------------------------
# The integer triangle check: rows packed into one int each, with a guard
# bit per field, while the fields fit PACKED_FIELD_BITS, and a scan pair by
# pair past it. Both report the first violating triple of a plain triple
# loop, which the reference model finds in Fractions.
# ---------------------------------------------------------------------------


@st.composite
def tables(draw):
    """Symmetric tables with a zero diagonal on 1 to 20 points: box tables
    (every entry within a factor two of every other, so a metric) with a
    few entries redrawn from a wider range, which breaks the triangle
    inequality somewhere. Scale numerators of 1 to 256 bits put the
    fields of the integer form on both sides of PACKED_FIELD_BITS."""
    n = draw(st.integers(1, 20))
    bits = draw(st.integers(1, 256))
    scale = Fraction(draw(st.integers(1 << bits - 1, (1 << bits) - 1)),
                     draw(st.integers(1, 30)))
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
            rows[i][j] = rows[j][i] = v * draw(st.sampled_from((1, scale)))
    return MetricMatrix.from_rows(carrier_labels(n), tuple(map(tuple, rows)))


@settings(max_examples=300)
@given(tables())
def test_triangle_check_matches_fraction_reference(m):
    assert validate_metric(m) == reference.validation(m)


def test_triangle_reference_sees_both_outcomes():
    m = MetricMatrix.from_rows(carrier_labels(3),
                               [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert validate_metric(m) == reference.validation(m)
    assert validate_metric(m)["violation"]["indices"] == ["x1", "x2", "x3"]
    ok = MetricMatrix.from_rows(carrier_labels(3),
                                [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert validate_metric(ok) == reference.validation(ok)
    assert validate_metric(ok)["pass"] is True


def test_triangle_check_reports_the_least_k():
    """(x1, x2) fails the triangle inequality through x3 and through x4;
    the report names x3, on both routes."""
    for unit in (1, 2**metrics.PACKED_FIELD_BITS):
        m = MetricMatrix.from_rows(carrier_labels(4), [
            [0, unit, 5 * unit, 5 * unit + 1], [unit, 0, unit, unit],
            [5 * unit, unit, 0, unit], [5 * unit + 1, unit, unit, 0]])
        assert validate_metric(m) == reference.validation(m)
        assert validate_metric(m)["violation"]["indices"] == [
            "x1", "x2", "x3"]


# Both triangle kernels meet each unordered pair i < j once and decide the
# ordered pairs (i, j) and (j, i) there, so they meet pairs out of row
# order. Each table: its size, its entries above the diagonal row by row,
# and the ordered pair of its first violation in row order. A kernel that
# named the first pair it hits, in the order it meets them, would name
# another pair on each.
PAIR_ORDER_TABLES = {
    # (x3, x2) is the first in row order; (x4, x1) is hit first, through
    # the pair (x1, x4)
    "backward-first": (5, [2, 2, 4, 1, 1, 3, 1, 5, 1, 8], ("x3", "x2")),
    # (x3, x1) is hit in row x1; (x2, x3), hit in row x2, is less
    "beaten-in-the-next-row": (5, [3, 3, 2, 3, 2, 1, 5, 6, 1, 1],
                               ("x2", "x3")),
    # (x4, x2) is hit in row x2, and kept through row x3, which names
    # (x3, x4): stopping after row x2 would name the kept pair
    "beaten-two-rows-on": (6, [6, 8, 7, 2, 6, 2, 2, 6, 2, 1, 8, 3, 5, 5, 4],
                           ("x3", "x4")),
    # (x3, x1) is kept over (x4, x1) and (x5, x1), met later in row x1
    "kept-over-later-backward-hits": (5, [2, 1, 1, 4, 1, 3, 2, 3, 3, 9],
                                      ("x3", "x1")),
    # row x1 hits (x1, x2) and (x1, x3); the first is named
    "two-hits-in-one-row": (4, [1, 1, 3, 1, 1, 1], ("x1", "x2")),
}


@pytest.mark.parametrize("unit", [1, 2**metrics.PACKED_FIELD_BITS],
                         ids=["packed", "scanned"])
@pytest.mark.parametrize("name", sorted(PAIR_ORDER_TABLES))
def test_triangle_check_names_the_first_pair_in_row_order(name, unit):
    n, upper, pair = PAIR_ORDER_TABLES[name]
    rows = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(entries) * unit
    m = MetricMatrix.from_rows(carrier_labels(n), rows)
    verdict = validate_metric(m)
    assert verdict == reference.validation(m)
    assert tuple(verdict["violation"]["indices"][:2]) == pair


def test_the_widest_entry_picks_the_route(monkeypatch):
    """A field holds bit_length(max) + 2 bits rounded up to whole bytes, so
    with B = PACKED_FIELD_BITS, a multiple of 8, a largest entry of
    2^(B-2) - 1 fills a B-bit field, the widest that the packed check
    takes, and 2^(B-2) needs B + 8 bits and the scan."""
    routes = []
    for name in ("_packed_triangle", "_scanned_triangle"):
        monkeypatch.setattr(metrics, name, lambda *args, name=name,
                            route=getattr(metrics, name):
                            routes.append(name) or route(*args))
    edge = 2**(metrics.PACKED_FIELD_BITS - 2)
    for top, route in ((edge - 1, "_packed_triangle"),
                       (edge, "_scanned_triangle")):
        for mid, ok in ((top - 1, True), (top - 2, False)):
            m = MetricMatrix.from_rows(carrier_labels(3), [
                [0, top, 1], [top, 0, mid], [1, mid, 0]])
            assert validate_metric(m) == reference.validation(m)
            assert validate_metric(m)["pass"] is ok
            assert routes == [route] * 2
            routes.clear()
