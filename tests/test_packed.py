"""The verifier's packed context against the integer forms it packs: a run
of both suites, and the replay of its counterexamples and of drawn ones,
report the same with each instance's `pack` hook and with its reference
instance (replay.reference_instance), which adds and scales the integer
forms by the Fraction ops of tests/reference.py."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import check_axioms
from evslib.cli import _dumps
from evslib.core import _Context
from evslib.instances import (
    carrier_labels,
    cone_element,
    cone_instance,
    hyperspace_instance,
    metric_no_abs_scale_instance,
    metric_packed_instance,
    metric_reversed_order_instance,
    norm_table_instance,
    point_set,
)
from evslib.packed import packed_layout
from evslib.rationals import fmt, to_ints
from replay import (LAWS, packed_context, reference_instance,
                    replay_counterexample, scaled)

DIM = 2
LABELS = carrier_labels(3)
METRIC_WIDTH = 6           # the upper triangle of a 3-point table


def numerators(bits: int):
    """Integers of up to `bits` bits, with the powers of two and their
    neighbours, where a field's bit length, and so the width, turns."""
    edge = st.integers(0, bits).flatmap(lambda k: st.sampled_from(
        (2**k - 1, 2**k, 2**k + 1)))
    return st.one_of(st.integers(-12, 12), edge, edge.map(lambda x: -x),
                     st.integers(-2**bits, 2**bits))


def rationals(bits: int = 40):
    return st.builds(Fraction, numerators(bits),
                     st.one_of(st.integers(1, 12), st.integers(1, 2**bits)))


def tuples(width: int, nonnegative_head: bool = False):
    head = rationals().map(abs) if nonnegative_head else rationals()
    return st.tuples(head, st.lists(rationals(), min_size=width - 1,
                                    max_size=width - 1)).map(
        lambda t: (t[0], *t[1]))


POINTWISE = {
    "metrics": (metric_packed_instance(LABELS), tuples(METRIC_WIDTH)),
    "metrics-reversed-order": (metric_reversed_order_instance(LABELS),
                               tuples(METRIC_WIDTH)),
    "metrics-no-abs-scale": (metric_no_abs_scale_instance(LABELS),
                             tuples(METRIC_WIDTH)),
    "norms": (norm_table_instance(4), tuples(4)),
    "cone": (cone_instance(DIM), tuples(DIM + 1, nonnegative_head=True)),
}


def element(name: str):
    """The integer form of a drawn element of instance `name`."""
    if name == "hyperspace":
        return st.lists(tuples(DIM), min_size=1, max_size=3).map(point_set)
    if name == "cone":
        return POINTWISE[name][1].map(lambda t: cone_element(t[0], t[1:]))
    return POINTWISE[name][1].map(to_ints)


def instance(name: str):
    return hyperspace_instance(DIM) if name == "hyperspace" \
        else POINTWISE[name][0]


NAMES = sorted(POINTWISE) + ["hyperspace"]

# scalars past 0, 1 and -1: small ones, so that laws find comparable and
# equal values, and ones with the largest numerators and denominators drawn
extra_scalars = st.lists(st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    rationals(24)), max_size=3)


@st.composite
def runs(draw, name):
    """A sample holding the zero, with some elements repeated, doubled or
    negated, and a scalar list holding 0, 1 and -1."""
    inst = instance(name)
    ref = reference_instance(inst)
    sample = [inst.zero] + draw(st.lists(element(name), min_size=1,
                                         max_size=5))
    two, minus = Fraction(2), Fraction(-1)
    sample += [op(x) for x, op in zip(sample[1:], draw(st.lists(
        st.sampled_from((lambda x: x, lambda x: scaled(ref, two, x),
                         lambda x: scaled(ref, minus, x))), max_size=3)))]
    scalars = [Fraction(0), Fraction(1), Fraction(-1)] + draw(extra_scalars)
    return inst, sample, scalars


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_run_reports_as_the_integer_forms(name, data):
    inst, sample, scalars = data.draw(runs(name))
    ref = reference_instance(inst)
    report = check_axioms(inst, sample, scalars, seed=0, properties=True)
    assert _dumps(report) == _dumps(check_axioms(ref, sample, scalars,
                                                 seed=0, properties=True))
    for entry in report["axioms"] + report["properties"]:
        ce = entry.get("counterexample")
        if ce is not None:
            assert replay_counterexample(inst, ce, sample) is True
            assert replay_counterexample(ref, ce, sample) is True


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_replay_of_new_elements_answers_as_the_integer_forms(name,
                                                                    data):
    """Elements read back from JSON bring their own denominators into the
    common denominator of the replay's context."""
    inst, sample, _ = data.draw(runs(name))
    law = LAWS[data.draw(st.sampled_from(sorted(LAWS)))]
    count, listed = law.arity
    ce = {"law": law.name,
          "elements": [inst.element_to_json(data.draw(element(name)))
                       for _ in range(count)],
          "scalars": [fmt(a) for a in data.draw(st.lists(
              rationals(24), min_size=listed, max_size=listed))]}
    assert replay_counterexample(inst, ce, sample) == \
        replay_counterexample(reference_instance(inst), ce, sample)


def test_layout_width_leaves_a_sign_above_the_bound():
    """Fields of 6 * P^2 * B, over L = D * Q^2, fit below the sign bit of
    a w-bit field, and w is no wider than that needs."""
    den, w = packed_layout([1], [7], [Fraction(-5), Fraction(1, 3)])
    assert den == 9
    bound = 6 * 5 * 5 * 7 * 9
    assert bound < 2 ** (w - 1) <= 2 * bound


# ---------------------------------------------------------------------------
# Skipped positions: a pointwise tuple packs only the positions where some
# element of the context is nonzero, and the cone every position
# ---------------------------------------------------------------------------

#: the positions of the diagonal in a 3-point table's upper triangle
DIAGONAL = (0, 3, 5)


def form(name: str, t: tuple) -> tuple:
    return cone_element(t[0], t[1:]) if name == "cone" else to_ints(t)


@st.composite
def sparse_contexts(draw, name):
    """(instance, elements, scalars): tuples that are zero outside a drawn
    set of positions (for a metric, half of the time the positions off the
    diagonal, as in a seeded sample), and, at a drawn place among them, at
    times one tuple with a single nonzero entry outside that set."""
    inst, strategy = POINTWISE[name]
    width = len(inst.zero[0])
    support = draw(st.sets(st.integers(0, width - 1)))
    if name.startswith("metrics") and draw(st.booleans()):
        support = set(range(width)) - set(DIAGONAL)
    found = draw(st.lists(strategy.map(lambda t: tuple(
        x if k in support else 0 for k, x in enumerate(t))), max_size=4))
    if draw(st.booleans()) or not found:
        lone = [0] * width
        lone[draw(st.integers(0, width - 1))] = draw(
            rationals().filter(bool).map(abs))
        found.insert(draw(st.integers(0, len(found))), tuple(lone))
    return (inst, [form(name, t) for t in found], [Fraction(0), Fraction(1),
            Fraction(-1)] + draw(extra_scalars))


@pytest.mark.parametrize("name", sorted(POINTWISE))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_ops_with_skipped_positions_match_the_fraction_ops(name,
                                                                   data):
    """Sums, orders and equalities of the elements, and their scalings by
    the listed scalars and by the products and sums of two, read back as
    the Fraction ops of tests/reference.py compute them, with ints p and
    q for each scalar."""
    inst, elements, scalars = data.draw(sparse_contexts(name))
    ref = reference_instance(inst)
    packed, xs, read = packed_context(inst, elements, scalars[3:])
    pairs = list(zip(xs, elements))
    for x, a in pairs:
        assert read(x) == a
        assert packed.equal(x, packed.zero) == (a == inst.zero)
        for y, b in pairs:
            assert read(packed.add(x, y)) == ref.add(a, b)
            assert packed.leq(x, y) == inst.leq(a, b)
            assert packed.equal(x, y) == (a == b)
    for alpha in scalars:
        ys = [scaled(packed, alpha, x) for x in xs]
        assert [read(y) for y in ys] == [scaled(ref, alpha, a)
                                         for a in elements]
        for (y, a), (z, b) in product(zip(ys, elements), repeat=2):
            assert packed.leq(y, z) == inst.leq(scaled(ref, alpha, a),
                                                scaled(ref, alpha, b))
        for beta in scalars:
            for gamma in (alpha * beta, alpha + beta):
                assert [read(scaled(packed, gamma, x)) for x in xs] == \
                    [scaled(ref, gamma, a) for a in elements]


METRICS = sorted(name for name in POINTWISE if name.startswith("metrics"))


@pytest.mark.parametrize("name", METRICS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replay_context_packs_a_nonzero_diagonal(name, data):
    """A replay's context is the given sample, whose tables have a zero
    diagonal, followed by the counterexample's elements as read from JSON,
    which may not: the context's tables read back as the Fraction ops
    compute them, and the replay answers as the reference instance's."""
    inst, strategy = POINTWISE[name]
    off = strategy.map(lambda t: tuple(0 if k in DIAGONAL else x
                                       for k, x in enumerate(t)))
    sample = [inst.zero] + data.draw(st.lists(off.map(to_ints), max_size=3))
    law = LAWS[data.draw(st.sampled_from(sorted(LAWS)))]
    count, listed = law.arity
    ce = {"law": law.name,
          "elements": [inst.element_to_json(to_ints(t)) for t in data.draw(
              st.lists(strategy, min_size=count, max_size=count))],
          "scalars": [fmt(a) for a in data.draw(st.lists(
              rationals(24), min_size=listed, max_size=listed))]}
    ref = reference_instance(inst)
    assert replay_counterexample(inst, ce, sample) == \
        replay_counterexample(ref, ce, sample)
    given_ = sample + [inst.element_from_json(doc) for doc in ce["elements"]]
    scalars = [Fraction(a) for a in ce["scalars"]]
    c = _Context(inst, given_, scalars, len(sample))
    r = _Context(ref, given_, scalars, len(sample))
    read = inst.element_from_json
    for table in ("sums", "scaled"):
        assert [[read(c.inst.element_to_json(x)) for x in row]
                for row in getattr(c, table)] == getattr(r, table)
