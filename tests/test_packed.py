"""The verifier's packed context against the integer forms it packs: a run
of both suites, and the replay of its counterexamples and of drawn ones,
report the same with each instance's `pack` hook and with its reference
instance (replay.reference_instance), which adds and scales the integer
forms by the Fraction ops of tests/reference.py."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import check_axioms
from evslib.instances import (
    carrier_labels,
    cone_element,
    cone_instance,
    hyperspace_instance,
    metric_no_abs_scale_instance,
    metric_packed_instance,
    metric_reversed_order_instance,
    point_set,
)
from evslib.norms import FSVector, norm_table_instance
from evslib.packed import packed_layout
from evslib.rationals import fmt, to_ints
from replay import LAWS, reference_instance, replay_counterexample

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
    "norms": (norm_table_instance([FSVector.unit(f"h{k}") for k in range(4)]),
              tuples(4)),
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
    scale = reference_instance(inst).scale
    sample = [inst.zero] + draw(st.lists(element(name), min_size=1,
                                         max_size=5))
    two, minus = Fraction(2), Fraction(-1)
    sample += [op(x) for x, op in zip(sample[1:], draw(st.lists(
        st.sampled_from((lambda x: x, lambda x: scale(two, x),
                         lambda x: scale(minus, x))), max_size=3)))]
    scalars = [Fraction(0), Fraction(1), Fraction(-1)] + draw(extra_scalars)
    return inst, sample, scalars


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_run_reports_as_the_integer_forms(name, data):
    inst, sample, scalars = data.draw(runs(name))
    ref = reference_instance(inst)
    report = check_axioms(inst, sample, scalars, seed=0, properties=True)
    assert report == check_axioms(ref, sample, scalars, seed=0,
                                  properties=True)
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
