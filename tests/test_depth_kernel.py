"""The closed-form metrics against the reference model of tests/reference.py:
their materialized tables entry by entry, also after the table transforms
and scalings, and the depth-indexed comparing
bounds, streamed from the family table without building tables, per depth;
then the order of their input errors."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from evslib import metrics
from evslib.errors import InputError
from evslib.metrics import (
    LazyMetric,
    builtin_lazy,
    classify_lazy_pair,
    discrete_metric,
    grid_carrier,
    resolve_carrier,
    scale_metric,
    shrinking_metric,
    symmetric_grid_carrier,
    transform_bounded,
    transform_min,
    usual_metric,
)
from reference import rows
from test_closed_form import POINTS

KAPPA = builtin_lazy("kappa")
USUAL_SYM = usual_metric(symmetric_grid_carrier())
CAUCHY = builtin_lazy("cauchy-dn", {"n": 4, "points": POINTS})

FAMILIES = [discrete_metric(), shrinking_metric(),
            usual_metric(grid_carrier("1/2")), USUAL_SYM, KAPPA, CAUCHY]
FAMILY = st.sampled_from(FAMILIES)


def oracle(d, rho, depths) -> list:
    """(c(rho | d), c(d | rho)) per depth, from the reference tables of the
    two metrics at that depth."""
    carrier = resolve_carrier(d, rho)
    out = []
    for n in depths:
        dt = reference.table(d, n, carrier)
        rt = reference.table(rho, n, carrier)
        out.append((reference.comparing(dt, rt), reference.comparing(rt, dt)))
    return out


def streamed(d, rho, depths) -> list:
    """The same pairs as classify_lazy_pair reports them."""
    report = classify_lazy_pair(d, rho, depths)["directions"]
    first = [Fraction(v) for v in report["secondRelativeFirst"]["upperBounds"]]
    second = [Fraction(v) for v in report["firstRelativeSecond"]["upperBounds"]]
    return list(zip(first, second))


@st.composite
def depth_lists(draw, kind):
    if kind == "symgrid":
        pool = st.integers(1, 12).map(lambda k: 2 * k + 1)
    elif kind == "points2d":
        pool = st.integers(2, len(POINTS))
    else:
        pool = st.integers(2, 24)
    return sorted(draw(st.sets(pool, min_size=1, max_size=4)))


# the depth each carrier kind is checked at; the symmetric grid at 13 holds
# the points -1/2 and 1/2, where kappa changes zone
DEEPEST = {"indexed": 9, "grid": 9, "symgrid": 13, "points2d": len(POINTS)}


# the table transforms and scalings, each as the library applies it to a
# materialized table and as the reference applies it to a full table
BOUNDED = ("bounded", transform_bounded,
           lambda full: reference.transformed(reference.bounded, full))
CAPPED = ("min", transform_min,
          lambda full: reference.transformed(reference.capped, full))


def scaling(alpha: str) -> tuple:
    return (f"scaled({alpha})", lambda t: scale_metric(alpha, t),
            lambda full: reference.scaled(Fraction(alpha), full))


USUAL_HALF = usual_metric(grid_carrier("1/2"))

# a family and the wraps applied, in order, to its table: the named
# families, and the compositions that `evs transform` and `evs combine
# --scale` reach on a table that `evs builtin --out` wrote
BASES = [(m, ()) for m in FAMILIES] + [
    (KAPPA, (BOUNDED,)), (USUAL_SYM, ()),
    (USUAL_HALF, ()), (USUAL_HALF, (CAPPED,)),
    (shrinking_metric(), (scaling("-3/2"),)), (discrete_metric(), ()),
    (CAUCHY, (scaling("2"), BOUNDED)), (CAUCHY, ()),
    (discrete_metric(), (BOUNDED, CAPPED)), (shrinking_metric(), ()),
    (KAPPA, (CAPPED, scaling("7/3"))), (USUAL_SYM, (BOUNDED,)),
]
WRAPS = [(), (BOUNDED,), (CAPPED,), (scaling("-3/2"),), (scaling("7"),)]


@pytest.mark.parametrize(("m", "wraps"), [
    pytest.param(m, chain + wrap, id="-".join(
        [m.family, m.carrier.kind] + [name for name, _, _ in chain + wrap]))
    for m, chain in BASES for wrap in WRAPS])
def test_each_family_and_composite_materializes_the_reference(m, wraps):
    n = DEEPEST[m.carrier.kind]
    table, full = m.materialize(n), reference.table(m, n)
    for _, library, model in wraps:
        table, full = library(table), model(full)
    assert rows(table) == full


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_materialize_equals_the_reference_entry_by_entry(data):
    m, other = data.draw(FAMILY), data.draw(FAMILY)
    try:
        carrier = resolve_carrier(m, other)
    except InputError:
        assume(False)
    n = data.draw(depth_lists(carrier.kind))[-1]
    # an index-only family rides the carrier its partner imposes
    on_carrier = LazyMetric(m.family, carrier, weight=m.weight)
    assert rows(on_carrier.materialize(n)) == reference.table(m, n, carrier)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_streamed_bounds_equal_the_reference(data):
    d, rho = data.draw(FAMILY), data.draw(FAMILY)
    try:
        carrier = resolve_carrier(d, rho)
    except InputError:
        assume(False)
    depths = data.draw(depth_lists(carrier.kind))
    assert streamed(d, rho, depths) == oracle(d, rho, depths)


@pytest.mark.parametrize("depths", [[5, 9, 17], [5, 7, 11]],
                         ids=["nested", "not-nested"])
@pytest.mark.parametrize(("d", "rho"), [
    (KAPPA, USUAL_SYM),
    (discrete_metric(), KAPPA),
    (USUAL_SYM, shrinking_metric()),
], ids=["kappa-usual", "discrete-kappa", "usual-shrinking"])
def test_symmetric_grid_depths_are_evaluated_afresh(d, rho, depths):
    assert streamed(d, rho, depths) == oracle(d, rho, depths)


# -- input errors, in the order a table built per depth raised them ----------


def counting_pairs(monkeypatch, *families) -> list:
    seen = []
    for family in families:
        pair = metrics._PAIR_FNS[family]

        def count(m, den, p, q, pair=pair, family=family):
            seen.append((family, p[0], q[0]))
            return pair(m, den, p, q)
        monkeypatch.setitem(metrics._PAIR_FNS, family, count)
    return seen


@pytest.mark.parametrize(("d", "rho", "depths", "message", "evaluated"), [
    (CAUCHY, discrete_metric(), [3, 7, 9],
     "depth 7 exceeds the 5 listed points", 3),
    (KAPPA, USUAL_SYM, [5, 6],
     "symmetric grid depth must be odd and at least 3", 10),
    (builtin_lazy("kappa", {"step": "1/2"}), USUAL_SYM, [5, 7, 9],
     "declared step 1/2 is inconsistent with depth 7 (the symmetric grid "
     "on [-1,1] implies 1/3)", 10),
], ids=["points2d-over", "symgrid-even", "symgrid-step"])
def test_carrier_errors_name_the_first_failing_depth(
        monkeypatch, d, rho, depths, message, evaluated):
    seen = counting_pairs(monkeypatch, d.family, rho.family)
    with pytest.raises(InputError) as err:
        classify_lazy_pair(d, rho, depths)
    assert str(err.value) == message
    # every pair of the depths before the failing one was evaluated
    assert len(seen) == 2 * evaluated


@pytest.mark.parametrize(("depths", "message"), [
    ([], "need at least one depth"),
    ([1, 3], "all depths must be at least 2"),
    ([3, 3], "depths must be strictly increasing"),
    ([5, 4], "depths must be strictly increasing"),
    ([10, 1001], "depth 1001 exceeds the limit of 1000"),
    ([10 ** 12], "depth 1000000000000 exceeds the limit of 1000"),
])
def test_depth_list_errors_come_before_carrier_errors(depths, message):
    with pytest.raises(InputError, match=message):
        classify_lazy_pair(usual_metric(grid_carrier(1)), KAPPA, depths)


@pytest.mark.parametrize(("d", "rho", "depths", "error"), [
    (KAPPA, USUAL_SYM, [9], None),
    (KAPPA, USUAL_SYM, [3, 9], "the depths need 39 pairs per metric, past "
                               "the limit of 36 (one depth-9 table)"),
    (discrete_metric(), shrinking_metric(), [3, 5, 7, 9], None),
], ids=["symgrid-at-the-limit", "symgrid-past-it", "nested-at-the-limit"])
def test_the_pairs_of_a_depth_list_are_capped_before_any_is_evaluated(
        monkeypatch, d, rho, depths, error):
    """A symmetric grid evaluates every depth afresh, so its depths' pairs
    add up; a nested carrier evaluates the deepest depth's pairs once."""
    monkeypatch.setattr(metrics, "MAX_BUILTIN_DEPTH", 9)
    seen = counting_pairs(monkeypatch, d.family, rho.family)
    if error is None:
        classify_lazy_pair(d, rho, depths)
        assert len(seen) == 2 * 36
        return
    with pytest.raises(InputError) as err:
        classify_lazy_pair(d, rho, depths)
    assert (str(err.value), seen) == (error, [])


def test_kappa_at_two_deep_depths_is_refused_before_any_pair(monkeypatch):
    seen = counting_pairs(monkeypatch, "kappa", "usual")
    with pytest.raises(InputError) as err:
        classify_lazy_pair(KAPPA, USUAL_SYM, [961, 999])
    assert str(err.value) == ("the depths need 959781 pairs per metric, past "
                              "the limit of 499500 (one depth-1000 table)")
    assert seen == []


@pytest.mark.parametrize("value", [(0, 1), (-1, 3)])
@pytest.mark.parametrize("side", ["first", "second"])
def test_a_non_positive_distance_raises(monkeypatch, value, side):
    pair = metrics._PAIR_FNS["shrinking"]

    def broken(m, den, p, q):
        return value if (p[0], q[0]) == (2, 3) else pair(m, den, p, q)
    monkeypatch.setitem(metrics._PAIR_FNS, "shrinking", broken)
    d, rho = shrinking_metric(), discrete_metric()
    if side == "second":
        d, rho = rho, d
    assert len(streamed(d, rho, [2])) == 1
    with pytest.raises(InputError) as err:
        classify_lazy_pair(d, rho, [2, 4])
    assert str(err.value) == (f"distance {value[0]}/{value[1]} on the distinct "
                              f"pair (x2, x3) is not positive; not a metric")
