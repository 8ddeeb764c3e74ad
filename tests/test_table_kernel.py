"""The order kernels on metric tables against entrywise Fraction oracles on
random square tables: mixed denominators, signed entries and nonzero
diagonals, all of which the constructor accepts. Covers the comparing
value, its tightness (c*d <= rho with an equal pair), leq_metrics and the
two sandwich flags of classify_pair. Then, by example, the walk over a
table's distinct pairs that the comparing value, the metric check and the
transforms share: the pair it names in an error, and the signs it flips
on negative tables."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evslib.errors import InputError
from evslib.metrics import (
    MUTUALLY_DEPENDENT,
    MetricMatrix,
    classify_pair,
    comparing_function_metric,
    leq_metrics,
    scale_metric,
    transform_bounded,
    validate_metric,
)
from reference import rows

SIZES = st.integers(2, 5)


def entries(sign: bool):
    """Rationals with denominators up to 12; `sign` allows zero and
    negative numerators, otherwise they are positive."""
    low = -12 if sign else 1
    return st.builds(Fraction, st.integers(low, 12), st.integers(1, 12))


@st.composite
def tables(draw, n: int, off=entries(True), diagonal=entries(True)):
    """A symmetric n x n table with entries drawn above the diagonal from
    `off` and on it from `diagonal`."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(off)
    return MetricMatrix.from_rows(tuple(f"x{k}" for k in range(n)),
                                  tuple(map(tuple, rows)))


@st.composite
def pairs(draw, off=entries(True), diagonal=entries(True)):
    n = draw(SIZES)
    return (draw(tables(n, off, diagonal)), draw(tables(n, off, diagonal)))


def pair_indices(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def all_leq(a: MetricMatrix, b: MetricMatrix, s=1, t=1) -> bool:
    """Entrywise s * a <= t * b, the diagonal included."""
    return all(s * x <= t * y for ra, rb in zip(rows(a), rows(b))
               for x, y in zip(ra, rb))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_comparing_value_is_the_minimum_ratio(pair):
    d, rho = pair
    dr, rr = rows(d), rows(rho)
    assume(all(dr[i][j] != 0 for i, j in pair_indices(d.size)))
    oracle = min(rr[i][j] / dr[i][j] for i, j in pair_indices(d.size))
    assert comparing_function_metric(d, rho) == oracle


@settings(max_examples=200, deadline=None)
@given(pairs(off=entries(False), diagonal=st.just(Fraction(0))))
def test_comparing_value_is_tight(pair):
    d, rho = pair
    c = comparing_function_metric(d, rho)
    assert c > 0
    assert leq_metrics(scale_metric(c, d), rho)
    dr, rr = rows(d), rows(rho)
    assert any(c * dr[i][j] == rr[i][j]
               for i, j in pair_indices(d.size))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_leq_is_the_entrywise_order(pair):
    a, b = pair
    # a's entries off the diagonal and b's on it, so the diagonal decides
    br = rows(b)
    c = MetricMatrix.from_rows(a.labels, tuple(
        tuple(br[i][i] if j == i else v for j, v in enumerate(row))
        for i, row in enumerate(rows(a))))
    assert leq_metrics(a, b) == all_leq(a, b)
    assert leq_metrics(a, c) == all_leq(a, c)
    assert leq_metrics(a, a)


@settings(max_examples=300, deadline=None)
@given(pairs(off=entries(False),
             diagonal=st.one_of(st.just(Fraction(0)), entries(True))))
def test_sandwich_flags_are_the_entrywise_order(pair):
    d, rho = pair
    report = classify_pair(d, rho)
    assert report["classification"] == MUTUALLY_DEPENDENT
    c1 = Fraction(report["comparingSecondRelativeFirst"])
    c2 = Fraction(report["comparingFirstRelativeSecond"])
    assert report["sandwich"]["lowerHolds"] == all_leq(rho, d, s=c2)
    assert report["sandwich"]["upperHolds"] == all_leq(d, rho, t=1 / c1)


def labeled(*rows) -> MetricMatrix:
    """The table of the given full rows over the labels a, b, c, ..."""
    return MetricMatrix.from_rows("abcdef"[:len(rows)], rows)


def test_two_vanishing_pairs_name_the_first_in_row_order():
    """d vanishes on (a, d) and (b, c). The comparing value, the metric
    check and the walk that finds them name (a, d), the first in row
    order, in either direction of the pair."""
    d = labeled([0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0])
    rho = labeled([0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0])
    for first, second in ((d, rho), (rho, d)):
        with pytest.raises(InputError, match=re.escape(
                "relative element vanishes on the distinct pair (a, d)")):
            classify_pair(first, second)
    assert validate_metric(d)["violation"] == {
        "axiom": "identity-of-indiscernibles", "indices": ["a", "d"],
        "value": "0/1"}


def test_a_pair_at_the_last_position_is_named_by_its_labels():
    """The last entry of the walk is the pair (c, d) of a 4-point table."""
    d = labeled([0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0])
    with pytest.raises(InputError, match=re.escape(
            "relative element vanishes on the distinct pair (c, d)")):
        comparing_function_metric(d, d)
    assert validate_metric(d)["violation"]["indices"] == ["c", "d"]
    signed = labeled([0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, -1],
                     [2, 2, -1, 0])
    assert validate_metric(signed)["violation"] == {
        "axiom": "nonnegativity", "indices": ["c", "d"], "value": "-1/1"}
    with pytest.raises(InputError, match=re.escape(
            "transform bounded is undefined on the entry -1/1 at (c, d)")):
        transform_bounded(signed)


def test_a_negative_entry_before_a_zero_is_named_first():
    zero_later = labeled([0, -3, 1], [-3, 0, 0], [1, 0, 0])
    assert validate_metric(zero_later)["violation"] == {
        "axiom": "nonnegativity", "indices": ["a", "b"], "value": "-3/1"}
    negative_later = labeled([0, 0, 1], [0, 0, -3], [1, -3, 0])
    assert validate_metric(negative_later)["violation"] == {
        "axiom": "identity-of-indiscernibles", "indices": ["a", "b"],
        "value": "0/1"}


@pytest.mark.parametrize("d_rows, rho_rows", [
    ([[0, -2, -1], [-2, 0, -3], [-1, -3, 0]],
     [[0, 1, -1], [1, 0, 2], [-1, 2, 0]]),
    ([[0, -1, -1, -4], [-1, 0, -2, -1], [-1, -2, 0, -3], [-4, -1, -3, 0]],
     [[0, -5, 3, -2], [-5, 0, -1, 7], [3, -1, 0, 1], [-2, 7, 1, 0]]),
])
def test_negative_tables_give_the_least_ratio(d_rows, rho_rows):
    """Every entry of d off the diagonal is negative, so the walk flips
    each pair's signs, and the value is still the least ratio rho/d."""
    d, rho = labeled(*d_rows), labeled(*rho_rows)
    for first, second in ((d, rho), (rho, d), (d, d)):
        dr, rr = rows(first), rows(second)
        oracle = min(rr[i][j] / dr[i][j] for i, j in pair_indices(first.size))
        assert comparing_function_metric(first, second) == oracle
