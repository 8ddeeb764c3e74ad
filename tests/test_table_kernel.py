"""The order kernels on metric tables against entrywise Fraction oracles on
random square tables: mixed denominators, signed entries and nonzero
diagonals, all of which the constructor accepts. Covers the comparing
value, its tightness (c*d <= rho with an equal pair), leq_metrics and the
two sandwich flags of classify_pair."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evslib.metrics import (
    MUTUALLY_DEPENDENT,
    MetricMatrix,
    classify_pair,
    comparing_function_metric,
    leq_metrics,
    scale_metric,
)

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
    return all(s * x <= t * y for ra, rb in zip(a.rows, b.rows)
               for x, y in zip(ra, rb))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_comparing_value_is_the_minimum_ratio(pair):
    d, rho = pair
    assume(all(d.rows[i][j] != 0 for i, j in pair_indices(d.size)))
    oracle = min(rho.rows[i][j] / d.rows[i][j] for i, j in pair_indices(d.size))
    assert comparing_function_metric(d, rho) == oracle


@settings(max_examples=200, deadline=None)
@given(pairs(off=entries(False), diagonal=st.just(Fraction(0))))
def test_comparing_value_is_tight(pair):
    d, rho = pair
    c = comparing_function_metric(d, rho)
    assert c > 0
    assert leq_metrics(scale_metric(c, d), rho)
    assert any(c * d.rows[i][j] == rho.rows[i][j]
               for i, j in pair_indices(d.size))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_leq_is_the_entrywise_order(pair):
    a, b = pair
    # a's entries off the diagonal and b's on it, so the diagonal decides
    c = MetricMatrix.from_rows(a.labels, tuple(
        tuple(b.rows[i][i] if j == i else v for j, v in enumerate(row))
        for i, row in enumerate(a.rows)))
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
