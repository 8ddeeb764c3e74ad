"""A metric table in a document writes its own text (MetricMatrix.json_text):
_dumps of any document that holds tables gives the bytes json.dumps gives
for the same document with each table replaced by its to_json(), and every
entry prints as its value in lowest terms."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from evslib.cli import _dumps
from evslib.metrics import MetricMatrix
from evslib.rationals import MAX_DIGITS, ratios_to_ints

# the largest numerator or denominator a table prints, and a few below it
NEAR_LIMIT = 10 ** MAX_DIGITS - 1
value = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70),
                  st.integers(NEAR_LIMIT - 3, NEAR_LIMIT),
                  st.integers(-NEAR_LIMIT, -NEAR_LIMIT + 3))
label = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def tables(draw):
    """An n-point table, n = 1..6: a few values repeated over the upper
    triangle, or mostly distinct values, over a denominator of 1 (integer
    entries), a small one or one near the digit limit."""
    n = draw(st.integers(1, 6))
    size = n * (n + 1) // 2
    if draw(st.booleans()):
        pool = draw(st.lists(value, min_size=1, max_size=2))
        nums = [draw(st.sampled_from(pool)) for _ in range(size)]
    else:
        nums = draw(st.lists(value, min_size=size, max_size=size))
    den = draw(st.one_of(st.just(1), st.integers(1, 12),
                         st.integers(NEAR_LIMIT - 3, NEAR_LIMIT)))
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return MetricMatrix(tuple(labels), ratios_to_ints(nums, [den] * size))


scalar = st.none() | st.booleans() | st.integers() | label


def nested(depth: int):
    """Documents with tables `depth` levels down, in lists and objects."""
    if depth == 0:
        return tables()
    child = nested(depth - 1)
    return (st.lists(child | scalar, min_size=1, max_size=3)
            | st.dictionaries(label, child | scalar, min_size=1, max_size=3))


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=MetricMatrix.to_json)


def printed(m: MetricMatrix) -> dict:
    """The table document of m, each entry read from its form as a
    Fraction, which is in lowest terms."""
    nums, den = m.form
    n, it = len(m.labels), iter(nums)
    upper = [[None] * i + [Fraction(next(it), den) for _ in range(n - i)]
             for i in range(n)]
    full = [[upper[min(i, j)][max(i, j)] for j in range(n)]
            for i in range(n)]
    return {"labels": list(m.labels),
            "rows": [[f"{v.numerator}/{v.denominator}" for v in row]
                     for row in full]}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3).flatmap(nested))
def test_tables_at_any_depth_print_as_their_to_json(doc):
    assert _dumps(doc) == reference(doc)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_a_table_prints_its_entries_in_lowest_terms(m):
    assert json.loads(_dumps(m)) == m.to_json() == printed(m)


def test_a_one_point_table_and_integer_entries():
    one = MetricMatrix(("a",), ((0,), 1))
    signed = MetricMatrix(("é", '"'), ((0, -3, 7), 1))
    doc = {"one": one, "rows": [signed, {"x": one}]}
    assert _dumps(doc) == reference(doc)
    assert '"0/1"' in _dumps(one) and '"-3/1"' in _dumps(signed)
