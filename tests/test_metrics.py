"""Exact-metric table operations, validation, comparing values, transforms,
builtin families, depth-indexed comparison, and the incompleteness demo."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from evslib import (
    InputError,
    MetricMatrix,
    UndefinedRelativeElementError,
    add_metrics,
    builtin_lazy,
    builtin_metric,
    cauchy_incompleteness_demo,
    classify_lazy_pair,
    classify_pair,
    comparing_function_metric,
    discrete_metric,
    grid_carrier,
    leq_metrics,
    scale_metric,
    shrinking_metric,
    symmetric_grid_carrier,
    transform_bounded,
    transform_min,
    usual_metric,
    validate_metric,
)
from evslib import metrics
from evslib.metrics import random_metric
import reference
from reference import rows

F = Fraction


def upper_bounds(d, rho, depths) -> list:
    """The depth-indexed bounds of rho relative to d that classify_lazy_pair
    reports."""
    directions = classify_lazy_pair(d, rho, depths)["directions"]
    return [F(v) for v in directions["secondRelativeFirst"]["upperBounds"]]


def tri(a, b, c, labels=("x1", "x2", "x3")) -> MetricMatrix:
    """Three-point metric with d(1,2)=a, d(1,3)=b, d(2,3)=c."""
    return MetricMatrix.from_rows(labels, [[0, a, b], [a, 0, c], [b, c, 0]])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_non_square_is_input_error():
    with pytest.raises(InputError):
        MetricMatrix.from_rows(["a", "b"], [[0, 1]])


def test_non_symmetric_is_input_error():
    with pytest.raises(InputError):
        MetricMatrix.from_rows(["a", "b"], [[0, 1], [2, 0]])


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        MetricMatrix.from_rows(["a", "a"], [[0, 1], [1, 0]])


def test_validate_flags_indiscernibles():
    m = MetricMatrix.from_rows(["a", "b"], [[0, 0], [0, 0]])
    verdict = validate_metric(m)
    assert verdict["pass"] is False
    assert verdict["violation"]["axiom"] == "identity-of-indiscernibles"


def test_validate_flags_triangle():
    m = tri(1, 1, 3)
    verdict = validate_metric(m)
    assert verdict["pass"] is False
    assert verdict["violation"]["axiom"] == "triangle"


def test_validate_flags_negative_entry():
    m = MetricMatrix.from_rows(["a", "b"], [[0, -1], [-1, 0]])
    assert validate_metric(m)["violation"]["axiom"] == "nonnegativity"


def test_validate_flags_nonzero_diagonal():
    m = MetricMatrix.from_rows(["a", "b"], [[1, 2], [2, 0]])
    assert validate_metric(m)["violation"]["axiom"] == "zero-diagonal"


def test_kappa_grid_validates_exhaustively():
    kappa = builtin_metric("kappa", {}, 11)
    assert validate_metric(kappa)["pass"]


def test_csv_round_trip():
    m = tri(1, 2, F(5, 2))
    text = "x1,x2,x3\n0,1,2\n1,0,5/2\n2,5/2,0\n"
    assert rows(MetricMatrix.from_csv_text(text)) == rows(m)


# ---------------------------------------------------------------------------
# evs operations
# ---------------------------------------------------------------------------


def test_scale_uses_absolute_value():
    d = tri(1, 2, 2)
    assert rows(scale_metric(F(-1, 2), d)) == rows(scale_metric(F(1, 2), d))


def test_scale_by_zero_gives_zero_table():
    d = tri(1, 2, 2)
    assert scale_metric(0, d).is_zero()


def test_zero_is_additive_identity():
    d = tri(1, 2, 2)
    assert rows(add_metrics(d, MetricMatrix.zero(d.labels))) == rows(d)


def test_label_mismatch_is_input_error():
    with pytest.raises(InputError):
        add_metrics(tri(1, 2, 2), tri(1, 2, 2, labels=("a", "b", "c")))


# ---------------------------------------------------------------------------
# Comparing function
# ---------------------------------------------------------------------------


def test_comparing_of_constant_multiple():
    d = tri(1, 2, 2)
    assert comparing_function_metric(d, scale_metric(2, d)) == 2


def test_comparing_discrete_vs_usual_on_ten_points():
    usual = builtin_metric("usual-grid", {"step": 1}, 10)
    disc = builtin_metric("discrete", {}, 10)
    assert comparing_function_metric(usual, disc) == F(1, 9)
    assert comparing_function_metric(disc, usual) == 1


def test_comparing_truncation_closed_form():
    rho = tri(2, 3, 5)
    rmin = transform_min(rho)
    assert comparing_function_metric(rmin, rho) == 2  # max{1, min rho}
    assert comparing_function_metric(rho, rmin) == F(1, 5)  # min{1, 1/M}


def test_comparing_rejects_zero_relative_element():
    d = tri(1, 2, 2)
    with pytest.raises(UndefinedRelativeElementError):
        comparing_function_metric(MetricMatrix.zero(d.labels), d)


def test_comparing_matches_the_reference_spectrum_on_randoms():
    rng = random.Random(7)
    labels = tuple(f"x{k}" for k in range(1, 7))
    for _ in range(40):
        d = random_metric(rng, labels)
        rho = random_metric(rng, labels)
        assert comparing_function_metric(d, rho) == \
            reference.spectrum(rows(d), rows(rho))


def test_comparing_scaling_law_and_self():
    rng = random.Random(11)
    labels = tuple(f"x{k}" for k in range(1, 6))
    for _ in range(10):
        d = random_metric(rng, labels)
        rho = random_metric(rng, labels)
        alpha = F(rng.randint(1, 9), rng.randint(1, 9))
        assert comparing_function_metric(d, scale_metric(alpha, rho)) == \
            alpha * comparing_function_metric(d, rho)
        assert comparing_function_metric(rho, rho) == 1


def test_comparing_certificate_is_tight():
    rng = random.Random(3)
    labels = tuple(f"x{k}" for k in range(1, 6))
    d, rho = random_metric(rng, labels), random_metric(rng, labels)
    c = comparing_function_metric(d, rho)
    assert leq_metrics(scale_metric(c, d), rho)
    scaled = scale_metric(c, d)
    assert any(rows(scaled)[i][j] == rows(rho)[i][j]
               for i, j in combinations(range(d.size), 2))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

# the keys of the two comparing values in a classify_pair report
C12, C21 = "comparingSecondRelativeFirst", "comparingFirstRelativeSecond"


def test_classify_bounded_companion_is_mutually_dependent():
    rho = tri(1, 2, 2)
    report = classify_pair(rho, transform_bounded(rho))
    assert report["classification"] == "mutually-dependent"
    assert F(report[C12]) == F(1, 3)   # 1/(1+M), M = 2
    assert F(report[C21]) == 2         # 1 + min
    sandwich = report["sandwich"]
    assert sandwich["lowerHolds"] and sandwich["upperHolds"]


def test_classify_self_pair():
    d = tri(1, 2, 2)
    report = classify_pair(d, d)
    assert F(report[C12]) == 1 and F(report[C21]) == 1


def test_classify_swaps_consistently():
    rng = random.Random(5)
    labels = tuple(f"x{k}" for k in range(1, 6))
    d, rho = random_metric(rng, labels), random_metric(rng, labels)
    ab, ba = classify_pair(d, rho), classify_pair(rho, d)
    assert F(ab[C12]) == F(ba[C21])
    assert ab["classification"] == ba["classification"] == "mutually-dependent"


def test_classify_rejects_zero():
    d = tri(1, 2, 2)
    with pytest.raises(UndefinedRelativeElementError):
        classify_pair(d, MetricMatrix.zero(d.labels))


@st.composite
def table_pairs(draw, entries):
    """Two symmetric zero-diagonal tables on one 2- to 5-point carrier, with
    off-diagonal entries drawn from `entries`."""
    n = draw(st.integers(2, 5))
    labels = tuple(f"x{k}" for k in range(1, n + 1))

    def table():
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(entries)
        return MetricMatrix.from_rows(labels, rows)

    return table(), table()


positive = st.builds(F, st.integers(1, 30), st.integers(1, 12))
signed_nonzero = st.builds(F, st.integers(-30, 30).filter(bool),
                           st.integers(1, 12))


@given(table_pairs(signed_nonzero))
def test_classify_signed_tables_takes_two_labels(pair):
    report = classify_pair(*pair)
    assert report["classification"] in ("mutually-dependent",
                                         "orderly-independent")
    assert (F(report[C12]) > 0) == (F(report[C21]) > 0)


@given(table_pairs(positive))
def test_comparing_value_is_a_tight_lower_multiplier(pair):
    d, rho = pair
    c = comparing_function_metric(d, rho)
    assert leq_metrics(scale_metric(c, d), rho)
    dr, rr = rows(d), rows(rho)
    assert any(c * dr[i][j] == rr[i][j]
               for i, j in combinations(range(d.size), 2))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def test_bounded_transform_entries():
    rho = tri(3, 3, 3)
    assert rows(transform_bounded(rho))[0][1] == F(3, 4)
    disc = builtin_metric("discrete", {}, 4)
    full = rows(transform_bounded(disc))
    assert {full[i][j] for i, j in combinations(range(4), 2)} == {F(1, 2)}


def test_min_transform_entries():
    rho = tri(F(1, 2), 3, 3)
    out = transform_min(rho)
    assert rows(out)[0][1] == F(1, 2) and rows(out)[0][2] == 1


def test_min_transform_fixed_point_below_one():
    rho = tri(F(1, 2), F(3, 4), F(3, 4))
    assert rows(transform_min(rho)) == rows(rho)


def test_transforms_validate_and_sit_below_input():
    rng = random.Random(13)
    labels = tuple(f"x{k}" for k in range(1, 7))
    for _ in range(15):
        rho = random_metric(rng, labels)
        for out in (transform_bounded(rho), transform_min(rho)):
            assert validate_metric(out)["pass"]
            assert leq_metrics(out, rho)


def test_transform_closed_forms_match_oracle():
    rng = random.Random(17)
    labels = tuple(f"x{k}" for k in range(1, 7))
    for _ in range(15):
        rho = random_metric(rng, labels)
        rb = transform_bounded(rho)
        full = rows(rho)
        values = [full[i][j] for i, j in combinations(range(rho.size), 2)]
        assert comparing_function_metric(rb, rho) == 1 + min(values)
        assert comparing_function_metric(rho, rb) == 1 / (1 + max(values))
        assert comparing_function_metric(rb, rho) == \
            reference.spectrum(rows(rb), full)


@given(table_pairs(st.fractions(-3, 3, max_denominator=4)))
def test_table_transforms_equal_the_reference_on_signed_tables(pair):
    """Entry by entry on signed tables: an entry below -1 (where 1 + v < 0)
    and one in (-1, 0) have their images, and an entry of -1 has none."""
    rho = pair[0]
    assume(not rho.is_zero())
    table = rows(rho)
    for transform, image in ((transform_bounded, reference.bounded),
                             (transform_min, reference.capped)):
        if transform is transform_bounded and any(-1 in row for row in table):
            with pytest.raises(InputError, match="is undefined on the entry "
                                                 "-1/1 at"):
                transform(rho)
            continue
        assert rows(transform(rho)) == tuple(
            tuple(F(0) if i == j else image(v) for j, v in enumerate(row))
            for i, row in enumerate(table))


@given(st.integers(-40, 40), st.integers(1, 12))
def test_pair_maps_keep_the_denominator_positive(x, y):
    """The composites feed one pair map's output to the next, which reads
    its sign from the numerator alone."""
    assume(x != -y)
    for entry_map, image in ((metrics._bounded, reference.bounded),
                             (metrics._capped, reference.capped)):
        out = entry_map(x, y)
        assert out[1] > 0 and F(*out) == image(F(x, y))


def test_transform_of_zero_rejected():
    with pytest.raises(UndefinedRelativeElementError):
        transform_bounded(MetricMatrix.zero(("a", "b")))


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------


def test_builtin_shrinking_values():
    m = builtin_metric("shrinking", {}, 4)
    assert rows(m)[0][1] == F(1, 2)
    assert rows(m)[1][2] == F(1, 6)
    assert rows(m)[0][3] == F(3, 4)


def test_builtin_kappa_case_table():
    m = builtin_metric("kappa", {"step": "1/10"}, 21)
    # x_j = -1 + (j-1)/10: 0.7 is x18, 0.9 is x20, 0.1 is x12, 0.3 is x14
    assert rows(m)[17][19] == 2
    assert rows(m)[11][13] == F(1, 5)


def test_builtin_kappa_step_consistency():
    with pytest.raises(InputError):
        builtin_metric("kappa", {"step": "1/10"}, 11)
    with pytest.raises(InputError):
        builtin_metric("kappa", {}, 12)  # even depth has no symmetric grid


def test_builtin_cauchy_values():
    m = builtin_metric("cauchy-dn", {"n": 10, "points": [[0, 0], [0, 1]]}, 2)
    assert rows(m)[0][1] == F(1, 10)


def test_builtin_errors():
    with pytest.raises(InputError):
        builtin_metric("no-such-family", {}, 4)
    with pytest.raises(InputError):
        builtin_metric("usual-grid", {}, 4)
    with pytest.raises(InputError):
        builtin_metric("discrete", {}, 1)
    with pytest.raises(InputError):
        builtin_metric("cauchy-dn", {"n": 10, "points": [[0, 0], [0, 1]]}, 5)


def test_lazy_materializations_validate():
    for m, depth in (
        (discrete_metric(), 8),
        (shrinking_metric(), 8),
        (usual_metric(grid_carrier(F(1, 2))), 8),
        (builtin_lazy("kappa"), 9),
        (builtin_lazy("cauchy-dn", {"n": 3, "points": [[0, 0], [1, 0], [0, 2]]}), 3),
    ):
        assert validate_metric(m.materialize(depth))["pass"]


# ---------------------------------------------------------------------------
# Depth-indexed comparison
# ---------------------------------------------------------------------------


def test_partial_self_is_constant_one():
    d = shrinking_metric()
    assert upper_bounds(d, d, [5, 10]) == [1, 1]


@pytest.mark.parametrize("transform", [transform_bounded, transform_min])
def test_transforms_refuse_closed_form_metrics(transform):
    # `evs transform` reads tables only; the library takes nothing else
    with pytest.raises(InputError) as err:
        transform(builtin_lazy("kappa"))
    assert str(err.value) == "cannot transform LazyMetric"


def test_partial_discrete_vs_shrinking_trend():
    seq = upper_bounds(discrete_metric(), shrinking_metric(), [10, 25, 50])
    assert seq == [F(1, 90), F(1, 600), F(1, 2450)]
    assert all(v > 0 for v in seq)
    assert seq[0] > seq[1] > seq[2]


def test_partial_requires_increasing_depths():
    with pytest.raises(InputError):
        classify_lazy_pair(discrete_metric(), shrinking_metric(), [10, 10])


def test_partial_nonincreasing_on_nested_carriers():
    seq = upper_bounds(builtin_lazy("kappa"),
                       usual_metric(symmetric_grid_carrier()), [11, 21, 41])
    assert seq == [F(1, 10), F(1, 20), F(1, 40)]


def test_carrier_conflict_rejected():
    with pytest.raises(InputError):
        classify_lazy_pair(
            usual_metric(grid_carrier(1)), builtin_lazy("kappa"), [5, 9]
        )


def test_classify_lazy_shrinking_vs_discrete():
    report = classify_lazy_pair(shrinking_metric(), discrete_metric(), [10, 25, 50])
    assert report["classification"] == "one-sided-second-in-L(first)"
    pos = report["directions"]["secondRelativeFirst"]
    assert pos["status"] == "positive" and pos["certificate"] == "1/1"
    ref = report["directions"]["firstRelativeSecond"]
    assert ref["status"] == "refuted"
    assert ref["strictlyDecreasing"]
    assert ref["upperBounds"] == ["1/90", "1/600", "1/2450"]


def test_classify_lazy_unbounded_rule():
    report = classify_lazy_pair(
        usual_metric(grid_carrier(1)), discrete_metric(), [5, 10, 20]
    )
    # the discrete table never dominates a positive multiple of an unbounded one
    assert report["directions"]["secondRelativeFirst"]["status"] == "refuted"
    assert report["directions"]["firstRelativeSecond"]["status"] == "positive"


@pytest.mark.parametrize(("first", "second"), [
    (discrete_metric(), shrinking_metric()),
    (builtin_lazy("kappa"), usual_metric(symmetric_grid_carrier())),
])
def test_classify_lazy_evaluates_each_pair_once(monkeypatch, first, second):
    """No table is materialized. On the nested indexed carrier each unordered
    pair of the deepest truncation is evaluated once per metric; the
    symmetric grid moves its points with the depth, so each depth's pairs
    are evaluated once per metric."""
    from evslib import metrics
    from evslib.metrics import LazyMetric

    depths = [11, 21, 41]
    made, pairs = [], {first.family: [], second.family: []}

    def materialize(self, depth):
        made.append((self.family, depth))

    def counting(family):
        pair = metrics._PAIR_FNS[family]

        def count(m, den, p, q):
            pairs[family].append((p[0], q[0]))
            return pair(m, den, p, q)
        return count

    monkeypatch.setattr(LazyMetric, "materialize", materialize)
    for family in pairs:
        monkeypatch.setitem(metrics._PAIR_FNS, family, counting(family))
    report = classify_lazy_pair(first, second, depths)
    monkeypatch.undo()
    assert made == []
    nested = first.carrier.kind != "symgrid"
    expected = sorted((i, j) for n in (depths[-1:] if nested else depths)
                      for i in range(1, n + 1) for j in range(i + 1, n + 1))
    for family, seen in pairs.items():
        assert sorted(seen) == expected, family
    carrier = metrics.resolve_carrier(first, second)
    for key, (x, y) in (("secondRelativeFirst", (first, second)),
                        ("firstRelativeSecond", (second, first))):
        assert report["directions"][key]["upperBounds"] == [
            reference.text(reference.comparing(reference.table(x, n, carrier),
                                               reference.table(y, n, carrier)))
            for n in depths]


@pytest.mark.parametrize("metric", [
    shrinking_metric(),
    builtin_lazy("kappa"),
])
def test_materialize_evaluates_each_pair_once(monkeypatch, metric):
    from evslib import metrics

    depth = 11
    pairs = []
    pair = metrics._PAIR_FNS[metric.family]

    def counting(m, den, p, q):
        pairs.append((p[0], q[0]))
        return pair(m, den, p, q)

    monkeypatch.setitem(metrics._PAIR_FNS, metric.family, counting)
    table = metric.materialize(depth)
    assert sorted(pairs) == [(i, j) for i in range(1, depth + 1)
                             for j in range(i + 1, depth + 1)]
    monkeypatch.undo()
    again = metric.materialize(depth)
    assert (table.labels, table.form) == (again.labels, again.form)


def test_classify_lazy_undetermined_direction():
    # kappa has no carrier-wide infimum metadata, so nothing is decided
    report = classify_lazy_pair(
        builtin_lazy("kappa"), usual_metric(symmetric_grid_carrier()), [11, 21]
    )
    assert report["classification"] == "undetermined-at-depth"


# ---------------------------------------------------------------------------
# Incompleteness demo
# ---------------------------------------------------------------------------


def test_cauchy_demo_single_pair_bound():
    report = cauchy_incompleteness_demo([10, 20], [[[0, 0], [0, 1]]])
    check = report["cauchyChecks"][0]
    assert check["maxGap"] == "1/20"
    assert check["budget"] == "1/20"
    assert report["cauchyBoundHolds"]
    assert report["demonstratesIncompleteness"]


def test_cauchy_demo_limit_violation_located():
    report = cauchy_incompleteness_demo([10, 20, 40], [[[0, 0], [0, 1]]])
    violation = report["limitValidation"]["violation"]
    assert violation["axiom"] == "identity-of-indiscernibles"
    assert not report["limitIsMetric"]


def test_cauchy_demo_requires_witness_pair():
    with pytest.raises(InputError):
        cauchy_incompleteness_demo([10, 20], [[[0, 0], [1, 0]]])
