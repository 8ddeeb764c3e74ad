"""Exact metrics on finite labeled carriers and their ordered-semigroup structure.

The space under study is the set of all metrics on a carrier together with the
constant zero table O, ordered pointwise, with pointwise addition and the
scalar action (alpha, rho) -> |alpha| * rho. On a finite carrier every
comparability question is decided exactly: the comparing value of rho relative
to d is the minimum of rho(x,y)/d(x,y) over distinct pairs, a plain minimum of
rationals. Every operation on tables runs on one stored integer form per
table (MetricMatrix.form) with the integer kernel of rationals.py.

Countable carriers are handled through LazyMetric: a named closed-form metric
that can be materialized on the first N canonical carrier points at any depth.
Truncations only ever yield upper bounds for carrier-wide infima, so
depth-indexed results are reported as bound sequences with trend flags, never
as the limiting value. Carrier-wide certificates and refutations are produced
only where exact family bounds license them (bounded-vs-unbounded, positive
infimum vs vanishing infimum).
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import chain, combinations, islice
from operator import itemgetter, sub
from typing import Optional, Sequence

from .errors import InputError, UndefinedRelativeElementError
from .rationals import (_add, _leq, _scale, fmt, fmt_ratio,
                        parse_plain_ratios, parse_rational, parse_rationals,
                        ratios_to_ints, to_ints)

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Finite carriers: exact distance tables
# ---------------------------------------------------------------------------


class MetricMatrix:
    """Symmetric rational distance table over a finite labeled carrier,
    stored as `form`: the canonical integer form (rationals.to_ints) of its
    upper triangle, diagonal included, row by row. Every operation on
    tables runs on it, and to_json prints from it. The form is also the
    element of the one metric instance, instances.metric_packed_instance,
    that serves both the axiom verifier and the order tools. `rows`, the
    one Fraction view, is built on first use and cached. Two tables are
    equal when their labels and forms are.

    MetricMatrix(labels, form) takes a tuple of labels and a form as they
    are: derived tables are symmetric by construction. A raw table, read
    from JSON or CSV or written out as rows, goes through from_rows, which
    checks its entries and shape (square, symmetric, distinct labels) but
    not the metric axioms. Those are validate_metric's job, so that
    candidate tables (e.g. pointwise limits) can be rejected with a
    structured violation.
    """

    __slots__ = ("labels", "form", "_rows")

    def __init__(self, labels: tuple[str, ...],
                 form: tuple[tuple[int, ...], int]):
        self.labels, self.form, self._rows = labels, form, None

    def __eq__(self, other):
        if not isinstance(other, MetricMatrix):
            return NotImplemented
        return self.labels == other.labels and self.form == other.form

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Sequence[Sequence]) -> "MetricMatrix":
        """Parse raw rows, one row at a time. Left of the diagonal, the
        entries that repeat the raw entry above them in type and value are
        not parsed again (one list comparison of values and one of types,
        entry by entry only when either differs); any other entry goes
        through parse_rational and is kept for the symmetry check. From
        the diagonal on, a row of plain "p/q" strings is read straight to
        integers (rationals.parse_plain_ratios), and any other row goes
        through parse_rational entry by entry. So each unordered pair is
        parsed once, a row spelled otherwise costs only that row, and
        errors come as a parse_rational call on every entry in row order,
        then the shape check, then the symmetry check would raise them.
        The upper triangle goes over one common denominator and is
        reduced once."""
        nums, dens, lower = [], [], []
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise InputError("matrix row must be a list of rationals")
            left = row[:i]
            try:
                above = list(map(itemgetter(i), rows[:i]))
            except IndexError:   # a short row above
                above = None
            if left != above or list(map(type, left)) != list(map(type, above)):
                for j, v in enumerate(left):
                    up = rows[j]
                    if not (i < len(up) and type(up[i]) is type(v)
                            and up[i] == v):
                        lower.append((i, j, parse_rational(v)))
            ratios = parse_plain_ratios(row[i:])
            if ratios is None:
                parsed = [parse_rational(v) for v in row[i:]]
                ratios = ([q.numerator for q in parsed],
                          [q.denominator for q in parsed])
            nums += ratios[0]
            dens += ratios[1]
        labels = _carrier(labels, rows)
        n = len(labels)
        for i, j, q in lower:
            k = j * n - j * (j - 1) // 2 + i - j   # (j, i) in the triangle
            if q.numerator * dens[k] != nums[k] * q.denominator:
                raise InputError(
                    f"matrix is not symmetric at ({labels[i]}, {labels[j]})")
        return cls(labels, ratios_to_ints(nums, dens))

    @classmethod
    def zero(cls, labels: Sequence[str]) -> "MetricMatrix":
        n = len(labels)
        return cls(tuple(labels), ((0,) * (n * (n + 1) // 2), 1))

    @classmethod
    def from_json(cls, doc) -> "MetricMatrix":
        """Parse a {"labels", "rows"} document. A MetricMatrix is returned
        unchanged, as parse_rational returns a Fraction, so inputs the CLI
        has already parsed are not parsed again."""
        if isinstance(doc, MetricMatrix):
            return doc
        if not isinstance(doc, dict) or "labels" not in doc or "rows" not in doc:
            raise InputError('matrix document needs "labels" and "rows"')
        labels, rows = doc["labels"], doc["rows"]
        if not isinstance(labels, list) or not all(
                isinstance(label, str) for label in labels):
            raise InputError("matrix labels must be a list of strings")
        if not isinstance(rows, list):
            raise InputError("matrix rows must be a list of rows")
        return cls.from_rows(labels, rows)

    @classmethod
    def from_csv_text(cls, text: str) -> "MetricMatrix":
        reader = csv.reader(io.StringIO(text))
        table = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not table:
            raise InputError("empty CSV")
        labels = [cell.strip() for cell in table[0]]
        return cls.from_rows(labels, [[c.strip() for c in row] for row in table[1:]])

    # -- accessors ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            nums, den = self.form
            self._rows = tuple(map(tuple, _mirror(
                _upper([Fraction(v, den) for v in nums], self.size))))
        return self._rows

    def is_zero(self) -> bool:
        return not any(self.form[0])

    def to_json(self) -> dict:
        nums, den = self.form
        return {
            "labels": list(self.labels),
            "rows": _mirror(_upper([fmt_ratio(v, den) for v in nums],
                                   self.size)),
        }


def _carrier(labels: Sequence[str], rows: Sequence[Sequence]) -> tuple:
    """The labels as a tuple, once they are distinct and there is one row
    of one entry per label."""
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise InputError("empty carrier")
    if len(set(labels)) != n:
        raise InputError("carrier labels must be distinct")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("matrix is not square with one row per label")
    return labels


def _upper(flat: list, n: int) -> list:
    """Cut an n-point upper triangle into rows (i, i), (i, i + 1), ..."""
    it = iter(flat)
    return [list(islice(it, n - i)) for i in range(n)]


def _mirror(upper: list) -> list:
    """The full rows of a symmetric table from its upper rows (see _upper)."""
    return [[upper[j][i - j] for j in range(i)] + upper[i]
            for i in range(len(upper))]


def _from_upper(labels, upper: list) -> MetricMatrix:
    """The symmetric table with the given upper rows of rationals."""
    return MetricMatrix(tuple(labels), to_ints(list(chain(*upper))))


def _require_same_labels(a: MetricMatrix, b: MetricMatrix) -> None:
    if a.labels != b.labels:
        raise InputError("matrices are over different carriers (label mismatch)")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_metric(m: MetricMatrix) -> dict:
    """Check the metric axioms on a candidate table.

    Reports {"pass", "violation", "size"}: the first violated axiom with its
    witnessing pair or triple, or a null violation.
    Shape problems (non-square, non-symmetric) are input errors raised at
    construction, not axiom failures. The all-zero table fails here (identity
    of indiscernibles) even though it is the legitimate additive identity O of
    the surrounding space.

    Every check runs on the table's integer form, whose common positive
    denominator keeps every sign and comparison. The triangle check visits
    the triples (i, j, k) in the order of a plain triple loop but only with
    i != j: once the diagonal and sign checks pass, no triple with i == j,
    k == i or k == j violates, so the first violation found is the same.
    """
    violation = _violation(m)
    return {"pass": violation is None, "violation": violation, "size": m.size}


def _violation(m: MetricMatrix) -> Optional[dict]:
    """The first violated metric axiom of a table (see validate_metric)."""
    n, labels = m.size, m.labels
    nums, den = m.form
    upper = _upper(nums, n)
    for i, row in enumerate(upper):
        if row[0] != 0:
            return {
                "axiom": "zero-diagonal",
                "indices": [labels[i]],
                "value": fmt_ratio(row[0], den),
            }
    for i, row in enumerate(upper):
        for j, v in enumerate(row[1:], i + 1):
            if v < 0:
                return {
                    "axiom": "nonnegativity",
                    "indices": [labels[i], labels[j]],
                    "value": fmt_ratio(v, den),
                }
            if v == 0:
                return {
                    "axiom": "identity-of-indiscernibles",
                    "indices": [labels[i], labels[j]],
                    "value": "0/1",
                }
    rows = _mirror(upper)
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            dij = ri[j]
            # d(i,k) > d(i,j) + d(j,k) for some k iff max_k d(i,k) - d(j,k) > d(i,j)
            if j == i or max(map(sub, ri, rj)) <= dij:
                continue
            k = next(k for k in range(n) if ri[k] - rj[k] > dij)
            return {
                "axiom": "triangle",
                "indices": [labels[i], labels[j], labels[k]],
                "lhs": fmt_ratio(ri[k], den),
                "rhs": fmt_ratio(dij + rj[k], den),
            }
    return None


# ---------------------------------------------------------------------------
# evs operations on tables
# ---------------------------------------------------------------------------


def add_metrics(a: MetricMatrix, b: MetricMatrix) -> MetricMatrix:
    """Entrywise sum; the zero table O is an accepted operand (identity)."""
    _require_same_labels(a, b)
    return MetricMatrix(a.labels, _add(a.form, b.form))


def scale_metric(alpha, a: MetricMatrix) -> MetricMatrix:
    """Scalar action (alpha, rho) -> |alpha| * rho; O is accepted, and
    alpha = 0 yields O."""
    mag = abs(parse_rational(alpha))
    return MetricMatrix(a.labels,
                        _scale(mag.numerator, mag.denominator, a.form))


def leq_metrics(a: MetricMatrix, b: MetricMatrix) -> bool:
    """Entrywise order, the diagonal included; comparisons with O are
    meaningful (O is the minimum)."""
    _require_same_labels(a, b)
    return _leq(a.form, b.form)


# ---------------------------------------------------------------------------
# Comparing function and pair classification
# ---------------------------------------------------------------------------


def comparing_function_metric(d: MetricMatrix, rho: MetricMatrix) -> Fraction:
    """Exact comparing value of rho relative to d: min over distinct pairs of
    rho(x,y)/d(x,y). The returned value c satisfies c*d <= rho with at least
    one tight pair. The ratios are compared by cross-multiplying the two
    tables' integer forms, and one Fraction is built at the end."""
    _require_same_labels(d, rho)
    if d.size < 2:
        raise InputError("comparing values need at least two carrier points")
    if d.is_zero():
        raise UndefinedRelativeElementError(
            "comparing function is undefined relative to the zero element O"
        )
    # min over i < j of (r/rd) / (v/dd) = (r/v) * (dd/rd) on the integer
    # forms: keep the least r/v as p/q with q > 0, starting from 1/0
    (dn, dd), (rn, rd), n = d.form, rho.form, d.size
    p, q = 1, 0
    for i, (drow, rrow) in enumerate(zip(_upper(dn, n), _upper(rn, n))):
        for j, v, r in zip(range(i + 1, n), drow[1:], rrow[1:]):
            if v <= 0:
                if v == 0:
                    raise InputError(
                        f"relative element vanishes on the distinct pair "
                        f"({d.labels[i]}, {d.labels[j]}); not a metric"
                    )
                v, r = -v, -r
            if r * q < p * v:
                p, q = r, v
    return Fraction(p * dd, q * rd)


MUTUALLY_DEPENDENT = "mutually-dependent"
ONE_SIDED_SECOND_IN_FIRST = "one-sided-second-in-L(first)"
ONE_SIDED_FIRST_IN_SECOND = "one-sided-first-in-L(second)"
ORDERLY_INDEPENDENT = "orderly-independent"


def classify_pair(d: MetricMatrix, rho: MetricMatrix) -> dict:
    """Classify an exact pair by its two comparing values: the report gives
    both, the label, and, when the pair is mutually dependent, the sandwich
    c2*rho <= d <= (1/c1)*rho.

    The values are the minima of the ratios rho/d and of their reciprocals,
    so they are both positive or both negative; a zero ratio makes the second
    call raise. Only two labels can come out: mutually dependent, the case
    of every valid metric pair on a finite carrier, and orderly independent,
    reached only by signed tables. The one-sided labels belong to
    classify_lazy_pair.
    """
    if d.is_zero() or rho.is_zero():
        raise UndefinedRelativeElementError("classification needs two nonzero elements")
    c1 = comparing_function_metric(d, rho)
    c2 = comparing_function_metric(rho, d)
    if c1 > 0 and c2 > 0:
        label = MUTUALLY_DEPENDENT
        # c2*rho <= d and d <= (1/c1)*rho, the latter as c1*d <= rho
        sandwich = {
            "lower": fmt(c2),
            "upper": fmt(1 / c1),
            "lowerHolds": _leq(_scale(c2.numerator, c2.denominator,
                                               rho.form), d.form),
            "upperHolds": _leq(_scale(c1.numerator, c1.denominator,
                                               d.form), rho.form),
        }
    else:
        label, sandwich = ORDERLY_INDEPENDENT, None
    return {
        "comparingSecondRelativeFirst": fmt(c1),
        "comparingFirstRelativeSecond": fmt(c2),
        "classification": label,
        "secondInTestingSetOfFirst": c1 > 0,
        "firstInTestingSetOfSecond": c2 > 0,
        "sandwich": sandwich,
    }


# ---------------------------------------------------------------------------
# Metric transforms
# ---------------------------------------------------------------------------


def _bounded(v: Fraction) -> Fraction:
    return v / (1 + v)


def _capped(v: Fraction) -> Fraction:
    return min(ONE, v)


def transform_bounded(rho):
    """rho -> rho/(1+rho), entrywise; a bounded metric below the input.
    The zero table is rejected (the companion of O is not a metric)."""
    return _transform(rho, _bounded, "bounded-of")


def transform_min(rho):
    """rho -> min(1, rho), entrywise; truncation at height one."""
    return _transform(rho, _capped, "min-of")


def _transform(rho, entry_map, family: str):
    """The entrywise image of a table, or the closed-form family `family`
    over a LazyMetric, whose bounds are the images of its base's bounds."""
    if isinstance(rho, MetricMatrix):
        if rho.is_zero():
            raise UndefinedRelativeElementError("transform of the zero element")
        labels, (nums, den) = rho.labels, rho.form
        upper = []
        for i, row in enumerate(_upper(nums, rho.size)):
            upper.append([ZERO])
            for j, x in enumerate(row[1:], i + 1):
                v = Fraction(x, den)
                try:
                    upper[i].append(entry_map(v))
                except ZeroDivisionError:
                    raise InputError(
                        f"transform {family} is undefined on the entry "
                        f"{fmt(v)} at ({labels[i]}, {labels[j]})") from None
        return _from_upper(labels, upper)
    if isinstance(rho, LazyMetric):
        unbounded = rho.sup_bound is None or rho.unbounded
        return LazyMetric(
            family, rho.carrier, base=rho,
            sup_bound=ONE if unbounded else entry_map(rho.sup_bound),
            inf_value=None if rho.inf_value is None else entry_map(rho.inf_value),
        )
    raise InputError(f"cannot transform {type(rho).__name__}")


# ---------------------------------------------------------------------------
# Countable carriers and closed-form families
# ---------------------------------------------------------------------------


class Carrier:
    """Canonical countable carrier: points are indexed x_1, x_2, ...

    kind "indexed"   -- bare indices, no coordinates.
    kind "grid"      -- x_k = (k-1)*step on a half-line grid.
    kind "symgrid"   -- depth-driven symmetric grid on [-1, 1]: at odd depth N
                        the points are -1 + (j-1)*(2/(N-1)), j = 1..N, so the
                        grid always contains -1, 0, 1 and straddles |x| = 1/2
                        with exact classification of every point.
    kind "points2d"  -- an explicit finite list of rational plane points.

    Two carriers are equal when their kinds, steps and points are.
    """

    __slots__ = ("kind", "step", "points")

    def __init__(self, kind: str, step: Optional[Fraction] = None,
                 points: Optional[tuple] = None):
        self.kind, self.step, self.points = kind, step, points

    def __eq__(self, other):
        if not isinstance(other, Carrier):
            return NotImplemented
        return (self.kind, self.step, self.points) == \
            (other.kind, other.step, other.points)

    def at(self, depth: int) -> tuple:
        """The first `depth` points as (index, coordinate) pairs, index
        1-based; a depth the carrier cannot hold is an input error."""
        if depth < 2:
            raise InputError("depth must be at least 2")
        if self.kind == "indexed":
            coords = range(1, depth + 1)
        elif self.kind == "grid":
            coords = [k * self.step for k in range(depth)]
        elif self.kind == "symgrid":
            if depth < 3 or depth % 2 == 0:
                raise InputError("symmetric grid depth must be odd and at least 3")
            implied = Fraction(2, depth - 1)
            if self.step is not None and self.step != implied:
                raise InputError(
                    f"declared step {fmt(self.step)} is inconsistent with depth "
                    f"{depth} (the symmetric grid on [-1,1] implies {fmt(implied)})"
                )
            half = (depth - 1) // 2
            coords = [Fraction(k - half, half) for k in range(depth)]
        elif self.kind == "points2d":
            if depth > len(self.points):
                raise InputError(
                    f"depth {depth} exceeds the {len(self.points)} listed points"
                )
            coords = self.points[:depth]
        else:
            raise InputError(f"unknown carrier kind {self.kind!r}")
        return tuple(enumerate(coords, 1))


def carrier_labels(size: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(1, size + 1))


def indexed_carrier() -> Carrier:
    return Carrier("indexed")


def grid_carrier(step) -> Carrier:
    step = parse_rational(step)
    if step <= 0:
        raise InputError("grid step must be positive")
    return Carrier("grid", step=step)


def symmetric_grid_carrier(step=None) -> Carrier:
    """Symmetric grid on [-1, 1]; the materialization depth fixes the actual
    step, and a declared step is only checked for consistency against it."""
    return Carrier("symgrid", step=None if step is None else parse_rational(step))


def _plane_points(doc) -> tuple:
    """Parse a JSON list of [u, v] rational points."""
    if not isinstance(doc, list):
        raise InputError("plane points must be a list of [u, v] points")
    points = tuple(tuple(parse_rationals(p, "plane point")) for p in doc)
    if any(len(p) != 2 for p in points):
        raise InputError("a plane point has exactly two coordinates")
    return points


def points_carrier(points: Sequence[Sequence]) -> Carrier:
    parsed = _plane_points(points)
    if len(set(parsed)) != len(parsed):
        raise InputError("carrier points must be pairwise distinct")
    if len(parsed) < 2:
        raise InputError("need at least 2 carrier points")
    return Carrier("points2d", points=parsed)


class LazyMetric:
    """Closed-form metric over a countable carrier, materializable at any depth.

    sup_bound is an exact upper bound for all off-diagonal values (None when
    none is declared), inf_value the exact infimum over distinct pairs of the
    full carrier (None when depth-dependent or unknown), and unbounded marks
    families whose values provably exceed every bound. These three feed the
    carrier-wide comparison rules; truncations alone never decide a limit.
    A cauchy metric's `weight` is its second-coordinate weight 1/n, a
    transform's `base` is its source, and a scaled-of metric's `factor` is
    its |alpha| multiplier.
    """

    __slots__ = ("family", "carrier", "weight", "base", "factor",
                 "sup_bound", "inf_value", "unbounded")

    def __init__(self, family: str, carrier: Carrier,
                 weight: Optional[Fraction] = None,
                 base: Optional[LazyMetric] = None,
                 factor: Optional[Fraction] = None,
                 sup_bound: Optional[Fraction] = None,
                 inf_value: Optional[Fraction] = None,
                 unbounded: bool = False):
        self.family, self.carrier = family, carrier
        self.weight, self.base, self.factor = weight, base, factor
        self.sup_bound, self.inf_value = sup_bound, inf_value
        self.unbounded = unbounded

    def materialize(self, depth: int, carrier: Optional[Carrier] = None) -> MetricMatrix:
        """The table on the first `depth` points of the carrier (by default
        the metric's own); each unordered pair is evaluated once."""
        points = (carrier or self.carrier).at(depth)
        pair = _PAIR_FNS[self.family]
        return _from_upper(carrier_labels(depth), [
            [ZERO] + [pair(self, p, q) for q in points[i + 1:]]
            for i, p in enumerate(points)])

    def describe(self) -> dict:
        doc = {"family": self.family, "carrier": self.carrier.kind}
        if self.carrier.step is not None:
            doc["step"] = fmt(self.carrier.step)
        if self.weight is not None:
            doc["weight"] = fmt(self.weight)
        if self.factor is not None:
            doc["factor"] = fmt(self.factor)
        if self.base is not None:
            doc["base"] = self.base.describe()
        return doc


# The distance of each family between two distinct carrier points p and q,
# given as (index, coordinate) pairs: family -> f(metric, p, q).


def _kappa(m: LazyMetric, p, q) -> Fraction:
    a, b = p[1], q[1]
    if abs(a) <= HALF and abs(b) <= HALF:
        return abs(a - b)
    return TWO


def _cauchy(m: LazyMetric, p, q) -> Fraction:
    (u, u2), (v, v2) = p[1], q[1]
    return abs(u - v) + m.weight * abs(u2 - v2)


_PAIR_FNS = {
    "discrete": lambda m, p, q: ONE,
    "shrinking": lambda m, p, q: Fraction(abs(p[0] - q[0]), p[0] * q[0]),
    "usual": lambda m, p, q: abs(p[1] - q[1]),
    "kappa": _kappa,
    "cauchy": _cauchy,
    "bounded-of": lambda m, p, q: _bounded(_of_base(m, p, q)),
    "min-of": lambda m, p, q: _capped(_of_base(m, p, q)),
    "scaled-of": lambda m, p, q: m.factor * _of_base(m, p, q),
}


def _of_base(m: LazyMetric, p, q) -> Fraction:
    return _PAIR_FNS[m.base.family](m.base, p, q)


def scale_lazy(alpha, m: LazyMetric) -> LazyMetric:
    """|alpha|-multiple of a closed-form metric; alpha must be nonzero since
    the zero table is not a LazyMetric."""
    factor = abs(parse_rational(alpha))
    if factor == 0:
        raise InputError("scaling a closed-form metric by zero leaves the family")
    return LazyMetric(
        "scaled-of", m.carrier, base=m, factor=factor,
        sup_bound=None if m.sup_bound is None else factor * m.sup_bound,
        inf_value=None if m.inf_value is None else factor * m.inf_value,
        unbounded=m.unbounded,
    )


def discrete_metric() -> LazyMetric:
    return LazyMetric("discrete", indexed_carrier(), sup_bound=ONE, inf_value=ONE)


def shrinking_metric() -> LazyMetric:
    """All carrier points at mutual distance |1/n - 1/m|: the infimum over
    distinct pairs of the full countable carrier is exactly 0."""
    return LazyMetric("shrinking", indexed_carrier(), sup_bound=ONE, inf_value=ZERO)


def usual_metric(carrier: Carrier) -> LazyMetric:
    if carrier.kind == "grid":
        return LazyMetric("usual", carrier, inf_value=carrier.step, unbounded=True)
    if carrier.kind == "symgrid":
        return LazyMetric("usual", carrier, sup_bound=TWO)
    raise InputError("the usual metric needs a one-dimensional coordinate carrier")


def kappa_metric(step=None) -> LazyMetric:
    return LazyMetric("kappa", symmetric_grid_carrier(step), sup_bound=TWO)


def cauchy_dn_metric(n, points: Sequence[Sequence]) -> LazyMetric:
    n = parse_rational(n)
    if n.denominator != 1 or n < 1:
        raise InputError("cauchy-dn index n must be an integer >= 1")
    return LazyMetric("cauchy", points_carrier(points), weight=Fraction(1, int(n)))


# name -> (required params, optional params, the error for a missing required
# one, constructor over the params in that order)
_BUILTINS = {
    "discrete": ((), (), None, discrete_metric),
    "usual-grid": (("step",), (), "usual-grid needs a positive rational step",
                   lambda step: usual_metric(grid_carrier(step))),
    "shrinking": ((), (), None, shrinking_metric),
    "kappa": ((), ("step",), None, kappa_metric),
    "cauchy-dn": (("n", "points"), (),
                  "cauchy-dn needs an index n and a list of plane points",
                  cauchy_dn_metric),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_lazy(name: str, params: Optional[dict] = None) -> LazyMetric:
    """Construct a named closed-form metric on its canonical carrier."""
    params = dict(params or {})
    if name not in _BUILTINS:
        raise InputError(f"unknown builtin metric {name!r}; choose from {BUILTIN_NAMES}")
    required, optional, missing, make = _BUILTINS[name]
    values = [params.pop(key, None) for key in required + optional]
    if any(v is None for v in values[:len(required)]):
        raise InputError(missing)
    if params:
        raise InputError(f"unexpected parameters: {sorted(params)}")
    return make(*values)


#: The deepest table builtin_metric materializes: its time, memory and
#: printed size grow with the square of the depth.
MAX_BUILTIN_DEPTH = 1000


def builtin_metric(name: str, params: Optional[dict], depth: int) -> MetricMatrix:
    """Materialize a named metric on the first `depth` canonical carrier points."""
    lazy = builtin_lazy(name, params)
    if depth > MAX_BUILTIN_DEPTH:
        raise InputError(f"depth {depth} exceeds the limit of "
                         f"{MAX_BUILTIN_DEPTH}")
    return lazy.materialize(depth)


def resolve_carrier(a: LazyMetric, b: LazyMetric) -> Carrier:
    """Common carrier for a pair: index-only families ride any carrier, and at
    most one side may impose a coordinate carrier."""
    specific = [m.carrier for m in (a, b) if m.carrier.kind != "indexed"]
    if len(specific) == 2 and specific[0] != specific[1]:
        both_sym = all(c.kind == "symgrid" for c in specific)
        steps = {c.step for c in specific if c.step is not None}
        if both_sym and len(steps) <= 1:
            return symmetric_grid_carrier(steps.pop() if steps else None)
        raise InputError("the two metrics live on different carriers")
    return specific[0] if specific else indexed_carrier()


# ---------------------------------------------------------------------------
# Depth-indexed comparison
# ---------------------------------------------------------------------------


def _depth_minima(d: LazyMetric, rho: LazyMetric,
                  depths: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """(min rho/d, min d/rho) over the distinct pairs of the first depths[k]
    carrier points, for each k, with no table built.

    Each pair is evaluated once per metric, straight from _PAIR_FNS. With
    r = rho(p, q) and e = d(p, q), the ratio r/e is P/Q for the integers
    P = r.n * e.d and Q = r.d * e.n, and d/rho is Q/P, so both minima are
    kept as integer pairs compared by cross-multiplication, starting from
    1/0 (above every ratio); one Fraction per direction is built per depth.
    The points of an indexed, grid or points2d carrier at one depth are a
    prefix of those at the next, so a depth only adds the pairs with a new
    point. A symgrid carrier moves its points with the depth, and so does a
    point's index, which index-reading families ride; each of its depths is
    evaluated afresh. Carrier.at runs for every depth in order, so its
    errors name the same depth as a table built per depth would.
    """
    depths = list(depths)
    if not depths:
        raise InputError("need at least one depth")
    if any(n < 2 for n in depths):
        raise InputError("all depths must be at least 2")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise InputError("depths must be strictly increasing")
    carrier = resolve_carrier(d, rho)
    pair_d, pair_rho = _PAIR_FNS[d.family], _PAIR_FNS[rho.family]
    a1, b1, a2, b2 = 1, 0, 1, 0          # min rho/d = a1/b1, min d/rho = a2/b2
    seen = 0                              # points whose pairs are folded in
    out = []
    for depth in depths:
        points = carrier.at(depth)
        if carrier.kind == "symgrid":
            a1, b1, a2, b2, seen = 1, 0, 1, 0, 0
        for j in range(seen, depth):
            q = points[j]
            for p in points[:j]:
                e, r = pair_d(d, p, q), pair_rho(rho, p, q)
                en, ed = e.as_integer_ratio()
                rn, rd = r.as_integer_ratio()
                num, den = rn * ed, rd * en
                if den <= 0 or num <= 0:
                    raise InputError(
                        f"distance {fmt(e if den <= 0 else r)} on the distinct "
                        f"pair (x{p[0]}, x{q[0]}) is not positive; not a metric")
                if num * b1 < a1 * den:
                    a1, b1 = num, den
                if den * b2 < a2 * num:
                    a2, b2 = den, num
        seen = depth
        out.append((Fraction(a1, b1), Fraction(a2, b2)))
    return out


def partial_comparing_function(d: LazyMetric, rho: LazyMetric,
                               depths: Sequence[int]) -> list[Fraction]:
    """Exact pair minima of rho/d over the first depths[k] carrier points.

    Each value is an upper bound for the carrier-wide infimum; when the
    truncated carriers are nested the sequence is nonincreasing.
    """
    return [c for c, _ in _depth_minima(d, rho, depths)]


def _direction_rules(d: LazyMetric, rho: LazyMetric) -> Optional[dict]:
    """Carrier-wide verdict for the comparing value of rho relative to d, when
    the exact family bounds decide it; None otherwise.

    positive: inf rho > 0 and d bounded above  => (inf rho / sup d) * d <= rho.
    zero:     inf rho = 0 and inf d > 0        => ratios along rho's vanishing
              pairs are forced below every bound.
    zero:     rho bounded above and d unbounded.
    """
    if rho.inf_value is not None and rho.inf_value > 0 and \
            d.sup_bound is not None and not d.unbounded:
        cert = rho.inf_value / d.sup_bound
        return {"status": "positive", "certificate": cert,
                "reason": "relative element bounded above while the argument's "
                          "distances are bounded away from zero"}
    if rho.inf_value == 0 and d.inf_value is not None and d.inf_value > 0:
        return {"status": "refuted", "value": ZERO,
                "reason": "the argument has vanishing infimum over distinct "
                          "pairs while the relative element does not"}
    if rho.sup_bound is not None and not rho.unbounded and d.unbounded:
        return {"status": "refuted", "value": ZERO,
                "reason": "the relative element is unbounded while the "
                          "argument is bounded"}
    return None


def classify_lazy_pair(d: LazyMetric, rho: LazyMetric,
                       depths: Sequence[int]) -> dict:
    """Classification of a countable-carrier pair.

    Each direction is decided carrier-wide when a bound rule applies;
    otherwise it is reported as a depth-indexed upper-bound sequence with a
    strictly-decreasing trend flag and counts as undetermined, never as zero.
    """
    both = _depth_minima(d, rho, depths)
    directions = {}
    for key, (x, y), seq in (
        ("secondRelativeFirst", (d, rho), [b[0] for b in both]),
        ("firstRelativeSecond", (rho, d), [b[1] for b in both]),
    ):
        rule = _direction_rules(x, y)
        entry = {
            "depths": list(depths),
            "upperBounds": [fmt(v) for v in seq],
            "strictlyDecreasing": all(b < a for a, b in zip(seq, seq[1:])),
        }
        if rule is None:
            entry["status"] = "undetermined"
        else:
            entry["status"] = rule["status"]
            entry["reason"] = rule["reason"]
            if rule["status"] == "positive":
                entry["certificate"] = fmt(rule["certificate"])
        directions[key] = entry
    s1 = directions["secondRelativeFirst"]["status"]
    s2 = directions["firstRelativeSecond"]["status"]
    if s1 == "positive" and s2 == "positive":
        label = MUTUALLY_DEPENDENT
    elif s1 == "positive" and s2 == "refuted":
        label = ONE_SIDED_SECOND_IN_FIRST
    elif s1 == "refuted" and s2 == "positive":
        label = ONE_SIDED_FIRST_IN_SECOND
    elif s1 == "refuted" and s2 == "refuted":
        label = ORDERLY_INDEPENDENT
    else:
        label = "undetermined-at-depth"
    return {
        "classification": label,
        "directions": directions,
        "first": d.describe(),
        "second": rho.describe(),
    }


# ---------------------------------------------------------------------------
# Incompleteness demonstration
# ---------------------------------------------------------------------------


def cauchy_incompleteness_demo(ns: Sequence[int],
                               point_pairs: Sequence[Sequence]) -> dict:
    """Exhibit a Cauchy family of plane metrics whose pointwise limit is not a
    metric.

    The family is d_n((u,u'),(v,v')) = |u-v| + (1/n)|u'-v'|. On the sampled
    pairs the oscillation between indices n and m is exactly
    |u'-v'| * |1/n - 1/m| <= C * |1/n - 1/m| with C the largest second-
    coordinate spread, and the pointwise limit |u-v| vanishes on any pair with
    equal first coordinates, which validate_metric rejects.
    """
    ns = sorted(set(ns))
    if len(ns) < 2 or ns[0] < 1:
        raise InputError("need at least two indices n >= 1")
    if not isinstance(point_pairs, list):
        raise InputError("point pairs must be a list of [[u,u'],[v,v']] pairs")
    pairs = [_plane_points(entry) for entry in point_pairs]
    if any(len(pair) != 2 for pair in pairs):
        raise InputError("a point pair holds exactly two plane points")
    if not pairs:
        raise InputError("need at least one sample point pair")
    witnesses = [(x, y) for x, y in pairs if x[0] == y[0] and x[1] != y[1]]
    if not witnesses:
        raise InputError(
            "need a witness pair with equal first coordinates and distinct "
            "second coordinates"
        )

    spread = max(abs(x[1] - y[1]) for x, y in pairs)

    def dn(n: int, x, y) -> Fraction:
        return abs(x[0] - y[0]) + Fraction(1, n) * abs(x[1] - y[1])

    checks = []
    bound_ok = True
    for n, m in combinations(ns, 2):
        budget = spread * abs(Fraction(1, n) - Fraction(1, m))
        worst = max(abs(dn(n, x, y) - dn(m, x, y)) for x, y in pairs)
        ok = worst <= budget
        bound_ok = bound_ok and ok
        checks.append({
            "n": n, "m": m,
            "maxGap": fmt(worst),
            "budget": fmt(budget),
            "holds": ok,
        })

    points = []
    for x, y in pairs:
        for p in (x, y):
            if p not in points:
                points.append(p)
    labels = tuple(f"({fmt(p[0])},{fmt(p[1])})" for p in points)
    limit_rows = tuple(
        tuple(abs(p[0] - q[0]) for q in points) for p in points
    )
    limit = MetricMatrix.from_rows(labels, limit_rows)
    verdict = validate_metric(limit)

    return {
        "indices": ns,
        "oscillationConstant": fmt(spread),
        "cauchyChecks": checks,
        "cauchyBoundHolds": bound_ok,
        "limitMatrix": limit.to_json(),
        "limitValidation": verdict,
        "limitIsMetric": verdict["pass"],
        "demonstratesIncompleteness": bound_ok and not verdict["pass"],
    }


# ---------------------------------------------------------------------------
# Seeded random metrics (shared by the verifier samples and the test oracles)
# ---------------------------------------------------------------------------


def random_metric(rng, labels: Sequence[str]) -> MetricMatrix:
    """Random rational metric: a scaled mix of a box table (all entries within
    a factor two of each other, so triangle holds) and a star table
    d(i,j) = a_i + a_j."""
    n = len(labels)
    style = rng.choice(("box", "star", "mix"))
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 4))

    def box_entry():
        return 1 + Fraction(rng.randint(0, 12), 12)

    weights = [Fraction(rng.randint(1, 6), 2) for _ in range(n)]
    upper = [[ZERO] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if style == "box":
                v = box_entry()
            elif style == "star":
                v = weights[i] + weights[j]
            else:
                v = box_entry() + weights[i] + weights[j]
            upper[i].append(scale * v)
    return _from_upper(labels, upper)
