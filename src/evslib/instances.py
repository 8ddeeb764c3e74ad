"""Concrete instances for the axiom verifier and the order tools.

Four carriers are wired up: exact metrics on a finite labeled set, weighted
sup norms probed on a finite vector sample (see norms.py), the half-line cone
[0,inf) x V, and finite point sets of a fixed dimension under Minkowski sum.
Two deliberately broken metric variants (reversed order, scaling without the
absolute value) exist to exercise the failure paths.

The instances that build_instance returns hold their elements in an exact
integer form: a rational tuple as (numerators, den) for metrics (a table's
MetricMatrix.form), norms and the cone, and a point set as (frozenset of
numerator tuples, den) for the hyperspace. Both forms are canonical, so
`equal` is tuple equality. Fractions appear only at the boundaries (JSON,
the seeded samples and cone `lsolve`). The verifier and the order tools
share each instance; the metric one adds the comparing function of
metrics.py, which reads its two forms as MetricMatrix tables.

Samplers are deterministic in their seed and are built so that the
sample-relative minimal structure matches the carrier-wide one: the cone
sampler pairs every (r, v) with its primitive (0, v), and the hyperspace
sampler pairs every set with one singleton subset. Without those companions
the A5/A6 checks would be refuted by sampling artifacts rather than by the
algebra.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from .core import EvsInstance
from .errors import InputError
from .metrics import (
    MetricMatrix,
    carrier_labels,
    comparing_function_metric,
    random_metric,
    scale_metric,
    transform_bounded,
    transform_min,
)
from .rationals import (_add, _leq, _reduced, _scale, fmt, fmt_ratio,
                        parse_rational, parse_rationals, to_fractions, to_ints)

ZERO = Fraction(0)

#: Default scalar set: contains 0, 1, -1, values inside and outside the unit
#: ball, and a negative non-unit for the homogeneity checks.
DEFAULT_SCALARS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
    Fraction(-1, 2), Fraction(2), Fraction(-3, 2),
)


# ---------------------------------------------------------------------------
# Pointwise rational tuples
# ---------------------------------------------------------------------------


def _abs_scale(alpha, a):
    return _scale(abs(alpha.numerator), alpha.denominator, a)


def rational_tuple_instance(name: str, width: int, mismatch: str,
                            element_to_json, element_from_json, *,
                            scale=_abs_scale, leq=_leq,
                            **hooks) -> EvsInstance:
    """Tuples of `width` rationals under pointwise add, with the all-zero
    tuple as zero; an operand of another width raises InputError(mismatch).
    By default the scalar action is |alpha|-scaling and the order is the
    pointwise one; `scale(alpha, a)` and `leq(a, b)` replace them, and are
    given operands of the right width. `hooks` are the instance's optional
    `comparing`, `eps_independence` and `lsolve`.

    Elements are in the canonical integer form of rationals.to_ints and the
    ops are the integer kernel of rationals.py; `equal` is tuple equality,
    and the JSON converters are given that form too.
    """

    def check(a):
        if len(a[0]) != width:
            raise InputError(mismatch)
        return a

    return EvsInstance(
        name=name,
        zero=((0,) * width, 1),
        add=lambda a, b: _add(check(a), check(b)),
        scale=lambda al, a: scale(al, check(a)),
        leq=lambda a, b: leq(check(a), check(b)),
        equal=lambda a, b: check(a) == check(b),
        element_to_json=element_to_json,
        element_from_json=element_from_json,
        **hooks,
    )


# ---------------------------------------------------------------------------
# Metrics on a finite carrier
# ---------------------------------------------------------------------------
#
# A metric is the plain tuple MetricMatrix.form, which keeps the verifier's
# exhaustive pair/triple loops cheap; reports render it back as a full
# matrix, and the order tools' comparing value reads it as a MetricMatrix.


def metric_packed_instance(labels: Sequence[str], kind: str = "metrics",
                           **ops) -> EvsInstance:
    """The metric instance on `labels`. A mutant names its `kind` and gives
    the `scale` or `leq` that replaces the metric one (see
    rational_tuple_instance)."""
    labels = tuple(labels)
    mismatch = "element is over a different carrier"

    def from_json(doc) -> tuple:
        m = MetricMatrix.from_json(doc)
        if m.labels != labels:
            raise InputError(mismatch)
        return m.form

    return rational_tuple_instance(
        f"{kind}[{len(labels)}-point carrier]",
        len(MetricMatrix.zero(labels).form[0]),
        mismatch,
        element_to_json=lambda a: MetricMatrix(labels, a).to_json(),
        element_from_json=from_json,
        comparing=lambda x, y: comparing_function_metric(
            MetricMatrix(labels, x), MetricMatrix(labels, y)),
        **ops,
    )


def metric_reversed_order_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: the pointwise order is flipped. Zero becomes a maximum, so no
    sampled element has an additively characterized minimal below it."""
    return metric_packed_instance(labels, "metrics-reversed-order",
                                  leq=lambda a, b: _leq(b, a))


def metric_no_abs_scale_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: scalar action without the absolute value; homogeneity breaks
    at alpha = -1."""
    return metric_packed_instance(
        labels, "metrics-no-abs-scale",
        scale=lambda al, a: _scale(al.numerator, al.denominator, a))


def seeded_metric_matrices(labels: Sequence[str], seed: int,
                           count: int) -> list[MetricMatrix]:
    """Deterministic metric sample: the zero table first, then random metrics
    interleaved with order-comparable companions (doubles, bounded and
    truncated transforms) so the compatibility axioms see comparable pairs."""
    rng = random.Random(seed)
    labels = tuple(labels)
    out: list[MetricMatrix] = [MetricMatrix.zero(labels)]
    while len(out) < count:
        m = random_metric(rng, labels)
        out.append(m)
        if len(out) < count and len(out) % 4 == 1:
            out.append(scale_metric(Fraction(2), m))
        if len(out) < count and len(out) % 8 == 3:
            out.append(transform_bounded(m))
        if len(out) < count and len(out) % 8 == 7:
            out.append(transform_min(m))
    return out[:count]


def seeded_metric_sample(labels: Sequence[str], seed: int, count: int) -> list:
    return [m.form for m in seeded_metric_matrices(labels, seed, count)]


# ---------------------------------------------------------------------------
# The cone [0, inf) x V
# ---------------------------------------------------------------------------
#
# A cone element (r, v) is the rational tuple (r, *v) of width dim + 1 in the
# integer form above: it shares add, the width check and equality with the
# pointwise instances, and brings its own scale and leq.


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise InputError(f"dimension must be at least 1, not {dim}")
    if dim > MAX_DIM:
        raise InputError(f"dimension {dim} exceeds the limit of {MAX_DIM}")


def _parse_vec(doc, dim: int) -> tuple:
    vec = tuple(parse_rationals(doc, "vector"))
    if len(vec) != dim:
        raise InputError(f"vector dimension {len(vec)} != {dim}")
    return vec


def cone_element(r, v) -> tuple:
    """The integer form of the cone element (r, v)."""
    return to_ints((r, *v))


def _cone_from_json(doc, dim: int) -> tuple:
    if not isinstance(doc, dict) or "r" not in doc or "v" not in doc:
        raise InputError('cone element needs "r" and "v"')
    r = parse_rational(doc["r"])
    if r < 0:
        raise InputError(f"cone radius r must be nonnegative, not {fmt(r)}")
    return cone_element(r, _parse_vec(doc["v"], dim))


def _cone_to_json(e) -> dict:
    r, *v = to_fractions(e)
    return {"r": fmt(r), "v": [fmt(x) for x in v]}


def _cone_scale(alpha, a):
    """(|alpha| r, alpha v)."""
    xs, den = a
    p = alpha.numerator
    nums = [p * x for x in xs]
    if p < 0:
        nums[0] = -nums[0]
    return _reduced(tuple(nums), den * alpha.denominator)


def _cone_leq(a, b):
    """r <= s and v == w."""
    (xs, dx), (ys, dy) = a, b
    if dx == dy:
        return xs[0] <= ys[0] and xs[1:] == ys[1:]
    return xs[0] * dy <= ys[0] * dx and all(
        x * dy == y * dx for x, y in zip(xs[1:], ys[1:]))


def _cone_lsolve(x, z, primitives):
    """Find alpha != 0 and a primitive p among the candidates with
    z >= alpha*x + p; cone order pins p = (0, w - alpha*v)."""
    (r, *v), (s, *w) = to_fractions(x), to_fractions(z)
    if r == 0:
        return None
    for p in primitives:
        pr, *pv = to_fractions(p)
        if pr != 0:
            continue
        target = tuple(wc - pc for wc, pc in zip(w, pv))
        alphas = {tc / vc for tc, vc in zip(target, v) if vc != 0}
        if len(alphas) > 1:
            continue
        if alphas:
            alpha = alphas.pop()
            if any(vc == 0 and tc != 0 for tc, vc in zip(target, v)):
                continue
        else:
            if any(tc != 0 for tc in target):
                continue
            alpha = s / r
            if alpha == 0:
                continue
        if alpha != 0 and abs(alpha) * r <= s:
            return alpha, p
    return None


def cone_instance(dim: int) -> EvsInstance:
    """(r,a) + (s,b) = (r+s, a+b); alpha(r,a) = (|alpha| r, alpha a);
    (r,a) <= (s,b) iff r <= s and a = b. The minimal elements are the
    slice {0} x V, so this instance is single primitive but not zero
    primitive."""
    _check_dim(dim)
    return rational_tuple_instance(
        f"cone[dim {dim}]", dim + 1, "cone element of mismatched dimension",
        element_to_json=_cone_to_json,
        element_from_json=lambda doc: _cone_from_json(doc, dim),
        scale=_cone_scale, leq=_cone_leq, lsolve=_cone_lsolve)


def seeded_cone_sample(dim: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = [(ZERO, (ZERO,) * dim)]

    def rnd_vec():
        return tuple(
            Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(dim)
        )

    while len(out) < count:
        v = rnd_vec()
        r = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
        out.append((ZERO, v))
        if len(out) < count:
            out.append((r, v))
        if len(out) < count and rng.random() < 0.4:
            out.append((2 * r, v))
    return [cone_element(r, v) for r, v in out[:count]]


# ---------------------------------------------------------------------------
# Finite point sets under Minkowski sum
# ---------------------------------------------------------------------------
#
# A point set is held as (points, den): a frozenset of integer tuples, the
# numerators of each point over one common positive denominator, with
# gcd(den, every coordinate) == 1. Like the tuple form this one is canonical,
# so `equal` is tuple equality and hashing is over ints.


def point_set(points) -> tuple:
    """The integer form of a collection of rational points."""
    points = list(points)
    den = lcm(*(x.denominator for p in points for x in p))
    return frozenset(
        tuple([x.numerator * (den // x.denominator) for x in p])
        for p in points), den


def _set_reduced(pts: frozenset, den: int) -> tuple:
    g = gcd(den, *chain.from_iterable(pts))
    if g == 1:
        return pts, den
    return frozenset(tuple([x // g for x in p]) for p in pts), den // g


def _minkowski_sum(a, b):
    (ps, dp), (qs, dq) = a, b
    if dp != dq:
        g = gcd(dp, dq)
        mp, mq = dq // g, dp // g
        ps = [tuple([x * mp for x in p]) for p in ps]
        qs = [tuple([y * mq for y in q]) for q in qs]
        dp *= mp
    return _set_reduced(
        frozenset([tuple(map(operator.add, p, q)) for p in ps for q in qs]),
        dp)


def _point_scale(alpha, a):
    """alpha * A, with the sign of alpha kept."""
    ps, den = a
    p = alpha.numerator
    return _set_reduced(frozenset([tuple([p * x for x in pt]) for pt in ps]),
                        den * alpha.denominator)


def _subset(a, b):
    """A is a subset of B. The canonical denominator of a subset divides that
    of the whole set, so any other pair of denominators answers False."""
    (ps, dp), (qs, dq) = a, b
    if dq % dp:
        return False
    m = dq // dp
    if m == 1:
        return ps <= qs
    return len(ps) <= len(qs) and all(
        tuple([x * m for x in p]) in qs for p in ps)


def _point_set_to_json(a) -> list:
    pts, den = a
    return sorted([fmt_ratio(x, den) for x in p] for p in pts)


def _point_list(doc) -> list:
    if not isinstance(doc, list):
        raise InputError("point set must be a list of points")
    return doc


def hyperspace_instance(dim: int) -> EvsInstance:
    """A + B = {a+b}, alpha A = {alpha a} (no absolute value: scaling may
    reflect the set), A <= B iff A is a subset of B. The zero is the origin
    singleton; the minimal elements are exactly the singletons."""
    _check_dim(dim)

    def check(a):
        if not a[0]:
            raise InputError("point sets must be nonempty")
        for p in a[0]:
            if len(p) != dim:
                raise InputError("point of mismatched dimension")
        return a

    return EvsInstance(
        name=f"hyperspace[dim {dim}]",
        zero=(frozenset({(0,) * dim}), 1),
        add=lambda a, b: _minkowski_sum(check(a), check(b)),
        scale=lambda al, a: _point_scale(al, check(a)),
        leq=lambda a, b: _subset(check(a), check(b)),
        equal=lambda a, b: check(a) == check(b),
        element_to_json=_point_set_to_json,
        element_from_json=lambda doc: point_set(
            _parse_vec(p, dim) for p in _point_list(doc)),
    )


def seeded_hyper_sample(dim: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = [frozenset({(ZERO,) * dim})]

    def rnd_point():
        return tuple(
            Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(dim)
        )

    while len(out) < count:
        size = rng.randint(1, 3)
        pts = set()
        while len(pts) < size:
            pts.add(rnd_point())
        a = frozenset(pts)
        if len(a) > 1 and len(out) + 2 > count:
            a = frozenset({min(a)})  # no room left for the singleton companion
        out.append(a)
        if len(a) > 1:
            out.append(frozenset({min(a)}))
    return [point_set(a) for a in out[:count]]


# ---------------------------------------------------------------------------
# Registry used by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


#: The largest sample, metric carrier and norms depth build_instance takes,
#: and the largest dimension of a cone or hyperspace instance: the
#: verifier's time grows with the cube of the sample, the square of the
#: carrier, and the depth and the dimension (the width of every element).
MAX_SAMPLE = 100
MAX_CARRIER = 24
MAX_DEPTH = 128
MAX_DIM = 64

_METRIC_INSTANCES = {
    "metrics": metric_packed_instance,
    "metrics-reversed-order": metric_reversed_order_instance,
    "metrics-no-abs-scale": metric_no_abs_scale_instance,
}


def build_instance(name: str, *, carrier: int = 6, depth: int = 12,
                   dim: int = 2, seed: int = 0, sample: int = 50):
    """Return (instance, sample, scalars) for a named instance."""
    if sample > MAX_SAMPLE:
        raise InputError(f"sample size {sample} exceeds the limit of "
                         f"{MAX_SAMPLE}")
    if name in _METRIC_INSTANCES:
        if carrier < 2:
            raise InputError(f"a carrier needs two points, not {carrier}")
        if carrier > MAX_CARRIER:
            raise InputError(f"carrier size {carrier} exceeds the limit of "
                             f"{MAX_CARRIER}")
        labels = carrier_labels(carrier)
        return (_METRIC_INSTANCES[name](labels),
                seeded_metric_sample(labels, seed, sample), DEFAULT_SCALARS)
    if name == "norms":
        if depth > MAX_DEPTH:
            raise InputError(f"depth {depth} exceeds the limit of {MAX_DEPTH}")
        from .norms import norm_table_instance, seeded_norm_sample
        probes, tables = seeded_norm_sample(depth, seed, sample)
        return (norm_table_instance(probes), [to_ints(t) for t in tables],
                DEFAULT_SCALARS)
    if name == "cone":
        return (cone_instance(dim), seeded_cone_sample(dim, seed, sample),
                DEFAULT_SCALARS)
    if name == "hyperspace":
        return (hyperspace_instance(dim), seeded_hyper_sample(dim, seed, sample),
                DEFAULT_SCALARS)
    raise InputError(
        f"unknown instance {name!r}; choose from metrics, norms, cone, "
        f"hyperspace, metrics-reversed-order, metrics-no-abs-scale"
    )
