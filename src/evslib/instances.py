"""Concrete instances for the axiom verifier and the order tools.

Four carriers are wired up: exact metrics on a finite labeled set, weighted
sup norms probed on a finite vector sample (see norms.py), the half-line cone
[0,inf) x V, and finite point sets of a fixed dimension under Minkowski sum.
Two deliberately broken metric variants (reversed order, scaling without the
absolute value) exist to exercise the failure paths.

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
from dataclasses import replace
from fractions import Fraction
from math import gcd
from typing import Sequence

from .core import EvsInstance
from .errors import InputError
from .metrics import (
    MetricMatrix,
    add_metrics,
    carrier_labels,
    comparing_function_metric,
    equal_metrics,
    leq_metrics,
    random_metric,
    scale_metric,
    transform_bounded,
    transform_min,
)
from .rationals import (fmt, parse_rational, parse_rationals, to_fractions,
                        to_ints)

ZERO = Fraction(0)

#: Default scalar set: contains 0, 1, -1, values inside and outside the unit
#: ball, and a negative non-unit for the homogeneity checks.
DEFAULT_SCALARS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
    Fraction(-1, 2), Fraction(2), Fraction(-3, 2),
)


# ---------------------------------------------------------------------------
# Pointwise rational tuples: the exact integer kernel
# ---------------------------------------------------------------------------
#
# An element of a pointwise instance is a rational tuple in canonical integer
# form (numerators, den), as made by rationals.to_ints: den > 0 and
# gcd(den, *numerators) == 1. Every rational tuple has exactly one such form,
# so plain tuple equality is exact equality. The ops never build a Fraction:
# add and scale work on numerators and reduce their result once with
# math.gcd, and leq cross-multiplies. Fractions appear only at the
# boundaries (JSON, the seeded samples, the MetricMatrix form).


def _reduced(nums: tuple, den: int) -> tuple:
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple([x // g for x in nums]), den // g


def _add(a, b):
    (xs, dx), (ys, dy) = a, b
    if dx == dy:
        return _reduced(tuple(map(operator.add, xs, ys)), dx)
    g = gcd(dx, dy)
    mx, my = dy // g, dx // g
    return _reduced(tuple([x * mx + y * my for x, y in zip(xs, ys)]), dx * mx)


def _scale(alpha: Fraction, a):
    """alpha * a, with the sign of alpha kept."""
    xs, den = a
    p = alpha.numerator
    return _reduced(tuple([p * x for x in xs]), den * alpha.denominator)


def _leq(a, b):
    (xs, dx), (ys, dy) = a, b
    if dx == dy:
        return all(map(operator.le, xs, ys))
    return all(x * dy <= y * dx for x, y in zip(xs, ys))


def rational_tuple_instance(name: str, width: int, mismatch: str,
                            element_to_json, element_from_json) -> EvsInstance:
    """Tuples of `width` rationals under pointwise add, |alpha|-scaling and
    order, with the all-zero tuple as zero; an operand of another width
    raises InputError(mismatch).

    Elements are in the canonical integer form described above, so `equal`
    is tuple equality; the JSON converters are given that form too.
    """

    def check(a):
        if len(a[0]) != width:
            raise InputError(mismatch)
        return a

    return EvsInstance(
        name=name,
        zero=((0,) * width, 1),
        add=lambda a, b: _add(check(a), check(b)),
        scale=lambda al, a: _scale(abs(al), check(a)),
        leq=lambda a, b: _leq(check(a), check(b)),
        equal=lambda a, b: check(a) == check(b),
        element_to_json=element_to_json,
        element_from_json=element_from_json,
    )


# ---------------------------------------------------------------------------
# Metrics on a finite carrier
# ---------------------------------------------------------------------------
#
# For the verifier a metric is its packed upper triangle (the rationals
# d(x_i, x_j), i < j, row by row) in integer form, which keeps the exhaustive
# pair/triple loops cheap; reports render it back as a full matrix. The order
# tools use the MetricMatrix form directly, where the exact comparing
# function lives.


def pack_matrix(m: MetricMatrix) -> tuple:
    n = m.size
    return to_ints([m.rows[i][j] for i in range(n) for j in range(i + 1, n)])


def unpack_matrix(labels: Sequence[str], packed: tuple) -> MetricMatrix:
    n = len(labels)
    rows = [[ZERO] * n for _ in range(n)]
    it = iter(to_fractions(packed))
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            rows[i][j] = rows[j][i] = v
    return MetricMatrix(tuple(labels), tuple(tuple(r) for r in rows))


def metric_packed_instance(labels: Sequence[str]) -> EvsInstance:
    labels = tuple(labels)
    mismatch = "element is over a different carrier"

    def from_json(doc) -> tuple:
        m = MetricMatrix.from_json(doc)
        if m.labels != labels:
            raise InputError(mismatch)
        return pack_matrix(m)

    return rational_tuple_instance(
        f"metrics[{len(labels)}-point carrier]",
        len(labels) * (len(labels) - 1) // 2,
        mismatch,
        element_to_json=lambda a: unpack_matrix(labels, a).to_json(),
        element_from_json=from_json,
    )


def metric_matrix_instance(labels: Sequence[str]) -> EvsInstance:
    labels = tuple(labels)
    return EvsInstance(
        name=f"metrics[{len(labels)}-point carrier]",
        zero=MetricMatrix.zero(labels),
        add=add_metrics,
        scale=scale_metric,
        leq=leq_metrics,
        equal=equal_metrics,
        element_to_json=lambda m: m.to_json(),
        element_from_json=MetricMatrix.from_json,
        comparing=comparing_function_metric,
    )


def metric_reversed_order_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: the pointwise order is flipped. Zero becomes a maximum, so no
    sampled element has an additively characterized minimal below it."""
    base = metric_packed_instance(labels)
    return replace(
        base,
        name=f"metrics-reversed-order[{len(labels)}-point carrier]",
        leq=lambda a, b: base.leq(b, a),
    )


def metric_no_abs_scale_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: scalar action without the absolute value; homogeneity breaks
    at alpha = -1."""
    return replace(
        metric_packed_instance(labels),
        name=f"metrics-no-abs-scale[{len(labels)}-point carrier]",
        scale=_scale,
    )


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
    return [pack_matrix(m) for m in seeded_metric_matrices(labels, seed, count)]


# ---------------------------------------------------------------------------
# The cone [0, inf) x V
# ---------------------------------------------------------------------------


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise InputError(f"dimension must be at least 1, not {dim}")


def _parse_vec(doc, dim: int) -> tuple:
    vec = tuple(parse_rationals(doc, "vector"))
    if len(vec) != dim:
        raise InputError(f"vector dimension {len(vec)} != {dim}")
    return vec


def _cone_from_json(doc, dim: int) -> tuple:
    if not isinstance(doc, dict) or "r" not in doc or "v" not in doc:
        raise InputError('cone element needs "r" and "v"')
    return parse_rational(doc["r"]), _parse_vec(doc["v"], dim)


def cone_instance(dim: int) -> EvsInstance:
    """(r,a) + (s,b) = (r+s, a+b); alpha(r,a) = (|alpha| r, alpha a);
    (r,a) <= (s,b) iff r <= s and a = b. The minimal elements are the
    slice {0} x V, so this instance is single primitive but not zero
    primitive."""
    _check_dim(dim)
    zero = (ZERO, (ZERO,) * dim)

    def check(e):
        r, v = e
        if len(v) != dim:
            raise InputError("cone element of mismatched dimension")
        return e

    def add(a, b):
        (r, va), (s, vb) = check(a), check(b)
        return (r + s, tuple(x + y for x, y in zip(va, vb)))

    def scale(al, a):
        r, v = check(a)
        return (abs(al) * r, tuple(al * x for x in v))

    def leq(a, b):
        (r, va), (s, vb) = check(a), check(b)
        return r <= s and va == vb

    def lsolve(x, z, primitives):
        """Find alpha != 0 and a primitive p among the candidates with
        z >= alpha*x + p; cone order pins p = (0, w - alpha*v)."""
        (r, v) = x
        (s, w) = z
        if r == 0:
            return None
        for p in primitives:
            (pr, pv) = p
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

    return EvsInstance(
        name=f"cone[dim {dim}]",
        zero=zero,
        add=add,
        scale=scale,
        leq=leq,
        equal=lambda a, b: check(a) == check(b),
        element_to_json=lambda e: {"r": fmt(e[0]), "v": [fmt(x) for x in e[1]]},
        element_from_json=lambda doc: _cone_from_json(doc, dim),
        lsolve=lsolve,
    )


def seeded_cone_sample(dim: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    zero = (ZERO, (ZERO,) * dim)
    out = [zero]

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
    return out[:count]


# ---------------------------------------------------------------------------
# Finite point sets under Minkowski sum
# ---------------------------------------------------------------------------


def _point_list(doc) -> list:
    if not isinstance(doc, list):
        raise InputError("point set must be a list of points")
    return doc


def hyperspace_instance(dim: int) -> EvsInstance:
    """A + B = {a+b}, alpha A = {alpha a} (no absolute value: scaling may
    reflect the set), A <= B iff A is a subset of B. The zero is the origin
    singleton; the minimal elements are exactly the singletons."""
    _check_dim(dim)
    zero = frozenset({(ZERO,) * dim})

    def check(a):
        if not a:
            raise InputError("point sets must be nonempty")
        for p in a:
            if len(p) != dim:
                raise InputError("point of mismatched dimension")
        return a

    def add(a, b):
        return frozenset(
            tuple(x + y for x, y in zip(p, q)) for p in check(a) for q in check(b)
        )

    def scale(al, a):
        return frozenset(tuple(al * x for x in p) for p in check(a))

    return EvsInstance(
        name=f"hyperspace[dim {dim}]",
        zero=zero,
        add=add,
        scale=scale,
        leq=lambda a, b: check(a) <= check(b),
        equal=lambda a, b: check(a) == check(b),
        element_to_json=lambda a: sorted([fmt(x) for x in p] for p in a),
        element_from_json=lambda doc: frozenset(
            _parse_vec(p, dim) for p in _point_list(doc)
        ),
    )


def seeded_hyper_sample(dim: int, seed: int, count: int) -> list:
    rng = random.Random(seed)
    zero = frozenset({(ZERO,) * dim})
    out = [zero]

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
    return out[:count]


# ---------------------------------------------------------------------------
# Registry used by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


def build_instance(name: str, *, carrier: int = 6, depth: int = 12,
                   dim: int = 2, seed: int = 0, sample: int = 50):
    """Return (instance, sample, scalars) for a named instance."""
    if name == "metrics":
        labels = carrier_labels(carrier)
        return (metric_packed_instance(labels),
                seeded_metric_sample(labels, seed, sample), DEFAULT_SCALARS)
    if name == "metrics-reversed-order":
        labels = carrier_labels(carrier)
        return (metric_reversed_order_instance(labels),
                seeded_metric_sample(labels, seed, sample), DEFAULT_SCALARS)
    if name == "metrics-no-abs-scale":
        labels = carrier_labels(carrier)
        return (metric_no_abs_scale_instance(labels),
                seeded_metric_sample(labels, seed, sample), DEFAULT_SCALARS)
    if name == "norms":
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
