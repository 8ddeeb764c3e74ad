"""Concrete instances for the axiom verifier and the order tools.

This is the one module that turns a name into an instance: build_instance
maps the verifier's names, and universe_from_json the order tools' universe
kinds. Four carriers are wired up: exact metrics on a finite labeled set,
weighted sup norms (norms.py), probed on a finite vector sample or, for the
order tools, keyed by their family parameters, the half-line cone [0,inf)
x V, and finite point sets of a fixed dimension under Minkowski sum. Two
deliberately broken metric variants (reversed order, scaling without the
absolute value) exist to exercise the failure paths.

The instances that build_instance returns, and their samplers, hold
elements in an exact integer form: a rational tuple as (numerators, den)
for metrics (a table's MetricMatrix.form), norms and the cone, and a point
set as (frozenset of numerator tuples, den) for the hyperspace. Both forms
are canonical, so `equal` is tuple equality; Fractions appear only at the
boundaries (JSON, family norm weights, cone `lsolve`). These instances have
`zero`, `leq`, `equal`, JSON and hooks, and no `add` or `scale`: only the
instance that the verifier's `pack` hook returns adds and scales
(packed.py). Metric sums and scalings, metrics.add_metrics and
scale_metric, run the integer kernel of rationals.py.

Each element is checked once, where it enters: `element_from_json` rejects
a table over another carrier, a vector or value table of another width and
an empty point set, and the samplers build elements in shape. The ops are
the bare integer kernel and check nothing; given operands of the wrong
shape, their result is undefined.

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
from .norms import (FSVector, NormFamilyParams, PartitionSpec, WeightMap,
                    eval_weighted_norm, independence_witness)
from .order import Universe
from .rationals import (_leq, _reduced, _scale, fmt, fmt_ratio,
                        parse_rational, parse_rationals, require_int,
                        to_fractions, to_ints)

#: Default scalar set: contains 0, 1, -1, values inside and outside the unit
#: ball, and a negative non-unit for the homogeneity checks.
DEFAULT_SCALARS = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
    Fraction(-1, 2), Fraction(2), Fraction(-3, 2),
)


# ---------------------------------------------------------------------------
# Pointwise rational tuples
# ---------------------------------------------------------------------------


def rational_tuple_instance(name: str, width: int, element_to_json,
                            element_from_json, *, scale: str = "abs",
                            leq=(_leq, "pointwise"), **hooks) -> EvsInstance:
    """Tuples of `width` rationals under pointwise add, with the all-zero
    tuple as zero. By default the scalar action is |alpha|-scaling and the
    order is the pointwise one. `scale` names another scalar action of
    packed.py, and `leq` is a pair of another order on integer forms and
    the name of that order in packed.py. `hooks` are the instance's
    optional `comparing`, `eps_independence` and `lsolve`.

    Elements are in the canonical integer form of rationals.to_ints and
    `leq` is the integer kernel of rationals.py; `equal` is tuple equality,
    and the JSON converters are given that form too. `element_from_json`
    must reject a tuple of another width. The `pack` hook gives the
    verifier the same instance on packed ints, with its add and scale
    (packed.pack_tuples).
    """
    leq, packed_leq = leq

    def pack(sample: list, scalars: list) -> tuple:
        from .packed import pack_tuples
        return pack_tuples(
            name, width, lambda nums, den: element_to_json(
                _reduced(tuple(nums), den)),
            scale, packed_leq, sample, scalars)

    return EvsInstance(
        name=name,
        zero=((0,) * width, 1),
        leq=leq,
        equal=operator.eq,
        element_to_json=element_to_json,
        element_from_json=element_from_json,
        pack=pack,
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
    parsed = {}   # form -> the table read, which keeps its printed text

    def from_json(doc) -> tuple:
        m = MetricMatrix.from_json(doc)
        if m.labels != labels:
            raise InputError("element is over a different carrier")
        parsed[m.form] = m
        return m.form

    return rational_tuple_instance(
        f"{kind}[{len(labels)}-point carrier]",
        len(MetricMatrix.zero(labels).form[0]),
        element_to_json=lambda a: parsed.get(a) or MetricMatrix(labels, a),
        element_from_json=from_json,
        comparing=lambda x, y: comparing_function_metric(
            MetricMatrix(labels, x), MetricMatrix(labels, y)),
        **ops,
    )


def metric_reversed_order_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: the pointwise order is flipped. Zero becomes a maximum, so no
    sampled element has an additively characterized minimal below it."""
    return metric_packed_instance(
        labels, "metrics-reversed-order",
        leq=(lambda a, b: _leq(b, a), "reversed"))


def metric_no_abs_scale_instance(labels: Sequence[str]) -> EvsInstance:
    """Mutant: scalar action without the absolute value; homogeneity breaks
    at alpha = -1."""
    return metric_packed_instance(labels, "metrics-no-abs-scale",
                                  scale="signed")


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
# Weighted sup norms (norms.py): probe value tables and family norms
# ---------------------------------------------------------------------------


def norm_table_instance(width: int) -> EvsInstance:
    """Norms probed on a fixed finite vector sample of `width` probes.

    Sums and scalings of norms act pointwise on values, so exact value tables
    are closed under the operations and faithfully decide the pointwise
    axioms; the order is the pointwise one. The all-zero table is the zero
    element O. Like the packed instances, it reads no JSON: no command
    takes a norm value table as input.
    """
    return rational_tuple_instance(
        f"norms[{width} probes]", width,
        element_to_json=lambda a: [fmt(x) for x in to_fractions(a)],
        element_from_json=None,
    )


def seeded_norm_sample(depth: int, seed: int, count: int) -> tuple[int, list]:
    """The number of probes and a seeded sample of norm value tables on
    them, in integer form: the units of the enumerated prefix and six
    mixed-support vectors probe two family norms, random weight maps and
    their doubles. An entry is eval_weighted_norm of the norm at the
    probe."""
    rng = random.Random(seed)
    part = PartitionSpec(depth)
    names = [f"h{k}" for k in range(depth)]
    probes = [FSVector(((n, Fraction(1)),)) for n in names]
    for _ in range(6):
        support = rng.sample(names, rng.randint(2, 3))
        probes.append(FSVector.from_dict({
            n: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            for n in support}))

    def values(w) -> tuple:
        return to_ints([eval_weighted_norm(w, x) for x in probes])

    elements = [((0,) * len(probes), 1)]
    members = part.b_members()
    # C leaves a backbone member out: at depth 4, C is {h0}
    for k, gamma in ((1, 2), (min(2, len(members) - 1), 3)):
        elements.append(values(NormFamilyParams(part, members[:k], gamma)))
    while len(elements) < count:
        elements.append(values(WeightMap({
            n: Fraction(rng.randint(1, 8), rng.randint(1, 4))
            for n in names})))
        if len(elements) < count and len(elements) % 5 == 2:
            elements.append(_scale(2, 1, elements[-1]))
    return len(probes), elements[:count]


def norm_family_instance(partition: PartitionSpec) -> EvsInstance:
    """Family norms as order-tool elements keyed by their parameters; the only
    supported comparisons are epsilon-qualified independence witnesses."""

    def unsupported(*_args):
        raise InputError("family norms support only epsilon-witness "
                         "comparisons")

    def from_json(doc) -> NormFamilyParams:
        params = NormFamilyParams.from_json(doc)
        if params.partition.depth != partition.depth:
            raise InputError("family element uses a different depth")
        return params

    return EvsInstance(
        name=f"norm-family[depth {partition.depth}]",
        zero=None,
        leq=unsupported,
        equal=unsupported,
        element_to_json=NormFamilyParams.to_json,
        element_from_json=from_json,
        eps_independence=independence_witness,
    )


# ---------------------------------------------------------------------------
# The cone [0, inf) x V
# ---------------------------------------------------------------------------
#
# A cone element (r, v) is the rational tuple (r, *v) of width dim + 1 in the
# integer form above: it shares add and equality with the pointwise
# instances, and brings its own scale (packed.py) and leq.


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
        f"cone[dim {dim}]", dim + 1,
        element_to_json=_cone_to_json,
        element_from_json=lambda doc: _cone_from_json(doc, dim),
        scale="cone", leq=(_cone_leq, "cone"),
        lsolve=_cone_lsolve)


def seeded_cone_sample(dim: int, seed: int, count: int) -> list:
    """Entries x/d, d in {1, 2}, as numerators x * (2 // d) over 2."""
    rng = random.Random(seed)
    out = [(0,) * (dim + 1)]
    while len(out) < count:
        v = tuple([rng.randint(-6, 6) * (2 // rng.choice((1, 2)))
                   for _ in range(dim)])
        r = rng.randint(1, 8) * (2 // rng.choice((1, 2)))
        out.append((0, *v))
        if len(out) < count:
            out.append((r, *v))
        if len(out) < count and rng.random() < 0.4:
            out.append((2 * r, *v))
    return [_reduced(xs, 2) for xs in out[:count]]


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
    if not doc:
        raise InputError("point sets must be nonempty")
    return doc


def hyperspace_instance(dim: int) -> EvsInstance:
    """A + B = {a+b}, alpha A = {alpha a} (no absolute value: scaling may
    reflect the set), A <= B iff A is a subset of B. The zero is the origin
    singleton; the minimal elements are exactly the singletons. The `pack`
    hook gives the verifier a point set as a frozenset of packed points,
    with the sum and scaling above (packed.pack_point_sets)."""
    _check_dim(dim)
    name = f"hyperspace[dim {dim}]"

    def pack(sample: list, scalars: list) -> tuple:
        from .packed import pack_point_sets
        return pack_point_sets(
            name, dim, lambda pts, den: _point_set_to_json(
                _set_reduced(pts, den)), sample, scalars)

    return EvsInstance(
        name=name,
        zero=(frozenset({(0,) * dim}), 1),
        leq=_subset,
        equal=operator.eq,
        element_to_json=_point_set_to_json,
        element_from_json=lambda doc: point_set(
            _parse_vec(p, dim) for p in _point_list(doc)),
        pack=pack,
    )


def seeded_hyper_sample(dim: int, seed: int, count: int) -> list:
    """Points as numerators over 2, as in seeded_cone_sample."""
    rng = random.Random(seed)
    out = [frozenset({(0,) * dim})]
    while len(out) < count:
        size = rng.randint(1, 3)
        pts = set()
        while len(pts) < size:
            pts.add(tuple([rng.randint(-5, 5) * (2 // rng.choice((1, 2)))
                           for _ in range(dim)]))
        a = frozenset(pts)
        if len(a) > 1 and len(out) + 2 > count:
            a = frozenset({min(a)})  # no room left for the singleton companion
        out.append(a)
        if len(a) > 1:
            out.append(frozenset({min(a)}))
    return [_set_reduced(a, 2) for a in out[:count]]


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
    if not isinstance(name, str):
        raise InputError("an instance name must be a string")
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
        width, tables = seeded_norm_sample(depth, seed, sample)
        return norm_table_instance(width), tables, DEFAULT_SCALARS
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


def universe_from_json(doc) -> Universe:
    """The order tools' universe of an inline manifest: its "instance" kind
    picks the instance, which reads each of its "elements"."""
    if not isinstance(doc, dict):
        raise InputError("a universe is an object")
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise InputError('universe "elements" must be a nonempty list')
    kind, elements = doc["instance"], doc["elements"]
    if kind == "norm-family":
        inst = norm_family_instance(PartitionSpec(
            require_int(doc.get("depth", 0), 'universe "depth"')))
    elif kind == "metrics":
        # the first table fixes the carrier; it is parsed once
        elements = [MetricMatrix.from_json(elements[0]), *elements[1:]]
        inst = metric_packed_instance(elements[0].labels)
    elif kind in ("cone", "hyperspace"):
        dim = require_int(doc.get("dim", 2), 'universe "dim"')
        inst = (cone_instance if kind == "cone" else hyperspace_instance)(dim)
    else:
        raise InputError(f"unknown universe instance {kind!r}")
    return Universe(inst, [inst.element_from_json(e) for e in elements])
