"""Weighted sup norms on finitely supported rational vectors.

A vector is a finite map from abstract basis indices to nonzero rationals; a
weight map w assigns every relevant index a positive rational, and the induced
norm is max over the support of w(h)|lambda_h|.

The interesting family lives over a partitioned index enumeration: positions
h0, h1, ... are split deterministically into a backbone B (even positions) and,
through the Cantor pairing of the odd positions, two indexed fibers d(t,i) and
e(t,i) hanging off every backbone member t. For a proper nonempty subset C of
the backbone and a rational gamma > 1, the family weight is

    1        on B and on fibers of t outside C
    gamma^i  on d(t,i) with t in C
    gamma^-i on e(t,i) with t in C

Distinct parameter choices give norms whose mutual comparing values vanish in
the limit; at finite index i the witness ratios are exact rational powers, so
independence up to any epsilon is certified by explicit basis vectors rather
than asserted. The scheme is depth-stable: the tag of a position never changes
as the enumeration deepens, and fiber vectors beyond the enumerated prefix are
still legitimate indices with well-defined weights.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import EvsInstance
from .errors import InputError
from .instances import rational_tuple_instance
from .metrics import MetricMatrix, _from_upper
from .rationals import (fmt, parse_rational, parse_rationals, require_int,
                        to_fractions, to_ints)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Finitely supported vectors
# ---------------------------------------------------------------------------


class FSVector:
    """Finitely supported rational coordinate map; zero coordinates are never
    stored, and the empty map is the zero vector."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[tuple[str, Fraction], ...]):
        self.coords = coords

    @classmethod
    def from_dict(cls, mapping) -> "FSVector":
        if not isinstance(mapping, dict):
            raise InputError("a vector is an object of coordinates")
        items = []
        for name, value in mapping.items():
            v = parse_rational(value)
            if v != 0:
                items.append((str(name), v))
        items.sort()
        return cls(tuple(items))

    @classmethod
    def unit(cls, name: str) -> "FSVector":
        return cls(((name, ONE),))

    @classmethod
    def zero(cls) -> "FSVector":
        return cls(())

    def get(self, name: str) -> Fraction:
        for n, v in self.coords:
            if n == name:
                return v
        return ZERO

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def add(self, other: "FSVector") -> "FSVector":
        acc = dict(self.coords)
        for n, v in other.coords:
            acc[n] = acc.get(n, ZERO) + v
        return FSVector.from_dict(acc)

    def sub(self, other: "FSVector") -> "FSVector":
        return self.add(other.scale(Fraction(-1)))

    def scale(self, factor: Fraction) -> "FSVector":
        factor = parse_rational(factor)
        if factor == 0:
            return FSVector.zero()
        return FSVector(tuple((n, factor * v) for n, v in self.coords))

    def to_json(self) -> dict:
        return {n: fmt(v) for n, v in self.coords}


# ---------------------------------------------------------------------------
# Deterministic partition of the index enumeration
# ---------------------------------------------------------------------------


def _cantor_unpair(j: int) -> tuple[int, int]:
    w = (math.isqrt(8 * j + 1) - 1) // 2
    r = j - w * (w + 1) // 2
    return w - r, r


_TAG_RE = re.compile(r"^([de])\((h(\d+)),(\d+)\)$")
_POS_RE = re.compile(r"^h(\d+)$")

Tag = tuple  # ("B", t) | ("D", t, i) | ("E", t, i)

#: The deepest partition, and the largest fiber index a name resolves to:
#: the cost of a partition, and of every report that lists its assignment,
#: grows with the depth, and the cost of a fiber weight with its index.
MAX_PARTITION_DEPTH = 100_000

#: The most significant digits of a number in an index name: int() reads
#: no longer decimal string by default.
MAX_INDEX_DIGITS = 4300


def _read_number(digits: str) -> int:
    """The number a run of decimal digits in an index name spells, read only
    once it has at most MAX_INDEX_DIGITS significant digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_INDEX_DIGITS:
        raise InputError(f"a number of {len(digits)} digits in an index name "
                         f"exceeds the limit of {MAX_INDEX_DIGITS} digits")
    return int(digits)


class PartitionSpec:
    """Backbone/fiber assignment of the enumerated indices h0 .. h(depth-1).

    Even positions form the backbone B. The j-th odd position is routed by the
    Cantor unpairing j -> (a, r) to the fiber of the a-th backbone member;
    even pair-ranks r land in the d-fiber, odd ranks in the e-fiber, with the
    fiber index i running 1, 2, ... in each. The assignment of a position is
    independent of depth, so deepening only extends the enumerated prefix.
    """

    __slots__ = ("depth",)

    def __init__(self, depth: int):
        if depth < 4:
            raise InputError(
                "partition depth must be at least 4 to make the backbone and "
                "both fiber kinds available"
            )
        if depth > MAX_PARTITION_DEPTH:
            raise InputError(f"partition depth {depth} exceeds the "
                             f"limit of {MAX_PARTITION_DEPTH}")
        self.depth = depth

    # -- scheme, total over all positions ------------------------------------

    @staticmethod
    def tag_of_position(k: int) -> Tag:
        if k < 0:
            raise InputError("positions are nonnegative")
        if k % 2 == 0:
            return ("B", f"h{k}")
        a, r = _cantor_unpair((k - 1) // 2)
        t = f"h{2 * a}"
        if r % 2 == 0:
            return ("D", t, r // 2 + 1)
        return ("E", t, (r + 1) // 2)

    @staticmethod
    def name_of_tag(tag: Tag) -> str:
        if tag[0] == "B":
            return tag[1]
        return f"{tag[0].lower()}({tag[1]},{tag[2]})"

    def resolve(self, name: str) -> Tag:
        """Accept a positional name "h7" or a fiber name "d(h0,2)" / "e(h0,5)"
        and return its tag; fiber names may point beyond the enumerated depth,
        but no name of either form to a fiber index past MAX_PARTITION_DEPTH."""
        m = _POS_RE.match(name)
        if m:
            tag = self.tag_of_position(_read_number(m.group(1)))
        elif m := _TAG_RE.match(name):
            kind, t, i = m.group(1), m.group(2), _read_number(m.group(4))
            if _read_number(m.group(3)) % 2 != 0:
                raise InputError(f"{t} is not a backbone member")
            tag = ("D" if kind == "d" else "E", t, i)
        else:
            raise InputError(f"unrecognized index name {name!r}")
        if tag[0] != "B" and tag[2] > MAX_PARTITION_DEPTH:
            raise InputError(f"fiber index {tag[2]} of {name} exceeds the "
                             f"limit of {MAX_PARTITION_DEPTH}")
        return tag

    # -- enumerated prefix ----------------------------------------------------

    def b_members(self) -> list[str]:
        return [f"h{k}" for k in range(0, self.depth, 2)]

    def assignment(self) -> dict[str, str]:
        return {
            f"h{k}": self.name_of_tag(self.tag_of_position(k))
            if k % 2 else "B"
            for k in range(self.depth)
        }

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "B": self.b_members(),
            "assignment": self.assignment(),
        }


def build_partition(depth: int) -> PartitionSpec:
    return PartitionSpec(depth)


# ---------------------------------------------------------------------------
# The norm family
# ---------------------------------------------------------------------------


class NormFamilyParams:
    """The parameters of one family norm: a partition, a proper nonempty
    subset C of its backbone, kept sorted, and gamma > 1. Two parameter
    sets are equal when their depths, subsets and gammas are."""

    __slots__ = ("partition", "subset_c", "gamma")

    def __init__(self, partition: PartitionSpec, subset_c, gamma):
        members = partition.b_members()
        c = sorted(set(subset_c))
        self.partition, self.subset_c = partition, tuple(c)
        self.gamma = gamma = parse_rational(gamma)
        if not c:
            raise InputError("the subset C must be nonempty")
        if any(t not in members for t in c):
            raise InputError("C must consist of backbone members")
        if len(c) >= len(members):
            raise InputError("C must be a proper subset of the backbone")
        if gamma <= 1:
            raise InputError("gamma must exceed 1")

    def __eq__(self, other):
        if not isinstance(other, NormFamilyParams):
            return NotImplemented
        return (self.partition.depth, self.subset_c, self.gamma) == \
            (other.partition.depth, other.subset_c, other.gamma)

    @classmethod
    def from_json(cls, doc) -> "NormFamilyParams":
        try:
            depth = require_int(doc["depth"], 'family spec "depth"')
            subset = tuple(str(t) for t in doc["subsetC"])
            gamma = parse_rational(doc["gamma"])
        except (KeyError, TypeError) as exc:
            raise InputError(
                'family spec needs "depth", "subsetC" and "gamma"'
            ) from exc
        return cls(PartitionSpec(depth), subset, gamma)

    def to_json(self) -> dict:
        return {
            "depth": self.partition.depth,
            "subsetC": list(self.subset_c),
            "gamma": fmt(self.gamma),
        }

    def weight_of_tag(self, tag: Tag) -> Fraction:
        if tag[0] == "B":
            return ONE
        _, t, i = tag
        if t not in self.subset_c:
            return ONE
        return self.gamma ** i if tag[0] == "D" else self.gamma ** -i


class WeightMap:
    """Positive rational weight per basis index.

    Family-derived maps carry a closed-form rule so that fiber indices beyond
    the enumerated prefix still have weights; plain maps are just finite
    dictionaries and evaluating outside them is an input error.
    """

    def __init__(self, entries: dict, rule: Optional[Callable[[str], Fraction]] = None):
        parsed = {}
        for name, value in entries.items():
            w = parse_rational(value)
            if w <= 0:
                raise InputError(f"weight for {name} must be positive")
            parsed[str(name)] = w
        self.entries = parsed
        self.rule = rule

    def weight(self, name: str) -> Fraction:
        if name in self.entries:
            return self.entries[name]
        if self.rule is not None:
            return self.rule(name)
        raise InputError(f"no weight assigned to index {name!r}")

    def to_json(self) -> dict:
        return {name: fmt(w) for name, w in sorted(self.entries.items())}

    @classmethod
    def from_json(cls, doc) -> "WeightMap":
        if not isinstance(doc, dict):
            raise InputError("a weight map is an object of weights")
        return cls(doc)


def weight_function(params: NormFamilyParams) -> WeightMap:
    """Materialize the family weights on the enumerated prefix, backed by the
    closed-form rule for every other index (positional or fiber-named)."""
    part = params.partition

    def rule(name: str) -> Fraction:
        return params.weight_of_tag(part.resolve(name))

    entries = {
        f"h{k}": params.weight_of_tag(part.tag_of_position(k))
        for k in range(part.depth)
    }
    return WeightMap(entries, rule=rule)


def eval_weighted_norm(w: WeightMap, x: FSVector) -> Fraction:
    """max over the support of w(h) |lambda_h|; zero exactly on the zero vector."""
    best = ZERO
    for name, value in x.coords:
        candidate = w.weight(name) * abs(value)
        if candidate > best:
            best = candidate
    return best


# ---------------------------------------------------------------------------
# Independence witnesses
# ---------------------------------------------------------------------------


class WitnessDirection:
    """One decaying direction: the fiber vectors of `family` ("d" or "e")
    under backbone member t witness, at `index`, that a comparing value is
    below epsilon: it is at most `ratio`, ratio_base to the index."""

    __slots__ = ("family", "t", "ratio_base", "index", "ratio")

    def __init__(self, family: str, t: str, ratio_base: Fraction, index: int,
                 ratio: Fraction):
        self.family, self.t, self.ratio_base = family, t, ratio_base
        self.index, self.ratio = index, ratio

    def witness_name(self, i: Optional[int] = None) -> str:
        return f"{self.family}({self.t},{self.index if i is None else i})"

    def to_json(self) -> dict:
        return {
            "witnessFamily": self.family,
            "t": self.t,
            "witness": self.witness_name(),
            "ratioBase": fmt(self.ratio_base),
            "index": self.index,
            "ratioAtIndex": fmt(self.ratio),
        }


class WitnessReport:
    """Both decaying directions of a pair of family norms (see
    independence_witness). It stays an object, not its JSON document,
    because perfbench's tracer reads first_relative_to_second.index."""

    __slots__ = ("case", "epsilon", "first_relative_to_second",
                 "second_relative_to_first")

    def __init__(self, case: int, epsilon: Fraction,
                 first_relative_to_second: WitnessDirection,
                 second_relative_to_first: WitnessDirection):
        self.case, self.epsilon = case, epsilon
        self.first_relative_to_second = first_relative_to_second
        self.second_relative_to_first = second_relative_to_first

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "epsilon": fmt(self.epsilon),
            "firstRelativeToSecond": self.first_relative_to_second.to_json(),
            "secondRelativeToFirst": self.second_relative_to_first.to_json(),
            "independentUpToEpsilon": True,
        }


def _log_ratio(big: int, small: int) -> float:
    """log(big / small) for integers big > small >= 1, through log1p when
    the ratio is near one, where log(big) - log(small) would cancel."""
    if big > 2 * small:
        return math.log(big) - math.log(small)
    return math.log1p((big - small) / small)


def _decay_index_estimate(a: int, b: int, e: int, f: int) -> int:
    """ceil(log(eps) / log(base)) in floats for base = a/b and eps = e/f;
    1 when log(base) rounds to zero. Only a starting point for the exact
    search."""
    log_base = _log_ratio(b, a)
    if log_base <= 0:
        return 1
    return max(1, math.ceil(_log_ratio(f, e) / log_base))


def _smallest_decay_index(base: Fraction, eps: Fraction) -> tuple[int, Fraction]:
    """The least i >= 1 with base**i < eps, and base**i, for 0 < base < 1
    and 0 < eps < 1.

    base**i < eps is a**i * f < e * b**i for base = a/b and eps = e/f, which
    holds from some i on and then for every larger i. The search starts at
    the float estimate of that i, gallops away from it with doubling steps
    until the exact test brackets the answer, and bisects the bracket; a bad
    estimate costs steps logarithmic in its error. The powers at the
    estimate are computed once: a test above it multiplies them, a test
    just below it divides them exactly, and when the estimate is the answer,
    as it is unless floats mislead it, they are the returned ratio.
    """
    a, b = base.numerator, base.denominator
    e, f = eps.numerator, eps.denominator
    i = _decay_index_estimate(a, b, e, f)
    guess = base ** i
    ga, gb = guess.numerator, guess.denominator

    def below(j: int) -> bool:
        k = j - i
        if k >= 0:
            pa, pb = ga * a ** k, gb * b ** k
        elif k >= -64:
            pa, pb = ga // a ** -k, gb // b ** -k
        else:
            pa, pb = a ** j, b ** j
        return pa * f < e * pb

    step = 1
    if below(i):                      # the answer is i or smaller
        hi, lo = i, i - 1
        while lo > 0 and below(lo):
            hi, lo, step = lo, lo - 2 * step, 2 * step
        lo = max(lo, 0)               # base**0 = 1 > eps
    else:                             # the answer is above i
        lo, hi = i, i + 1
        while not below(hi):
            lo, hi, step = hi, hi + 2 * step, 2 * step
    while hi - lo > 1:                # below(hi), and not below(lo)
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi, guess if hi == i else base ** hi


def independence_witness(p: NormFamilyParams, q: NormFamilyParams,
                         eps) -> WitnessReport:
    """Certify, in both directions, that the comparing values of two distinct
    family norms drop below epsilon, with explicit fiber-vector witnesses.

    Direction naming: firstRelativeToSecond bounds inf |x|_p / |x|_q, the
    comparing value of the first norm relative to the second.

    With C_p != C_q (case 1) a backbone member t in the symmetric difference
    gives ratio gamma^-i along one fiber of t in each direction, where gamma
    belongs to the parameter set containing t. With C_p = C_q (case 2) the
    gammas differ and both directions decay like (gamma_min/gamma_max)^i.
    """
    eps = parse_rational(eps)
    if not 0 < eps < 1:
        raise InputError("epsilon must lie strictly between 0 and 1")
    if p.partition.depth != q.partition.depth:
        raise InputError("the two parameter sets use different partitions")
    if p.subset_c == q.subset_c and p.gamma == q.gamma:
        raise InputError("parameter sets are equal; no independence witness")

    cp, cq = set(p.subset_c), set(q.subset_c)
    if cp != cq:
        case = 1
        if cp - cq:
            t = min(cp - cq)
            base = 1 / p.gamma
            fam_first, fam_second = "e", "d"
        else:
            t = min(cq - cp)
            base = 1 / q.gamma
            fam_first, fam_second = "d", "e"
    else:
        case = 2
        t = min(cp)
        base = min(p.gamma, q.gamma) / max(p.gamma, q.gamma)
        if p.gamma > q.gamma:
            fam_first, fam_second = "e", "d"
        else:
            fam_first, fam_second = "d", "e"

    i, ratio = _smallest_decay_index(base, eps)
    first = WitnessDirection(fam_first, t, base, i, ratio)
    second = WitnessDirection(fam_second, t, base, i, ratio)
    return WitnessReport(case, eps, first, second)


# ---------------------------------------------------------------------------
# Embedding into metrics
# ---------------------------------------------------------------------------


def embed_norm_to_metric(w: WeightMap, points: Sequence[FSVector]) -> MetricMatrix:
    """Distance table m[i][j] = |points[i] - points[j]|_w; the translation-
    invariant metric induced by the norm. The norm is symmetric, so each
    unordered pair is evaluated once and mirrored."""
    points = list(points)
    if len(points) < 2:
        raise InputError("need at least two points")
    if len({p.coords for p in points}) != len(points):
        raise InputError("points must be pairwise distinct")
    labels = tuple(f"p{k}" for k in range(1, len(points) + 1))
    return _from_upper(labels, [
        [ZERO] + [eval_weighted_norm(w, p.sub(q)) for q in points[i + 1:]]
        for i, p in enumerate(points)])


# ---------------------------------------------------------------------------
# Verifier support: norms as exact value tables over probe vectors
# ---------------------------------------------------------------------------


def norm_value_table(w: WeightMap, probes: Sequence[FSVector]) -> tuple:
    return tuple(eval_weighted_norm(w, x) for x in probes)


def norm_table_instance(probes: Sequence[FSVector]) -> EvsInstance:
    """Norms probed on a fixed finite vector sample.

    Sums and scalings of norms act pointwise on values, so exact value tables
    are closed under the operations and faithfully decide the pointwise
    axioms; the order is the pointwise one. The all-zero table is the zero
    element O.
    """
    return rational_tuple_instance(
        f"norms[{len(probes)} probes]",
        len(probes),
        "value table over a different probe set",
        element_to_json=lambda a: [fmt(x) for x in to_fractions(a)],
        element_from_json=lambda doc: to_ints(
            parse_rationals(doc, "norm value table")),
    )


def seeded_norm_sample(depth: int, seed: int,
                       count: int) -> tuple[tuple[FSVector, ...], list]:
    """Probe vectors and a deterministic sample of norm value tables.

    Probes are the unit coordinate vectors of the enumerated prefix plus a few
    mixed-support vectors; elements mix random positive weight maps, scaled
    companions, and two family norms.
    """
    import random as _random

    rng = _random.Random(seed)
    part = PartitionSpec(depth)
    names = [f"h{k}" for k in range(depth)]

    probes = [FSVector.unit(n) for n in names]
    for _ in range(6):
        support = rng.sample(names, rng.randint(2, 3))
        coords = {
            n: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            for n in support
        }
        probes.append(FSVector.from_dict(coords))

    def random_weights() -> WeightMap:
        return WeightMap({
            n: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for n in names
        })

    elements = [(ZERO,) * len(probes)]
    members = part.b_members()
    for c, gamma in ((members[:1], Fraction(2)), (members[:2], Fraction(3))):
        params = NormFamilyParams(part, tuple(c), gamma)
        elements.append(norm_value_table(weight_function(params), probes))
    while len(elements) < count:
        table = norm_value_table(random_weights(), probes)
        elements.append(table)
        if len(elements) < count and len(elements) % 5 == 2:
            elements.append(tuple(2 * v for v in table))
    return tuple(probes), elements[:count]


def norm_family_instance(partition: PartitionSpec) -> EvsInstance:
    """Family norms as order-tool elements keyed by their parameters; the only
    supported comparisons are epsilon-qualified independence witnesses."""

    def unsupported(*_args):
        raise InputError(
            "family norms support only epsilon-witness comparisons"
        )

    return EvsInstance(
        name=f"norm-family[depth {partition.depth}]",
        zero=None,
        add=unsupported,
        scale=unsupported,
        leq=unsupported,
        equal=lambda a, b: a == b,
        element_to_json=lambda p: p.to_json(),
        element_from_json=NormFamilyParams.from_json,
        eps_independence=lambda p, q, eps: independence_witness(p, q, eps),
    )
