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

Within the package this module imports only errors, rationals and metrics;
instances.py builds the instances of these norms.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .metrics import MAX_BUILTIN_DEPTH, MetricMatrix
from .rationals import (MAX_DIGITS, _past_digits, fmt, parse_rational,
                        require_int, to_ints)

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

    def sub(self, other: "FSVector") -> "FSVector":
        acc = dict(self.coords)
        for n, v in other.coords:
            acc[n] = acc.get(n, ZERO) - v
        return FSVector.from_dict(acc)


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

#: The most bits in the denominator of a power of the ratio base that the
#: decay-index search builds, and in the wider part of a fiber weight:
#: their cost grows with that number, which is at most the index times the
#: bits of the base's denominator or of gamma's numerator.
MAX_DECAY_BITS = 1 << 20

#: The bit length of 10**MAX_DIGITS, the least positive integer that fmt
#: cannot print: b**i prints where i times the bit length of b is less.
_PRINT_BITS = (10 ** MAX_DIGITS).bit_length()


def _read_number(digits: str) -> int:
    """The number a run of decimal digits in an index name spells, read only
    once it has at most MAX_DIGITS significant digits, the most int()
    reads by default."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise InputError(f"a number of {len(digits)} digits in an index name "
                         f"exceeds the limit of {MAX_DIGITS} digits")
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
        but no name of either form to a fiber index past MAX_PARTITION_DEPTH.
        A tag names its member by position, so "d(h00,1)" is "d(h0,1)"."""
        m = _POS_RE.match(name)
        if m:
            tag = self.tag_of_position(_read_number(m.group(1)))
        elif m := _TAG_RE.match(name):
            i, position = _read_number(m.group(4)), _read_number(m.group(3))
            if position % 2 != 0:
                raise InputError(f"{m.group(2)} is not a backbone member")
            tag = ("D" if m.group(1) == "d" else "E", f"h{position}", i)
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


# ---------------------------------------------------------------------------
# The norm family
# ---------------------------------------------------------------------------


class NormFamilyParams:
    """The parameters of one family norm: a partition, a proper nonempty
    subset C of its backbone, and gamma > 1. C is a frozenset, whose order
    follows the hash seed, so a read of C that reaches a report sorts it
    or takes its min. weight_of_tag(tag) is the norm's weight of every tag
    the partition resolves, inside the enumerated prefix or beyond it."""

    __slots__ = ("partition", "subset_c", "gamma")

    def __init__(self, partition: PartitionSpec, subset_c, gamma):
        members = frozenset(partition.b_members())
        c = frozenset(subset_c)
        self.partition, self.subset_c = partition, c
        self.gamma = gamma = parse_rational(gamma)
        if not c:
            raise InputError("the subset C must be nonempty")
        if not c <= members:
            raise InputError("C must consist of backbone members")
        if len(c) >= len(members):
            raise InputError("C must be a proper subset of the backbone")
        if gamma <= 1:
            raise InputError("gamma must exceed 1")

    @classmethod
    def from_json(cls, doc) -> "NormFamilyParams":
        try:
            depth = require_int(doc["depth"], 'family spec "depth"')
            subset = doc["subsetC"]
            if type(subset) is not list:
                raise InputError('family spec "subsetC" must be a list of '
                                 'backbone members')
            gamma = parse_rational(doc["gamma"])
        except (KeyError, TypeError) as exc:
            raise InputError(
                'family spec needs "depth", "subsetC" and "gamma"'
            ) from exc
        return cls(PartitionSpec(depth), map(str, subset), gamma)

    def to_json(self) -> dict:
        return {
            "depth": self.partition.depth,
            "subsetC": sorted(self.subset_c),
            "gamma": fmt(self.gamma),
        }

    def weight_exponent(self, tag: Tag) -> int:
        """e of the weight gamma^e of a tag: i on d(t,i) and -i on e(t,i)
        for t in C, else 0. An InputError where the power's wider part
        could pass MAX_DECAY_BITS bits: its cost grows with i times the
        bits of gamma's numerator, the wider part as gamma > 1."""
        if tag[0] == "B" or tag[1] not in self.subset_c:
            return 0
        i = tag[2]
        bits = self.gamma.numerator.bit_length()
        if i * bits > MAX_DECAY_BITS:
            raise InputError(f"the weight of fiber index {i} is a power of "
                             f"the {bits}-bit gamma that could pass the "
                             f"budget of {MAX_DECAY_BITS} bits")
        return i if tag[0] == "D" else -i

    def weight_of_tag(self, tag: Tag) -> Fraction:
        """gamma^weight_exponent(tag), refused before it is built."""
        e = self.weight_exponent(tag)
        return self.gamma ** e if e else ONE


class WeightMap:
    """Explicit positive rational weights of finitely many basis indices;
    the weight of an index outside the map is an InputError."""

    def __init__(self, entries: dict):
        parsed = {}
        for name, value in entries.items():
            w = parse_rational(value)
            if w <= 0:
                raise InputError(f"weight for {name} must be positive")
            parsed[str(name)] = w
        self.entries = parsed

    def weight(self, name: str) -> Fraction:
        if name in self.entries:
            return self.entries[name]
        raise InputError(f"no weight assigned to index {name!r}")

    @classmethod
    def from_json(cls, doc) -> "WeightMap":
        if not isinstance(doc, dict):
            raise InputError("a weight map is an object of weights")
        return cls(doc)


def eval_weighted_norm(w: WeightMap | NormFamilyParams,
                       x: FSVector) -> Fraction:
    """max over the support of w(h) |lambda_h|; zero exactly on the zero
    vector. Each w(h)|lambda_h| = a/b is compared crosswise with the
    largest p/q so far, and one Fraction is built at the end.

    A family norm reads a coordinate by its partition tag, so names that
    resolve to one tag ("h3" and "h03") are one coordinate: the names are
    resolved and their weights checked in sorted order, so the first bad
    name raises first, and the coordinates of each tag are summed before
    the sup; a tag whose coordinates cancel adds 0, which is never the
    sup's new maximum. A WeightMap reads each name as written."""
    if isinstance(w, NormFamilyParams):
        terms = {}
        for name, value in x.coords:
            tag = w.partition.resolve(name)
            w.weight_exponent(tag)   # a weight past the budget raises here
            terms[tag] = terms[tag] + value if tag in terms else value
        coords, weight = terms.items(), w.weight_of_tag
    else:
        coords, weight = x.coords, w.weight
    p, q = 0, 1
    for key, value in coords:
        a, b = weight(key).as_integer_ratio()
        a *= abs(value.numerator)
        b *= value.denominator
        if a * q > p * b:
            p, q = a, b
    return Fraction(p, q)


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

    def witness_name(self) -> str:
        return f"{self.family}({self.t},{self.index})"

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


def _log_log_ratio(big: int, small: int) -> float:
    """log(log(big / small)) for integers big > small >= 1, finite even where
    log(big / small) underflows: there it is log((big - small) / small)."""
    log = _log_ratio(big, small)
    if log >= sys.float_info.min:
        return math.log(log)
    return math.log(big - small) - math.log(small)


def _decay_index_estimate(a: int, b: int, e: int, f: int) -> int:
    """ceil(log(eps) / log(base)) in floats for base = a/b and eps = e/f,
    taken as the difference of the logs of the two logs when either log
    underflows. Only a starting point for the exact search."""
    log_base, log_eps = _log_ratio(b, a), _log_ratio(f, e)
    if log_base >= sys.float_info.min and log_eps >= sys.float_info.min:
        return max(1, math.ceil(log_eps / log_base))
    log_index = _log_log_ratio(f, e) - _log_log_ratio(b, a)
    return max(1, math.ceil(math.exp(min(log_index, 700.0))))  # exp(710) overflows


def _smallest_decay_index(base: Fraction, eps: Fraction
                          ) -> tuple[int, Fraction]:
    """The least i >= 1 with base**i < eps, and base**i, for 0 < base < 1
    and 0 < eps < 1; InputError when that i is past MAX_PARTITION_DEPTH, or
    when the denominator b**i of base**i could pass MAX_DECAY_BITS bits.

    base**i < eps is a**i * f < e * b**i for base = a/b and eps = e/f, which
    holds from some i on and then for every larger i. The search starts at
    the float estimate of that i, gallops away from it with doubling steps
    until the exact test brackets the answer, and bisects the bracket; a bad
    estimate costs steps logarithmic in its error. The powers at the
    estimate are computed once: a test above it multiplies them, a test
    just below it divides them exactly, and when the estimate is the answer,
    as it is unless floats mislead it, they are the returned ratio.

    An estimate past twice the index limit is refused at once, the search
    starts no higher than the limit and never tests past it, so no power
    past base**limit is built. The same holds for the index
    MAX_DECAY_BITS // b.bit_length(), past which b**i could pass
    MAX_DECAY_BITS bits; the search stops there with an error of its own.
    The ratio it returns may be past fmt's print limit:
    independence_witness refuses most of those before it searches (see
    _refuse_unprintable_ratio).
    """
    a, b = base.numerator, base.denominator
    e, f = eps.numerator, eps.denominator
    limit = MAX_PARTITION_DEPTH
    i = _decay_index_estimate(a, b, e, f)
    if i > 2 * limit:
        raise _past_limit(limit)
    cap = min(limit, MAX_DECAY_BITS // b.bit_length())
    i = min(i, cap)
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
        while hi > cap or not below(hi):
            if lo >= cap:             # not below(cap)
                raise (_past_limit(limit) if cap == limit
                       else _past_budget(b.bit_length(), cap))
            lo, hi, step = hi, min(hi + 2 * step, cap), 2 * step
    while hi - lo > 1:                # below(hi), and not below(lo)
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi, guess if hi == i else base ** hi


def _past_limit(limit: int) -> InputError:
    return InputError(f"the decay index exceeds the fiber-index limit of "
                      f"{limit}")


def _past_budget(bits: int, cap: int) -> InputError:
    return InputError(f"the decay index exceeds {cap}, past which a power of "
                      f"the {bits}-bit ratio denominator could pass the "
                      f"budget of {MAX_DECAY_BITS} bits")


def _refuse_unprintable_ratio(base: Fraction, eps: Fraction) -> None:
    """The print-limit InputError of fmt where the least decay index i of
    base and eps gives a ratio base**i that fmt cannot print, raised before
    the search builds that power.

    With base = a/b in lowest terms and a < b, base**j is a**j / b**j in
    lowest terms, so it prints exactly when j < P, the least j with
    b**j >= 10**MAX_DIGITS. The least index is at least P exactly when
    base**(P-1) < eps fails, and no power past b**(P-1) is built to test
    that. The test is made only where the float estimate i of the index
    says it can pay and keeps the search's errors first:
    - i * b.bit_length() at least the bit length of 10**MAX_DIGITS, as
      below it b**i < 2**(i * b.bit_length()) surely prints;
    - 2 * i at most the search's cap, so that an index past the cap still
      meets the fiber-index or bit-budget error of _smallest_decay_index.
      That search trusts the estimate to the same factor of two.
    """
    a, b = base.numerator, base.denominator
    e, f = eps.numerator, eps.denominator
    i = _decay_index_estimate(a, b, e, f)
    bits = b.bit_length()
    if (i * bits < _PRINT_BITS
            or 2 * i > min(MAX_PARTITION_DEPTH, MAX_DECAY_BITS // bits)):
        return
    # j starts at or below P - 1 (a float error below one), and climbs
    # while b**(j+1) < 10**MAX_DIGITS, without building b**(j+1)
    j = max(0, int(MAX_DIGITS / math.log10(b)) - 1)
    power, top = b ** j, (10 ** MAX_DIGITS - 1) // b
    while power <= top:
        j, power = j + 1, power * b
    if not a ** j * f < e * power:
        raise _past_digits()


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

    A witness past what the report can hold is an InputError, in this
    order: an index past the fiber-index limit, a power past the bit
    budget (both from _smallest_decay_index), and a ratio past fmt's
    print limit. The last is raised here, before the search builds the
    powers, wherever _refuse_unprintable_ratio decides it; otherwise the
    returned report's to_json raises it.
    """
    eps = parse_rational(eps)
    if not 0 < eps < 1:
        raise InputError("epsilon must lie strictly between 0 and 1")
    if p.partition.depth != q.partition.depth:
        raise InputError("the two parameter sets use different partitions")
    if p.subset_c == q.subset_c and p.gamma == q.gamma:
        raise InputError("parameter sets are equal; no independence witness")

    cp, cq = p.subset_c, q.subset_c
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

    _refuse_unprintable_ratio(base, eps)
    i, ratio = _smallest_decay_index(base, eps)
    first = WitnessDirection(fam_first, t, base, i, ratio)
    second = WitnessDirection(fam_second, t, base, i, ratio)
    return WitnessReport(case, eps, first, second)


# ---------------------------------------------------------------------------
# Embedding into metrics
# ---------------------------------------------------------------------------


def embed_norm_to_metric(w: WeightMap | NormFamilyParams,
                         points: Sequence[FSVector]) -> MetricMatrix:
    """Distance table m[i][j] = |points[i] - points[j]|_w; the translation-
    invariant metric induced by the norm. The norm is symmetric, so each
    unordered pair is evaluated once and mirrored. More than
    MAX_BUILTIN_DEPTH points is an input error before any norm is
    evaluated."""
    points = list(points)
    if len(points) < 2:
        raise InputError("need at least two points")
    if len(points) > MAX_BUILTIN_DEPTH:
        raise InputError(f"{len(points)} embed points exceed the limit of "
                         f"{MAX_BUILTIN_DEPTH}")
    if len({p.coords for p in points}) != len(points):
        raise InputError("points must be pairwise distinct")
    labels = tuple(f"p{k}" for k in range(1, len(points) + 1))
    upper = []   # row by row, diagonal included
    for i, p in enumerate(points):
        upper.append(ZERO)
        upper.extend(eval_weighted_norm(w, p.sub(q)) for q in points[i + 1:])
    return MetricMatrix(labels, to_ints(upper))
