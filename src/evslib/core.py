"""Generic ordered-semigroup-with-scalar-action contract and its verifier.

An instance packages a carrier fragment behind five operations: add, scale,
leq, equal, and a distinguished zero; add and scale come from its `pack`
hook, which fits the instance to one sample (packed.py). The instances are
built in instances.py; this module holds only the contract and the
verifier, which runs the six structure axioms over a seeded finite sample
with exact arithmetic:

  A1  addition is a commutative semigroup with identity zero
  A2  the order is translation- and scaling-compatible
  A3  (i) scale distributes over add, (ii) scale composes multiplicatively,
      (iii) (a+b)x <= ax + bx, (iv) 1x = x
  A4  ax = zero iff a = 0 or x = zero
  A5  x + (-1)x = zero iff x is minimal
  A6  below every element sits a minimal element

A1-A4 are decided exactly on the sample. A5 and A6 quantify over the whole
carrier, which is usually infinite, so they are checked sample-relatively and
labeled as such: minimality means no sampled witness below, and the A6 search
ranges over sampled elements that are both order-minimal and satisfy the A5
characterization p + (-1)p = zero. The verifier refutes; it never certifies a
carrier-wide claim. Every failure carries a counterexample that re-evaluates
to a violation when replayed through the instance operations.

Both suites, and the counterexample replay of the tests (tests/replay.py),
read one table of laws (AXIOMS, PROPERTIES; see Law and _check_entry):
a law judges a list of tuples of positions at once, CHUNK at a time, and
stops at the first violation. An entry is not-applicable when its laws
found nothing to check: A2 with no comparable sampled pair,
additive-primitive with no pair whose primitive sets are witnessed in the
sample. A report passes only when every entry passes, so not-applicable
counts as not passed: `evs axioms --instance metrics --sample 1` exits 1
on A2 alone. In the property suite it makes `pass` false, but the
exit code of `evs axioms --properties` (both suites on one context) follows
the axiom suite only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from itertools import combinations_with_replacement as pairs
from itertools import (filterfalse, groupby, islice, product, repeat,
                       starmap)
from operator import add, getitem, itemgetter, not_, or_
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import InputError
from .rationals import fmt, parse_rational

@dataclass(frozen=True, kw_only=True)
class EvsInstance:
    """Operations of one carrier fragment, plus serialization for replay.

    The optional hooks extend the instance for the order tools: `comparing`
    is an exact comparing function of a zero-primitive homogeneous instance
    (None otherwise), `eps_independence` produces decay witnesses for
    independence up to epsilon, and `lsolve` handles testing-set membership
    in instances whose primitive space is larger than {zero}. The verifier
    hook `pack(sample, scalars)` returns (instance, packed sample): the same
    carrier fragment in a representation fitted to that sample and those
    listed scalars, whose operations need hold only on the values the laws
    compute from them. Its `element_to_json` prints a packed element as
    this instance prints the element it packs, and it reads no JSON.

    `add` and `scale(p, q, x)`, x times p/q for ints p and q > 0, come
    only from `pack`: the instances it returns (packed.py) set them, and
    the instances that build_instance and the order tools hold leave them
    None, since no order tool adds or scales.
    So check_axioms needs an instance with a `pack` hook, and is an
    InputError without one. Fields are given by keyword only.

    Elements are checked once, where they enter: `element_from_json`
    rejects any element not in the instance's shape, and the seeded samplers
    build elements in shape. The operations check nothing; given operands
    of the wrong shape, their result is undefined.

    The one dataclass of the package: the tracer of perfbench/ and the
    kernel tests swap its operations with dataclasses.replace.
    """

    name: str
    zero: Any
    leq: Callable[[Any, Any], bool]
    equal: Callable[[Any, Any], bool]
    element_to_json: Callable[[Any], Any]
    element_from_json: Callable[[Any], Any]
    add: Optional[Callable[[Any, Any], Any]] = None
    scale: Optional[Callable[[int, int, Any], Any]] = None
    comparing: Optional[Callable[[Any, Any], Fraction]] = None
    eps_independence: Optional[Callable] = None
    lsolve: Optional[Callable] = None
    pack: Optional[Callable[[list, list], tuple]] = None


# ---------------------------------------------------------------------------
# The law table: one record per checkable law, shared by both suites
# ---------------------------------------------------------------------------


class _Context:
    """The inputs of one run, by position, and the tables its laws read.

    Laws reach elements and scalars by position: `sample[i]`, `scalars[a]`
    = ps[a]/qs[a]. The sums `sums[i][j] = sample[i] + sample[j]`, the orders
    `order[i][j] = leq(sample[i], sample[j])` and the scalings `scaled[a][i]
    = scalars[a] * sample[i]` are tables built whole when a law first needs
    them, as are the products and sums of pairs of listed scalars, as
    tables (P, Q) of ints p/q not in lowest terms. Other operands, such as
    (a*b)x or (a+b)x, go to the instance operations afresh.

    One context serves both suites of a run. Replay builds one whose sample
    is the given sample followed by the counterexample's elements, with its
    scalars; `minimal`, `primitives` and `below` range over the first `m`
    positions only, the given sample (in a run, m = n). The context holds
    the instance and sample that the `pack` hook returns (packed.py), the
    only instance with an `add` and a `scale`."""

    def __init__(self, inst: EvsInstance, sample: list, scalars: list,
                 m: Optional[int] = None):
        inst, sample = inst.pack(sample, scalars)
        self.inst, self.sample, self.scalars = inst, sample, scalars
        self.ps = [a.numerator for a in scalars]
        self.qs = [a.denominator for a in scalars]
        self.n = len(sample)
        self.m = self.n if m is None else m

    @cached_property
    def sums(self) -> list:
        add, s = self.inst.add, self.sample
        return [[add(x, y) for y in s] for x in s]

    @cached_property
    def order(self) -> list:
        leq, s = self.inst.leq, self.sample
        return [[leq(x, y) for y in s] for x in s]

    @cached_property
    def scaled(self) -> list:
        scale, s = self.inst.scale, self.sample
        return [[scale(p, q, x) for x in s] for p, q in zip(self.ps, self.qs)]

    @cached_property
    def products(self) -> tuple:
        ps, qs = self.ps, self.qs
        return ([[p * r for r in ps] for p in ps],
                [[q * s for s in qs] for q in qs])

    @cached_property
    def scalar_sums(self) -> tuple:
        ps, qs = self.ps, self.qs
        return [[p * s + r * q for r, s in zip(ps, qs)]
                for p, q in zip(ps, qs)], self.products[1]

    @cached_property
    def comparable(self) -> list:
        """Positions (i, j) of sampled pairs with sample[i] < sample[j]."""
        order, s, equal, n = self.order, self.sample, self.inst.equal, self.n
        return [(i, j) for i in range(n) for j in range(n)
                if order[i][j] and not equal(s[i], s[j])]

    @cached_property
    def minimal(self) -> list:
        """minimal[i]: no given sampled element lies strictly below
        sample[i]."""
        order, s, equal, m = self.order, self.sample, self.inst.equal, self.m
        return [not any(order[k][i] and not equal(s[k], z)
                        for k in range(m)) for i, z in enumerate(s)]

    @cached_property
    def primitives(self) -> list:
        """Positions of the given sampled elements that are order-minimal
        and additively characterized."""
        return [p for p in range(self.m)
                if self.minimal[p] and _characterized(self.inst,
                                                      self.sample[p])]

    @cached_property
    def below(self) -> list:
        """below[i]: the primitives below sample[i]."""
        order, P = self.order, self.primitives
        return [[p for p in P if order[p][i]] for i in range(self.n)]


def _characterized(inst: EvsInstance, x) -> bool:
    """x + (-1)x = zero."""
    return inst.equal(inst.add(x, inst.scale(-1, 1, x)), inst.zero)


def _at(seq: list, I) -> Iterable:
    """seq[i] for each i of I: a column of operands, read lazily."""
    return map(seq.__getitem__, I)


def _at2(table: list, I, J) -> Iterable:
    """table[i][j] for each pair of I and J."""
    return map(getitem, _at(table, I), J)


def _a1_identity(c, tuples):
    xs, inst = list(_at(c.sample, *zip(*tuples))), c.inst
    return map(inst.equal, map(inst.add, xs, repeat(inst.zero)), xs)


def _a1_commutativity(c, tuples):
    I, J = zip(*tuples)
    return map(c.inst.equal, _at2(c.sums, I, J), _at2(c.sums, J, I))


def _a1_associativity(c, tuples):
    inst, S, s = c.inst, c.sums, c.sample
    I, J, K = zip(*tuples)
    return map(inst.equal, map(inst.add, _at2(S, I, J), _at(s, K)),
               map(inst.add, _at(s, I), _at2(S, J, K)))


def _a2(c, I, J, lows, highs):
    """leq(low, high) where sample[i] <= sample[j], True elsewhere: a run
    checks comparable pairs only, a replay any pair."""
    return map(or_, map(not_, _at2(c.order, I, J)),
               map(c.inst.leq, lows, highs))


def _a2_translation(c, tuples):
    S, (I, J, K) = c.sums, zip(*tuples)
    return _a2(c, I, J, _at2(S, I, K), _at2(S, J, K))


def _a2_scaling(c, tuples):
    SC, (I, J, A) = c.scaled, zip(*tuples)
    return _a2(c, I, J, _at2(SC, A, I), _at2(SC, A, J))


def _a3_i(c, tuples):
    inst, SC = c.inst, c.scaled
    I, J, A = zip(*tuples)
    return map(inst.equal, map(inst.scale, _at(c.ps, A), _at(c.qs, A),
                               _at2(c.sums, I, J)),
               map(inst.add, _at2(SC, A, I), _at2(SC, A, J)))


def _a3_ii(c, tuples):
    inst, (P, Q) = c.inst, c.products
    I, A, B = zip(*tuples)
    return map(inst.equal, map(inst.scale, _at(c.ps, A), _at(c.qs, A),
                               _at2(c.scaled, B, I)),
               map(inst.scale, _at2(P, A, B), _at2(Q, A, B),
                   _at(c.sample, I)))


def _split(c, tuples, relation):
    """relation((a+b)x, ax + bx) over the tuples (i, a, b)."""
    inst, SC, (P, Q) = c.inst, c.scaled, c.scalar_sums
    I, A, B = zip(*tuples)
    return map(relation, map(inst.scale, _at2(P, A, B), _at2(Q, A, B),
                             _at(c.sample, I)),
               map(inst.add, _at2(SC, A, I), _at2(SC, B, I)))


def _a3_iv(c, tuples):
    xs, inst = list(_at(c.sample, *zip(*tuples))), c.inst
    return map(inst.equal, map(inst.scale, repeat(1), repeat(1), xs), xs)


def _a4(c, tuples):
    inst, SC, zero = c.inst, c.scaled, c.inst.zero
    return (inst.equal(SC[a][i], zero) == (
        c.ps[a] == 0 or inst.equal(c.sample[i], zero))
        for i, a in tuples)


def _balanced(c, tuples):
    I, A = zip(*tuples)
    return map(c.inst.leq, _at2(c.scaled, A, I), _at(c.sample, I))


def _homogeneous(c, tuples):
    inst = c.inst
    I, A = zip(*tuples)
    return map(inst.equal, _at2(c.scaled, A, I), map(
        inst.scale, map(abs, _at(c.ps, A)), _at(c.qs, A), _at(c.sample, I)))


def _additive_primitive(c, i, j):
    """Scored only when x, y and x + y have primitives below them and every
    sum of a primitive below x and one below y is witnessed in the sample;
    None otherwise."""
    inst, S, s = c.inst, c.sums, c.sample
    px, py = c.below[i], c.below[j]
    if not px or not py:
        return None
    total = S[i][j]
    ptotal = [s[p] for p in c.primitives if inst.leq(s[p], total)]
    sums = [S[p][q] for p in px for q in py]
    equal, witnessed = inst.equal, s[:c.m]
    if not ptotal or not all(
            any(map(equal, repeat(x), witnessed)) for x in sums):
        return None
    return all(any(map(equal, repeat(x), ptotal)) for x in sums) and all(
        any(map(equal, repeat(t), sums)) for t in ptotal)


def _each(c):
    return zip(range(c.n))


def _listed(c, keep=lambda a: True):
    """Positions of the listed scalars that `keep` accepts."""
    return [a for a, x in enumerate(c.scalars) if keep(x)]


def _joined(heads, tails):
    """Each tuple of `heads` followed by each tuple of `tails`, in order."""
    return starmap(add, product(heads, tails))


class Law(NamedTuple):
    """One checkable law.

    `tuples(c)` yields flat tuples of positions, `arity` = (elements,
    scalars) of them: positions in `c.sample`, then in `c.scalars`, in
    checking order. `verdicts(c, tuples)` takes a nonempty list of them and
    returns one verdict per tuple, in order and lazily: True when the tuple
    satisfies the law, False on a violation, None when it is outside the
    law's scope. Laws sharing an `entry` (None: their own name) roll into
    one report entry, which stops at the first violation. An entry none of
    whose tuples is scored is not-applicable when its first law gives a
    `reason`, and passes otherwise. `detail(c, *elements)` adds fields to
    a counterexample.
    """

    name: str
    arity: tuple[int, int]
    verdicts: Callable[[_Context, list], Iterable]
    tuples: Callable[[_Context], Iterable[tuple]]
    entry: Optional[str] = None
    sample_relative: bool = False
    reason: Optional[str] = None
    detail: Optional[Callable[..., dict]] = None


_NO_COMPARABLE = "no comparable pairs in sample"

AXIOMS: tuple[Law, ...] = (
    Law("A1.identity", (1, 0), _a1_identity, _each, entry="A1"),
    Law("A1.commutativity", (2, 0), _a1_commutativity,
        lambda c: combinations(range(c.n), 2), entry="A1"),
    Law("A1.associativity", (3, 0), _a1_associativity,
        lambda c: combinations(range(c.n), 3), entry="A1"),
    Law("A2.translation", (3, 0), _a2_translation,
        lambda c: _joined(c.comparable, _each(c)),
        entry="A2", reason=_NO_COMPARABLE),
    Law("A2.scaling", (2, 1), _a2_scaling,
        lambda c: _joined(c.comparable, zip(_listed(c))),
        entry="A2", reason=_NO_COMPARABLE),
    Law("A3.i", (2, 1), _a3_i, lambda c: _joined(
        combinations(range(c.n), 2), zip(_listed(c)))),
    Law("A3.ii", (1, 2), _a3_ii, lambda c: _joined(
        _each(c), product(_listed(c), repeat=2))),
    Law("A3.iii", (1, 2), lambda c, t: _split(c, t, c.inst.leq),
        lambda c: _joined(_each(c), pairs(_listed(c), 2))),
    Law("A3.iv", (1, 0), _a3_iv, _each),
    Law("A4", (1, 1), _a4, lambda c: product(range(c.n), _listed(c))),
    Law("A5", (1, 0), lambda c, t: (
        _characterized(c.inst, c.sample[i]) == c.minimal[i] for i, in t),
        _each, sample_relative=True),
    Law("A6", (1, 0), lambda c, t: (bool(c.below[i]) for i, in t),
        _each, sample_relative=True),
)

PROPERTIES: tuple[Law, ...] = (
    Law("balanced", (1, 1), _balanced, lambda c: product(
        range(c.n), _listed(c, lambda a: abs(a) <= 1))),
    Law("homogeneous", (1, 1), _homogeneous,
        lambda c: product(range(c.n), _listed(c))),
    Law("convex", (1, 2), lambda c, t: _split(c, t, c.inst.equal),
        lambda c: _joined(_each(c), pairs(_listed(c, lambda a: a >= 0), 2))),
    Law("zero-primitive", (1, 0), lambda c, t: (
        not c.minimal[i] or c.inst.equal(c.sample[i], c.inst.zero)
        for i, in t), _each, sample_relative=True),
    Law("single-primitive", (1, 0), lambda c, t: (
        len(c.below[i]) == 1 for i, in t), _each, sample_relative=True,
        detail=lambda c, i: {"primitiveCount": len(c.below[i])}),
    Law("additive-primitive", (2, 0),
        lambda c, t: starmap(partial(_additive_primitive, c), t),
        lambda c: pairs(range(c.n), 2), sample_relative=True,
        reason="no pair with fully witnessed primitive sets"),
)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

#: Tuples the runner asks a law's verdicts for at a time: enough to spread
#: the cost of gathering operands by column, few enough that the operand
#: lists stay small next to the sample's tables.
CHUNK = 512


def _context(inst: EvsInstance, sample, scalars) -> _Context:
    if inst.pack is None:
        raise InputError(f"instance {inst.name!r} has no pack hook to add "
                         "and scale with")
    if not sample:
        raise InputError("sample must be nonempty")
    if not any(inst.equal(x, inst.zero) for x in sample):
        raise InputError("sample must contain the instance zero")
    scalars = [parse_rational(a) for a in scalars]
    for needed in (0, 1, -1):
        if needed not in scalars:
            raise InputError("scalar list must contain 0, 1 and -1")
    return _Context(inst, list(sample), scalars)


def _counterexample(c: _Context, law: Law, args: tuple) -> dict:
    els, scs = args[:law.arity[0]], args[law.arity[0]:]
    ce = {
        "law": law.name,
        "elements": [c.inst.element_to_json(c.sample[i]) for i in els],
        "scalars": [fmt(c.scalars[a]) for a in scs],
    }
    if law.detail is not None:
        ce.update(law.detail(c, *els))
    return ce


def _check_entry(c: _Context, name: str, laws: list[Law]) -> dict:
    """The report entry of the laws sharing the entry `name`. Each law's
    tuples are read CHUNK at a time, and the chunk's verdicts up to the
    first False, skipping the None ones."""
    head = laws[0]
    entry = {"axiom": name, "status": "pass",
             "sampleRelative": head.sample_relative}
    scored = False
    for law in laws:
        tuples = law.tuples(c)
        while chunk := list(islice(tuples, CHUNK)):
            unscored = 0
            for at, verdict in filterfalse(
                    itemgetter(1), enumerate(law.verdicts(c, chunk))):
                if verdict is None:
                    unscored += 1
                    continue
                entry.update(status="fail", counterexample=_counterexample(
                    c, law, chunk[at]))
                return entry
            scored = scored or unscored < len(chunk)
    if not scored and head.reason is not None:
        entry.update(status="not-applicable", reason=head.reason)
    return entry


def _report(c: _Context, suite: str, laws: Sequence[Law], **header) -> dict:
    """The report of one suite: its entries, listed under the suite's name
    next to the run parameters in `header`, and `pass`, true when every
    entry passed."""
    entries = [_check_entry(c, name, list(group)) for name, group in groupby(
        laws, key=lambda law: law.entry or law.name)]
    return {"instance": c.inst.name, **header, suite: entries,
            "pass": all(e["status"] == "pass" for e in entries)}


def check_axioms(inst: EvsInstance, sample: Sequence, scalars: Sequence,
                 seed: int, properties: bool = False) -> dict:
    """Run A1-A6 over the sample; all pairs and triples are exhausted.

    A5/A6 verdicts are sample-relative by necessity and are flagged so. The
    seed is recorded for report replay; the sample itself is an input and is
    expected to be deterministic in it. With `properties`, the entries of
    the property suite, run on the same context, follow under "properties";
    "pass" still follows the axioms alone. That suite checks balanced over
    the |a| <= 1 scalars, never inferred from homogeneity, then homogeneous,
    convex and the primitive-structure properties, whose verdicts are
    sample-relative.
    """
    c = _context(inst, sample, scalars)
    doc = _report(c, "axioms", AXIOMS, seed=seed, sampleSize=c.n,
                  scalars=[fmt(a) for a in c.scalars])
    if properties:
        doc["properties"] = _report(c, "properties", PROPERTIES)["properties"]
    return doc
