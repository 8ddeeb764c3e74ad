"""Generic ordered-semigroup-with-scalar-action contract and its verifier.

An instance packages a carrier fragment behind five operations: add, scale,
leq, equal, and a distinguished zero. The verifier runs the six structure
axioms over a seeded finite sample with exact arithmetic:

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

Both suites and replay read one table of laws (AXIOMS, PROPERTIES). A law
takes positions in a context's sample and scalars, and reads by index the
sums and orders of ordered sampled pairs and the scalings of sampled
elements by listed scalars, each table built whole on first use; `evs
axioms --properties` runs both suites on one context. Replay runs the law
on the given sample followed by the counterexample's elements. An entry
is not-applicable when its laws found nothing to check: A2 with no comparable
sampled pair, additive-primitive with no pair whose primitive sets are
witnessed in the sample. A report passes only when every entry passes, so
not-applicable counts as not passed: `evs axioms --instance metrics --sample 1`
exits 1 on A2 alone. In the property suite it makes `pass` false, but the
exit code of `evs axioms --properties` follows the axiom suite only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import (combinations, combinations_with_replacement, groupby,
                       product)
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import InputError
from .rationals import fmt, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


@dataclass(frozen=True)
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

    Elements are checked once, where they enter: `element_from_json`
    rejects any element not in the instance's shape, and the seeded samplers
    build elements in shape. The operations check nothing; given operands
    of the wrong shape, their result is undefined.

    The one dataclass of the package: the tracer of perfbench/ and the
    kernel tests swap its operations with dataclasses.replace.
    """

    name: str
    zero: Any
    add: Callable[[Any, Any], Any]
    scale: Callable[[Fraction, Any], Any]
    leq: Callable[[Any, Any], bool]
    equal: Callable[[Any, Any], bool]
    element_to_json: Callable[[Any], Any]
    element_from_json: Callable[[Any], Any]
    comparing: Optional[Callable[[Any, Any], Fraction]] = None
    eps_independence: Optional[Callable] = None
    lsolve: Optional[Callable] = None
    pack: Optional[Callable[[list, list], tuple]] = None


# ---------------------------------------------------------------------------
# The law table: one record per checkable law, shared by both suites and replay
# ---------------------------------------------------------------------------


class _Context:
    """The inputs of one run, by position, and the tables its laws read.

    A law reaches elements and scalars through their positions: `sample[i]`
    and `scalars[a]`. Three tables over the sample are built whole when a
    law first needs them, and are read by index: the sums
    `sums[i*n + j] = sample[i] + sample[j]` and the orders
    `order[i*n + j] = leq(sample[i], sample[j])`, flat lists of n*n slots,
    and `scaled[a][i] = scalars[a] * sample[i]`, one row per listed scalar.
    The products and sums of each pair of listed scalars are tables too.
    Every other operand, such as a sum, the product (a*b)x, the scaling
    |a|x or (a+b)x, goes to the instance operation afresh.

    One context serves both suites of a run. Replay builds one for a single
    counterexample: its sample is the given sample followed by the
    counterexample's elements, and its scalars are the counterexample's.
    The sample-relative predicates (`minimal`, `primitives`, `below`) range
    over the first `m` positions only, the given sample; in a run, m = n.

    When the instance has a `pack` hook, the context holds the instance and
    the sample it returns, for runs and replay alike: the built-in
    instances write every element over one common denominator for the
    sample and scalars, as packed integers (packed.py), so
    add is +, equal is ==, and leq and scale are a few integer operations.
    The elements go back to their integer forms only when a counterexample
    prints them."""

    def __init__(self, inst: EvsInstance, sample: list, scalars: list,
                 m: Optional[int] = None):
        if inst.pack is not None:
            inst, sample = inst.pack(sample, scalars)
        self.inst, self.sample, self.scalars = inst, sample, scalars
        self.n = len(sample)
        self.m = self.n if m is None else m

    @cached_property
    def sums(self) -> list:
        add, s = self.inst.add, self.sample
        return [add(x, y) for x in s for y in s]

    @cached_property
    def order(self) -> list:
        leq, s = self.inst.leq, self.sample
        return [leq(x, y) for x in s for y in s]

    @cached_property
    def scaled(self) -> list:
        scale, s = self.inst.scale, self.sample
        return [[scale(a, x) for x in s] for a in self.scalars]

    @cached_property
    def products(self) -> list:
        """products[a][b] = scalars[a] * scalars[b]."""
        return [[a * b for b in self.scalars] for a in self.scalars]

    @cached_property
    def scalar_sums(self) -> list:
        """scalar_sums[a][b] = scalars[a] + scalars[b]."""
        return [[a + b for b in self.scalars] for a in self.scalars]

    @cached_property
    def comparable(self) -> list:
        """Positions (i, j) of sampled pairs with sample[i] < sample[j]."""
        order, s, equal, n = self.order, self.sample, self.inst.equal, self.n
        return [(i, j) for i in range(n) for j in range(n)
                if order[i * n + j] and not equal(s[i], s[j])]

    @cached_property
    def primitives(self) -> list:
        """Positions of the sampled elements that are order-minimal and
        additively characterized."""
        return [p for p in range(self.m)
                if self.minimal(p) and _characterized(self.inst,
                                                      self.sample[p])]

    def minimal(self, i: int) -> bool:
        """No sampled element lies strictly below sample[i]."""
        order, s, equal, n = self.order, self.sample, self.inst.equal, self.n
        z = s[i]
        return not any(order[k * n + i] and not equal(s[k], z)
                       for k in range(self.m))

    def below(self, i: int) -> list:
        order, n = self.order, self.n
        return [p for p in self.primitives if order[p * n + i]]


def _characterized(inst: EvsInstance, x) -> bool:
    """x + (-1)x = zero."""
    return inst.equal(inst.add(x, inst.scale(MINUS_ONE, x)), inst.zero)


def _a1_identity(c, i):
    x = c.sample[i]
    return c.inst.equal(c.inst.add(x, c.inst.zero), x)


def _a1_commutativity(c, i, j):
    S, n = c.sums, c.n
    return c.inst.equal(S[i * n + j], S[j * n + i])


def _a1_associativity(c, i, j, k):
    inst, S, s, n = c.inst, c.sums, c.sample, c.n
    return inst.equal(inst.add(S[i * n + j], s[k]),
                      inst.add(s[i], S[j * n + k]))


def _a2_translation(c, i, j, k):
    S, n = c.sums, c.n
    return (not c.order[i * n + j]) or c.inst.leq(S[i * n + k], S[j * n + k])


def _a2_scaling(c, i, j, a):
    row = c.scaled[a]
    return (not c.order[i * c.n + j]) or c.inst.leq(row[i], row[j])


def _a3_i(c, i, j, a):
    inst, row = c.inst, c.scaled[a]
    return inst.equal(inst.scale(c.scalars[a], c.sums[i * c.n + j]),
                      inst.add(row[i], row[j]))


def _a3_ii(c, i, a, b):
    inst = c.inst
    return inst.equal(inst.scale(c.scalars[a], c.scaled[b][i]),
                      inst.scale(c.products[a][b], c.sample[i]))


def _a3_iii(c, i, a, b):
    inst, SC = c.inst, c.scaled
    return inst.leq(inst.scale(c.scalar_sums[a][b], c.sample[i]),
                    inst.add(SC[a][i], SC[b][i]))


def _a3_iv(c, i):
    x = c.sample[i]
    return c.inst.equal(c.inst.scale(ONE, x), x)


def _a4(c, i, a):
    inst = c.inst
    vanishes = inst.equal(c.scaled[a][i], inst.zero)
    return vanishes == ((c.scalars[a] == 0)
                        or inst.equal(c.sample[i], inst.zero))


def _a5(c, i):
    return _characterized(c.inst, c.sample[i]) == c.minimal(i)


def _a6(c, i):
    order, n = c.order, c.n
    return any(order[p * n + i] for p in c.primitives)


def _balanced(c, i, a):
    return c.inst.leq(c.scaled[a][i], c.sample[i])


def _homogeneous(c, i, a):
    inst = c.inst
    return inst.equal(c.scaled[a][i],
                      inst.scale(abs(c.scalars[a]), c.sample[i]))


def _convex(c, i, a, b):
    inst, SC = c.inst, c.scaled
    return inst.equal(inst.scale(c.scalar_sums[a][b], c.sample[i]),
                      inst.add(SC[a][i], SC[b][i]))


def _zero_primitive(c, i):
    return not c.minimal(i) or c.inst.equal(c.sample[i], c.inst.zero)


def _single_primitive(c, i):
    return len(c.below(i)) == 1


def _additive_primitive(c, i, j):
    """Scored only when x, y and x + y have primitives below them and every
    sum of a primitive below x and one below y is witnessed in the sample;
    None otherwise."""
    inst, S, s, n = c.inst, c.sums, c.sample, c.n
    px, py = c.below(i), c.below(j)
    if not px or not py:
        return None
    total = S[i * n + j]
    ptotal = [s[p] for p in c.primitives if inst.leq(s[p], total)]
    sums = [S[p * n + q] for p in px for q in py]
    witnessed = s[:c.m]
    if not ptotal or not all(
        any(inst.equal(x, t) for t in witnessed) for x in sums
    ):
        return None
    return all(
        any(inst.equal(x, t) for t in ptotal) for x in sums
    ) and all(
        any(inst.equal(t, x) for x in sums) for t in ptotal
    )


def _each(c):
    return ((i,) for i in range(c.n))


def _listed(c):
    return range(len(c.scalars))


class Law:
    """One checkable law.

    `holds(c, *elements, *scalars)` is True when the tuple satisfies the law,
    False on a violation, and None when the tuple is outside the law's scope;
    its arguments are positions in `c.sample` and then in `c.scalars`.
    `tuples(c)` yields the arguments after `c` as one flat tuple of
    positions, elements then scalars, in checking order. Laws sharing an
    `entry` (default: their own name) roll into one report entry, which
    stops at the first violation. An entry none of whose tuples is scored is
    not-applicable when its first law gives a `reason`, and passes
    otherwise. `detail(c, *elements)` adds fields to a counterexample.
    `scalars` is the number of trailing scalar arguments of `holds`.
    """

    __slots__ = ("name", "holds", "tuples", "entry", "sample_relative",
                 "reason", "detail", "scalars")

    def __init__(self, name: str, holds: Callable[..., Optional[bool]],
                 tuples: Callable[[_Context], Iterable[tuple]],
                 entry: Optional[str] = None, sample_relative: bool = False,
                 reason: Optional[str] = None,
                 detail: Optional[Callable[..., dict]] = None,
                 scalars: int = 0):
        self.name, self.holds, self.tuples = name, holds, tuples
        self.entry = entry or name
        self.sample_relative, self.reason = sample_relative, reason
        self.detail, self.scalars = detail, scalars

    @property
    def arity(self) -> tuple[int, int]:
        """(elements, scalars) that `holds` takes after the context."""
        return self.holds.__code__.co_argcount - 1 - self.scalars, self.scalars


_NO_COMPARABLE = "no comparable pairs in sample"

AXIOMS: tuple[Law, ...] = (
    Law("A1.identity", _a1_identity, _each, entry="A1"),
    Law("A1.commutativity", _a1_commutativity,
        lambda c: combinations(range(c.n), 2), entry="A1"),
    Law("A1.associativity", _a1_associativity,
        lambda c: combinations(range(c.n), 3), entry="A1"),
    Law("A2.translation", _a2_translation, lambda c: (
        (i, j, k) for i, j in c.comparable for k in range(c.n)),
        entry="A2", reason=_NO_COMPARABLE),
    Law("A2.scaling", _a2_scaling, lambda c: (
        (i, j, a) for i, j in c.comparable for a in _listed(c)),
        entry="A2", reason=_NO_COMPARABLE, scalars=1),
    Law("A3.i", _a3_i, lambda c: (
        (i, j, a) for i, j in combinations(range(c.n), 2)
        for a in _listed(c)), scalars=1),
    Law("A3.ii", _a3_ii, lambda c: (
        (i, a, b) for i in range(c.n)
        for a, b in product(_listed(c), repeat=2)), scalars=2),
    Law("A3.iii", _a3_iii, lambda c: (
        (i, a, b) for i in range(c.n)
        for a, b in combinations_with_replacement(_listed(c), 2)), scalars=2),
    Law("A3.iv", _a3_iv, _each),
    Law("A4", _a4, lambda c: (
        (i, a) for i in range(c.n) for a in _listed(c)), scalars=1),
    Law("A5", _a5, _each, sample_relative=True),
    Law("A6", _a6, _each, sample_relative=True),
)

PROPERTIES: tuple[Law, ...] = (
    Law("balanced", _balanced, lambda c: (
        (i, a) for i in range(c.n) for a in _listed(c)
        if abs(c.scalars[a]) <= 1), scalars=1),
    Law("homogeneous", _homogeneous, lambda c: (
        (i, a) for i in range(c.n) for a in _listed(c)), scalars=1),
    Law("convex", _convex, lambda c: (
        (i, a, b) for i in range(c.n) for a, b in combinations_with_replacement(
            [a for a in _listed(c) if c.scalars[a] >= 0], 2)), scalars=2),
    Law("zero-primitive", _zero_primitive, _each, sample_relative=True),
    Law("single-primitive", _single_primitive, _each, sample_relative=True,
        detail=lambda c, i: {"primitiveCount": len(c.below(i))}),
    Law("additive-primitive", _additive_primitive,
        lambda c: combinations_with_replacement(range(c.n), 2),
        sample_relative=True,
        reason="no pair with fully witnessed primitive sets"),
)

LAWS: dict[str, Law] = {law.name: law for law in AXIOMS + PROPERTIES}


# ---------------------------------------------------------------------------
# The runner and replay
# ---------------------------------------------------------------------------


def _context(inst: EvsInstance, sample, scalars) -> _Context:
    if not sample:
        raise InputError("sample must be nonempty")
    if not any(inst.equal(x, inst.zero) for x in sample):
        raise InputError("sample must contain the instance zero")
    scalars = [parse_rational(a) for a in scalars]
    for needed in (ZERO, ONE, MINUS_ONE):
        if needed not in scalars:
            raise InputError("scalar list must contain 0, 1 and -1")
    return _Context(inst, list(sample), scalars)


def _counterexample(c: _Context, law: Law, args: tuple) -> dict:
    n = law.arity[0]
    els, scs = args[:n], args[n:]
    ce = {
        "law": law.name,
        "elements": [c.inst.element_to_json(c.sample[i]) for i in els],
        "scalars": [fmt(c.scalars[a]) for a in scs],
    }
    if law.detail is not None:
        ce.update(law.detail(c, *els))
    return ce


def _check_entry(c: _Context, name: str, laws: list[Law]) -> dict:
    """The report entry of the laws sharing the entry `name`."""
    head = laws[0]
    entry = {"axiom": name, "status": "pass",
             "sampleRelative": head.sample_relative}
    scored = False
    for law in laws:
        holds = law.holds
        for args in law.tuples(c):
            verdict = holds(c, *args)
            if verdict is None:
                continue
            if not verdict:
                entry.update(status="fail",
                             counterexample=_counterexample(c, law, args))
                return entry
            scored = True
    if not scored and head.reason is not None:
        entry.update(status="not-applicable", reason=head.reason)
    return entry


def _report(c: _Context, suite: str, laws: Sequence[Law], **header) -> dict:
    """The report of one suite: its entries, listed under the suite's name
    next to the run parameters in `header`, and `pass`, true when every
    entry passed."""
    entries = [_check_entry(c, name, list(group))
               for name, group in groupby(laws, key=lambda law: law.entry)]
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


def replay_counterexample(inst: EvsInstance, ce: dict,
                          sample: Optional[Sequence] = None) -> bool:
    """Re-evaluate a recorded counterexample; True means the violation is
    reproduced (the law predicate fails again). Sample-relative laws are
    judged against the sample they were found in, so it must be given.
    The law runs on a context of the sample followed by the
    counterexample's elements, with the counterexample's scalars.
    A malformed counterexample (unknown law, missing or non-list elements or
    scalars, the wrong number of either, an unreadable element) raises
    InputError."""
    if not isinstance(ce, dict):
        raise InputError("a counterexample is a JSON object")
    name = ce.get("law")
    law = LAWS.get(name) if isinstance(name, str) else None
    if law is None:
        raise InputError(f"unknown law {name!r}")
    elements, scalars = ce.get("elements"), ce.get("scalars")
    if not isinstance(elements, list) or not isinstance(scalars, list):
        raise InputError('a counterexample needs "elements" and "scalars" lists')
    if (len(elements), len(scalars)) != law.arity:
        raise InputError("{} takes {} elements and {} scalars".format(
            law.name, *law.arity))
    if law.sample_relative and sample is None:
        raise InputError(f"{law.name} is sample-relative: replay needs the sample")
    given = list(sample or ())
    m, els = len(given), [inst.element_from_json(e) for e in elements]
    c = _Context(inst, given + els, [parse_rational(a) for a in scalars], m)
    verdict = law.holds(c, *range(m, m + len(els)), *range(len(scalars)))
    return verdict is not None and not verdict


# ---------------------------------------------------------------------------
# Minimal elements
# ---------------------------------------------------------------------------


def minimal_elements(universe: Sequence, inst: EvsInstance) -> list:
    """All universe elements with no distinct universe element below them;
    this is the sample-relative minimal set, not a carrier-wide claim. Each
    scan stops at the first element found below."""
    universe = list(universe)
    if not universe:
        raise InputError("universe must be nonempty")
    leq, equal = inst.leq, inst.equal
    return [z for z in universe
            if not any(leq(y, z) and not equal(y, z) for y in universe)]
