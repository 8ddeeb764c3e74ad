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

Both suites and replay read one table of laws (AXIOMS, PROPERTIES). An entry
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
    in instances whose primitive space is larger than {zero}.

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


# ---------------------------------------------------------------------------
# The law table: one record per checkable law, shared by both suites and replay
# ---------------------------------------------------------------------------


class _Context:
    """The inputs of one run, the derived sets its laws share, and three
    tables over the sample, each filled on first use.

    `add`, `leq` and `scale` read a table when their element operands are
    sampled: the sum and the order `inst.leq(x, y)` of each ordered pair,
    in slot i*n + j, and `scale(a, x)` for each listed scalar a, in slot i of
    a's row. Operands are told apart by identity, through the position index
    `{id(x): i}` of the sample and the rows `{id(a): row}` of the scalars:
    the sample and the scalar list keep their objects alive, so no other
    object can share their ids. Any other operand, such as a sum, a
    replayed element or the scalar a*b, goes to the instance operation
    afresh."""

    def __init__(self, inst: EvsInstance, sample: list, scalars: list):
        self.inst = inst
        self.sample = sample
        self.scalars = scalars
        n = len(sample)
        self._pos = {id(x): i for i, x in enumerate(sample)}
        self._sums = [None] * (n * n)
        self._order = [None] * (n * n)
        self._scaled = {id(a): [None] * n for a in scalars}

    def add(self, x, y):
        i, j = self._pos.get(id(x)), self._pos.get(id(y))
        if i is None or j is None:
            return self.inst.add(x, y)
        k = i * len(self.sample) + j
        total = self._sums[k]
        if total is None:
            total = self._sums[k] = self.inst.add(x, y)
        return total

    def leq(self, x, y):
        i, j = self._pos.get(id(x)), self._pos.get(id(y))
        if i is None or j is None:
            return self.inst.leq(x, y)
        k = i * len(self.sample) + j
        below = self._order[k]
        if below is None:
            below = self._order[k] = self.inst.leq(x, y)
        return below

    def scale(self, a, x):
        row, i = self._scaled.get(id(a)), self._pos.get(id(x))
        if row is None or i is None:
            return self.inst.scale(a, x)
        scaled = row[i]
        if scaled is None:
            scaled = row[i] = self.inst.scale(a, x)
        return scaled

    @cached_property
    def comparable(self) -> list:
        """Sampled pairs with x < y."""
        return [
            (x, y)
            for x, y in product(self.sample, repeat=2)
            if self.leq(x, y) and not self.inst.equal(x, y)
        ]

    @cached_property
    def primitives(self) -> list:
        """Sampled elements that are order-minimal and additively characterized."""
        inst = self.inst
        return [
            p for p in self.sample
            if self.minimal(p)
            and inst.equal(self.add(p, self.scale(MINUS_ONE, p)), inst.zero)
        ]

    def minimal(self, z) -> bool:
        """No sampled element lies strictly below z."""
        return not any(self.leq(y, z) and not self.inst.equal(y, z)
                       for y in self.sample)

    def below(self, x) -> list:
        return [p for p in self.primitives if self.leq(p, x)]


def _a1_identity(c, x):
    return c.inst.equal(c.inst.add(x, c.inst.zero), x)


def _a1_commutativity(c, x, y):
    return c.inst.equal(c.add(x, y), c.add(y, x))


def _a1_associativity(c, x, y, z):
    inst = c.inst
    return inst.equal(inst.add(c.add(x, y), z), inst.add(x, c.add(y, z)))


def _a2_translation(c, x, y, z):
    return (not c.leq(x, y)) or c.leq(c.add(x, z), c.add(y, z))


def _a2_scaling(c, x, y, a):
    return (not c.leq(x, y)) or c.leq(c.scale(a, x), c.scale(a, y))


def _a3_i(c, x, y, a):
    return c.inst.equal(c.scale(a, c.add(x, y)),
                        c.add(c.scale(a, x), c.scale(a, y)))


def _a3_ii(c, x, a, b):
    return c.inst.equal(c.scale(a, c.scale(b, x)), c.scale(a * b, x))


def _a3_iii(c, x, a, b):
    return c.leq(c.scale(a + b, x), c.add(c.scale(a, x), c.scale(b, x)))


def _a3_iv(c, x):
    return c.inst.equal(c.scale(ONE, x), x)


def _a4(c, x, a):
    inst = c.inst
    vanishes = inst.equal(c.scale(a, x), inst.zero)
    return vanishes == ((a == 0) or inst.equal(x, inst.zero))


def _a5(c, z):
    additive = c.inst.equal(c.add(z, c.scale(MINUS_ONE, z)), c.inst.zero)
    return additive == c.minimal(z)


def _a6(c, x):
    return any(c.leq(p, x) for p in c.primitives)


def _balanced(c, x, a):
    return c.leq(c.scale(a, x), x)


def _homogeneous(c, x, a):
    return c.inst.equal(c.scale(a, x), c.scale(abs(a), x))


def _convex(c, x, a, b):
    return c.inst.equal(c.scale(a + b, x),
                        c.add(c.scale(a, x), c.scale(b, x)))


def _zero_primitive(c, x):
    return not c.minimal(x) or c.inst.equal(x, c.inst.zero)


def _single_primitive(c, x):
    return len(c.below(x)) == 1


def _additive_primitive(c, x, y):
    """Scored only when x, y and x + y have primitives below them and every
    sum of a primitive below x and one below y is witnessed in the sample;
    None otherwise."""
    inst = c.inst
    px, py = c.below(x), c.below(y)
    if not px or not py:
        return None
    ptotal = c.below(c.add(x, y))
    sums = [c.add(p, q) for p in px for q in py]
    if not ptotal or not all(
        any(inst.equal(s, t) for t in c.sample) for s in sums
    ):
        return None
    return all(
        any(inst.equal(s, t) for t in ptotal) for s in sums
    ) and all(
        any(inst.equal(t, s) for s in sums) for t in ptotal
    )


def _each(c):
    return ((x,) for x in c.sample)


class Law:
    """One checkable law.

    `holds(c, *elements, *scalars)` is True when the tuple satisfies the law,
    False on a violation, and None when the tuple is outside the law's scope.
    `tuples(c)` yields the arguments after `c` as one flat tuple, elements
    then scalars, in checking order. Laws sharing an `entry` (default: their
    own name) roll into one report entry, which stops at the first
    violation. An entry none of whose tuples is scored is not-applicable
    when its first law gives a `reason`, and passes otherwise.
    `detail(c, *elements)` adds fields to a counterexample. `scalars` is the
    number of trailing scalar arguments of `holds`.
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
        lambda c: combinations(c.sample, 2), entry="A1"),
    Law("A1.associativity", _a1_associativity,
        lambda c: combinations(c.sample, 3), entry="A1"),
    Law("A2.translation", _a2_translation, lambda c: (
        (x, y, z) for x, y in c.comparable for z in c.sample),
        entry="A2", reason=_NO_COMPARABLE),
    Law("A2.scaling", _a2_scaling, lambda c: (
        (x, y, a) for x, y in c.comparable for a in c.scalars),
        entry="A2", reason=_NO_COMPARABLE, scalars=1),
    Law("A3.i", _a3_i, lambda c: (
        (x, y, a) for x, y in combinations(c.sample, 2) for a in c.scalars),
        scalars=1),
    Law("A3.ii", _a3_ii, lambda c: (
        (x, a, b) for x in c.sample for a, b in product(c.scalars, repeat=2)),
        scalars=2),
    Law("A3.iii", _a3_iii, lambda c: (
        (x, a, b) for x in c.sample
        for a, b in combinations_with_replacement(c.scalars, 2)), scalars=2),
    Law("A3.iv", _a3_iv, _each),
    Law("A4", _a4, lambda c: (
        (x, a) for x in c.sample for a in c.scalars), scalars=1),
    Law("A5", _a5, _each, sample_relative=True),
    Law("A6", _a6, _each, sample_relative=True),
)

PROPERTIES: tuple[Law, ...] = (
    Law("balanced", _balanced, lambda c: (
        (x, a) for x in c.sample for a in c.scalars if abs(a) <= 1),
        scalars=1),
    Law("homogeneous", _homogeneous, lambda c: (
        (x, a) for x in c.sample for a in c.scalars), scalars=1),
    Law("convex", _convex, lambda c: (
        (x, a, b) for x in c.sample for a, b in combinations_with_replacement(
            [a for a in c.scalars if a >= 0], 2)), scalars=2),
    Law("zero-primitive", _zero_primitive, _each, sample_relative=True),
    Law("single-primitive", _single_primitive, _each, sample_relative=True,
        detail=lambda c, x: {"primitiveCount": len(c.below(x))}),
    Law("additive-primitive", _additive_primitive,
        lambda c: combinations_with_replacement(c.sample, 2),
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
        "elements": [c.inst.element_to_json(e) for e in els],
        "scalars": [fmt(a) for a in scs],
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
        for args in law.tuples(c):
            verdict = law.holds(c, *args)
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
                 seed: int) -> dict:
    """Run A1-A6 over the sample; all pairs and triples are exhausted.

    A5/A6 verdicts are sample-relative by necessity and are flagged so. The
    seed is recorded for report replay; the sample itself is an input and is
    expected to be deterministic in it.
    """
    c = _context(inst, sample, scalars)
    return _report(c, "axioms", AXIOMS, seed=seed, sampleSize=len(c.sample),
                   scalars=[fmt(a) for a in c.scalars])


def check_properties(inst: EvsInstance, sample: Sequence,
                     scalars: Sequence) -> dict:
    """Balanced / homogeneous / convex and the primitive-structure properties.

    Balanced is checked independently over the |a| <= 1 scalars, never
    inferred from homogeneity. The primitive properties use the
    sample-relative minimal set, so their verdicts are sample-relative; the
    additive-primitivity comparison is only scored on pairs whose primitive
    sets are fully witnessed inside the sample, and comes out not-applicable
    if no pair is.
    """
    return _report(_context(inst, sample, scalars), "properties", PROPERTIES)


def replay_counterexample(inst: EvsInstance, ce: dict,
                          sample: Optional[Sequence] = None) -> bool:
    """Re-evaluate a recorded counterexample; True means the violation is
    reproduced (the law predicate fails again). Sample-relative laws are
    judged against the sample they were found in, so it must be given.
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
    c = _Context(inst, list(sample or ()), [])
    els = [inst.element_from_json(e) for e in elements]
    scs = [parse_rational(a) for a in scalars]
    verdict = law.holds(c, *els, *scs)
    return verdict is not None and not verdict


# ---------------------------------------------------------------------------
# Minimal elements
# ---------------------------------------------------------------------------


def minimal_elements(universe: Sequence, inst: EvsInstance) -> list:
    """All universe elements with no distinct universe element below them;
    this is the sample-relative minimal set, not a carrier-wide claim."""
    universe = list(universe)
    if not universe:
        raise InputError("universe must be nonempty")
    minimal = _Context(inst, universe, []).minimal
    return [u for u in universe if minimal(u)]

