"""Testing-set membership and order comparability over explicit finite universes.

The testing set of a nonzero element x collects everything that dominates a
nonzero multiple of x (plus a primitive). Membership is decided through the
instance's exact comparing function where one exists: the certificate is the
comparing value itself, the largest alpha with alpha*x <= y, and a certificate
replays as a concrete inequality. Instances without an exact comparing
function yield inconclusive verdicts, optionally upgraded to
epsilon-qualified independence by decay witnesses; nothing is ever guessed.

Every verdict here is universe-relative: carrier-wide set claims are not
executable over infinite carriers, so reports quantify only over the supplied
element lists and say so. The set-level tools (independence, generation,
bases, feasibility) return the JSON document they report, and fold their
parts into one status in one order: fail, then inconclusive, then
pass-with-eps or pass. A membership query returns its report document too;
the set-level reports embed it as it is and print each element once per
call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .core import EvsInstance
from .errors import InputError
from .rationals import fmt

POSITIVE = "positive"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


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


class Universe:
    """Finite list of nonzero elements of one instance; the zero element is
    held by the instance itself and is excluded from the list."""

    __slots__ = ("instance", "elements", "_candidates")

    def __init__(self, instance: EvsInstance, elements: Sequence):
        elements = tuple(elements)
        if not elements:
            raise InputError("universe must be nonempty")
        if instance.zero is not None:
            if any(instance.equal(e, instance.zero) for e in elements):
                raise InputError("universe elements must be nonzero")
        self.instance, self.elements = instance, elements
        self._candidates = None

    def candidates(self) -> list:
        """The minimal elements of the universe and zero: the primitive
        witnesses a membership search may use, computed on first use."""
        if self._candidates is None:
            self._candidates = minimal_elements(
                list(self.elements) + [self.instance.zero], self.instance)
        return self._candidates


def _require_nonzero(instance: EvsInstance, *elements) -> None:
    if instance.zero is None:
        return
    for e in elements:
        if instance.equal(e, instance.zero):
            raise InputError("testing sets are defined for nonzero elements only")


def in_l(instance: EvsInstance, x, y,
         universe: Optional[Universe] = None) -> dict:
    """Decide y in L(x), as the document `evs order in-l` reports: a
    positive, refuted or inconclusive "status", plus "alpha", "primitive" or
    "reason".

    Instances with an exact comparing function get the maximal certificate
    alpha = comparing(x, y); zero, or a negative value on signed tables,
    refutes membership and is reported as it is. Every such instance is
    zero primitive and homogeneous, which is what makes the comparing value
    decide membership. Instances with a larger primitive space search the
    universe's minimal elements for an explicit primitive witness and report
    inconclusive when the universe has none that fits.
    """
    _require_nonzero(instance, x, y)
    if instance.comparing is not None:
        value = instance.comparing(x, y)
        if value > 0:
            return {"status": POSITIVE, "alpha": fmt(value)}
        return {"status": REFUTED, "alpha": fmt(value),
                "reason": "comparing value is exactly zero"
                if value == 0 else "comparing value is negative"}
    if instance.lsolve is not None:
        if universe is None:
            return {"status": INCONCLUSIVE, "reason":
                    "primitive search needs a universe of candidates"}
        found = instance.lsolve(x, y, universe.candidates())
        if found is not None:
            alpha, prim = found
            return {"status": POSITIVE, "alpha": fmt(alpha),
                    "primitive": instance.element_to_json(prim)}
        return {"status": INCONCLUSIVE, "reason":
                "universe lacks a primitive witness for this pair"}
    return {"status": INCONCLUSIVE,
            "reason": "instance exposes no exact comparing function"}


# ---------------------------------------------------------------------------
# Set-level reports: each tool returns the JSON document it reports
# ---------------------------------------------------------------------------


def _fold(fail: bool, inconclusive: bool, eps: bool = False) -> str:
    """The status of a set-level check: one failure fails it, then one
    undecided part leaves it inconclusive; otherwise it passes, qualified
    by epsilon when a decay witness settled some part."""
    if fail:
        return "fail"
    if inconclusive:
        return INCONCLUSIVE
    return "pass-with-eps" if eps else "pass"


def orderly_independent_set(instance: EvsInstance, S: Sequence,
                            eps=None,
                            universe: Optional[Universe] = None) -> dict:
    """Pairwise independence of a set: passes when every pair is refuted in
    both directions; a single positive certificate fails the set. Pairs the
    instance cannot decide exactly are settled by epsilon decay witnesses when
    available, downgrading a pass to pass-with-eps."""
    S = list(S)
    _require_nonzero(instance, *S)
    epsilon = None if eps is None else Fraction(eps)
    if epsilon is not None and not 0 < epsilon < 1:
        raise InputError("epsilon must lie strictly between 0 and 1")
    pairs = []
    any_fail = any_eps = any_inconclusive = False
    named = zip(S, map(instance.element_to_json, S))
    for (x, x_doc), (y, y_doc) in combinations(named, 2):
        entry = {"x": x_doc, "y": y_doc}
        statuses = set()
        if instance.comparing is not None or instance.eps_independence is None:
            entry["yInLx"] = fwd = in_l(instance, x, y, universe)  # y in L(x)?
            entry["xInLy"] = bwd = in_l(instance, y, x, universe)  # x in L(y)?
            statuses = {fwd["status"], bwd["status"]}
        if POSITIVE in statuses:
            any_fail = True
        elif statuses != {REFUTED}:
            if instance.eps_independence is not None and epsilon is not None:
                entry["epsWitness"] = instance.eps_independence(
                    x, y, epsilon).to_json()
                any_eps = True
            else:
                any_inconclusive = True
        pairs.append(entry)
    doc = {"status": _fold(any_fail, any_inconclusive, any_eps),
           "universeRelative": True, "pairs": pairs}
    if epsilon is not None:
        doc["epsilon"] = fmt(epsilon)
    return doc


def generates(instance: EvsInstance, B: Sequence, universe: Universe) -> dict:
    """Does every universe element carry a positive membership certificate
    from some element of B?"""
    B = list(B)
    _require_nonzero(instance, *B)
    named = list(zip(B, map(instance.element_to_json, B)))
    coverage = []
    witness = None
    any_inconclusive = False
    for u in universe.elements:
        entry = {"element": instance.element_to_json(u), "generator": None}
        saw_inconclusive = False
        for b, b_doc in named:
            cert = in_l(instance, b, u, universe)
            if cert["status"] == POSITIVE:
                entry["generator"], entry["certificate"] = b_doc, cert
                break
            if cert["status"] == INCONCLUSIVE:
                saw_inconclusive = True
        else:
            entry["inconclusive"] = saw_inconclusive
            if saw_inconclusive:
                any_inconclusive = True
            elif witness is None:
                witness = entry["element"]
        coverage.append(entry)
    doc = {"status": _fold(witness is not None, any_inconclusive),
           "universeRelative": True, "coverage": coverage}
    if witness is not None:
        doc["failureWitness"] = witness
    return doc


def is_basis(instance: EvsInstance, B: Sequence, universe: Universe,
             eps=None) -> dict:
    """Generator and orderly independent at once, both universe-relative;
    independence runs first, so that a bad epsilon is refused first."""
    B = list(B)
    indep = orderly_independent_set(instance, B, eps=eps, universe=universe)
    gen = generates(instance, B, universe)
    statuses = {gen["status"], indep["status"]}
    return {
        "status": _fold("fail" in statuses, INCONCLUSIVE in statuses,
                        "pass-with-eps" in statuses),
        "universeRelative": True,
        "generates": gen,
        "orderlyIndependent": indep,
    }


def feasible_in_universe(instance: EvsInstance, x,
                         universe: Universe) -> dict:
    """Is the nonzero part of the universe's down-set of x inside L(x)?"""
    _require_nonzero(instance, x)
    below = [y for y in universe.elements if instance.leq(y, x)]
    entries = []
    witness = None
    any_inconclusive = False
    for y in below:
        cert = in_l(instance, x, y, universe)
        entries.append({"element": instance.element_to_json(y),
                        "certificate": cert})
        if cert["status"] == REFUTED and witness is None:
            witness = entries[-1]["element"]
        elif cert["status"] == INCONCLUSIVE:
            any_inconclusive = True
    doc = {
        "status": _fold(witness is not None, any_inconclusive),
        "universeRelative": True,
        "downSetSize": len(below),
        "memberships": entries,
    }
    if witness is not None:
        doc["failureWitness"] = witness
    return doc
