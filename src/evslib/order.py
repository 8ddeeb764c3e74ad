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
pass-with-eps or pass. A membership query returns an LCertificate, whose
alpha and primitive stay in element form so the certificate can replay.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Any, Optional, Sequence

from .core import EvsInstance, minimal_elements
from .errors import InputError
from .rationals import fmt

POSITIVE = "positive"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class Universe:
    """Finite list of nonzero elements of one instance; the zero element is
    held by the instance itself and is excluded from the list."""

    __slots__ = ("instance", "elements")

    def __init__(self, instance: EvsInstance, elements: Sequence):
        elements = tuple(elements)
        if not elements:
            raise InputError("universe must be nonempty")
        if instance.zero is not None:
            if any(instance.equal(e, instance.zero) for e in elements):
                raise InputError("universe elements must be nonzero")
        self.instance, self.elements = instance, elements


class LCertificate:
    """Outcome of a testing-set membership query for (x, y): does y dominate a
    nonzero multiple of x (plus a primitive)? The status is positive,
    refuted or inconclusive; only the explicit-primitive route gives a
    primitive."""

    __slots__ = ("status", "alpha", "primitive", "reason")

    def __init__(self, status: str, alpha: Optional[Fraction] = None,
                 primitive: Optional[Any] = None,
                 reason: Optional[str] = None):
        self.status, self.alpha = status, alpha
        self.primitive, self.reason = primitive, reason

    def to_json(self, instance: Optional[EvsInstance] = None) -> dict:
        doc = {"status": self.status}
        if self.alpha is not None:
            doc["alpha"] = fmt(self.alpha)
        if self.primitive is not None and instance is not None:
            doc["primitive"] = instance.element_to_json(self.primitive)
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def _require_nonzero(instance: EvsInstance, *elements) -> None:
    if instance.zero is None:
        return
    for e in elements:
        if instance.equal(e, instance.zero):
            raise InputError("testing sets are defined for nonzero elements only")


def in_l(instance: EvsInstance, x, y,
         universe: Optional[Universe] = None) -> LCertificate:
    """Decide y in L(x).

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
            return LCertificate(POSITIVE, alpha=value)
        return LCertificate(REFUTED, alpha=value,
                            reason="comparing value is exactly zero"
                            if value == 0 else "comparing value is negative")
    if instance.lsolve is not None:
        if universe is None:
            return LCertificate(
                INCONCLUSIVE,
                reason="primitive search needs a universe of candidates",
            )
        candidates = minimal_elements(
            list(universe.elements) + [instance.zero], instance
        )
        found = instance.lsolve(x, y, candidates)
        if found is not None:
            alpha, prim = found
            return LCertificate(POSITIVE, alpha=alpha, primitive=prim)
        return LCertificate(
            INCONCLUSIVE,
            reason="universe lacks a primitive witness for this pair",
        )
    return LCertificate(INCONCLUSIVE,
                        reason="instance exposes no exact comparing function")


def replay_certificate(instance: EvsInstance, x, y, cert: LCertificate) -> bool:
    """A positive certificate must replay as a concrete order inequality."""
    if cert.status != POSITIVE:
        return False
    scaled = instance.scale(cert.alpha, x)
    if cert.primitive is not None:
        scaled = instance.add(scaled, cert.primitive)
    return instance.leq(scaled, y)


def _scan_domain(a, universe: Universe) -> list:
    """Universe elements plus the query element itself, so asking about the
    zero element includes it in its own up-set."""
    inst = universe.instance
    domain = list(universe.elements)
    if not any(inst.equal(a, e) for e in domain):
        domain.append(a)
    return domain


def up_set(a, universe: Universe) -> list:
    inst = universe.instance
    return [e for e in _scan_domain(a, universe) if inst.leq(a, e)]


def down_set(a, universe: Universe) -> list:
    inst = universe.instance
    return [e for e in _scan_domain(a, universe) if inst.leq(e, a)]


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
    pairs = []
    any_fail = any_eps = any_inconclusive = False
    for x, y in combinations(S, 2):
        entry = {"x": instance.element_to_json(x),
                 "y": instance.element_to_json(y)}
        statuses = set()
        if instance.comparing is not None or instance.eps_independence is None:
            fwd = in_l(instance, x, y, universe)    # y in L(x)?
            bwd = in_l(instance, y, x, universe)    # x in L(y)?
            entry["yInLx"] = fwd.to_json(instance)
            entry["xInLy"] = bwd.to_json(instance)
            statuses = {fwd.status, bwd.status}
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
    coverage = []
    witness = None
    any_inconclusive = False
    for u in universe.elements:
        entry = {"element": instance.element_to_json(u), "generator": None}
        saw_inconclusive = False
        for b in B:
            cert = in_l(instance, b, u, universe)
            if cert.status == POSITIVE:
                entry["generator"] = instance.element_to_json(b)
                entry["certificate"] = cert.to_json(instance)
                break
            if cert.status == INCONCLUSIVE:
                saw_inconclusive = True
        else:
            entry["inconclusive"] = saw_inconclusive
            if saw_inconclusive:
                any_inconclusive = True
            elif witness is None:
                witness = u
        coverage.append(entry)
    doc = {"status": _fold(witness is not None, any_inconclusive),
           "universeRelative": True, "coverage": coverage}
    if witness is not None:
        doc["failureWitness"] = instance.element_to_json(witness)
    return doc


def is_basis(instance: EvsInstance, B: Sequence, universe: Universe,
             eps=None) -> dict:
    """Generator and orderly independent at once, both universe-relative."""
    gen = generates(instance, B, universe)
    indep = orderly_independent_set(instance, B, eps=eps, universe=universe)
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
        entries.append({
            "element": instance.element_to_json(y),
            "certificate": cert.to_json(instance),
        })
        if cert.status == REFUTED and witness is None:
            witness = y
        elif cert.status == INCONCLUSIVE:
            any_inconclusive = True
    doc = {
        "status": _fold(witness is not None, any_inconclusive),
        "universeRelative": True,
        "downSetSize": len(below),
        "memberships": entries,
    }
    if witness is not None:
        doc["failureWitness"] = instance.element_to_json(witness)
    return doc
