"""Replay oracles for the certificates the library prints, and the
reference instances they and the differential tests run.

`evs --replay` re-runs a whole command and compares reports. These replay
one printed claim on its own: a verifier counterexample must still violate
its law, and a positive membership certificate must still be an order
inequality. Each reads the claim's elements and scalars back as a report's
inputs are read, and a norm value table, which no command takes as input,
by read_norm_table.

A verifier context runs the `add` and `scale` of the packed instance that
the `pack` hook returns (packed.py). reference_instance gives an instance
the sum and scalar action of tests/reference.py instead, on its integer
forms, behind a `pack` hook that changes nothing; packed_context gives the
packed ops on a few elements and reads their values back. Either `scale`
takes a scalar p/q as the ints p and q (`scaled` passes a Fraction).
"""

from dataclasses import replace
from fractions import Fraction

import reference
from evslib.core import AXIOMS, PROPERTIES, EvsInstance, _Context
from evslib.errors import InputError
from evslib.instances import point_set
from evslib.order import POSITIVE
from evslib.rationals import (parse_rational, parse_rationals, to_fractions,
                              to_ints)

LAWS = {law.name: law for law in AXIOMS + PROPERTIES}


def _tuple_ops(scale) -> tuple:
    """The pointwise sum and the scalar action `scale` of tests/reference.py,
    on the integer forms of rational tuples."""
    return (lambda a, b: to_ints(reference.pointwise_sum(to_fractions(a),
                                                         to_fractions(b))),
            lambda p, q, a: to_ints(scale(Fraction(p, q), to_fractions(a))))


def _points(a) -> frozenset:
    """The Fraction points of a point set in integer form."""
    pts, den = a
    return frozenset(tuple(Fraction(x, den) for x in p) for p in pts)


#: The sum and scalar action of each built-in instance, by the name its
#: instance carries before the bracket.
REFERENCE_OPS = {
    "metrics": _tuple_ops(reference.abs_scale),
    "metrics-reversed-order": _tuple_ops(reference.abs_scale),
    "metrics-no-abs-scale": _tuple_ops(reference.signed_scale),
    "norms": _tuple_ops(reference.abs_scale),
    "cone": _tuple_ops(reference.cone_scale),
    "hyperspace": (
        lambda a, b: point_set(reference.minkowski_sum(_points(a),
                                                       _points(b))),
        lambda p, q, a: point_set(reference.point_scale(Fraction(p, q),
                                                        _points(a)))),
}


def scaled(inst: EvsInstance, alpha: Fraction, x):
    """inst.scale of x by alpha, passed as its numerator and denominator."""
    return inst.scale(alpha.numerator, alpha.denominator, x)


def reference_instance(inst: EvsInstance, **ops) -> EvsInstance:
    """`inst` on its integer forms, with the sum and scalar action of
    tests/reference.py and with `ops` in place of any of its operations.
    Its `pack` hook returns it and the sample unchanged, so a verifier
    context over it runs these operations."""
    add, scale = REFERENCE_OPS[inst.name.partition("[")[0]]
    ref = replace(inst, **{"add": add, "scale": scale, **ops},
                  pack=lambda sample, scalars: (ref, sample))
    return ref


def packed_context(inst: EvsInstance, elements: list, scalars=()) -> tuple:
    """(packed instance, packed elements, read) of a verifier context over
    `elements` and the listed scalars 0, 1, -1 and `scalars`: the packed
    ops hold on the values a law computes from these, and `read` takes
    such a value back to the integer form of `inst`, through the JSON that
    both instances print."""
    packed, xs = inst.pack(list(elements), [Fraction(0), Fraction(1),
                                            Fraction(-1), *scalars])
    read = _reader(inst)
    return packed, xs, lambda x: read(packed.element_to_json(x))


def replay_counterexample(inst: EvsInstance, ce: dict, sample=None) -> bool:
    """Re-evaluate a recorded counterexample; True means the violation is
    reproduced (the law's verdict is False again). Sample-relative laws are
    judged against the sample they were found in, so it must be given.
    The law's verdicts run on the one tuple of a context of the sample
    followed by the counterexample's elements, with its scalars.
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
    m, els = len(given), list(map(_reader(inst), elements))
    c = _Context(inst, given + els, [parse_rational(a) for a in scalars], m)
    verdict, = law.verdicts(c, [(*range(m, m + len(els)),
                                 *range(len(scalars)))])
    return verdict is not None and not verdict


def _reader(inst: EvsInstance):
    """The reader of inst's elements from JSON: its loader, or
    read_norm_table for the norms instance, which has none."""
    return inst.element_from_json or (lambda doc: read_norm_table(inst, doc))


def read_norm_table(inst: EvsInstance, doc) -> tuple:
    """A value table of the norms instance `inst`, read from JSON: a list of
    as many rationals as the instance has probes."""
    table = parse_rationals(doc, "norm value table")
    if len(table) != len(inst.zero[0]):
        raise InputError("value table over a different probe set")
    return to_ints(table)


def replay_certificate(instance: EvsInstance, x, y, cert: dict) -> bool:
    """A positive membership document must replay as the order inequality
    alpha*x (+ primitive) <= y, read back as a report's inputs are. The
    scaling and the sum are those of tests/reference.py."""
    if cert.get("status") != POSITIVE:
        return False
    ref = reference_instance(instance)
    lhs = scaled(ref, parse_rational(cert["alpha"]), x)
    if "primitive" in cert:
        lhs = ref.add(lhs, instance.element_from_json(cert["primitive"]))
    return instance.leq(lhs, y)
