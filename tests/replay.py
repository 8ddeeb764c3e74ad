"""Replay oracles for the certificates the library prints.

`evs --replay` re-runs a whole command and compares reports. These replay
one printed claim on its own, through the instance operations: a verifier
counterexample must still violate its law, and a positive membership
certificate must still be an order inequality. Each reads the claim's
elements and scalars back as a report's inputs are read, and a norm value
table, which no command takes as input, by read_norm_table.
"""

from evslib.core import AXIOMS, PROPERTIES, EvsInstance, _Context
from evslib.errors import InputError
from evslib.order import POSITIVE
from evslib.rationals import parse_rational, parse_rationals, to_ints

LAWS = {law.name: law for law in AXIOMS + PROPERTIES}


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
    read = inst.element_from_json or (lambda doc: read_norm_table(inst, doc))
    m, els = len(given), [read(e) for e in elements]
    c = _Context(inst, given + els, [parse_rational(a) for a in scalars], m)
    verdict, = law.verdicts(c, [(*range(m, m + len(els)),
                                 *range(len(scalars)))])
    return verdict is not None and not verdict


def read_norm_table(inst: EvsInstance, doc) -> tuple:
    """A value table of the norms instance `inst`, read from JSON: a list of
    as many rationals as the instance has probes."""
    table = parse_rationals(doc, "norm value table")
    if len(table) != len(inst.zero[0]):
        raise InputError("value table over a different probe set")
    return to_ints(table)


def replay_certificate(instance: EvsInstance, x, y, cert: dict) -> bool:
    """A positive membership document must replay as the order inequality
    alpha*x (+ primitive) <= y, read back as a report's inputs are."""
    if cert.get("status") != POSITIVE:
        return False
    scaled = instance.scale(parse_rational(cert["alpha"]), x)
    if "primitive" in cert:
        scaled = instance.add(scaled,
                              instance.element_from_json(cert["primitive"]))
    return instance.leq(scaled, y)
