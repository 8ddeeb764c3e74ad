"""The chunked law runner against a plain per-tuple reference loop.

The reference judges one tuple at a time with its own predicates and its
own tuple order, over the same context tables (sums, orders, scalings,
minimal elements and primitives), and stops an entry at its first
violation. Reports must be equal byte for byte, whatever the chunk size,
and a run must call the instance operations exactly as often as the
reference does, so no operation runs past the first failing tuple.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement, groupby,
                       product)
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evslib import core
from evslib.core import AXIOMS, PROPERTIES, check_axioms
from evslib.cli import _dumps
from evslib.instances import DEFAULT_SCALARS, build_instance
from evslib.metrics import MetricMatrix
from evslib.rationals import fmt
from replay import reference_instance, scaled

NAMES = ("metrics", "norms", "cone", "hyperspace",
         "metrics-reversed-order", "metrics-no-abs-scale")


# ---------------------------------------------------------------------------
# The reference: per-tuple predicates and tuple orders, one law at a time
# ---------------------------------------------------------------------------


def _translation(c, i, j, k):
    S = c.sums
    return not c.order[i][j] or c.inst.leq(S[i][k], S[j][k])


def _scaling(c, i, j, a):
    row = c.scaled[a]
    return not c.order[i][j] or c.inst.leq(row[i], row[j])


def _distributes(c, i, j, a):
    inst, row = c.inst, c.scaled[a]
    return inst.equal(scaled(inst, c.scalars[a], c.sums[i][j]),
                      inst.add(row[i], row[j]))


def _composes(c, i, a, b):
    inst = c.inst
    return inst.equal(
        scaled(inst, c.scalars[a], c.scaled[b][i]),
        scaled(inst, c.scalars[a] * c.scalars[b], c.sample[i]))


def _split(relation):
    def holds(c, i, a, b):
        inst, SC = c.inst, c.scaled
        return getattr(inst, relation)(
            scaled(inst, c.scalars[a] + c.scalars[b], c.sample[i]),
            inst.add(SC[a][i], SC[b][i]))
    return holds


def _a4(c, i, a):
    inst = c.inst
    vanishes = inst.equal(c.scaled[a][i], inst.zero)
    return vanishes == (c.scalars[a] == 0
                        or inst.equal(c.sample[i], inst.zero))


def _a5(c, i):
    inst, x = c.inst, c.sample[i]
    characterized = inst.equal(
        inst.add(x, scaled(inst, Fraction(-1), x)), inst.zero)
    return characterized == c.minimal[i]


def _additive(c, i, j):
    inst, S, s = c.inst, c.sums, c.sample
    px, py = c.below[i], c.below[j]
    if not px or not py:
        return None
    total = S[i][j]
    ptotal = [s[p] for p in c.primitives if inst.leq(s[p], total)]
    sums = [S[p][q] for p in px for q in py]
    if not ptotal or not all(any(inst.equal(x, t) for t in s[:c.m])
                             for x in sums):
        return None
    return (all(any(inst.equal(x, t) for t in ptotal) for x in sums)
            and all(any(inst.equal(t, x) for x in sums) for t in ptotal))


HOLDS = {
    "A1.identity": lambda c, i: c.inst.equal(
        c.inst.add(c.sample[i], c.inst.zero), c.sample[i]),
    "A1.commutativity": lambda c, i, j: c.inst.equal(c.sums[i][j],
                                                     c.sums[j][i]),
    "A1.associativity": lambda c, i, j, k: c.inst.equal(
        c.inst.add(c.sums[i][j], c.sample[k]),
        c.inst.add(c.sample[i], c.sums[j][k])),
    "A2.translation": _translation,
    "A2.scaling": _scaling,
    "A3.i": _distributes,
    "A3.ii": _composes,
    "A3.iii": _split("leq"),
    "A3.iv": lambda c, i: c.inst.equal(scaled(c.inst, Fraction(1),
                                                    c.sample[i]),
                                       c.sample[i]),
    "A4": _a4,
    "A5": _a5,
    "A6": lambda c, i: any(c.order[p][i] for p in c.primitives),
    "balanced": lambda c, i, a: c.inst.leq(c.scaled[a][i], c.sample[i]),
    "homogeneous": lambda c, i, a: c.inst.equal(
        c.scaled[a][i], scaled(c.inst, abs(c.scalars[a]), c.sample[i])),
    "convex": _split("equal"),
    "zero-primitive": lambda c, i: (not c.minimal[i] or c.inst.equal(
        c.sample[i], c.inst.zero)),
    "single-primitive": lambda c, i: len(c.below[i]) == 1,
    "additive-primitive": _additive,
}


def _tuples(c, name):
    n, listed = range(c.n), range(len(c.scalars))
    nonnegative = [a for a in listed if c.scalars[a] >= 0]
    return {
        "A1.identity": lambda: ((i,) for i in n),
        "A1.commutativity": lambda: combinations(n, 2),
        "A1.associativity": lambda: combinations(n, 3),
        "A2.translation": lambda: ((i, j, k) for i, j in c.comparable
                                   for k in n),
        "A2.scaling": lambda: ((i, j, a) for i, j in c.comparable
                               for a in listed),
        "A3.i": lambda: ((i, j, a) for i, j in combinations(n, 2)
                         for a in listed),
        "A3.ii": lambda: ((i, a, b) for i in n
                          for a, b in product(listed, repeat=2)),
        "A3.iii": lambda: ((i, a, b) for i in n for a, b in
                           combinations_with_replacement(listed, 2)),
        "A3.iv": lambda: ((i,) for i in n),
        "A4": lambda: ((i, a) for i in n for a in listed),
        "A5": lambda: ((i,) for i in n),
        "A6": lambda: ((i,) for i in n),
        "balanced": lambda: ((i, a) for i in n for a in listed
                             if abs(c.scalars[a]) <= 1),
        "homogeneous": lambda: ((i, a) for i in n for a in listed),
        "convex": lambda: ((i, a, b) for i in n for a, b in
                           combinations_with_replacement(nonnegative, 2)),
        "zero-primitive": lambda: ((i,) for i in n),
        "single-primitive": lambda: ((i,) for i in n),
        "additive-primitive": lambda: combinations_with_replacement(n, 2),
    }[name]()


def _entry(c, name, laws):
    head = laws[0]
    entry = {"axiom": name, "status": "pass",
             "sampleRelative": head.sample_relative}
    scored = False
    for law in laws:
        holds = HOLDS[law.name]
        for args in _tuples(c, law.name):
            verdict = holds(c, *args)
            if verdict is None:
                continue
            if not verdict:
                count = law.arity[0]
                ce = {"law": law.name,
                      "elements": [c.inst.element_to_json(c.sample[i])
                                   for i in args[:count]],
                      "scalars": [fmt(c.scalars[a]) for a in args[count:]]}
                if law.detail is not None:
                    ce.update(law.detail(c, *args[:count]))
                entry.update(status="fail", counterexample=ce)
                return entry
            scored = True
    if not scored and head.reason is not None:
        entry.update(status="not-applicable", reason=head.reason)
    return entry


def _entries(c, laws):
    return [_entry(c, name, list(group)) for name, group in
            groupby(laws, key=lambda law: law.entry or law.name)]


def reference_check(inst, sample, scalars, seed, properties=False):
    c = core._context(inst, sample, scalars)
    axioms = _entries(c, AXIOMS)
    doc = {"instance": c.inst.name, "seed": seed, "sampleSize": c.n,
           "scalars": [fmt(a) for a in c.scalars], "axioms": axioms,
           "pass": all(e["status"] == "pass" for e in axioms)}
    if properties:
        doc["properties"] = _entries(c, PROPERTIES)
    return doc


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------


def runs():
    return st.tuples(st.sampled_from(NAMES), st.integers(0, 2**16),
                     st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(run=runs(), chunk=st.sampled_from([1, 2, 3, 7, core.CHUNK]),
       properties=st.booleans())
def test_runner_reports_as_the_per_tuple_loop(run, chunk, properties):
    name, seed, size = run
    inst, sample, scalars = build_instance(name, seed=seed, sample=size)
    with patch.object(core, "CHUNK", chunk):
        report = check_axioms(inst, sample, scalars, seed, properties)
    assert json.dumps(report, default=MetricMatrix.to_json) == json.dumps(
        reference_check(inst, sample, scalars, seed, properties),
        default=MetricMatrix.to_json)


def counted(inst):
    """The reference instance of `inst` (replay.reference_instance), with
    every call of its four operations counted by name."""
    calls, ref = Counter(), reference_instance(inst)

    def wrap(op_name):
        op = getattr(ref, op_name)

        def op_counted(*args):
            calls[op_name] += 1
            return op(*args)
        return op_counted

    ops = {op_name: wrap(op_name)
           for op_name in ("add", "scale", "leq", "equal")}
    return reference_instance(inst, **ops), calls


@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_a_run_calls_the_operations_the_per_tuple_loop_calls(run):
    name, seed, size = run
    inst, sample, scalars = build_instance(name, seed=seed, sample=size)
    run_inst, run_calls = counted(inst)
    ref_inst, ref_calls = counted(inst)
    report = check_axioms(run_inst, sample, scalars, seed, properties=True)
    assert _dumps(report) == _dumps(reference_check(
        ref_inst, sample, scalars, seed, properties=True))
    assert run_calls == ref_calls
    if name.startswith("metrics-"):
        assert not report["pass"]   # the broken instances stop early


@pytest.mark.parametrize("name", ["metrics", "cone"])
@pytest.mark.parametrize("size", [1, 3, 9])
@pytest.mark.parametrize("extra", [(), (Fraction(1, 3),),
                                   (Fraction(5, 7), Fraction(-4))])
def test_the_runner_reads_tuple_streams_of_the_closed_form_sizes(
        name, size, extra):
    """On a sound instance every tuple of these laws is judged, so the
    chunks the runner hands their verdicts add up to the stream sizes."""
    inst, sample, _ = build_instance(name, seed=0, sample=size)
    scalars = list(DEFAULT_SCALARS) + list(extra)
    read = Counter()

    def recording(law):
        def verdicts(c, tuples):
            read[law.name] += len(tuples)
            return law.verdicts(c, tuples)
        return law._replace(verdicts=verdicts)

    with patch.object(core, "AXIOMS", tuple(map(recording, AXIOMS))):
        report = check_axioms(inst, sample, scalars, 0)
    n, s = size, len(scalars)
    assert all(e["status"] == "pass"
               for e in report["axioms"] if e["axiom"] in ("A1", "A3.i",
                                                            "A3.ii",
                                                            "A3.iii"))
    assert {law: read[law] for law in ("A1.associativity", "A3.i", "A3.ii",
                                       "A3.iii")} == {
        "A1.associativity": comb(n, 3),
        "A3.i": comb(n, 2) * s,
        "A3.ii": n * s * s,
        "A3.iii": n * comb(s + 1, 2),
    }
