"""Testing-set membership, independence, generators, bases, and feasibility
over explicit finite universes."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from evslib import (
    InputError,
    MetricMatrix,
    NormFamilyParams,
    PartitionSpec,
    Universe,
    builtin_metric,
    feasible_in_universe,
    generates,
    in_l,
    is_basis,
    orderly_independent_set,
    scale_metric,
    transform_bounded,
    transform_min,
)
from evslib.instances import (
    build_instance,
    carrier_labels,
    cone_element,
    cone_instance,
    metric_packed_instance,
    norm_family_instance,
    universe_from_json,
)
from evslib.cli import _dumps, main
from evslib.metrics import random_metric
from reference import rows
from replay import reference_instance, replay_certificate, scaled
from test_order_pins import run_job, write_inputs

F = Fraction

LABELS = carrier_labels(4)
INST = metric_packed_instance(LABELS)


def tri4(a, b, c, d, e, f):
    return MetricMatrix.from_rows(LABELS, [
        [0, a, b, c], [a, 0, d, e], [b, d, 0, f], [c, e, f, 0],
    ])


def off_diag_min(m: MetricMatrix) -> Fraction:
    full = rows(m)
    return min(full[i][j] for i, j in combinations(range(m.size), 2))


# the tables, and their integer forms: the elements of INST
RHO = tri4(1, 2, 2, 2, 1, 2)          # bounded, min 1, max 2
BIG = tri4(2, 3, 4, 3, 2, 3)          # min 2, max 4
rho, big = RHO.form, BIG.form


# ---------------------------------------------------------------------------
# Membership certificates
# ---------------------------------------------------------------------------


def test_in_l_of_truncation_certificate_at_least_one():
    cert = in_l(INST, transform_min(BIG).form, big)
    assert cert["status"] == "positive"
    assert F(cert["alpha"]) >= 1
    assert replay_certificate(INST, transform_min(BIG).form, big, cert)


def test_in_l_bounded_companion_closed_form():
    cert = in_l(INST, big, transform_bounded(BIG).form)
    assert F(cert["alpha"]) == F(1, 5)  # 1/(1+M), M = 4
    assert replay_certificate(INST, big, transform_bounded(BIG).form, cert)


def test_in_l_self():
    assert F(in_l(INST, rho, rho)["alpha"]) == 1


def test_in_l_rejects_zero_arguments():
    with pytest.raises(InputError):
        in_l(INST, INST.zero, rho)


def test_in_l_certificate_is_maximal():
    cert = in_l(INST, rho, big)
    bumped = F(cert["alpha"]) + F(1, 1000)
    assert not INST.leq(scale_metric(bumped, RHO).form, big)


def test_in_l_reports_a_negative_comparing_value_as_it_is():
    signed = tri4(1, -2, 3, 1, 1, 2).form    # min of BIG/signed is 3/-2
    cert = in_l(INST, signed, big)
    assert cert == {"status": "refuted", "alpha": "-3/2",
                    "reason": "comparing value is negative"}
    touching = tri4(0, 2, 2, 2, 1, 2).form  # vanishes where RHO does not
    assert in_l(INST, rho, touching) == {
        "status": "refuted", "alpha": "0/1",
        "reason": "comparing value is exactly zero"}


@pytest.mark.parametrize("job", ["in-l-positive", "in-l-cone-lsolve"])
def test_certificate_replays_from_the_printed_report(capsys, tmp_path, job):
    write_inputs(tmp_path)
    assert run_job(tmp_path, job) == 0
    doc = json.loads(capsys.readouterr().out)
    inputs, cert = doc["inputs"], doc["report"]
    inst = universe_from_json(inputs["universe"]).instance
    x, y = inst.element_from_json(inputs["x"]), inst.element_from_json(
        inputs["y"])
    assert cert["status"] == "positive"
    assert ("primitive" in cert) == (job == "in-l-cone-lsolve")
    assert replay_certificate(inst, x, y, cert)
    if job == "in-l-positive":
        bumped = {**cert, "alpha": str(F(cert["alpha"]) + F(1, 1000))}
        assert not replay_certificate(inst, x, y, bumped)


def test_refuted_certificate_does_not_replay():
    touching = tri4(0, 2, 2, 2, 1, 2).form
    assert not replay_certificate(INST, rho, touching,
                                  in_l(INST, rho, touching))


def counting_instance(inst):
    """inst with an element_to_json that records each element it prints."""
    printed = []

    def element_to_json(e):
        printed.append(e)
        return inst.element_to_json(e)
    return replace(inst, element_to_json=element_to_json), printed


@pytest.mark.parametrize("n", [1, 2, 5])
def test_independence_prints_each_element_once(n):
    rng = random.Random(n)
    inst, printed = counting_instance(INST)
    S = [random_metric(rng, LABELS).form for _ in range(n)]
    report = orderly_independent_set(inst, S)
    assert printed == S
    assert len(report["pairs"]) == n * (n - 1) // 2


def test_generation_prints_each_generator_and_element_once():
    inst, printed = counting_instance(INST)
    touching = tri4(0, 2, 2, 2, 1, 2)
    universe = Universe(inst, [rho, big, touching.form])
    report = generates(inst, [big, rho], universe)
    assert report["status"] == "fail"
    assert report["failureWitness"].to_json() == touching.to_json()
    assert printed == [big, rho, rho, big, touching.form]


# ---------------------------------------------------------------------------
# Orderly independence
# ---------------------------------------------------------------------------


def test_dependent_pair_fails_with_certificate():
    report = orderly_independent_set(INST, [rho, transform_bounded(RHO).form])
    assert report["status"] == "fail"
    verdict = report["pairs"][0]
    assert verdict["yInLx"]["status"] == "positive" or verdict["xInLy"]["status"] == "positive"


def test_singleton_is_independent():
    assert orderly_independent_set(INST, [rho])["status"] == "pass"


def test_norm_family_independent_at_epsilon():
    part = PartitionSpec(12)
    inst = norm_family_instance(part)
    family = [
        NormFamilyParams(part, ("h0",), F(2)),
        NormFamilyParams(part, ("h2",), F(2)),
        NormFamilyParams(part, ("h0",), F(3)),
    ]
    eps = F(2) ** -30
    report = orderly_independent_set(inst, family, eps=eps)
    assert report["status"] == "pass-with-eps"
    assert all(p["epsWitness"] is not None for p in report["pairs"])


def test_norm_family_without_eps_is_inconclusive():
    part = PartitionSpec(12)
    inst = norm_family_instance(part)
    family = [NormFamilyParams(part, ("h0",), F(2)),
              NormFamilyParams(part, ("h2",), F(2))]
    assert orderly_independent_set(inst, family)["status"] == "inconclusive"


# ---------------------------------------------------------------------------
# Generators and bases
# ---------------------------------------------------------------------------


def test_discrete_generates_random_universe_with_min_offdiag_certificates():
    rng = random.Random(41)
    labels = carrier_labels(6)
    inst = metric_packed_instance(labels)
    disc = builtin_metric("discrete", {}, 6)
    tables = [random_metric(rng, labels) for _ in range(30)]
    universe = Universe(inst, [m.form for m in tables])
    report = generates(inst, [disc.form], universe)
    assert report["status"] == "pass"
    for m, entry in zip(tables, report["coverage"]):
        assert entry["element"].to_json() == m.to_json()
        assert entry["certificate"]["alpha"] == \
            f"{off_diag_min(m).numerator}/{off_diag_min(m).denominator}"


def test_empty_generator_set_fails():
    universe = Universe(INST, [rho])
    assert generates(INST, [], universe)["status"] == "fail"


@pytest.mark.parametrize("eps", ["0", "-1", "1", "2"])
@pytest.mark.parametrize("universe, generators", [
    ("metrics", ["line", "half"]),
    ("cone", ["cone-unit", "cone-far"]),
    ("family", ["fam-p", "fam-q"]),
    ("family-one", ["fam-p"]),
])
@pytest.mark.parametrize("action", ["indep", "basis"])
def test_an_epsilon_outside_zero_one_is_refused_on_every_universe(
        capsys, tmp_path, action, universe, generators, eps):
    """On universes whose pairs need no decay witness (metrics, cone, a
    one-element norm family) as on those whose pairs do, before any pair
    is decided."""
    write_inputs(tmp_path)
    (tmp_path / "u-family-one.json").write_text(json.dumps({
        "instance": "norm-family", "depth": 12, "elements": ["fam-p.json"]}))
    argv = ["order", action, "--eps", eps,
            "--universe", str(tmp_path / f"u-{universe}.json")]
    if action == "basis":
        for name in generators:
            argv += ["--generator", str(tmp_path / f"{name}.json")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == (
        "", {"error": "epsilon must lie strictly between 0 and 1"})


def test_a_basis_reads_its_generators_once():
    """Both parts of a basis check see every generator, also where they
    come as an iterator."""
    universe = Universe(INST, [rho, big])
    B = [rho, big]
    assert _dumps(is_basis(INST, iter(B), universe)) == _dumps(
        is_basis(INST, B, universe))


def test_dependent_pair_generates_but_is_no_basis():
    universe = Universe(INST, [rho])
    B = [rho, transform_bounded(RHO).form]
    assert generates(INST, B, universe)["status"] == "pass"
    report = is_basis(INST, B, universe)
    assert report["status"] == "fail"
    assert report["generates"]["status"] == "pass"
    assert report["orderlyIndependent"]["status"] == "fail"


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def test_feasible_on_bounded_metric_with_companions():
    universe = Universe(INST, [big, transform_bounded(BIG).form,
                               transform_min(BIG).form])
    report = feasible_in_universe(INST, big, universe)
    assert report["status"] == "pass"
    alphas = [m["certificate"]["alpha"] for m in report["memberships"]]
    assert "1/5" in alphas  # the bounded companion needs 1/(1+M)


def test_feasible_singleton_universe():
    universe = Universe(INST, [rho])
    assert feasible_in_universe(INST, rho, universe)["status"] == "pass"


# ---------------------------------------------------------------------------
# Cone route through explicit primitives
# ---------------------------------------------------------------------------


def test_cone_membership_uses_universe_primitives():
    cone = cone_instance(2)
    v = (F(1), F(0))
    x, y = cone_element(F(2), v), cone_element(F(3), v)
    universe = Universe(cone, [cone_element(F(0), v), x, y])
    cert = in_l(cone, x, y, universe)
    assert cert["status"] == "positive"
    assert replay_certificate(cone, x, y, cert)


def test_cone_membership_inconclusive_without_primitive():
    cone = cone_instance(2)
    v, w = (F(1), F(0)), (F(0), F(1))
    x, y = cone_element(F(2), v), cone_element(F(3), w)
    universe = Universe(cone, [x, y])
    cert = in_l(cone, x, y, universe)
    assert cert["status"] == "inconclusive"


def test_cone_independence_scans_the_universe_once():
    """Every membership query of one universe reads the same minimal
    candidates, so the (n + 1)**2 comparisons of one scan over the universe
    and zero bound the whole check, for the 39 nonzero elements of a
    40-element cone sample."""
    cone, sample, _ = build_instance("cone", sample=40)
    calls = []

    def leq(a, b):
        calls.append(None)
        return cone.leq(a, b)

    counted = replace(cone, leq=leq)
    elements = [e for e in sample if not cone.equal(e, cone.zero)]
    n = len(elements)
    doc = orderly_independent_set(counted, elements,
                                  universe=Universe(counted, elements))
    assert n == 39 and len(calls) <= (n + 1) ** 2
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == (
        "fec215bb170f747e08164934cbbaae77a5bf2f93c97495c3b34675c6d768c32a")


# ---------------------------------------------------------------------------
# Certificate algebra on random triples
# ---------------------------------------------------------------------------


def test_certificate_algebra_invariants():
    rng = random.Random(59)
    labels = carrier_labels(5)
    inst = metric_packed_instance(labels)
    ref = reference_instance(inst)
    for _ in range(40):
        a = random_metric(rng, labels).form
        b = random_metric(rng, labels).form
        c = random_metric(rng, labels).form
        alpha = F(rng.randint(1, 7), rng.randint(1, 7))

        # replay
        cert_ab = in_l(inst, a, b)
        assert replay_certificate(inst, a, b, cert_ab)

        # monotonicity: x <= y means a membership relative to y transfers to x
        x, y = a, ref.add(a, b)
        assert inst.leq(x, y)
        cert_yc = in_l(inst, y, c)
        cert_xc = in_l(inst, x, c)
        if cert_yc["status"] == "positive":
            assert cert_xc["status"] == "positive"

        # scaling: certificates divide out the factor exactly
        assert F(in_l(inst, scaled(ref, alpha, a), c)["alpha"]) == \
            F(cert_xc["alpha"]) / alpha

        # transitivity: chained certificates compose multiplicatively
        cert_bc = in_l(inst, b, c)
        assert F(in_l(inst, a, c)["alpha"]) >= \
            F(cert_ab["alpha"]) * F(cert_bc["alpha"])
