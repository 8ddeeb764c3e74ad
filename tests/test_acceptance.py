"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line so the suite run doubles as a
checklist. The oracles come from the reference model of tests/reference.py,
written from the paper's definitions in plain Fraction arithmetic and
independent of the code paths it checks: comparing values are re-derived
both as the minimum of rho/d over distinct pairs and as the largest
candidate multiplier lam with lam*d <= rho entry by entry, and every
triangle triple of the kappa grid is re-enumerated by the model's metric
check rather than delegated to validate_metric alone.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from evslib import (
    FSVector,
    NormFamilyParams,
    PartitionSpec,
    Universe,
    WeightMap,
    add_metrics,
    builtin_lazy,
    builtin_metric,
    cauchy_incompleteness_demo,
    check_axioms,
    classify_lazy_pair,
    comparing_function_metric,
    discrete_metric,
    embed_norm_to_metric,
    eval_weighted_norm,
    generates,
    in_l,
    independence_witness,
    is_basis,
    leq_metrics,
    orderly_independent_set,
    scale_metric,
    shrinking_metric,
    symmetric_grid_carrier,
    transform_bounded,
    transform_min,
    usual_metric,
    validate_metric,
)
from evslib.instances import (
    DEFAULT_SCALARS,
    build_instance,
    carrier_labels,
    metric_packed_instance,
    metric_reversed_order_instance,
    norm_family_instance,
    seeded_metric_sample,
)
from evslib.metrics import random_metric
import reference
from reference import rows
from replay import (reference_instance, replay_certificate,
                    replay_counterexample, scaled)

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


def test_criterion_01_axiom_suite():
    with criterion(1, "A1-A4 exact, A5/A6 sample-relative on all four "
                      "instances; reversed-order mutant refuted"):
        for name, kwargs in (
            ("metrics", {"carrier": 6}),
            ("norms", {"depth": 12}),
            ("cone", {"dim": 2}),
            ("hyperspace", {"dim": 2}),
        ):
            inst, sample, scalars = build_instance(
                name, seed=0, sample=50, **kwargs
            )
            report = check_axioms(inst, sample, scalars, seed=0)
            entries = {e["axiom"]: e for e in report["axioms"]}
            assert report["pass"], (name, [
                (a, e["status"]) for a, e in entries.items()
                if e["status"] != "pass"
            ])
            for axiom in ("A5", "A6"):
                assert entries[axiom]["sampleRelative"]
            for axiom in ("A1", "A2", "A3.i", "A3.ii", "A3.iii", "A3.iv", "A4"):
                assert not entries[axiom]["sampleRelative"]

        labels = carrier_labels(6)
        mutant = metric_reversed_order_instance(labels)
        sample = seeded_metric_sample(labels, seed=0, count=50)
        report = check_axioms(mutant, sample, DEFAULT_SCALARS, seed=0)
        entry, = (e for e in report["axioms"] if e["axiom"] == "A6")
        assert entry["status"] == "fail"
        assert replay_counterexample(mutant, entry["counterexample"], sample)


def test_criterion_02_property_suite():
    with criterion(2, "metric space balanced/homogeneous/convex/zero-primitive; "
                      "cone fails zero-primitivity"):
        inst, sample, scalars = build_instance("metrics", carrier=6, seed=0,
                                               sample=50)
        statuses = {e["axiom"]: e["status"] for e in check_axioms(
            inst, sample, scalars, seed=0, properties=True)["properties"]}
        for name in ("balanced", "homogeneous", "convex", "zero-primitive"):
            assert statuses[name] == "pass", name

        inst, sample, scalars = build_instance("cone", dim=2, seed=0, sample=50)
        statuses = {e["axiom"]: e["status"] for e in check_axioms(
            inst, sample, scalars, seed=0, properties=True)["properties"]}
        assert statuses["zero-primitive"] == "fail"


def test_criterion_03_comparing_function_oracle():
    with criterion(3, "comparing value equals the brute-force pair minimum on "
                      "100 random pairs (carriers up to 12 points)"):
        rng = random.Random(2024)
        for k in range(100):
            size = 3 + k % 10  # carriers of 3..12 points
            labels = carrier_labels(size)
            d = random_metric(rng, labels)
            rho = random_metric(rng, labels)
            value = comparing_function_metric(d, rho)
            assert value == reference.comparing(rows(d), rows(rho))
            assert value == reference.spectrum(rows(d), rows(rho))


def test_criterion_04_closed_form_comparing_values():
    with criterion(4, "truncation and bounded-companion comparing values match "
                      "their closed forms and the oracle on 50 random metrics"):
        rng = random.Random(4)
        labels = carrier_labels(6)
        for _ in range(50):
            rho = random_metric(rng, labels)
            full = rows(rho)
            values = [full[i][j] for i, j in combinations(range(rho.size), 2)]
            lo, hi = min(values), max(values)
            rmin, rb = transform_min(rho), transform_bounded(rho)

            assert comparing_function_metric(rmin, rho) == max(F(1), lo)
            assert comparing_function_metric(rho, rmin) == min(F(1), 1 / hi)
            assert comparing_function_metric(rb, rho) == 1 + lo
            assert comparing_function_metric(rho, rb) == 1 / (1 + hi)

            assert comparing_function_metric(rmin, rho) == \
                reference.comparing(rows(rmin), full)
            assert comparing_function_metric(rho, rb) == \
                reference.comparing(full, rows(rb))


def test_criterion_05_scaling_law():
    with criterion(5, "comparing value scales linearly in the argument and is "
                      "1 on the diagonal"):
        rng = random.Random(5)
        labels = carrier_labels(5)
        for _ in range(20):
            d = random_metric(rng, labels)
            rho = random_metric(rng, labels)
            alpha = F(rng.randint(1, 12), rng.randint(1, 12))
            assert comparing_function_metric(d, scale_metric(alpha, rho)) == \
                alpha * comparing_function_metric(d, rho)
            assert comparing_function_metric(rho, rho) == 1


def test_criterion_06_kappa_validation_and_feasibility_trend():
    with criterion(6, "kappa grid passes all 9261 triangle triples; usual "
                      "restriction sits below kappa with strictly shrinking "
                      "feasibility certificates"):
        kappa = builtin_metric("kappa", {"step": "1/10"}, 21)
        assert kappa.size ** 3 == 9261
        verdict = validate_metric(kappa)
        assert verdict["pass"]
        # the model enumerates every ordered triple afresh
        assert reference.validation(kappa) == verdict

        lazy_kappa = builtin_lazy("kappa")
        usual = usual_metric(symmetric_grid_carrier())
        for depth in (11, 21, 41):
            assert leq_metrics(usual.materialize(depth),
                               lazy_kappa.materialize(depth))
        report = classify_lazy_pair(lazy_kappa, usual, [11, 21, 41])
        seq = [F(v) for v in
               report["directions"]["secondRelativeFirst"]["upperBounds"]]
        assert seq == [F(1, 10), F(1, 20), F(1, 40)]
        assert seq[0] > seq[1] > seq[2] > 0


def test_criterion_07_shrinking_independence_trend():
    with criterion(7, "discrete-vs-shrinking refuting direction strictly "
                      "decreases and stays positive; converse membership "
                      "certified with multiplier 1"):
        report = classify_lazy_pair(discrete_metric(), shrinking_metric(),
                                    [10, 25, 50])
        seq = [F(v) for v in
               report["directions"]["secondRelativeFirst"]["upperBounds"]]
        assert seq == [F(1, 90), F(1, 600), F(1, 2450)]
        assert seq[0] > seq[1] > seq[2] > 0

        report = classify_lazy_pair(shrinking_metric(), discrete_metric(),
                                    [10, 25, 50])
        positive = report["directions"]["secondRelativeFirst"]
        assert positive["status"] == "positive"
        assert positive["certificate"] == "1/1"
        refuting = report["directions"]["firstRelativeSecond"]
        assert refuting["status"] == "refuted"
        assert refuting["strictlyDecreasing"]


def test_criterion_08_cauchy_demo():
    with criterion(8, "oscillation bound holds exactly over n,m in {10,20,40} "
                      "and the pointwise limit fails the metric axioms"):
        pairs = [[[0, 0], [0, 1]]]
        rng = random.Random(8)
        while len(pairs) < 10:
            x = [F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)]
            y = [F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)]
            if x != y:
                pairs.append([x, y])
        report = cauchy_incompleteness_demo([10, 20, 40], pairs)
        assert len(report["cauchyChecks"]) == 3
        assert report["cauchyBoundHolds"]
        assert all(check["holds"] for check in report["cauchyChecks"])
        violation = report["limitValidation"]["violation"]
        assert violation["axiom"] == "identity-of-indiscernibles"
        assert set(violation["indices"]) == {"(0/1,0/1)", "(0/1,1/1)"}
        assert report["demonstratesIncompleteness"]


def test_criterion_09_norm_family_independence():
    with criterion(9, "all distinct family parameter pairs at depth 12 are "
                      "independent up to 1e-6 with exact power ratios"):
        part = PartitionSpec(12)
        eps = F(1, 10 ** 6)
        params = [
            NormFamilyParams(part, c, g)
            for c in (("h0",), ("h2",))
            for g in (F(2), F(3))
        ]
        for a in range(len(params)):
            for b in range(a + 1, len(params)):
                p, q = params[a], params[b]
                report = independence_witness(p, q, eps)
                for direction, num, den in (
                    (report.first_relative_to_second, p, q),
                    (report.second_relative_to_first, q, p),
                ):
                    assert direction.ratio < eps
                    assert direction.ratio == direction.ratio_base ** direction.index
                    for i in range(1, 31):
                        vec = FSVector.from_dict(
                            {f"{direction.family}({direction.t},{i})": 1})
                        measured = (eval_weighted_norm(num, vec)
                                    / eval_weighted_norm(den, vec))
                        assert measured == direction.ratio_base ** i

        inst = norm_family_instance(part)
        indep = orderly_independent_set(inst, params, eps=eps)
        assert indep["status"] == "pass-with-eps"


def test_criterion_10_embedding_is_order_morphism():
    with criterion(10, "norm-to-metric embedding validates and is additive, "
                       "homogeneous, and order-preserving on 100 samples"):
        rng = random.Random(10)
        names = [f"h{k}" for k in range(6)]

        def rnd_weights():
            return WeightMap(
                {n: F(rng.randint(1, 8), rng.choice((1, 2, 4))) for n in names}
            )

        def rnd_points(count=5):
            pts = [FSVector(())]
            while len(pts) < count:
                cand = FSVector.from_dict({
                    n: F(rng.randint(-5, 5), rng.choice((1, 2)))
                    for n in rng.sample(names, rng.randint(1, 3))
                })
                if all(cand.coords != p.coords for p in pts):
                    pts.append(cand)
            return pts

        for _ in range(100):
            w1, w2 = rnd_weights(), rnd_weights()
            pts = rnd_points()
            m1 = embed_norm_to_metric(w1, pts)
            m2 = embed_norm_to_metric(w2, pts)
            assert validate_metric(m1)["pass"] and validate_metric(m2)["pass"]

            # additive: the image of the pointwise sum norm
            summed = tuple(
                tuple(eval_weighted_norm(w1, a.sub(b))
                      + eval_weighted_norm(w2, a.sub(b)) for b in pts)
                for a in pts
            )
            assert rows(add_metrics(m1, m2)) == summed

            # homogeneous: |alpha| passes through the embedding
            alpha = F(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3)))
            scaled = WeightMap({n: abs(alpha) * w1.weight(n) for n in names})
            assert rows(embed_norm_to_metric(scaled, pts)) == \
                rows(scale_metric(alpha, m1))

            # order: pointwise dominance on differences iff matrix order
            diffs = [a.sub(b) for a in pts for b in pts]
            dominated = all(
                eval_weighted_norm(w1, v) <= eval_weighted_norm(w2, v)
                for v in diffs
            )
            assert dominated == leq_metrics(m1, m2)


def test_criterion_11_discrete_basis_over_finite_carrier():
    with criterion(11, "the discrete metric generates 100 random metrics with "
                       "min off-diagonal certificates; a dependent pair is "
                       "no basis"):
        rng = random.Random(11)
        labels = carrier_labels(6)
        inst = metric_packed_instance(labels)
        disc = builtin_metric("discrete", {}, 6)
        tables = [random_metric(rng, labels) for _ in range(100)]
        universe = Universe(inst, [m.form for m in tables])
        report = generates(inst, [disc.form], universe)
        assert report["status"] == "pass"
        for m, entry in zip(tables, report["coverage"]):
            assert entry["element"].to_json() == m.to_json()
            lo = reference.comparing(rows(disc), rows(m))
            assert entry["certificate"]["alpha"] == f"{lo.numerator}/{lo.denominator}"

        rho = tables[0]
        verdict = is_basis(inst, [rho.form, transform_bounded(rho).form],
                           universe)
        assert verdict["orderlyIndependent"]["status"] == "fail"
        assert verdict["status"] == "fail"


def test_criterion_12_certificate_algebra():
    with criterion(12, "certificate replay, monotonicity, scaling invariance, "
                       "and transitivity on 200 random triples"):
        rng = random.Random(12)
        labels = carrier_labels(5)
        inst = metric_packed_instance(labels)
        ref = reference_instance(inst)
        for _ in range(200):
            a = random_metric(rng, labels).form
            b = random_metric(rng, labels).form
            c = random_metric(rng, labels).form
            alpha = F(rng.randint(1, 9), rng.randint(1, 9))

            cert_ab = in_l(inst, a, b)
            assert cert_ab["status"] == "positive"
            assert replay_certificate(inst, a, b, cert_ab)

            bigger = ref.add(a, c)
            assert inst.leq(a, bigger)
            cert_bigger = in_l(inst, bigger, b)
            if cert_bigger["status"] == "positive":
                assert cert_ab["status"] == "positive"
                assert F(cert_ab["alpha"]) >= F(cert_bigger["alpha"])

            assert F(in_l(inst, scaled(ref, alpha, a), b)["alpha"]) == \
                F(cert_ab["alpha"]) / alpha

            cert_bc = in_l(inst, b, c)
            assert F(in_l(inst, a, c)["alpha"]) >= \
                F(cert_ab["alpha"]) * F(cert_bc["alpha"])
