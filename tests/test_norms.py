"""Partition scheme, family weights, weighted sup norms, independence
witnesses, embeddings and decay indices."""

import random
from fractions import Fraction

import pytest

from evslib import (
    FSVector,
    InputError,
    NormFamilyParams,
    PartitionSpec,
    WeightMap,
    add_metrics,
    embed_norm_to_metric,
    eval_weighted_norm,
    independence_witness,
    leq_metrics,
    scale_metric,
    validate_metric,
)
from evslib import norms
from evslib.norms import _smallest_decay_index
from reference import least_decay_index, rows

F = Fraction


def params(depth, c, gamma):
    return NormFamilyParams(PartitionSpec(depth), tuple(c), F(gamma))


def unit(name):
    """The unit vector of an index."""
    return FSVector.from_dict({name: 1})


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def test_vector_drops_zero_coordinates():
    x = FSVector.from_dict({"h0": "0", "h1": "2/3"})
    assert x.coords == (("h1", F(2, 3)),)


def test_vector_arithmetic():
    x = FSVector.from_dict({"h0": 1, "h1": 2})
    y = FSVector.from_dict({"h1": 2, "h2": 5})
    assert x.sub(y).coords == (("h0", 1), ("h2", -5))
    assert x.sub(x).coords == ()


# ---------------------------------------------------------------------------
# Partition scheme
# ---------------------------------------------------------------------------


def test_partition_depth_four():
    part = PartitionSpec(4)
    assert part.b_members() == ["h0", "h2"]
    assignment = part.assignment()
    assert assignment["h1"] == "d(h0,1)"
    assert assignment["h3"] == "d(h2,1)"


def test_partition_depth_twelve_has_all_tag_kinds():
    part = PartitionSpec(12)
    assert len(part.b_members()) == 6
    values = set(part.assignment().values())
    assert any(v.startswith("d(") for v in values)
    assert any(v.startswith("e(") for v in values)
    assert "B" in values


def test_partition_is_prefix_stable():
    big = PartitionSpec(14).assignment()
    small = PartitionSpec(12).assignment()
    assert all(big[name] == tag for name, tag in small.items())


def test_partition_fiber_indices_are_injective():
    part = PartitionSpec(6)
    seen = set()
    for k in range(1, 400, 2):
        tag = part.tag_of_position(k)
        assert tag not in seen
        seen.add(tag)


def test_partition_resolve_names():
    part = PartitionSpec(6)
    assert part.resolve("h5") == part.tag_of_position(5)
    assert part.resolve("d(h0,2)") == ("D", "h0", 2)
    with pytest.raises(InputError):
        part.resolve("d(h1,1)")  # fibers hang off backbone members only
    with pytest.raises(InputError):
        part.resolve("q7")


def test_partition_rejects_shallow_depth():
    with pytest.raises(InputError):
        PartitionSpec(3)


# ---------------------------------------------------------------------------
# Family weights
# ---------------------------------------------------------------------------


def weight(w: NormFamilyParams, name: str) -> F:
    """The family weight of an index name, read as eval_weighted_norm
    reads it: by the name's partition tag."""
    return w.weight_of_tag(w.partition.resolve(name))


def test_weight_case_table():
    w = params(12, ["h0"], 2)
    assert weight(w, "d(h0,3)") == 8
    assert weight(w, "e(h0,3)") == F(1, 8)
    assert weight(w, "e(h0,10)") == F(1, 1024)
    assert weight(w, "d(h2,5)") == 1
    assert weight(w, "e(h2,5)") == 1
    assert weight(w, "h0") == 1 and weight(w, "h2") == 1


def test_weight_rule_reaches_beyond_enumerated_prefix():
    w = params(4, ["h0"], 3)
    assert weight(w, "e(h0,7)") == F(1, 2187)


def test_params_validation():
    with pytest.raises(InputError):
        params(12, [], 2)
    with pytest.raises(InputError):
        params(12, ["h0", "h2", "h4", "h6", "h8", "h10"], 2)  # C = B
    with pytest.raises(InputError):
        params(12, ["h1"], 2)  # not a backbone member
    with pytest.raises(InputError):
        params(12, ["h0"], 1)


def test_plain_weight_map_errors_outside_domain():
    w = WeightMap({"h0": "1"})
    with pytest.raises(InputError):
        w.weight("h1")
    with pytest.raises(InputError):
        WeightMap({"h0": "0"})


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------


def test_norm_of_fiber_unit_vector():
    w = params(12, ["h0"], 2)
    assert eval_weighted_norm(w, unit("e(h0,5)")) == F(1, 32)


def test_norm_of_zero_vector():
    w = params(4, ["h0"], 2)
    assert eval_weighted_norm(w, FSVector(())) == 0


def test_norm_of_mixed_vector():
    w = params(12, ["h0"], 3)
    x = FSVector.from_dict({"h0": 2, "d(h0,2)": 1})
    assert eval_weighted_norm(w, x) == 9
    plain = WeightMap({"h0": "1/2", "h1": 4})
    x = FSVector.from_dict({"h0": 3, "h1": F(-1, 8)})
    assert eval_weighted_norm(plain, x) == F(3, 2)


def test_norm_axioms_on_random_vectors():
    rng = random.Random(23)
    names = [f"h{k}" for k in range(8)]
    w = WeightMap({n: F(rng.randint(1, 8), rng.randint(1, 4)) for n in names})

    def rnd_vec():
        support = rng.sample(names, rng.randint(0, 4))
        return FSVector.from_dict(
            {n: F(rng.randint(-5, 5), rng.choice((1, 2))) for n in support}
        )

    for _ in range(60):
        x, y = rnd_vec(), rnd_vec()
        alpha = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        scaled = FSVector.from_dict({n: alpha * v for n, v in x.coords})
        summed = dict(x.coords)
        for n, v in y.coords:
            summed[n] = summed.get(n, 0) + v
        assert eval_weighted_norm(w, scaled) == \
            abs(alpha) * eval_weighted_norm(w, x)
        assert eval_weighted_norm(w, FSVector.from_dict(summed)) <= \
            eval_weighted_norm(w, x) + eval_weighted_norm(w, y)
        assert (eval_weighted_norm(w, x) == 0) == (x.coords == ())


# ---------------------------------------------------------------------------
# Independence witnesses
# ---------------------------------------------------------------------------


def test_witness_case_one_subset_difference():
    p = params(12, ["h0"], 2)
    q = params(12, ["h2"], 2)
    report = independence_witness(p, q, F(1, 1000))
    assert report.case == 1
    d1 = report.first_relative_to_second
    assert (d1.family, d1.t, d1.index, d1.ratio) == ("e", "h0", 10, F(1, 1024))
    d2 = report.second_relative_to_first
    assert (d2.family, d2.index, d2.ratio) == ("d", 10, F(1, 1024))


def test_witness_case_two_gamma_difference():
    p = params(12, ["h0"], 3)
    q = params(12, ["h0"], 2)
    report = independence_witness(p, q, F(1, 100))
    assert report.case == 2
    assert report.first_relative_to_second.ratio_base == F(2, 3)
    assert report.first_relative_to_second.index == 12
    assert report.first_relative_to_second.ratio == F(4096, 531441)


def test_witness_ratio_matches_norm_evaluation_exactly():
    # dual route: the closed-form ratio against actual norm values, i <= 30
    p = params(12, ["h0"], 2)
    q = params(12, ["h2"], 3)
    report = independence_witness(p, q, F(1, 10))
    base = report.first_relative_to_second.ratio_base
    for i in range(1, 31):
        e_vec = unit(f"e(h0,{i})")
        d_vec = unit(f"d(h0,{i})")
        assert eval_weighted_norm(p, e_vec) / eval_weighted_norm(q, e_vec) == base ** i
        assert eval_weighted_norm(q, d_vec) / eval_weighted_norm(p, d_vec) == base ** i


def test_witness_case_two_ratio_matches_norm_evaluation():
    p = params(12, ["h0"], 3)
    q = params(12, ["h0"], 2)
    for i in range(1, 31):
        e_vec = unit(f"e(h0,{i})")
        assert eval_weighted_norm(p, e_vec) / eval_weighted_norm(q, e_vec) == F(2, 3) ** i


def test_witness_rejects_equal_parameters():
    p = params(12, ["h0"], 2)
    with pytest.raises(InputError):
        independence_witness(p, params(12, ["h0"], 2), F(1, 10))


def test_witness_rejects_bad_epsilon_and_mixed_depth():
    p = params(12, ["h0"], 2)
    q = params(12, ["h2"], 2)
    with pytest.raises(InputError):
        independence_witness(p, q, F(2))
    with pytest.raises(InputError):
        independence_witness(p, params(14, ["h2"], 2), F(1, 10))


# ---------------------------------------------------------------------------
# Embedding into metrics
# ---------------------------------------------------------------------------


def test_embed_distance_table():
    w = WeightMap({"h0": 1, "h1": 3})
    pts = [FSVector(()), FSVector.from_dict({"h0": 1}),
           FSVector.from_dict({"h1": 2})]
    m = embed_norm_to_metric(w, pts)
    assert rows(m)[0][1] == 1
    assert rows(m)[0][2] == 6
    assert rows(m)[1][2] == 6
    assert validate_metric(m)["pass"]


def test_embed_evaluates_each_unordered_pair_once(monkeypatch):
    w = WeightMap({"h0": 1, "h1": 3, "h2": "1/2"})
    pts = [FSVector(()), unit("h0"), unit("h1"),
           FSVector.from_dict({"h0": 2, "h2": -1}),
           FSVector.from_dict({"h1": "1/3"}), FSVector.from_dict({"h2": 5})]
    calls = []

    def counting(weights, x):
        calls.append(x)
        return eval_weighted_norm(weights, x)
    monkeypatch.setattr(norms, "eval_weighted_norm", counting)
    m = embed_norm_to_metric(w, pts)
    n = len(pts)
    assert len(calls) == n * (n - 1) // 2
    assert rows(m) == tuple(
        tuple(eval_weighted_norm(w, p.sub(q)) for q in pts) for p in pts)


def test_embed_rejects_duplicate_points():
    w = WeightMap({"h0": 1})
    with pytest.raises(InputError):
        embed_norm_to_metric(w, [unit("h0"), unit("h0")])


def test_embed_is_additive_and_homogeneous():
    rng = random.Random(31)
    names = [f"h{k}" for k in range(5)]

    def rnd_weights():
        return WeightMap({n: F(rng.randint(1, 6), rng.choice((1, 2))) for n in names})

    def rnd_pts(count):
        pts = []
        while len(pts) < count:
            cand = FSVector.from_dict(
                {n: F(rng.randint(-4, 4), rng.choice((1, 2))) for n in
                 rng.sample(names, rng.randint(1, 3))}
            )
            if all(cand.coords != p.coords for p in pts):
                pts.append(cand)
        return pts

    for _ in range(10):
        w1, w2 = rnd_weights(), rnd_weights()
        pts = rnd_pts(4)
        m1, m2 = embed_norm_to_metric(w1, pts), embed_norm_to_metric(w2, pts)
        # image of the pointwise sum norm is the entrywise sum of images
        sum_norm = tuple(
            tuple(
                eval_weighted_norm(w1, a.sub(b)) + eval_weighted_norm(w2, a.sub(b))
                for b in pts
            )
            for a in pts
        )
        assert rows(add_metrics(m1, m2)) == sum_norm
        # image of |alpha| f is the |alpha| multiple of the image
        alpha = F(-3, 2)
        scaled = WeightMap({n: abs(alpha) * w1.weight(n) for n in names})
        assert rows(embed_norm_to_metric(scaled, pts)) == \
            rows(scale_metric(alpha, m1))


def test_embed_preserves_order_both_ways():
    names = ["h0", "h1"]
    w1 = WeightMap({"h0": 1, "h1": 2})
    w2 = WeightMap({"h0": 2, "h1": 3})
    pts = [FSVector(()), unit("h0"), unit("h1"),
           FSVector.from_dict({"h0": 1, "h1": -1})]
    m1, m2 = embed_norm_to_metric(w1, pts), embed_norm_to_metric(w2, pts)
    assert leq_metrics(m1, m2)
    diffs = [a.sub(b) for a in pts for b in pts]
    assert all(
        eval_weighted_norm(w1, v) <= eval_weighted_norm(w2, v) for v in diffs
    )


def test_embed_translation_invariance():
    w = WeightMap({"h0": 1, "h1": 3})
    pts = [FSVector(()), unit("h0"), FSVector.from_dict({"h1": 2})]
    shift = FSVector.from_dict({"h0": 5, "h1": -7})
    shifted = [p.sub(shift) for p in pts]
    assert rows(embed_norm_to_metric(w, shifted)) == rows(embed_norm_to_metric(w, pts))


def test_decay_index_search_matches_the_loop():
    rng = random.Random(7)
    for _ in range(400):
        b = rng.randint(2, 40)
        base = F(rng.randint(1, b - 1), b)
        f = rng.randint(2, 10 ** rng.randint(1, 6))
        eps = F(rng.randint(1, f - 1), f)
        assert _smallest_decay_index(base, eps) == least_decay_index(base, eps)


def lift_decay_limits(monkeypatch, index: int = 10 ** 6) -> None:
    """Let the decay-index search reach `index`, past its fiber-index
    limit and its budget of denominator bits."""
    monkeypatch.setattr(norms, "MAX_PARTITION_DEPTH", index)
    monkeypatch.setattr(norms, "MAX_DECAY_BITS", 1 << 40)


@pytest.mark.parametrize("exponent, index", [(10, 23038), (30, 69113),
                                             (60, 138225)])
def test_decay_index_near_one_at_tiny_epsilon(monkeypatch, exponent, index):
    lift_decay_limits(monkeypatch)
    base, eps = F(1000, 1001), F(1, 10 ** exponent)
    i, ratio = _smallest_decay_index(base, eps)
    assert i == index
    assert ratio == base ** i and ratio < eps <= base ** (i - 1)


@pytest.mark.parametrize("exponent, index", [(10, 23038), (30, 69113),
                                             (60, 138225)])
def test_decay_index_estimate_is_the_answer_near_one(exponent, index):
    assert norms._decay_index_estimate(1000, 1001, 1, 10 ** exponent) == index


@pytest.mark.parametrize("estimate", [
    lambda i: 1, lambda i: i + 1, lambda i: max(1, i - 1),
    lambda i: max(1, i - 100), lambda i: 3 * i + 7,
], ids=["one", "one-above", "one-below", "far-below", "far-above"])
def test_decay_index_search_survives_a_bad_estimate(monkeypatch, estimate):
    true_estimate = norms._decay_index_estimate
    monkeypatch.setattr(norms, "_decay_index_estimate",
                        lambda a, b, e, f: estimate(true_estimate(a, b, e, f)))
    rng = random.Random(13)
    for _ in range(200):
        b = rng.randint(2, 10 ** rng.randint(1, 6))
        base = F(rng.randint(1, b - 1), b)
        f = rng.randint(2, 10 ** rng.randint(1, 9))
        eps = F(rng.randint(1, f - 1), f)
        if base <= F(99, 100):
            assert _smallest_decay_index(base, eps) == \
                least_decay_index(base, eps)
    base = F(1000, 1001)
    assert _smallest_decay_index(base, F(1, 10 ** 10)) == \
        (23038, base ** 23038)


@pytest.mark.parametrize("exponent, index", [(10, 23038), (60, 138225)])
def test_decay_index_limit_admits_the_answer_and_nothing_past_it(
        monkeypatch, exponent, index):
    base, eps = F(1000, 1001), F(1, 10 ** exponent)
    lift_decay_limits(monkeypatch, index)
    assert _smallest_decay_index(base, eps) == (index, base ** index)
    lift_decay_limits(monkeypatch, index - 1)
    with pytest.raises(InputError, match=f"fiber-index limit of {index - 1}"):
        _smallest_decay_index(base, eps)


@pytest.mark.parametrize("base, eps", [
    (F(1000000, 1000001), F(1, 10 ** 30)),          # about 69 million
    (F(10 ** 400, 10 ** 400 + 1), F(1, 2)),         # about 0.69 * 10**400
    (F(10 ** 310, 10 ** 310 + 1), F(1, 2)),         # log(base) is subnormal
    (F(10 ** 40, 10 ** 40 + 1), F(10 ** 40 - 10 ** 36, 10 ** 40)),
])
def test_decay_index_far_past_the_limit_builds_no_power(monkeypatch, base,
                                                        eps):
    monkeypatch.setattr(Fraction, "__pow__", None)
    with pytest.raises(InputError, match="fiber-index limit of 100000"):
        _smallest_decay_index(base, eps)


def test_decay_index_limit_bounds_a_search_from_one(monkeypatch):
    monkeypatch.setattr(norms, "_decay_index_estimate", lambda a, b, e, f: 1)
    base = F(1000, 1001)
    with pytest.raises(InputError, match="fiber-index limit of 100000"):
        _smallest_decay_index(base, F(1, 10 ** 60))
    assert _smallest_decay_index(base, F(1, 10 ** 30)) == (
        69113, base ** 69113)


def test_decay_index_estimate_through_the_logs_of_the_logs():
    # log(base) underflows to zero in floats: the estimate is still the
    # answer k + 1 or next to it, not 1
    n = 10 ** 400
    base = F(n, n + 1)
    for k in (7, 1000):
        eps = base ** k
        estimate = norms._decay_index_estimate(n, n + 1, eps.numerator,
                                               eps.denominator)
        assert abs(estimate - (k + 1)) <= 1


@pytest.mark.parametrize("n", [10 ** 40, 10 ** 400])
def test_decay_index_with_base_next_to_one(n):
    # log(base) cancels to zero in floats at 10**400, so the search starts
    # at 1 and gallops
    base = F(n, n + 1)
    for k in (1, 2, 7, 30):
        assert _smallest_decay_index(base, base ** k) == (k + 1, base ** (k + 1))
