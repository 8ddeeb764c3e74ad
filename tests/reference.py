"""A reference model of the closed-form metrics, the table sum, scalar
action and transforms, the comparing value and the metric axioms, and the
sums and scalar actions of the verifier's instances, written from the
paper's definitions in plain Fraction arithmetic.

It reads only the data fields of the library's objects: a metric's family,
weight, base and factor, a carrier's kind, step and points, and a table's
labels and printed rows. It places the carrier points itself and never
calls the library's carrier prefix, family table, table builder, order or
triangle check, so a fault in any of those shows as a disagreement with it.
Of the norms it models the weighted sup norm, the partition tags, the
family weights and the least decay index of a witness. It draws the
verifier's seeded samples as the library draws them and builds them in
Fractions. At the JSON boundary it gives what reading
an input rational and writing a report meant before the library's own
reader and writer: Fraction's parser and json.dumps.
"""

import json
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import isqrt

ONE = Fraction(1)
HALF = Fraction(1, 2)


def bounded(v: Fraction) -> Fraction:
    """The bounded companion v/(1+v)."""
    return v / (1 + v)


def capped(v: Fraction) -> Fraction:
    """The truncation min(1, v)."""
    return min(ONE, v)


def pointwise_sum(a: tuple, b: tuple) -> tuple:
    """The sum of two tuples of one width, entry by entry: the sum of
    metrics, of norm value tables and of cone elements."""
    return tuple(x + y for x, y in zip(a, b))


def abs_scale(alpha: Fraction, a: tuple) -> tuple:
    """Every entry times |alpha|: the scalar action on metrics and norms."""
    return tuple(abs(alpha) * x for x in a)


def signed_scale(alpha: Fraction, a: tuple) -> tuple:
    """Every entry times alpha, its sign kept: the scalar action of the
    metric mutant without the absolute value, and of a vector."""
    return tuple(alpha * x for x in a)


def cone_scale(alpha: Fraction, e: tuple) -> tuple:
    """alpha(r, v) = (|alpha| r, alpha v) on the cone [0, inf) x V, for the
    element e = (r, *v)."""
    r, *v = e
    return (abs(alpha) * r, *signed_scale(alpha, v))


def minkowski_sum(a: frozenset, b: frozenset) -> frozenset:
    """A + B = {p + q : p in A, q in B}, for sets of points of one
    dimension."""
    return frozenset(pointwise_sum(p, q) for p in a for q in b)


def point_scale(alpha: Fraction, a: frozenset) -> frozenset:
    """alpha A = {alpha p : p in A}, without an absolute value: a negative
    alpha reflects the set."""
    return frozenset(signed_scale(alpha, p) for p in a)


def scaled(alpha: Fraction, full: tuple) -> tuple:
    """The scalar action on a full table: every entry times |alpha|."""
    return tuple(abs_scale(alpha, row) for row in full)


def added(a: tuple, b: tuple) -> tuple:
    """The sum of two full tables of one size, entry by entry."""
    return tuple(map(pointwise_sum, a, b))


def transformed(image, full: tuple) -> tuple:
    """A table transform: `image` (bounded or capped) of every entry off
    the diagonal, and zero on it."""
    return tuple(tuple(Fraction(0) if i == j else image(v)
                       for j, v in enumerate(row))
                 for i, row in enumerate(full))


def points(carrier, depth: int) -> list:
    """The first `depth` points of a carrier as (k, x_k), k = 1, 2, ...:
    x_k = k on the indexed carrier, (k-1)*step on a grid, -1 +
    (k-1)*2/(depth-1) on the symmetric grid on [-1, 1], and the k-th listed
    plane point."""
    ks = range(1, depth + 1)
    if carrier.kind == "indexed":
        return [(k, k) for k in ks]
    if carrier.kind == "grid":
        return [(k, (k - 1) * carrier.step) for k in ks]
    if carrier.kind == "symgrid":
        return [(k, -1 + Fraction(2 * (k - 1), depth - 1)) for k in ks]
    return [(k, carrier.points[k - 1]) for k in ks]


def distance(m, p, q) -> Fraction:
    """The distance of the metric m between two distinct carrier points."""
    family = m.family
    if family == "discrete":
        return ONE
    if family == "shrinking":
        return abs(Fraction(1, p[0]) - Fraction(1, q[0]))
    if family == "usual":
        return abs(p[1] - q[1])
    if family == "kappa":
        a, b = p[1], q[1]
        return abs(a - b) if abs(a) <= HALF and abs(b) <= HALF else 2 * ONE
    if family == "cauchy":
        (u, u2), (v, v2) = p[1], q[1]
        return abs(u - v) + m.weight * abs(u2 - v2)   # weight = 1/n
    raise ValueError(f"no reference for the family {family!r}")


def table(m, depth: int, carrier=None) -> tuple:
    """The full distance table of m on the first `depth` points of a
    carrier, by default m's own."""
    pts = points(carrier or m.carrier, depth)
    return tuple(tuple(Fraction(0) if p[0] == q[0] else distance(m, p, q)
                       for q in pts) for p in pts)


def comparing(d: tuple, rho: tuple) -> Fraction:
    """The comparing value of rho relative to d, two full tables of one
    size: the minimum of rho/d over the distinct pairs."""
    n = len(d)
    return min(rho[i][j] / d[i][j] for i in range(n) for j in range(i + 1, n))


def below(lam: Fraction, d: tuple, rho: tuple) -> bool:
    """lam*d <= rho in the pointwise order: entry by entry on the full
    tables, the diagonal included."""
    return all(lam * x <= y for dr, rr in zip(d, rho) for x, y in zip(dr, rr))


def spectrum(d: tuple, rho: tuple) -> Fraction:
    """The comparing value of rho relative to d by its definition: the
    largest lam, among 0 and the ratios rho/d of the distinct pairs, with
    lam*d <= rho."""
    candidates = {Fraction(0)} | {rho[i][j] / d[i][j]
                                  for i, j in combinations(range(len(d)), 2)}
    return max(lam for lam in candidates if below(lam, d, rho))


def sup_norm(weights: dict, vector: dict) -> Fraction:
    """The weighted sup norm of a vector, a map from index names to
    Fractions: the largest w(h)|x_h| over its coordinates, 0 on the zero
    vector."""
    return max((weights[h] * abs(x) for h, x in vector.items()),
               default=Fraction(0))


def least_decay_index(base: Fraction, eps: Fraction) -> tuple:
    """The least i >= 1 with base^i < eps, for 0 < base < 1, and base^i,
    trying each i in turn."""
    i, ratio = 1, base
    while ratio >= eps:
        i, ratio = i + 1, ratio * base
    return i, ratio


# a decimal with an exponent, in the grammar Fraction(str) accepts
EXPONENT_DECIMAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?"
    r"e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def reference_parse(text: str):
    """What parse_rational gave for a string before its reader: the
    value of Fraction(text.strip()), or None where that raises. A decimal
    whose mantissa digits plus exponent magnitude pass Python's default
    4300-digit int-to-str limit gives None without being built."""
    match = EXPONENT_DECIMAL.fullmatch(text)
    if match:
        whole, part, exponent = match.groups()
        mantissa = whole + (part or "")
        if (sum(c.isdigit() for c in mantissa) + abs(int(exponent))
                > sys.int_info.default_max_str_digits):
            return None
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


def reference_dumps(doc) -> str:
    """The bytes of a report: json.dumps with indent 2 and sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True)


def text(v: Fraction) -> str:
    """A rational as the library prints it: "p/q" in lowest terms."""
    return f"{v.numerator}/{v.denominator}"


def matrix(labels, full: tuple) -> dict:
    """The document the library prints for a full table of Fractions."""
    return {"labels": list(labels),
            "rows": [[text(v) for v in row] for row in full]}


def validation(m) -> dict:
    """The metric axioms of a MetricMatrix (see metric_axioms)."""
    return metric_axioms(m.labels, rows(m))


def metric_axioms(labels, full: tuple) -> dict:
    """The metric axioms of a full table of Fractions, reported as the
    library's validate_metric reports them: the first failure of zero
    diagonal, then nonnegativity and identity of indiscernibles on the
    distinct pairs in row order, then the triangle inequality on every
    triple (i, j, k), degenerate ones included, in lexicographic order."""
    n = len(full)

    def failed(violation: dict) -> dict:
        return {"pass": False, "violation": violation, "size": n}

    for i in range(n):
        if full[i][i] != 0:
            return failed({"axiom": "zero-diagonal", "indices": [labels[i]],
                           "value": text(full[i][i])})
    for i, j in combinations(range(n), 2):
        v = full[i][j]
        if v < 0:
            return failed({"axiom": "nonnegativity",
                           "indices": [labels[i], labels[j]],
                           "value": text(v)})
        if v == 0:
            return failed({"axiom": "identity-of-indiscernibles",
                           "indices": [labels[i], labels[j]], "value": "0/1"})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if full[i][k] > full[i][j] + full[j][k]:
                    return failed({
                        "axiom": "triangle",
                        "indices": [labels[i], labels[j], labels[k]],
                        "lhs": text(full[i][k]),
                        "rhs": text(full[i][j] + full[j][k])})
    return {"pass": True, "violation": None, "size": n}


def rows(m) -> tuple:
    """The full rows of a MetricMatrix as Fractions, read from the document
    it prints."""
    return tuple(tuple(map(Fraction, row)) for row in m.to_json()["rows"])


# ---------------------------------------------------------------------------
# The seeded samples of the verifier, drawn as the library draws them (the
# same calls of one random.Random(seed), in the same order) and built in
# Fraction arithmetic
# ---------------------------------------------------------------------------


def random_metric(rng, n: int) -> tuple:
    """The full table of a random metric on n points: s/t times a box
    table (entries 1 + k/12), a star table (w_i + w_j, for halves w_i) or
    their sum."""
    style = rng.choice(("box", "star", "mix"))
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    weights = [Fraction(rng.randint(1, 6), 2) for _ in range(n)]
    full = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        v = 0 if style == "star" else 1 + Fraction(rng.randint(0, 12), 12)
        if style != "box":
            v += weights[i] + weights[j]
        full[i][j] = full[j][i] = scale * v
    return tuple(map(tuple, full))


def metric_sample(n: int, seed: int, count: int) -> list:
    """The zero table, then random metrics, each followed by its double
    when the sample's length is then 1 mod 4, by its bounded companion at
    3 mod 8 and by its truncation at 7 mod 8, while there is room."""
    rng = random.Random(seed)
    out = [tuple((Fraction(0),) * n for _ in range(n))]
    while len(out) < count:
        full = random_metric(rng, n)
        out.append(full)
        for image, mod, at in ((lambda t: scaled(2, t), 4, 1),
                               (lambda t: transformed(bounded, t), 8, 3),
                               (lambda t: transformed(capped, t), 8, 7)):
            if len(out) < count and len(out) % mod == at:
                out.append(image(full))
    return out[:count]


def cone_sample(dim: int, seed: int, count: int) -> list:
    """Cone elements (r, *v): the zero, then for each random vector v and
    radius r the elements (0, *v) and (r, *v), and (2r, *v) at random."""
    rng = random.Random(seed)
    out = [(Fraction(0),) * (dim + 1)]
    while len(out) < count:
        v = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
                  for _ in range(dim))
        r = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
        out.append((Fraction(0), *v))
        if len(out) < count:
            out.append((r, *v))
        if len(out) < count and rng.random() < 0.4:
            out.append((2 * r, *v))
    return out[:count]


def hyper_sample(dim: int, seed: int, count: int) -> list:
    """Point sets: the origin, then random sets of one to three points,
    each set of more than one followed by the singleton of its least
    point (and replaced by it where no room is left for both)."""
    rng = random.Random(seed)
    out = [frozenset({(Fraction(0),) * dim})]
    while len(out) < count:
        size, pts = rng.randint(1, 3), set()
        while len(pts) < size:
            pts.add(tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
                          for _ in range(dim)))
        a = frozenset(pts)
        if len(a) > 1 and len(out) + 2 > count:
            a = frozenset({min(a)})
        out.append(a)
        if len(a) > 1:
            out.append(frozenset({min(a)}))
    return out[:count]


def partition_tag(k: int) -> tuple:
    """The place of position h_k in the partition of the family. An even
    position is the backbone member h_k: ("B", "h<k>"). The odd position
    k is the j-th, j = (k-1)/2, and the Cantor unpairing j = w(w+1)/2 + r,
    0 <= r <= w, gives the member h_2(w-r) and its rank r: an even r is
    index r/2 + 1 of its d-fiber, ("d", "h<2(w-r)>", r/2 + 1), and an odd
    r index (r+1)/2 of its e-fiber, ("e", "h<2(w-r)>", (r+1)/2)."""
    if k % 2 == 0:
        return "B", f"h{k}"
    j = (k - 1) // 2
    w = (isqrt(8 * j + 1) - 1) // 2
    r = j - w * (w + 1) // 2
    member = f"h{2 * (w - r)}"
    return ("d", member, r // 2 + 1) if r % 2 == 0 else ("e", member,
                                                         (r + 1) // 2)


def family_weight(k: int, subset: set, gamma: Fraction) -> Fraction:
    """The weight of position h_k in the family norm (C, gamma): gamma^i
    at index i of a d-fiber and gamma^-i at index i of an e-fiber of a
    member in C (partition_tag), and 1 on the backbone and on every other
    fiber."""
    tag = partition_tag(k)
    if tag[0] == "B" or tag[1] not in subset:
        return ONE
    return gamma ** tag[2] if tag[0] == "d" else gamma ** -tag[2]


def norm_sample(depth: int, seed: int, count: int) -> list:
    """Value tables of norms on probe vectors: the units of h0 ..
    h(depth-1) and six vectors of two or three random coordinates. The
    zero table; the family norms ({h0}, 2) and (C, 3), C the first two
    backbone members or, at depth 4, h0 alone; then random weight maps,
    each followed by its double when the sample's length is then 2 mod 5.
    A norm's value is the largest w(h)|x_h| over the support of x."""
    rng = random.Random(seed)
    names = [f"h{k}" for k in range(depth)]
    probes = [{n: ONE} for n in names]
    for _ in range(6):
        support = rng.sample(names, rng.randint(2, 3))
        probes.append({n: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                   rng.choice((1, 2))) for n in support})

    def table(weight) -> tuple:
        return tuple(max(weight(n) * abs(x) for n, x in p.items())
                     for p in probes)

    out = [(Fraction(0),) * len(probes)]
    for subset, gamma in (({"h0"}, 2), ({"h0", "h2"} if depth > 4
                                        else {"h0"}, 3)):
        out.append(table(lambda n: family_weight(int(n[1:]), subset,
                                                 Fraction(gamma))))
    while len(out) < count:
        weights = {n: Fraction(rng.randint(1, 8), rng.randint(1, 4))
                   for n in names}
        out.append(table(weights.__getitem__))
        if len(out) < count and len(out) % 5 == 2:
            out.append(tuple(2 * v for v in out[-1]))
    return out[:count]
