"""The axiom verifier's packed kernel.

Inside one verifier context (core._Context) every element of the built-in
instances is written over one common denominator L, and a tuple of
numerators over L is one signed int sum(x[k] * 2^(k*w)) with fields of w
bits (pack_fields, unpack_fields); a point set is a frozenset of such ints,
one per point. packed_layout picks L and w for a sample and its listed
scalars so that every scaling a law makes divides exactly and no field of
any value a law computes leaves (-2^(w-1), 2^(w-1)). Two such ints are then
equal exactly when their tuples are, a sum of tuples is the sum of their
ints, and a scaling by p/q, given as the ints p and q, is (p * x) // q.
The orders take one masked subtraction (pointwise), one range test (the
cone) or frozenset <= (the hyperspace). A pointwise tuple packs only the
positions where some element is nonzero: sums and scalings keep the
others zero.

The `pack` hooks of instances.py import this module when a verifier
context first needs it, so commands that run no verifier never load it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .core import EvsInstance


def packed_layout(dens: Sequence[int], peaks: Sequence[int],
                  scalars: Sequence[Fraction]) -> tuple[int, int]:
    """(L, w) for packing a verifier context: elements over the
    denominators `dens` whose numerators are at most `peaks` in absolute
    value, and the listed `scalars`.

    L = D * Q^2, for D the lcm of the denominators and Q that of the
    scalars'. Over L every element's numerators are multiples of Q^2, so a
    law's scalings divide exactly: it scales at most twice by listed
    scalars, or once by a product of two of them (denominator dividing
    Q^2) or by a sum of two (dividing Q), and otherwise only by 1 and -1.
    With B the largest numerator over L and P the largest scalar numerator,
    at least 1, a scaling multiplies a field by at most P, a product by P^2
    and a sum by 2P; a value a law computes has at most three summands of
    at most two scalings, so its fields are at most 3 * P^2 * B, and the
    one difference a leq takes at most twice that. w leaves a sign's room
    above 6 * P^2 * B."""
    q = lcm(*(a.denominator for a in scalars))
    den = lcm(*dens) * q * q
    bound = max(peak * (den // d) for peak, d in zip(peaks, dens))
    p = max([1] + [abs(a.numerator) for a in scalars])
    return den, (6 * p * p * bound).bit_length() + 1


def pack_fields(nums: Sequence[int], w: int) -> int:
    """sum(nums[k] * 2^(k*w)): signed fields of w bits, the first lowest."""
    packed = 0
    for x in reversed(nums):
        packed = (packed << w) + x
    return packed


def unpack_fields(packed: int, width: int, w: int) -> list[int]:
    """The `width` fields of a pack_fields int, each in (-2^(w-1),
    2^(w-1))."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    nums = []
    for _ in range(width):
        x = ((packed + half) & mask) - half
        nums.append(x)
        packed = (packed - x) >> w
    return nums


# ---------------------------------------------------------------------------
# Rational tuples: the scalar actions and orders, by the names instances.py
# gives them. Each maker takes the field width w and `top`, the bit w - 1 of
# every field.
# ---------------------------------------------------------------------------


def _abs_scale(w, top):
    return lambda p, q, x: abs(p) * x // q


def _signed_scale(w, top):
    return lambda p, q, x: p * x // q


def _cone_scale(w, top):
    """x - 2r has field 0 negated, so p * (x - 2r) holds |p| r there; r,
    never negative, is x mod 2^w."""
    mask = (1 << w) - 1

    def scale(p, q, x):
        if p < 0:
            x -= 2 * (x & mask)
        return p * x // q
    return scale


def _pointwise_leq(w, top):
    """b - a has every field in (-2^(w-1), 2^(w-1)); adding `top` lifts
    each to [0, 2^w) without a carry, and bit w - 1 of a field is then set
    exactly when the field of b - a is nonnegative."""
    return lambda a, b: (b - a + top) & top == top


def _reversed_leq(w, top):
    return lambda a, b: (a - b + top) & top == top


def _cone_leq(w, top):
    """b - a is its field 0 alone when the vector fields agree, and at
    least 2^w - 2^(w-1) = 2^(w-1) in magnitude otherwise."""
    half = 1 << (w - 1)
    return lambda a, b: 0 <= b - a < half


SCALES = {"abs": _abs_scale, "signed": _signed_scale, "cone": _cone_scale}
ORDERS = {"pointwise": _pointwise_leq, "reversed": _reversed_leq,
          "cone": _cone_leq}


def pack_tuples(name: str, width: int, to_json: Callable, scale: str,
                order: str, sample: list, scalars: list) -> tuple:
    """(instance, packed sample) for a sample of rational tuples of
    `width` in integer form, under the scalar action and order named
    `scale` and `order`; `to_json(nums, den)` prints the tuple nums / den.
    Only the cone, whose scale and order read field 0, packs the positions
    where every element is zero."""
    keep = range(width) if scale == "cone" else [
        k for k in range(width) if any(xs[k] for xs, _ in sample)]
    den, w = packed_layout([d for _, d in sample],
                           [max(map(abs, xs)) for xs, _ in sample], scalars)
    top = pack_fields([1 << (w - 1)] * len(keep), w)

    def element_to_json(x):
        nums = [0] * width
        for k, v in zip(keep, unpack_fields(x, len(keep), w)):
            nums[k] = v
        return to_json(nums, den)

    return EvsInstance(
        name=name, zero=0, add=operator.add,
        scale=SCALES[scale](w, top), leq=ORDERS[order](w, top),
        equal=operator.eq, element_from_json=None,
        element_to_json=element_to_json,
    ), [pack_fields([xs[k] for k in keep], w) * (den // d)
        for xs, d in sample]


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------


def _minkowski_sum(a, b):
    return frozenset([p + q for p in a for q in b])


def _point_scale(p, q, a):
    return frozenset([p * x // q for x in a])


def pack_point_sets(name: str, dim: int, to_json: Callable, sample: list,
                    scalars: list) -> tuple:
    """(instance, packed sample) for a sample of point sets of dimension
    `dim` in integer form; `to_json(points, den)` prints the set of
    numerator tuples `points` over den."""
    den, w = packed_layout(
        [d for _, d in sample],
        [max(abs(x) for p in ps for x in p) for ps, _ in sample], scalars)
    return EvsInstance(
        name=name, zero=frozenset({0}), add=_minkowski_sum,
        scale=_point_scale, leq=operator.le, equal=operator.eq,
        element_from_json=None,
        element_to_json=lambda a: to_json(frozenset(
            tuple(unpack_fields(p, dim, w)) for p in a), den),
    ), [frozenset([pack_fields(p, w) * (den // d) for p in ps])
        for ps, d in sample]
