"""Exact rational parsing and printing.

Every number that crosses a file or report boundary is a rational written as
"p/q" in lowest terms. Inputs may also be integers or decimal strings such as
"0.1" (parsed exactly, never through binary floating point).

Every input rational goes through one reader, parse_rational, whose
Fraction gives its integer pair (numerator, denominator). A table has two
routes (MetricMatrix.from_rows): one that mirrors exactly, with str and
int entries only, whose upper entries are all plain numerals
("-?digits/digits", "-?digits" or a JSON int), is read in one scan of
their joined text (metrics._scan), which gives the values parse_rational
would; every other table has each entry read by parse_rational. The rows
of a scanned table whose entries are all "p/q" in lowest terms, as fmt
prints them, are kept as its printed text.

A tuple of rationals is held in integer form (numerators, den): entries
numerators[k] / den over one common positive denominator, with
gcd(den, *numerators) == 1. The form is canonical, so two tuples are equal
exactly when their forms are. It is the element of the pointwise and cone
instances and what a metric table stores (MetricMatrix.form). The kernel on
it (_reduced, _add, _scale, _leq) builds no Fraction: add and scale reduce
once with gcd, and leq cross-multiplies. A hyperspace point set uses the
form with a set of numerator tuples (instances.point_set). The axiom
verifier packs these forms once more, within one run or replay: over one
common denominator, each tuple becomes a single int (packed.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, le, mul
from typing import Sequence

from .errors import InputError

#: Python's default int-to-str limit: the most digits a numerator or
#: denominator parsed from a decimal may have, and the most significant
#: digits of a number in a norms index name. A report that would print a
#: longer one is an input error (fmt, fmt_ratio), not an internal fault.
MAX_DIGITS = 4300


def parse_rational(value) -> Fraction:
    """The one reader of input rationals: a Fraction as it is, an int, and
    a string or a float (by its shortest repr, which is exact for values
    like 0.5 that users write literally) through Fraction's parser, so
    "p/q", "-p/q", "p", signs "+", spaces, decimals, exponents and "_"
    separators read as Fraction(str) reads them. A bool, a zero
    denominator, a numeral past int()'s digit limit and anything else is
    an InputError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        _check_digits(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def _check_digits(text: str) -> None:
    """Reject a decimal with an exponent whose value would need more than
    MAX_DIGITS digits to write out: its mantissa's digits plus the
    exponent's magnitude. Fraction(text) would build that integer, and fmt
    could not print it."""
    mantissa, e, exponent = text.lower().partition("e")
    if not e:
        return
    try:
        magnitude = abs(int(exponent))
    except ValueError:
        return   # not a number; Fraction(text) says so
    if sum(map(str.isdigit, mantissa)) + magnitude > MAX_DIGITS:
        raise InputError(f"not a rational: {text!r} exceeds the "
                         f"{MAX_DIGITS}-digit limit")


def require_int(value, what: str) -> int:
    """value, when it is a JSON integer (a bool is not one); otherwise an
    InputError that names it as `what`, such as 'universe "dim"'."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, not {value!r}")
    return value


def parse_rationals(doc, what: str) -> list[Fraction]:
    """Parse a JSON list of rationals; `what` names it in the InputError
    raised for anything that is not a list."""
    if not isinstance(doc, list):
        raise InputError(f"{what} must be a list of rationals")
    return [parse_rational(v) for v in doc]


def fmt(q: Fraction) -> str:
    """Render as "p/q" in lowest terms; integers keep an explicit /1. A
    numerator or denominator past MAX_DIGITS digits is an InputError."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:   # past the int-to-str limit
        raise _past_digits() from exc


def fmt_ratio(num: int, den: int) -> str:
    """fmt(Fraction(num, den)) for den > 0, without building the Fraction."""
    g = gcd(num, den)
    try:
        return f"{num // g}/{den // g}"
    except ValueError as exc:
        raise _past_digits() from exc


def _past_digits() -> InputError:
    return InputError(f"a number of the report would print past the "
                      f"{MAX_DIGITS}-digit limit")


def to_ints(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Canonical integer form of a rational tuple over its least common
    denominator (which leaves no factor common to all numerators)."""
    return ratios_to_ints([v.numerator for v in values],
                          [v.denominator for v in values])


def ratios_to_ints(nums: Sequence[int], dens: Sequence[int]
                   ) -> tuple[tuple[int, ...], int]:
    """to_ints of the ratios nums[k] / dens[k], for dens[k] > 0, in lowest
    terms or not: over the least common denominator, then reduced once."""
    den = lcm(*set(dens))
    return _reduced(tuple(map(mul, nums, map(floordiv, repeat(den), dens))),
                    den)


def to_fractions(form: tuple[tuple[int, ...], int]) -> tuple[Fraction, ...]:
    """The rational tuple an integer form stands for."""
    nums, den = form
    return tuple([Fraction(n, den) for n in nums])


def _reduced(nums: tuple, den: int) -> tuple:
    """The canonical form of nums / den, for den > 0."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple([x // g for x in nums]), den // g


def _add(a, b):
    """The entrywise sum of two forms of one width."""
    (xs, dx), (ys, dy) = a, b
    if dx == dy:
        return _reduced(tuple(map(add, xs, ys)), dx)
    g = gcd(dx, dy)
    mx, my = dy // g, dx // g
    return _reduced(tuple([x * mx + y * my for x, y in zip(xs, ys)]),
                       dx * mx)


def _scale(p: int, q: int, a):
    """(p/q) * a for a scalar p/q with q > 0, with the sign of p kept."""
    xs, den = a
    return _reduced(tuple([p * x for x in xs]), den * q)


def _leq(a, b) -> bool:
    """a <= b entrywise, for two forms of one width."""
    (xs, dx), (ys, dy) = a, b
    if dx == dy:
        return all(map(le, xs, ys))
    return all(map(le, map(mul, xs, repeat(dy)), map(mul, ys, repeat(dx))))
