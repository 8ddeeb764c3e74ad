"""Exact rational parsing and printing.

Every number that crosses a file or report boundary is a rational written as
"p/q" in lowest terms. Inputs may also be integers or decimal strings such as
"0.1" (parsed exactly, never through binary floating point).

The common spelling, a plain ASCII "p/q" or "-p/q" with a nonzero
denominator, is parsed directly as Fraction(int(p), int(q)): for such a
string that is the value Fraction(str) gives, without its regular
expression. Every other input takes the general path, so the fast path
changes no value and no error.

Inside the pointwise and cone instances a tuple of rationals is held in
integer form (numerators, den): the entries are numerators[k] / den over one
common positive denominator, and gcd(den, *numerators) == 1. That form is
canonical, so two tuples are equal exactly when their integer forms are. A
hyperspace point set uses the same form with a set of numerator tuples (see
instances.point_set).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InputError

#: Python's default int-to-str limit: the most digits a numerator or
#: denominator parsed from a decimal may have, so that fmt can print it.
MAX_DIGITS = 4300


def parse_rational(value) -> Fraction:
    """Parse an exact rational from "p/q", a decimal string, or an int.

    A strict ASCII "-?digits/digits" string with a nonzero denominator
    skips Fraction's parser. Anything else falls through to it: signs "+",
    spaces, decimals, exponents, "_" separators, non-ASCII digits, a zero
    denominator, and numerals over int()'s digit limit, whose ValueError
    the general path turns into InputError as before.
    """
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if (slash and den.isdigit() and den.strip("0")
                and (num[1:] if num[:1] == "-" else num).isdigit()):
            try:
                return Fraction(int(num), int(den))
            except ValueError:
                pass
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # JSON floats are tolerated via their shortest decimal repr, which is
        # exact for values like 0.5 that users write literally.
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


def parse_rationals(doc, what: str) -> list[Fraction]:
    """Parse a JSON list of rationals; `what` names it in the InputError
    raised for anything that is not a list."""
    if not isinstance(doc, list):
        raise InputError(f"{what} must be a list of rationals")
    return [parse_rational(v) for v in doc]


def fmt(q: Fraction) -> str:
    """Render as "p/q" in lowest terms; integers keep an explicit /1."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def to_ints(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Canonical integer form of a rational tuple over its least common
    denominator (which leaves no factor common to all numerators)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


def to_fractions(form: tuple[tuple[int, ...], int]) -> tuple[Fraction, ...]:
    """The rational tuple an integer form stands for."""
    nums, den = form
    return tuple([Fraction(n, den) for n in nums])
