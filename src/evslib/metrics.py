"""Exact metrics on finite labeled carriers and their ordered-semigroup structure.

The space under study is the set of all metrics on a carrier together with the
constant zero table O, ordered pointwise, with pointwise addition and the
scalar action (alpha, rho) -> |alpha| * rho. On a finite carrier every
comparability question is decided exactly: the comparing value of rho relative
to d is the minimum of rho(x,y)/d(x,y) over distinct pairs, a plain minimum of
rationals. Every operation on tables runs on one stored integer form per
table (MetricMatrix.form) with the integer kernel of rationals.py.

Countable carriers are handled through LazyMetric: one of the named
closed-form families (discrete, shrinking, usual, kappa, cauchy), which can
be materialized on the first N canonical carrier points at any depth.
Its distances are integer pairs (x, y) standing for x/y with y > 0, from the
carrier's integer coordinates to the table's integer form, with no Fraction
per pair. Truncations only ever yield upper bounds for carrier-wide infima, so
depth-indexed results are bound sequences with trend flags, never the limiting
value. Carrier-wide certificates and refutations come only where exact family
bounds license them (bounded-vs-unbounded, positive vs vanishing infimum).
The transforms rho/(1+rho) and min(1, rho) act on tables only.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import (accumulate, chain, combinations, compress, count,
                       islice, repeat)
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import floordiv, sub
from typing import Optional, Sequence

from .errors import InputError, UndefinedRelativeElementError
from .rationals import (MAX_DIGITS, _add, _leq, _past_digits, _reduced,
                        _scale, fmt, fmt_ratio, parse_rational,
                        parse_rationals, ratios_to_ints, to_ints)

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


# ---------------------------------------------------------------------------
# Finite carriers: exact distance tables
# ---------------------------------------------------------------------------


class MetricMatrix:
    """Symmetric rational distance table over a finite labeled carrier,
    stored as `form`: the canonical integer form (rationals.to_ints) of its
    upper triangle, diagonal included, row by row. Every operation on
    tables runs on it. The form is also the element of the one metric
    instance, instances.metric_packed_instance, that serves both the axiom
    verifier and the order tools.

    MetricMatrix(labels, form) takes a tuple of labels and a form as they
    are: derived tables are symmetric by construction. A raw table, read
    from JSON or CSV or written out as rows, goes through from_rows, which
    checks its entries and shape (square, symmetric, distinct labels) but
    not the metric axioms. Those are validate_metric's job, so that
    candidate tables (e.g. pointwise limits) can be rejected with a
    structured violation.

    A table's printed text, its mirrored rows with every entry "p/q" in
    lowest terms, is kept in one slot as one "p/q,p/q,..." string per row,
    so a table that a report prints twice is formatted once. text_rows
    fills it from the form; from_rows fills it from the input where the
    input's entries are already that text (see _read_mirrored). The slot
    is read only: to_json splits it afresh and json_text quotes it into
    new pieces.
    """

    __slots__ = ("labels", "form", "_rows")

    def __init__(self, labels: tuple[str, ...],
                 form: tuple[tuple[int, ...], int]):
        self.labels, self.form, self._rows = labels, form, None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Sequence[Sequence]) -> "MetricMatrix":
        """Parse raw rows; the upper triangle goes over one common
        denominator and is reduced once. Errors come as a parse of every
        entry in row order with parse_rational, then the shape check,
        then the symmetry check would raise them.

        A nonempty square list of lists that equals its transpose, with
        every entry a str or an int, reads only its upper triangle,
        diagonal included (_read_mirrored): in one scan where its entries
        are plain numerals, and with parse_rational otherwise. Any other
        table reads every entry in row order with parse_rational, stopping
        at the first row that is neither a list nor a tuple, and compares
        each entry below the diagonal with its mirror by value."""
        read = _read_mirrored(rows)
        if read is not None:
            m = cls(_carrier(labels, rows), read[0])
            m._rows = read[1]
            return m
        nums, dens = [], []   # no Fraction outlives its row (_read_form)
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise InputError("matrix row must be a list of rationals")
            values = list(map(parse_rational, row))
            nums.append([v.numerator for v in values])
            dens.append([v.denominator for v in values])
        labels = _carrier(labels, rows)
        for i, (ps, qs) in enumerate(zip(nums, dens)):
            for j in range(i):
                if ps[j] * dens[j][i] != nums[j][i] * qs[j]:
                    raise InputError(
                        f"matrix is not symmetric at ({labels[i]}, {labels[j]})")
        return cls(labels, ratios_to_ints(_triangle(nums), _triangle(dens)))

    @classmethod
    def zero(cls, labels: Sequence[str]) -> "MetricMatrix":
        n = len(labels)
        return cls(tuple(labels), ((0,) * (n * (n + 1) // 2), 1))

    @classmethod
    def from_json(cls, doc) -> "MetricMatrix":
        """Parse a {"labels", "rows"} document. A MetricMatrix is returned
        unchanged, as parse_rational returns a Fraction, so inputs the CLI
        has already parsed are not parsed again."""
        if isinstance(doc, MetricMatrix):
            return doc
        if not isinstance(doc, dict) or "labels" not in doc or "rows" not in doc:
            raise InputError('matrix document needs "labels" and "rows"')
        labels, rows = doc["labels"], doc["rows"]
        if not isinstance(labels, list) or not all(
                map(isinstance, labels, repeat(str))):
            raise InputError("matrix labels must be a list of strings")
        if not isinstance(rows, list):
            raise InputError("matrix rows must be a list of rows")
        return cls.from_rows(labels, rows)

    @classmethod
    def from_csv_text(cls, text: str) -> "MetricMatrix":
        reader = csv.reader(io.StringIO(text))
        table = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not table:
            raise InputError("empty CSV")
        labels = [cell.strip() for cell in table[0]]
        return cls.from_rows(labels, [[c.strip() for c in row] for row in table[1:]])

    # -- accessors ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    def is_zero(self) -> bool:
        return not any(self.form[0])

    def text_rows(self) -> list:
        """The text slot, filled here from the form where it is empty."""
        if self._rows is None:
            self._rows = _text_rows(self.form, self.size)
        return self._rows

    def to_json(self) -> dict:
        """{"labels", "rows"}, every entry printed as "p/q" in lowest
        terms, in lists split afresh from the text slot (text_rows)."""
        return {"labels": list(self.labels),
                "rows": [row.split(",") for row in self.text_rows()]}

    def json_text(self, indent: str) -> list:
        """The text json.dumps(self.to_json(), indent=2, sort_keys=True)
        gives, nested where `indent`, a newline and spaces, precedes the
        closing brace, as a list of pieces: each row of the text slot
        quoted by one replace, with one shared piece between rows, so
        that no string of the whole table is built. An empty slot is not
        filled here, so that the rows of a large table are not held while
        its report is joined and printed."""
        rows = self._rows
        if rows is None:
            rows = _text_rows(self.form, self.size)
        keys, items = indent + "  ", indent + "    "
        cells = items + "  "
        entry, between = '",' + cells + '"', f'"{items}],{items}[{cells}"'
        pieces = ["".join((
            "{", keys, '"labels": [', items,
            ("," + items).join(map(encode_basestring_ascii, self.labels)),
            keys, "],", keys, '"rows": [', items, "[", cells, '"'))]
        for row in rows:
            pieces += row.replace(",", entry), between
        pieces[-1] = "".join(('"', items, "]", keys, "]", indent, "}"))
        return pieces


def _carrier(labels: Sequence[str], rows: Sequence[Sequence]) -> tuple:
    """The labels as a tuple, once they are distinct and there is one row
    of one entry per label."""
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise InputError("empty carrier")
    if len(set(labels)) != n:
        raise InputError("carrier labels must be distinct")
    if len(rows) != n or set(map(len, rows)) != {n}:
        raise InputError("matrix is not square with one row per label")
    return labels


def _triangle(rows) -> list:
    """Entry i onwards of each row i, row by row."""
    return list(chain.from_iterable(map(islice, rows, count(), repeat(None))))


def _per_value(values: Sequence) -> tuple:
    """(keys, expand): a function of the entries of `values` is run on
    `keys`, one result per key, and expand turns those results into one
    per entry, in order, as a tuple. Where at most half of the entries
    are distinct, keys are the distinct entries in order of first
    occurrence, so a reader that raises names the first bad entry, and
    expand looks each entry up; otherwise a lookup costs more than the
    repeats save, and keys are the entries themselves. Equal entries share
    a result, so the entries must be of types whose equal values read
    alike: ints, or the str and int entries of from_rows."""
    distinct = list(dict.fromkeys(values))
    if 2 * len(distinct) > len(values):
        return values, tuple
    return distinct, lambda results: tuple(
        map(dict(zip(distinct, results)).__getitem__, values))


def _text_rows(form: tuple, n: int) -> list:
    """The text slot of an n-point form: one "p/q,p/q,..." string per
    mirrored row, in lowest terms, formatted by the rule of _per_value."""
    nums, den = form
    keys, expand = _per_value(nums)
    gs = list(map(gcd, keys, repeat(den)))
    try:
        return list(map(",".join, _mirror(expand(list(map(
            "{}/{}".format, map(floordiv, keys, gs),
            map(floordiv, repeat(den), gs)))), n)))
    except ValueError as exc:   # past the int-to-str limit
        raise _past_digits() from exc


#: A list of "-?digits/digits" entries, one after each comma, each with a
#: nonzero denominator and at most MAX_DIGITS digits a side, as int()
#: reads them.
_PLAIN = rf"-?[0-9]{{1,{MAX_DIGITS}}}/(?!0+(?:,|\Z))[0-9]{{1,{MAX_DIGITS}}}"
_PLAIN_LIST = re.compile(rf"{_PLAIN}(?:,{_PLAIN})*")
#: The most keys one step of _scan holds as text and numbers at once, so
#: that a large table peaks no higher than when parse_rational reads it.
SCAN_KEYS = 512


def _read_mirrored(rows: Sequence) -> Optional[tuple]:
    """(form, text) of a nonempty square list of lists that equals its
    transpose and holds only str and int entries; otherwise None. Other
    types are left to the per-entry parse: a bool or a float can equal an
    int yet read otherwise (True not at all, float(2 ** 60) by its repr as
    1152921504606847000). The upper triangle is read by the rule of
    _per_value, by one of two routes: in one scan where every key is a
    plain numeral (_scan), and by parse_rational one by one, in order,
    otherwise, so the first unreadable key raises. text is the text slot,
    each row joined with commas, where every key is a string written as
    formatting prints it ("p/q" in lowest terms, no leading or signed
    zero), so that no string of the input per entry is kept; otherwise
    None. The rows are joined first: a join that fails on a non-string
    entry is also what sends the table to the check of its entry types."""
    n = len(rows)
    if (not n or set(map(type, rows)) != {list} or set(map(len, rows)) != {n}
            or rows != list(map(list, zip(*rows)))):
        return None
    try:   # the text slot's rows, where every entry is a string
        text = list(map(",".join, rows))
    except TypeError:
        text = None
        if not set(map(type, chain.from_iterable(rows))) <= {str, int}:
            return None
    keys, expand = _per_value(_triangle(rows))
    scanned = _scan(keys)
    if scanned is None:
        nums, den = _read_form(keys)
        return (expand(nums), den), None
    nums, dens = scanned
    scaled, den = ratios_to_ints(nums, dens)
    if text is not None:
        joined = ",".join(keys)
        if (max(map(gcd, nums, dens)) != 1 or "-0" in joined
                or joined.count("/") != len(keys)):
            text = None
    return (expand(scaled), den), text


def _scan(keys: list) -> Optional[tuple]:
    """(nums, dens) of keys that are all plain numerals, as parse_rational
    reads them; otherwise None. A plain numeral is a "-?digits/digits"
    string with a nonzero denominator, or a "-?digits" string or an int,
    read as n/1. SCAN_KEYS keys at a time are joined with commas; only
    where the text has fewer "/" than keys is it rebuilt, with "/1" after
    each comma-separated piece without one. The text is checked by one
    regex match, which finds one "/" a key only where no key holds a
    comma, and parsed as one JSON list, which refuses a leading zero."""
    nums, dens = [], []
    for start in range(0, len(keys), SCAN_KEYS):
        part = keys[start:start + SCAN_KEYS]
        try:
            joined = ",".join(part)
        except TypeError:   # an int key
            try:
                joined = ",".join(map(str, part))
            except ValueError:   # an int past the int-to-str limit
                return None
        if joined.count("/") < len(part):
            joined = ",".join([key if "/" in key else f"{key}/1"
                               for key in joined.split(",")])
        if not (_PLAIN_LIST.fullmatch(joined)
                and joined.count("/") == len(part)):
            return None
        try:
            ints = json.loads(f"[{joined.replace('/', ',')}]")
        except ValueError:   # a leading zero
            return None
        nums += ints[::2]
        dens += ints[1::2]
    return nums, dens


def _read_form(entries: list) -> tuple:
    """ratios_to_ints of the entries, each read with parse_rational. No
    Fraction outlives its loop step, so a large table does not set off the
    cyclic garbage collector."""
    nums, dens = [], []
    for value in map(parse_rational, entries):
        nums.append(value.numerator)
        dens.append(value.denominator)
    return ratios_to_ints(nums, dens)


@lru_cache(maxsize=16)
def _off_diagonal(n: int) -> bytes:
    """The off-diagonal mask of an n-point form, for itertools.compress:
    one byte per entry of the upper triangle, row by row, 0 on the
    diagonal and 1 on each distinct pair. It depends on n alone."""
    return b"".join(b"\0" + b"\1" * (n - 1 - i) for i in range(n))


def _pair_at(position: int, n: int) -> tuple:
    """(i, j) of entry `position` of an n-point form, whose row i holds
    the entries (i, i), (i, i + 1), ..., (i, n - 1)."""
    i = 0
    while position >= n - i:
        position -= n - i
        i += 1
    return i, i + position


def _first_pair(nums: Sequence[int], n: int, test) -> tuple:
    """(i, j, v) of the first distinct pair of an n-point form, in row
    order, whose entry v passes `test`; the walk of an error path."""
    position = next(t for t, v, off in zip(count(), nums, _off_diagonal(n))
                    if off and test(v))
    return (*_pair_at(position, n), nums[position])


def _mirror(flat: Sequence, n: int) -> list:
    """The full rows of a symmetric n-point table from its upper triangle,
    row by row (see _pair_at). Upper row i is row i from the diagonal on and
    column i from the diagonal down: both are written by slice assignment
    into one flat table, which is then cut into rows."""
    full = [None] * (n * n)
    start = 0
    for i in range(n):
        end = start + n - i
        full[i * n + i:(i + 1) * n] = full[i * n + i::n] = flat[start:end]
        start = end
    return [full[i * n:(i + 1) * n] for i in range(n)]


def _require_same_labels(a: MetricMatrix, b: MetricMatrix) -> None:
    if a.labels != b.labels:
        raise InputError("matrices are over different carriers (label mismatch)")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_metric(m: MetricMatrix) -> dict:
    """Check the metric axioms on a candidate table.

    Reports {"pass", "violation", "size"}: the first violated axiom with its
    witnessing pair or triple, or a null violation.
    Shape problems (non-square, non-symmetric) are input errors raised at
    construction, not axiom failures. The all-zero table fails here (identity
    of indiscernibles) even though it is the legitimate additive identity O of
    the surrounding space.

    Every check runs on the table's integer form, whose common positive
    denominator keeps every sign and comparison. The sign checks walk the
    form's distinct pairs in row order, by one off-diagonal mask. The
    triangle check reports the first violating triple (i, j, k) in the
    order of a plain triple loop but visits only i != j: once the diagonal
    and sign checks pass, no triple with i == j, k == i or k == j violates.
    It meets each unordered pair i < j once and decides every k of both
    (i, j) and (j, i) there, keeping the first hit in row order: on rows
    packed into one int each, one difference of two rows sets a guard bit
    in field k exactly where d(i,k) > d(i,j) + d(j,k), once added to a
    lifted row and once subtracted from it (_packed_triangle). Tables whose
    fields would be wider than PACKED_FIELD_BITS are scanned pair by pair
    instead, where the max and the min of one difference list d(i,k) -
    d(j,k) find the violating pairs (_scanned_triangle).
    """
    violation = _violation(m)
    return {"pass": violation is None, "violation": violation, "size": m.size}


def _violation(m: MetricMatrix) -> Optional[dict]:
    """The first violated metric axiom of a table (see validate_metric)."""
    n, labels = m.size, m.labels
    nums, den = m.form
    # the form's row i starts at its diagonal entry (i, i)
    for i, start in enumerate(accumulate(range(n, 1, -1), initial=0)):
        if nums[start] != 0:
            return {
                "axiom": "zero-diagonal",
                "indices": [labels[i]],
                "value": fmt_ratio(nums[start], den),
            }
    if n > 1 and min(compress(nums, _off_diagonal(n))) <= 0:
        i, j, v = _first_pair(nums, n, lambda v: v <= 0)
        if v < 0:
            return {
                "axiom": "nonnegativity",
                "indices": [labels[i], labels[j]],
                "value": fmt_ratio(v, den),
            }
        return {
            "axiom": "identity-of-indiscernibles",
            "indices": [labels[i], labels[j]],
            "value": "0/1",
        }
    rows = _mirror(nums, n)
    # every entry is now a nonnegative integer; 2^s >= 2 * max + 2, and a
    # field of s + 1 bits is rounded up to whole bytes
    s = max(nums).bit_length() + 1
    size = (s + 8) // 8
    if 8 * size <= PACKED_FIELD_BITS:
        triple = _packed_triangle(rows, s, size, nums)
    else:
        triple = _scanned_triangle(rows)
    if triple is None:
        return None
    i, j, k = triple
    return {
        "axiom": "triangle",
        "indices": [labels[i], labels[j], labels[k]],
        "lhs": fmt_ratio(rows[i][k], den),
        "rhs": fmt_ratio(rows[i][j] + rows[j][k], den),
    }


# The widest field, in bits, that the packed triangle check takes; tables
# with wider fields take the scan. On valid tables of 16, 40, 121 and 300
# points with the widest entries each field holds (CPython 3.11, one core
# of a 2-vCPU KVM guest), with both checks meeting each unordered pair
# once, the packed check ran 1.04-1.18x faster than the scan at 224-bit
# fields and 0.91-1.04x as fast at 256-bit fields.
PACKED_FIELD_BITS = 224


def _packed_triangle(rows: list, s: int, size: int,
                     values: Sequence[int]) -> Optional[tuple]:
    """The first (i, j, k) in row order, i != j, with d(i,k) > d(i,j) +
    d(j,k) on rows of nonnegative integers below 2^(s-1), or None.

    Row i is packed into one int P_i whose field k, `size` bytes at byte
    k * size, holds d(i,k). R has a one in every field and `top` the bit s
    of every field. Field k of (2^s - 1 - d(i,j)) * R + P_i - P_j holds
    d(i,k) - d(j,k) - d(i,j) - 1 + 2^s, which lies in [0, 2^(s+1)), so no
    carry or borrow crosses a field, and its bit s is set exactly when
    (i, j, k) violates. The lowest set bit of the masked value gives the
    least such k. Each unordered pair i < j is met once: one difference
    D = P_i - P_j and one lifted row L = (2^s - 1 - d(i,j)) * R decide
    (i, j) by L + D and (j, i) by L - D. The pairs are met row by row, so
    (j, i) is met out of row order: the least ordered pair hit so far is
    kept, and a row ends at its first (i, j) hit. Once row i is done,
    every ordered pair not yet met has both indices past i, so a kept
    pair in row i + 1 or above (a (j, i') with j <= i + 1 and i' <= i) is
    the least of all, and it is returned. So an (i, j) hit is met only
    while every kept pair lies past row i, and it is the least. The
    fields are encoded from `values`, the table's upper entries, by the
    rule of _per_value, and mirrored; every row is packed once before the
    first pair is met."""
    n = len(rows)
    ones = int.from_bytes((1).to_bytes(size, "little") * n, "little")
    top = ones << s
    lift = (1 << s) - 1
    keys, expand = _per_value(values)
    fields = expand(list(map(int.to_bytes, keys, repeat(size),
                             repeat("little"))))
    packed = [int.from_bytes(b"".join(row), "little")
              for row in _mirror(fields, n)]
    best = None   # the least ordered pair met so far, with its hit
    for i, (ri, pi) in enumerate(zip(rows, packed)):
        for j in range(i + 1, n):
            diff = pi - packed[j]
            lo = (lift - ri[j]) * ones
            hit = (lo + diff) & top
            if hit:
                best = i, j, hit
                break
            hit = (lo - diff) & top
            if hit and (best is None or (j, i) < best[:2]):
                best = j, i, hit
        if best is not None and best[0] <= i + 1:
            i, j, hit = best
            return i, j, ((hit & -hit).bit_length() - 1) // (8 * size)
    return None


def _scanned_triangle(rows: list) -> Optional[tuple]:
    """The triple of _packed_triangle on any rows, pair by pair: d(i,k) >
    d(i,j) + d(j,k) for some k iff max_k d(i,k) - d(j,k) > d(i,j), and
    d(j,k) > d(j,i) + d(i,k) iff min_k d(i,k) - d(j,k) < -d(i,j). Each
    unordered pair i < j builds one difference list, which both read, and
    the first hit in row order is kept as in _packed_triangle."""
    n = len(rows)
    best = None
    for i, ri in enumerate(rows):
        for j in range(i + 1, n):
            dij = ri[j]
            diff = list(map(sub, ri, rows[j]))
            if max(diff) > dij:
                best = i, j, next(k for k, v in enumerate(diff) if v > dij)
                break
            if min(diff) < -dij and (best is None or (j, i) < best[:2]):
                best = j, i, next(k for k, v in enumerate(diff) if v < -dij)
        if best is not None and best[0] <= i + 1:
            return best
    return None


# ---------------------------------------------------------------------------
# evs operations on tables
# ---------------------------------------------------------------------------


def add_metrics(a: MetricMatrix, b: MetricMatrix) -> MetricMatrix:
    """Entrywise sum; the zero table O is an accepted operand (identity)."""
    _require_same_labels(a, b)
    return MetricMatrix(a.labels, _add(a.form, b.form))


def scale_metric(alpha, a: MetricMatrix) -> MetricMatrix:
    """Scalar action (alpha, rho) -> |alpha| * rho; O is accepted, and
    alpha = 0 yields O."""
    mag = abs(parse_rational(alpha))
    return MetricMatrix(a.labels,
                        _scale(mag.numerator, mag.denominator, a.form))


def leq_metrics(a: MetricMatrix, b: MetricMatrix) -> bool:
    """Entrywise order, the diagonal included; comparisons with O are
    meaningful (O is the minimum)."""
    _require_same_labels(a, b)
    return _leq(a.form, b.form)


# ---------------------------------------------------------------------------
# Comparing function and pair classification
# ---------------------------------------------------------------------------


def comparing_function_metric(d: MetricMatrix, rho: MetricMatrix) -> Fraction:
    """Exact comparing value of rho relative to d: min over distinct pairs of
    rho(x,y)/d(x,y). The returned value c satisfies c*d <= rho with at least
    one tight pair. The ratios are compared by cross-multiplying the two
    tables' integer forms, walked over their distinct pairs in row order
    by one off-diagonal mask (_off_diagonal), and one Fraction is built at
    the end. A pair is located only for the error on the first pair where
    d vanishes."""
    _require_same_labels(d, rho)
    if d.size < 2:
        raise InputError("comparing values need at least two carrier points")
    if d.is_zero():
        raise UndefinedRelativeElementError(
            "comparing function is undefined relative to the zero element O"
        )
    # min over i < j of (r/rd) / (v/dd) = (r/v) * (dd/rd) on the integer
    # forms: keep the least r/v as p/q with q > 0, starting from 1/0
    (dn, dd), (rn, rd), n = d.form, rho.form, d.size
    mask = _off_diagonal(n)
    p, q = 1, 0
    for v, r in zip(compress(dn, mask), compress(rn, mask)):
        if v <= 0:
            if v == 0:
                i, j, _ = _first_pair(dn, n, lambda v: v == 0)
                raise InputError(
                    f"relative element vanishes on the distinct pair "
                    f"({d.labels[i]}, {d.labels[j]}); not a metric"
                )
            v, r = -v, -r
        if r * q < p * v:
            p, q = r, v
    return Fraction(p * dd, q * rd)


MUTUALLY_DEPENDENT = "mutually-dependent"
ONE_SIDED_SECOND_IN_FIRST = "one-sided-second-in-L(first)"
ONE_SIDED_FIRST_IN_SECOND = "one-sided-first-in-L(second)"
ORDERLY_INDEPENDENT = "orderly-independent"


def classify_pair(d: MetricMatrix, rho: MetricMatrix) -> dict:
    """Classify an exact pair by its two comparing values: the report gives
    both, the label, and, when the pair is mutually dependent, the sandwich
    c2*rho <= d <= (1/c1)*rho.

    The values are the minima of the ratios rho/d and of their reciprocals,
    so they are both positive or both negative; a zero ratio makes the second
    call raise. Only two labels can come out: mutually dependent, the case
    of every valid metric pair on a finite carrier, and orderly independent,
    reached only by signed tables. The one-sided labels belong to
    classify_lazy_pair.
    """
    if d.is_zero() or rho.is_zero():
        raise UndefinedRelativeElementError("classification needs two nonzero elements")
    c1 = comparing_function_metric(d, rho)
    c2 = comparing_function_metric(rho, d)
    if c1 > 0 and c2 > 0:
        label = MUTUALLY_DEPENDENT
        # c2*rho <= d and d <= (1/c1)*rho, the latter as c1*d <= rho
        sandwich = {
            "lower": fmt(c2),
            "upper": fmt(1 / c1),
            "lowerHolds": _leq(_scale(c2.numerator, c2.denominator,
                                               rho.form), d.form),
            "upperHolds": _leq(_scale(c1.numerator, c1.denominator,
                                               d.form), rho.form),
        }
    else:
        label, sandwich = ORDERLY_INDEPENDENT, None
    return {
        "comparingSecondRelativeFirst": fmt(c1),
        "comparingFirstRelativeSecond": fmt(c2),
        "classification": label,
        "secondInTestingSetOfFirst": c1 > 0,
        "firstInTestingSetOfSecond": c2 > 0,
        "sandwich": sandwich,
    }


# ---------------------------------------------------------------------------
# Metric transforms
# ---------------------------------------------------------------------------


def _bounded(x: int, y: int) -> tuple[int, int]:
    """v/(1+v) = x/(x+y), its sign on x; at v = -1, (x, 0): undefined."""
    return (x, x + y) if x + y >= 0 else (-x, -x - y)


def _capped(x: int, y: int) -> tuple[int, int]:
    """min(1, v)."""
    return (x, y) if x <= y else (1, 1)


def transform_bounded(rho):
    """rho -> rho/(1+rho), entrywise; a bounded metric below the input.
    The zero table is rejected (the companion of O is not a metric)."""
    return _transform(rho, _bounded, "bounded")


def transform_min(rho):
    """rho -> min(1, rho), entrywise; truncation at height one."""
    return _transform(rho, _capped, "min")


def _transform(rho, entry_map, name: str):
    """The entrywise image of a table; `name`, the kind `evs transform`
    takes, names the transform in its errors. entry_map takes v = x/y as an
    integer pair with y > 0 and returns such a pair, or one with y = 0
    where the map is undefined."""
    if isinstance(rho, MetricMatrix):
        if rho.is_zero():
            raise UndefinedRelativeElementError("transform of the zero element")
        labels, (form, den), n = rho.labels, rho.form, rho.size
        mask = _off_diagonal(n)
        nums, dens = [0] * len(form), [1] * len(form)
        for t, (x, y) in zip(compress(count(), mask), map(
                entry_map, compress(form, mask), repeat(den))):
            if y == 0:
                i, j = _pair_at(t, n)
                raise InputError(
                    f"transform {name} is undefined on the entry "
                    f"{fmt_ratio(form[t], den)} at ({labels[i]}, {labels[j]})")
            nums[t], dens[t] = x, y
        return MetricMatrix(labels, ratios_to_ints(nums, dens))
    raise InputError(f"cannot transform {type(rho).__name__}")


# ---------------------------------------------------------------------------
# Countable carriers and closed-form families
# ---------------------------------------------------------------------------


class Carrier:
    """Canonical countable carrier: points are indexed x_1, x_2, ...

    kind "indexed"   -- bare indices, no coordinates.
    kind "grid"      -- x_k = (k-1)*step on a half-line grid.
    kind "symgrid"   -- depth-driven symmetric grid on [-1, 1]: at odd depth N
                        the points are -1 + (j-1)*(2/(N-1)), j = 1..N, so the
                        grid always contains -1, 0, 1 and straddles |x| = 1/2
                        with exact classification of every point.
    kind "points2d"  -- an explicit finite list of rational plane points.

    Two carriers are equal when their kinds, steps and points are.
    """

    __slots__ = ("kind", "step", "points")

    def __init__(self, kind: str, step: Optional[Fraction] = None,
                 points: Optional[tuple] = None):
        self.kind, self.step, self.points = kind, step, points

    def __eq__(self, other):
        if not isinstance(other, Carrier):
            return NotImplemented
        return (self.kind, self.step, self.points) == \
            (other.kind, other.step, other.points)

    def at(self, depth: int) -> tuple:
        """(den, points): the first `depth` points as (index, coordinate)
        pairs, index 1-based, with integer coordinates over one den > 0
        (indices over 1, grid points over the step's denominator, -h..h
        over h = (depth-1)/2, plane points in their to_ints form). A depth
        the carrier cannot hold is an input error."""
        if depth < 2:
            raise InputError("depth must be at least 2")
        if self.kind == "indexed":
            den, coords = 1, range(1, depth + 1)
        elif self.kind == "grid":
            den, step = self.step.denominator, self.step.numerator
            coords = [k * step for k in range(depth)]
        elif self.kind == "symgrid":
            if depth < 3 or depth % 2 == 0:
                raise InputError("symmetric grid depth must be odd and at least 3")
            den = (depth - 1) // 2   # the implied step 2/(depth-1) is 1/den
            if self.step is not None and (self.step.numerator != 1
                                          or self.step.denominator != den):
                raise InputError(
                    f"declared step {fmt(self.step)} is inconsistent with depth "
                    f"{depth} (the symmetric grid on [-1,1] implies 1/{den})"
                )
            coords = range(-den, den + 1)
        else:   # points2d
            if depth > len(self.points):
                raise InputError(
                    f"depth {depth} exceeds the {len(self.points)} listed points"
                )
            nums, den = to_ints(list(chain(*self.points[:depth])))
            coords = zip(nums[::2], nums[1::2])
        return den, tuple(enumerate(coords, 1))


def carrier_labels(size: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(1, size + 1))


def indexed_carrier() -> Carrier:
    return Carrier("indexed")


def grid_carrier(step) -> Carrier:
    step = parse_rational(step)
    if step <= 0:
        raise InputError("grid step must be positive")
    return Carrier("grid", step=step)


def symmetric_grid_carrier(step=None) -> Carrier:
    """Symmetric grid on [-1, 1]; the materialization depth fixes the actual
    step, and a declared step is only checked for consistency against it."""
    return Carrier("symgrid", step=None if step is None else parse_rational(step))


def _plane_points(doc) -> tuple:
    """Parse a JSON list of [u, v] rational points."""
    if not isinstance(doc, list):
        raise InputError("plane points must be a list of [u, v] points")
    points = tuple(tuple(parse_rationals(p, "plane point")) for p in doc)
    if any(len(p) != 2 for p in points):
        raise InputError("a plane point has exactly two coordinates")
    return points


def points_carrier(points: Sequence[Sequence]) -> Carrier:
    parsed = _plane_points(points)
    if len(set(parsed)) != len(parsed):
        raise InputError("carrier points must be pairwise distinct")
    if len(parsed) < 2:
        raise InputError("need at least 2 carrier points")
    return Carrier("points2d", points=parsed)


class LazyMetric:
    """Closed-form metric over a countable carrier, materializable at any depth.

    sup_bound is an exact upper bound for all off-diagonal values (None when
    none is declared), inf_value the exact infimum over distinct pairs of the
    full carrier (None when depth-dependent or unknown), and unbounded marks
    families whose values provably exceed every bound. These three feed the
    carrier-wide comparison rules; truncations alone never decide a limit.
    A cauchy metric's `weight` is its second-coordinate weight 1/n.
    """

    __slots__ = ("family", "carrier", "weight", "sup_bound", "inf_value",
                 "unbounded")

    def __init__(self, family: str, carrier: Carrier,
                 weight: Optional[Fraction] = None,
                 sup_bound: Optional[Fraction] = None,
                 inf_value: Optional[Fraction] = None,
                 unbounded: bool = False):
        self.family, self.carrier, self.weight = family, carrier, weight
        self.sup_bound, self.inf_value = sup_bound, inf_value
        self.unbounded = unbounded

    def materialize(self, depth: int) -> MetricMatrix:
        """The table on the first `depth` points of the carrier, each
        unordered pair evaluated once to its pair and reduced at once. Over
        the lcm of reduced denominators the numerators share no common
        factor, so ratios_to_ints never copies the table to reduce it."""
        den, points = self.carrier.at(depth)
        pair = _PAIR_FNS[self.family]
        size = depth * (depth + 1) // 2   # lists grown by append fragment the heap
        nums, dens, k = [0] * size, [1] * size, 0
        for i, p in enumerate(points):
            for q in points[i + 1:]:
                k += 1
                x, y = pair(self, den, p, q)
                g = gcd(x, y)
                nums[k], dens[k] = x // g, y // g
            k += 1   # the diagonal entry of the next row stays 0/1
        return MetricMatrix(carrier_labels(depth), ratios_to_ints(nums, dens))

    def describe(self) -> dict:
        doc = {"family": self.family, "carrier": self.carrier.kind}
        if self.carrier.step is not None:
            doc["step"] = fmt(self.carrier.step)
        if self.weight is not None:
            doc["weight"] = fmt(self.weight)
        return doc


# The distance of each family between two distinct points p and q of one
# Carrier.at prefix, (index, coordinate) pairs with integer coordinates over
# den: family -> f(metric, den, p, q), the pair (x, y) of x/y with y > 0.


def _kappa(m: LazyMetric, den: int, p, q) -> tuple[int, int]:
    a, b = p[1], q[1]
    if 2 * abs(a) <= den and 2 * abs(b) <= den:   # |a|, |b| <= 1/2
        return abs(a - b), den
    return 2, 1


def _cauchy(m: LazyMetric, den: int, p, q) -> tuple[int, int]:
    (u, u2), (v, v2) = p[1], q[1]
    n = m.weight.denominator   # the weight is 1/n
    return n * abs(u - v) + abs(u2 - v2), n * den


_PAIR_FNS = {
    "discrete": lambda m, den, p, q: (1, 1),
    "shrinking": lambda m, den, p, q: (abs(p[0] - q[0]), p[0] * q[0]),
    "usual": lambda m, den, p, q: (abs(p[1] - q[1]), den),
    "kappa": _kappa,
    "cauchy": _cauchy,
}


def discrete_metric() -> LazyMetric:
    return LazyMetric("discrete", indexed_carrier(), sup_bound=ONE, inf_value=ONE)


def shrinking_metric() -> LazyMetric:
    """All carrier points at mutual distance |1/n - 1/m|: the infimum over
    distinct pairs of the full countable carrier is exactly 0."""
    return LazyMetric("shrinking", indexed_carrier(), sup_bound=ONE, inf_value=ZERO)


def usual_metric(carrier: Carrier) -> LazyMetric:
    if carrier.kind == "grid":
        return LazyMetric("usual", carrier, inf_value=carrier.step, unbounded=True)
    if carrier.kind == "symgrid":
        return LazyMetric("usual", carrier, sup_bound=TWO)
    raise InputError("the usual metric needs a one-dimensional coordinate carrier")


def kappa_metric(step=None) -> LazyMetric:
    return LazyMetric("kappa", symmetric_grid_carrier(step), sup_bound=TWO)


def cauchy_dn_metric(n, points: Sequence[Sequence]) -> LazyMetric:
    n = parse_rational(n)
    if n.denominator != 1 or n < 1:
        raise InputError("cauchy-dn index n must be an integer >= 1")
    return LazyMetric("cauchy", points_carrier(points), weight=Fraction(1, int(n)))


# name -> (required params, optional params, the error for a missing required
# one, constructor over the params in that order)
_BUILTINS = {
    "discrete": ((), (), None, discrete_metric),
    "usual-grid": (("step",), (), "usual-grid needs a positive rational step",
                   lambda step: usual_metric(grid_carrier(step))),
    "shrinking": ((), (), None, shrinking_metric),
    "kappa": ((), ("step",), None, kappa_metric),
    "cauchy-dn": (("n", "points"), (),
                  "cauchy-dn needs an index n and a list of plane points",
                  cauchy_dn_metric),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_lazy(name: str, params: Optional[dict] = None) -> LazyMetric:
    """Construct a named closed-form metric on its canonical carrier."""
    params = dict(params or {})
    if not isinstance(name, str):
        raise InputError("a builtin metric name must be a string")
    if name not in _BUILTINS:
        raise InputError(f"unknown builtin metric {name!r}; choose from {BUILTIN_NAMES}")
    required, optional, missing, make = _BUILTINS[name]
    values = [params.pop(key, None) for key in required + optional]
    if any(v is None for v in values[:len(required)]):
        raise InputError(missing)
    if params:
        raise InputError(f"unexpected parameters: {sorted(params)}")
    return make(*values)


#: The deepest carrier prefix of builtin_metric and the depth-indexed bounds,
#: and the most points of a table built from listed points (the Cauchy
#: demonstration's limit table, norms embed): time, memory and printed size
#: grow with the square of the depth.
MAX_BUILTIN_DEPTH = 1000


def builtin_metric(name: str, params: Optional[dict], depth: int) -> MetricMatrix:
    """Materialize a named metric on the first `depth` canonical carrier points."""
    lazy = builtin_lazy(name, params)
    if depth > MAX_BUILTIN_DEPTH:
        raise InputError(f"depth {depth} exceeds the limit of "
                         f"{MAX_BUILTIN_DEPTH}")
    return lazy.materialize(depth)


def resolve_carrier(a: LazyMetric, b: LazyMetric) -> Carrier:
    """Common carrier for a pair: index-only families ride any carrier, and at
    most one side may impose a coordinate carrier."""
    specific = [m.carrier for m in (a, b) if m.carrier.kind != "indexed"]
    if len(specific) == 2 and specific[0] != specific[1]:
        both_sym = all(c.kind == "symgrid" for c in specific)
        steps = {c.step for c in specific if c.step is not None}
        if both_sym and len(steps) <= 1:
            return symmetric_grid_carrier(steps.pop() if steps else None)
        raise InputError("the two metrics live on different carriers")
    return specific[0] if specific else indexed_carrier()


# ---------------------------------------------------------------------------
# Depth-indexed comparison
# ---------------------------------------------------------------------------


def _depth_minima(d: LazyMetric, rho: LazyMetric,
                  depths: Sequence[int]) -> list[tuple[tuple, tuple]]:
    """(min rho/d, min d/rho) over the distinct pairs of the first depths[k]
    carrier points, for each k, with no table built.

    Each pair is evaluated once per metric, straight from _PAIR_FNS. With
    r = rho(p, q) = rn/rd and e = d(p, q) = en/ed, r/e is P/Q for P = rn*ed
    and Q = rd*en, and d/rho is Q/P: both minima are integer pairs, compared
    by cross-multiplication from 1/0 (above every ratio) and returned as is.
    The points of an indexed, grid or points2d carrier at one depth are a
    prefix of those at the next, so a depth only adds the pairs with a new
    point. A symgrid carrier moves its points with the depth, and so does a
    point's index, which index-reading families ride; each of its depths is
    evaluated afresh. More pairs per metric than one table at
    MAX_BUILTIN_DEPTH holds is an input error before any pair is evaluated.
    Carrier.at runs for every depth in order, so its errors name the same
    depth as a table built per depth would.
    """
    depths = list(depths)
    if not depths:
        raise InputError("need at least one depth")
    if any(n < 2 for n in depths):
        raise InputError("all depths must be at least 2")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise InputError("depths must be strictly increasing")
    if depths[-1] > MAX_BUILTIN_DEPTH:
        raise InputError(f"depth {depths[-1]} exceeds the limit of "
                         f"{MAX_BUILTIN_DEPTH}")
    carrier = resolve_carrier(d, rho)
    nested = carrier.kind != "symgrid"
    pairs = sum(n * (n - 1) // 2 for n in (depths[-1:] if nested else depths))
    limit = MAX_BUILTIN_DEPTH * (MAX_BUILTIN_DEPTH - 1) // 2
    if pairs > limit:
        raise InputError(f"the depths need {pairs} pairs per metric, past the "
                         f"limit of {limit} (one depth-{MAX_BUILTIN_DEPTH} table)")
    pair_d, pair_rho = _PAIR_FNS[d.family], _PAIR_FNS[rho.family]
    a1, b1, a2, b2 = 1, 0, 1, 0          # min rho/d = a1/b1, min d/rho = a2/b2
    seen = 0                              # points whose pairs are folded in
    out = []
    for depth in depths:
        den, points = carrier.at(depth)
        if not nested:
            a1, b1, a2, b2, seen = 1, 0, 1, 0, 0
        for j in range(seen, depth):
            q = points[j]
            for p in points[:j]:
                en, ed = pair_d(d, den, p, q)
                rn, rd = pair_rho(rho, den, p, q)
                top, bot = rn * ed, rd * en
                if bot <= 0 or top <= 0:
                    bad = (en, ed) if bot <= 0 else (rn, rd)
                    raise InputError(
                        f"distance {fmt_ratio(*bad)} on the distinct pair "
                        f"(x{p[0]}, x{q[0]}) is not positive; not a metric")
                if top * b1 < a1 * bot:
                    a1, b1 = top, bot
                if bot * b2 < a2 * top:
                    a2, b2 = bot, top
        seen = depth
        out.append(((a1, b1), (a2, b2)))
    return out


def _direction_rules(d: LazyMetric, rho: LazyMetric) -> dict:
    """Carrier-wide verdict for the comparing value of rho relative to d, as
    the fields of its report entry: a status with its reason (and a positive
    one's certificate) when the exact family bounds decide it, and status
    "undetermined" otherwise.

    positive: inf rho > 0 and d bounded above  => (inf rho / sup d) * d <= rho.
    zero:     inf rho = 0 and inf d > 0        => ratios along rho's vanishing
              pairs are forced below every bound.
    zero:     rho bounded above and d unbounded.
    """
    if rho.inf_value is not None and rho.inf_value > 0 and \
            d.sup_bound is not None and not d.unbounded:
        return {"status": "positive",
                "reason": "relative element bounded above while the argument's "
                          "distances are bounded away from zero",
                "certificate": fmt(rho.inf_value / d.sup_bound)}
    if rho.inf_value == 0 and d.inf_value is not None and d.inf_value > 0:
        return {"status": "refuted",
                "reason": "the argument has vanishing infimum over distinct "
                          "pairs while the relative element does not"}
    if rho.sup_bound is not None and not rho.unbounded and d.unbounded:
        return {"status": "refuted",
                "reason": "the relative element is unbounded while the "
                          "argument is bounded"}
    return {"status": "undetermined"}


def classify_lazy_pair(d: LazyMetric, rho: LazyMetric,
                       depths: Sequence[int]) -> dict:
    """Classification of a countable-carrier pair.

    Each direction is decided carrier-wide when a bound rule applies;
    otherwise it is reported as a depth-indexed upper-bound sequence with a
    strictly-decreasing trend flag and counts as undetermined, never as zero.
    """
    both = _depth_minima(d, rho, depths)
    directions = {}
    for key, (x, y), seq in (
        ("secondRelativeFirst", (d, rho), [Fraction(*b[0]) for b in both]),
        ("firstRelativeSecond", (rho, d), [Fraction(*b[1]) for b in both]),
    ):
        directions[key] = {
            "depths": list(depths),
            "upperBounds": [fmt(v) for v in seq],
            "strictlyDecreasing": all(b < a for a, b in zip(seq, seq[1:])),
            **_direction_rules(x, y),
        }
    statuses = tuple(entry["status"] for entry in directions.values())
    label = {("positive", "positive"): MUTUALLY_DEPENDENT,
             ("positive", "refuted"): ONE_SIDED_SECOND_IN_FIRST,
             ("refuted", "positive"): ONE_SIDED_FIRST_IN_SECOND,
             ("refuted", "refuted"): ORDERLY_INDEPENDENT,
             }.get(statuses, "undetermined-at-depth")
    return {
        "classification": label,
        "directions": directions,
        "first": d.describe(),
        "second": rho.describe(),
    }


# ---------------------------------------------------------------------------
# Incompleteness demonstration
# ---------------------------------------------------------------------------


def cauchy_incompleteness_demo(ns: Sequence[int],
                               point_pairs: Sequence[Sequence]) -> dict:
    """Exhibit a Cauchy family of plane metrics whose pointwise limit is not a
    metric.

    The family is d_n((u,u'),(v,v')) = |u-v| + (1/n)|u'-v'|. On the sampled
    pairs the oscillation between indices n and m is exactly
    |u'-v'| * |1/n - 1/m| <= C * |1/n - 1/m| with C the largest second-
    coordinate spread, and the pointwise limit |u-v| vanishes on any pair with
    equal first coordinates, which validate_metric rejects.

    The limit table may hold MAX_BUILTIN_DEPTH distinct points, and the
    checks, one per index pair and point pair, may number a sixth of the
    entries of one such table: the report prints an object per index pair,
    about six times the bytes of a table entry, so at the limit it prints
    about what one depth-MAX_BUILTIN_DEPTH table does. Past either limit
    the demonstration is an input error before any distance is computed,
    and past the check limit before any pair is read. Indices and pairs
    whose checks would print a numerator or denominator past MAX_DIGITS
    digits, the most fmt can print, are an input error before any check,
    and so are pairs whose limit table would print one: two first
    coordinates may each print within the limit while their distance does
    not.
    """
    ns = sorted(set(ns))
    if len(ns) < 2 or ns[0] < 1:
        raise InputError("need at least two indices n >= 1")
    if not isinstance(point_pairs, list):
        raise InputError("point pairs must be a list of [[u,u'],[v,v']] pairs")
    needed = len(ns) * (len(ns) - 1) // 2 * len(point_pairs)
    most = MAX_BUILTIN_DEPTH ** 2 // 6
    if needed > most:
        raise InputError(f"the indices and pairs need {needed} checks, past "
                         f"the limit of {most} (a sixth of the entries of "
                         f"one depth-{MAX_BUILTIN_DEPTH} table)")
    pairs = [_plane_points(entry) for entry in point_pairs]
    if any(len(pair) != 2 for pair in pairs):
        raise InputError("a point pair holds exactly two plane points")
    if not pairs:
        raise InputError("need at least one sample point pair")
    witnesses = [(x, y) for x, y in pairs if x[0] == y[0] and x[1] != y[1]]
    if not witnesses:
        raise InputError(
            "need a witness pair with equal first coordinates and distinct "
            "second coordinates"
        )
    points = list(dict.fromkeys(chain(*pairs)))   # in order of appearance
    if len(points) > MAX_BUILTIN_DEPTH:
        raise InputError(f"{len(points)} distinct points exceed the limit of "
                         f"{MAX_BUILTIN_DEPTH}")

    spread = max(abs(x[1] - y[1]) for x, y in pairs)
    # a check of n < m prints spread * (1/n - 1/m), whose numerator is below
    # spread's times m and whose denominator divides spread's times n * m
    n, m = ns[-2:]
    if max(spread.numerator, spread.denominator) * n * m >= 10 ** MAX_DIGITS:
        raise InputError(f"the indices and pairs would print ratios past "
                         f"the {MAX_DIGITS}-digit limit")

    # the limit table prints each distance |a - b| of two first coordinates
    # in lowest terms, below 2 * top^2 over at most top^2 for top the
    # largest numerator or denominator of a and b; past that bound, each
    # distance is checked
    cap = 10 ** MAX_DIGITS
    firsts = sorted({p[0] for p in points})
    top = max(max(-a.numerator, a.numerator, a.denominator) for a in firsts)
    gaps = (b - a for i, a in enumerate(firsts) for b in firsts[i + 1:])
    if 2 * top * top >= cap and any(max(g.numerator, g.denominator) >= cap
                                    for g in gaps):
        raise InputError(f"the pairs' first coordinates differ by ratios "
                         f"past the {MAX_DIGITS}-digit limit")

    def dn(n: int, x, y) -> Fraction:
        return abs(x[0] - y[0]) + Fraction(1, n) * abs(x[1] - y[1])

    checks = []
    for n, m in combinations(ns, 2):
        budget = spread * abs(Fraction(1, n) - Fraction(1, m))
        worst = max(abs(dn(n, x, y) - dn(m, x, y)) for x, y in pairs)
        checks.append({
            "n": n, "m": m,
            "maxGap": fmt(worst),
            "budget": fmt(budget),
            "holds": worst <= budget,
        })
    bound_ok = all(check["holds"] for check in checks)

    labels = tuple([f"({fmt(p[0])},{fmt(p[1])})" for p in points])
    xs, den = to_ints([p[0] for p in points])
    limit = MetricMatrix(labels, _reduced(tuple(
        [abs(x - y) for i, x in enumerate(xs) for y in xs[i:]]), den))
    verdict = validate_metric(limit)

    return {
        "indices": ns,
        "oscillationConstant": fmt(spread),
        "cauchyChecks": checks,
        "cauchyBoundHolds": bound_ok,
        "limitMatrix": limit,
        "limitValidation": verdict,
        "limitIsMetric": verdict["pass"],
        "demonstratesIncompleteness": bound_ok and not verdict["pass"],
    }


# ---------------------------------------------------------------------------
# Seeded random metrics (shared by the verifier samples and the test oracles)
# ---------------------------------------------------------------------------


def random_metric(rng, labels: Sequence[str]) -> MetricMatrix:
    """Random rational metric, in twelfths of 1/t: s/t times a box table
    (entries 1 + k/12, within a factor two of each other, so triangle
    holds), a star table d(i,j) = a_i + a_j for halves a_i, or their sum."""
    n = len(labels)
    style = rng.choice(("box", "star", "mix"))
    s, t = rng.randint(1, 8), rng.randint(1, 4)
    weights = [6 * rng.randint(1, 6) for _ in range(n)]   # in twelfths
    nums = []
    for i in range(n):
        nums.append(0)
        for j in range(i + 1, n):
            v = 0 if style == "star" else 12 + rng.randint(0, 12)
            if style != "box":
                v += weights[i] + weights[j]
            nums.append(s * v)
    return MetricMatrix(tuple(labels), _reduced(tuple(nums), 12 * t))
