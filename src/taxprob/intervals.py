"""Exact rational probability intervals.

All bounds in this package are exact rationals, `fractions.Fraction` values
with their reduced int terms alongside, so that the strict comparisons
inside rule guards and consistency conditions are never corrupted by
floating-point rounding.  Intervals are interned by their reduced integer
terms (lo_n, lo_d, hi_n, hi_d): constructing the same pair of values twice
returns the same object, and the intern table never frees an entry, so
identity is equality and an interval is its own key (the deduction engine
keys its rule-result cache on the four bound intervals of a chain).  The
rules hand their results over as reduced terms (`Interval.from_terms`), so
the two Fractions of an interval are built only when it is new; `make`
reduces its arguments through `Fraction` and then takes the same path.

Hot paths (the consistency check, the rule kernels, the engine's
improvement test and `intersect`) read the reduced terms as plain ints and
compare by cross-multiplication, never building a `Fraction`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rational = Union[Fraction, int, str]

_intern: dict = {}


class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi <= 1.

    Built through `make` or `from_terms`, which intern it: equal intervals
    are one object, so the default identity comparison and hash compare
    values.  Every interval meets that invariant: the (1, 0) answer to a
    query whose premise has no positive-probability model is not an
    interval but a `kb.QueryAnswer`.
    """

    __slots__ = ("lo", "hi", "lo_n", "lo_d", "hi_n", "hi_d")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi
        # the reduced integer terms: the interning key, and hot-path
        # comparisons without Fraction overhead
        self.lo_n = lo.numerator
        self.lo_d = lo.denominator
        self.hi_n = hi.numerator
        self.hi_d = hi.denominator

    @staticmethod
    def make(lo: Rational, hi: Rational) -> "Interval":
        lo = Fraction(lo)
        hi = Fraction(hi)
        return Interval.from_terms(lo.numerator, lo.denominator,
                                   hi.numerator, hi.denominator)

    @staticmethod
    def from_terms(lo_n: int, lo_d: int, hi_n: int, hi_d: int) -> "Interval":
        """The interval [lo_n/lo_d, hi_n/hi_d].  Callers pass reduced terms
        with positive denominators (what `Fraction` keeps), which are the
        interning key; other terms are reduced first."""
        key = (lo_n, lo_d, hi_n, hi_d)
        cached = _intern.get(key)
        if cached is not None:
            return cached
        lo = Fraction(lo_n, lo_d)
        hi = Fraction(hi_n, hi_d)
        reduced = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        if reduced != key:
            return Interval.from_terms(*reduced)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"invalid probability interval [{lo}, {hi}]")
        iv = Interval(lo, hi)
        _intern[key] = iv
        return iv

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection of two intervals, or None when it is empty."""
        lo = self if self.lo_n * other.lo_d >= other.lo_n * self.lo_d else other
        hi = self if self.hi_n * other.hi_d <= other.hi_n * self.hi_d else other
        if lo.lo_n * hi.hi_d > hi.hi_n * lo.lo_d:
            return None
        return Interval.from_terms(lo.lo_n, lo.lo_d, hi.hi_n, hi.hi_d)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


UNIT = Interval.make(0, 1)
POINT_ZERO = Interval.make(0, 0)
POINT_ONE = Interval.make(1, 1)


def fmt_decimal(value: Fraction, places: int = 4) -> str:
    """Render an exact rational as a fixed-point decimal, rounding half up."""
    if value < 0:
        return "-" + fmt_decimal(-value, places)
    scale = 10 ** places
    q, r = divmod(value.numerator * scale, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    whole, frac = divmod(q, scale)
    if places == 0:
        return str(whole)
    return f"{whole}.{frac:0{places}d}"


# the two literal forms of a bound: a decimal (0.95) or a fraction (19/20);
# `Fraction` alone would also take signs, underscores and exponents, and an
# exponent like 1e-10000000 builds a ten-million-digit denominator
_BOUND_RE = re.compile(r"[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def parse_bound(text: str) -> Fraction:
    """Parse a decimal or p/q literal into an exact Fraction in [0, 1]."""
    text = text.strip()
    if not _BOUND_RE.fullmatch(text):
        raise ValueError(f"not a number: {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc
    if not 0 <= value <= 1:
        raise ValueError(f"bound out of [0, 1]: {text!r}")
    return value
