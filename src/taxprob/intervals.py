"""Exact rational probability intervals.

All bounds in this package are `fractions.Fraction` values so that the strict
comparisons inside rule guards and consistency conditions are never corrupted
by floating-point rounding.  Intervals are interned: constructing the same
(lo, hi) pair twice returns the same object, which gives them a cheap stable
identity (`uid`) used as a cache key by the deduction engine.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Rational = Union[Fraction, int, str]

_intern: dict = {}


class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi <= 1.

    The distinguished empty answer (1, 0) is available as ``EMPTY_ANSWER``;
    it can never be produced by :meth:`make` and is not a legal asserted bound.
    """

    __slots__ = ("lo", "hi", "uid", "lo_n", "lo_d", "hi_n", "hi_d")

    def __init__(self, lo: Fraction, hi: Fraction, uid: int):
        self.lo = lo
        self.hi = hi
        self.uid = uid
        # plain-int views for hot-path comparisons without Fraction overhead
        self.lo_n = lo.numerator
        self.lo_d = lo.denominator
        self.hi_n = hi.numerator
        self.hi_d = hi.denominator

    @staticmethod
    def make(lo: Rational, hi: Rational) -> "Interval":
        lo = Fraction(lo)
        hi = Fraction(hi)
        key = (lo, hi)
        cached = _intern.get(key)
        if cached is not None:
            return cached
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"invalid probability interval [{lo}, {hi}]")
        iv = Interval(lo, hi, len(_intern))
        _intern[key] = iv
        return iv

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection of two intervals, or None when it is empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval.make(lo, hi)

    def contains(self, other: "Interval") -> bool:
        """True when `other` is a subset of this interval (empty is a subset of all)."""
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other):
        return self is other or (isinstance(other, Interval)
                                 and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


UNIT = Interval.make(0, 1)
POINT_ZERO = Interval.make(0, 0)
POINT_ONE = Interval.make(1, 1)

# The (1, 0) convention for queries whose premise has no positive-probability
# model. Built outside make() on purpose: it is a query result, never a bound.
EMPTY_ANSWER = Interval(Fraction(1), Fraction(0), -1)


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
