"""Interval interning by reduced integer terms."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taxprob import (Interval, QueryAnswer, check_consistency, local_query,
                     tight_answer)
from taxprob.intervals import _intern
from taxprob.rules import evaluate_slots

from helpers import build_chain, load_row, random_chain_kb


def test_make_interns_one_object_per_value():
    half = Interval.make(F(1, 2), F(3, 4))
    assert Interval.make("1/2", "0.75") is half
    assert Interval.make(F(2, 4), F(6, 8)) is half
    assert Interval.from_terms(1, 2, 3, 4) is half
    # unreduced terms and negative denominators are reduced before lookup
    assert Interval.from_terms(2, 4, 6, 8) is half
    assert Interval.from_terms(-1, -2, 3, 4) is half
    unit = Interval.make(0, 1)
    assert Interval.make(F(0), F(1)) is unit
    assert Interval.make(0, "2/2") is unit
    assert Interval.from_terms(0, 5, 7, 7) is unit
    assert (unit.lo_n, unit.lo_d, unit.hi_n, unit.hi_d) == (0, 1, 1, 1)
    assert half is not unit


@pytest.mark.parametrize("lo, hi", [
    (1, 0), (F(1, 2), F(1, 3)), (F(-1, 2), 1), (0, F(3, 2)), (2, 2)])
def test_invalid_bounds_raise(lo, hi):
    with pytest.raises(ValueError):
        Interval.make(lo, hi)
    with pytest.raises(ValueError):
        Interval.from_terms(F(lo).numerator, F(lo).denominator,
                            F(hi).numerator, F(hi).denominator)


def test_empty_answer_is_not_interned():
    # (1, 0) is a query answer, which `QueryAnswer` alone builds and
    # recognises; no interval can hold it
    empty = QueryAnswer.empty_answer()
    assert (empty.lower, empty.upper) == (1, 0) and empty.empty
    kb, (a, b, c) = load_row("row_h")
    for answer in (local_query(kb, (c, a)), tight_answer(kb, (c, a))):
        assert answer.lower <= answer.upper and not answer.empty
    with pytest.raises(ValueError):
        Interval.from_terms(1, 1, 0, 1)
    assert (1, 1, 0, 1) not in _intern


_VALUE = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(
        lambda n: F(n, d))),
    st.integers(10 ** 31, 10 ** 33).flatmap(lambda d: st.integers(0, d).map(
        lambda n: F(n, d))),
)


@st.composite
def _intervals(draw):
    lo, hi = sorted((draw(_VALUE), draw(_VALUE)))
    return Interval.make(lo, hi)


@settings(max_examples=200, deadline=None)
@given(_intervals(), _intervals())
def test_intersect_matches_fraction_max_min(p, q):
    lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
    meet = p.intersect(q)
    if lo > hi:
        assert meet is None
    else:
        assert meet is Interval.make(lo, hi)
        assert type(meet.lo) is F and type(meet.hi) is F


def test_rule_results_are_fractions():
    # the rules hand over reduced int terms; the interval's bounds are
    # still Fractions (never floats) with those terms
    chains = []
    for name in ("row_f", "row_g", "row_h", "row_i", "row_k"):
        kb, roles = load_row(name)
        chains.append(build_chain(kb, *roles))
    rng = random.Random(11)
    while len(chains) < 60:
        made = random_chain_kb(rng)
        if made is not None:
            chains.append(build_chain(*made))
    seen = 0
    for chain in chains:
        if not check_consistency(chain).consistent:
            continue
        for res in evaluate_slots(chain):
            iv = res.interval
            if iv is None:
                continue
            seen += 1
            assert type(iv.lo) is F and type(iv.hi) is F, iv
            assert (iv.lo_n, iv.lo_d, iv.hi_n, iv.hi_d) == (
                iv.lo.numerator, iv.lo.denominator,
                iv.hi.numerator, iv.hi.denominator)
    assert seen > 100
