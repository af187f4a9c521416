import random
from fractions import Fraction as F

from taxprob import Interval, check_consistency, conjunction
from taxprob.oracle import max_event_probability

from helpers import build_chain, load_row, random_chain_kb, swap_chain


def test_build_chain_row_h():
    kb, (a, b, c) = load_row("row_h")
    chain = build_chain(kb, a, b, c)
    assert chain.u == Interval.make(F(85, 100), F(90, 100))
    assert chain.v == Interval.make(F(30, 100), F(35, 100))
    assert chain.x == Interval.make(F(20, 100), F(25, 100))
    assert chain.y == Interval.make(F(75, 100), F(80, 100))
    assert chain.beta and chain.delta
    assert not (chain.alpha or chain.gamma or chain.epsilon or chain.zeta)


def test_build_chain_canonical_defaults():
    kb, (a, b, c) = load_row("row_k")
    # with C = B the (C|B) and (B|C) slots are (B|B), forced to [1, 1]
    chain = build_chain(kb, a, b, b)
    assert chain.x == Interval.make(1, 1)
    assert chain.y == Interval.make(1, 1)
    # roles without assertions get vacuous defaults
    chain2 = build_chain(kb, c, conjunction(["A", "C"]), c)
    assert chain2.u == Interval.make(0, 1)


def test_consistency_rows():
    expected = {
        "row_a": ({7}, {"B"}),
        "row_b": ({2, 5}, {"A", "B", "C"}),
        "row_c": ({4}, {"A", "B", "C"}),
        "row_d": (set(), set()),
        "row_e": ({4}, {"A", "B", "C"}),
    }
    for name, (conds, forced) in expected.items():
        kb, (a, b, c) = load_row(name)
        verdict = check_consistency(build_chain(kb, a, b, c))
        assert verdict.fired_conditions == frozenset(conds), name
        assert verdict.forced_false == frozenset(forced), name
        assert verdict.consistent == (not conds), name


def test_consistency_rows_f_to_k_pass():
    for name in ("row_f", "row_g", "row_h", "row_i", "row_j", "row_k"):
        kb, roles = load_row(name)
        verdict = check_consistency(build_chain(kb, *roles))
        assert verdict.consistent, name


def test_boundary_cases_are_consistent():
    # row g sits exactly on the boundaries of conditions 5 (v1 = x2) and the
    # strictness of the comparisons must keep it consistent
    kb, roles = load_row("row_g")
    chain = build_chain(kb, *roles)
    assert chain.v.lo == chain.x.hi
    assert check_consistency(chain).consistent


def test_forced_false_confirmed_by_oracle():
    for name in ("row_a", "row_b", "row_c", "row_e"):
        kb, roles = load_row(name)
        verdict = check_consistency(build_chain(kb, *roles))
        role_events = dict(zip("ABC", roles))
        for label in verdict.forced_false:
            assert max_event_probability(kb, role_events[label]) == 0, \
                (name, label)


def test_row_d_agrees_with_oracle():
    # the consistency check reports row d consistent; the oracle must agree
    # that every chain role keeps positive probability in some model
    kb, roles = load_row("row_d")
    verdict = check_consistency(build_chain(kb, *roles))
    assert verdict.consistent
    for ev in roles:
        assert max_event_probability(kb, ev) > 0


def test_random_verdicts_agree_with_oracle():
    rng = random.Random(71)
    checked = 0
    while checked < 60:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        verdict = check_consistency(build_chain(kb, a, b, c))
        zeroed = [max_event_probability(kb, ev) in (None, 0)
                  for ev in (a, b, c)]
        assert (not verdict.consistent) == any(zeroed)
        for label, ev in zip("ABC", (a, b, c)):
            if label in verdict.forced_false:
                assert max_event_probability(kb, ev) in (None, 0)
        checked += 1


def test_swap_is_involution():
    rng = random.Random(13)
    done = 0
    while done < 20:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        chain = build_chain(kb, a, b, c)
        assert swap_chain(swap_chain(chain)) == chain
        done += 1


def test_swap_matches_rebuilt_chain():
    rng = random.Random(17)
    done = 0
    while done < 20:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        assert swap_chain(build_chain(kb, a, b, c)) == build_chain(kb, c, b, a)
        done += 1
