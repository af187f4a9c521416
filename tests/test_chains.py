import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from taxprob import (ChainPremise, Interval, check_consistency, conjunction,
                     parse_kb)
from taxprob.chains import CONDITIONS
from taxprob.intervals import UNIT
from taxprob.rules import MIRROR

from helpers import (GUARD_NAMES, build_chain, chain_fields, decode_guards,
                     load_row, max_event_probability, random_chain_kb,
                     swap_chain)


def test_build_chain_row_h():
    kb, (a, b, c) = load_row("row_h")
    chain = build_chain(kb, a, b, c)
    assert chain.u == Interval.make(F(85, 100), F(90, 100))
    assert chain.v == Interval.make(F(30, 100), F(35, 100))
    assert chain.x == Interval.make(F(20, 100), F(25, 100))
    assert chain.y == Interval.make(F(75, 100), F(80, 100))
    flags = decode_guards(chain.guards)
    assert flags.beta and flags.delta
    assert not (flags.alpha or flags.gamma or flags.epsilon or flags.zeta)


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


# one KB per condition that forces fewer than three roles, over basics
# a b c with (A, B, C) = (a, b, c)
FORCES_WITNESSES = {
    7: ("tax: a b c -> false", "prob: ( a | b ) [ 3/5, 1 ]",
        "prob: ( c | b ) [ 3/5, 1 ]"),
    5: ("tax: a b -> c", "prob: ( a | b ) [ 3/5, 1 ]",
        "prob: ( c | b ) [ 0, 1/2 ]"),
    6: ("tax: b c -> a", "prob: ( a | b ) [ 0, 1/2 ]",
        "prob: ( c | b ) [ 3/5, 1 ]"),
    1: ("tax: a -> c", "tax: b c -> a", "prob: ( b | a ) [ 0, 1/5 ]",
        "prob: ( b | c ) [ 1/2, 1 ]"),
    2: ("tax: c -> a", "tax: a b -> c", "prob: ( b | a ) [ 1/2, 1 ]",
        "prob: ( b | c ) [ 0, 1/5 ]"),
}


def test_witnesses_cover_every_condition_that_spares_a_role():
    assert set(FORCES_WITNESSES) == {
        number for number, cond in enumerate(CONDITIONS, 1)
        if len(cond.forces) < 3}


@pytest.mark.parametrize("number", sorted(FORCES_WITNESSES))
def test_forces_names_exactly_the_roles_the_oracle_zeroes(number):
    # the oracle confirms each forced role and refutes every other one: a
    # `forces` column that names a role too many fails here
    text = "\n".join(("basics: a b c",) + FORCES_WITNESSES[number]) + "\n"
    kb = parse_kb(text).kb
    roles = tuple(conjunction([n]) for n in "abc")
    verdict = check_consistency(build_chain(kb, *roles))
    assert verdict.fired_conditions == {number}
    forces = CONDITIONS[number - 1].forces
    for label, ev in zip("ABC", roles):
        expected = 0 if label in forces else 1
        assert max_event_probability(kb, ev) == expected, label


def test_random_verdicts_agree_with_oracle():
    # enough draws that each of the seven conditions fires on some of them
    rng = random.Random(71)
    checked = 0
    fired = set()
    while checked < 800:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        verdict = check_consistency(build_chain(kb, a, b, c))
        fired |= verdict.fired_conditions
        zeroed = [max_event_probability(kb, ev) in (None, 0)
                  for ev in (a, b, c)]
        assert (not verdict.consistent) == any(zeroed)
        for label, ev in zip("ABC", (a, b, c)):
            if label in verdict.forced_false:
                assert max_event_probability(kb, ev) in (None, 0)
        checked += 1
    assert fired == set(range(1, 8))


def test_swap_is_involution():
    rng = random.Random(13)
    done = 0
    while done < 20:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        chain = build_chain(kb, a, b, c)
        assert (chain_fields(swap_chain(swap_chain(chain)))
                == chain_fields(chain))
        done += 1


def test_mirror_agrees_with_swap_chain():
    # `rules.MIRROR`, which the mirrored rule run and the known-bound table
    # read, against the independent reference `swap_chain`
    assert all(MIRROR[MIRROR[name]] == name for name in MIRROR)
    rng = random.Random(19)
    done = 0
    while done < 40:
        made = random_chain_kb(rng)
        if made is None:
            continue
        chain = build_chain(*made)
        mirror = swap_chain(chain)
        for role in "ABC":
            assert (getattr(mirror, role.lower())
                    is getattr(chain, MIRROR.get(role, role).lower())), role
        for name in ("u", "v", "x", "y"):
            assert (getattr(mirror, name)
                    is getattr(chain, MIRROR.get(name, name))), name
        guards = vars(decode_guards(mirror.guards))
        chain_guards = vars(decode_guards(chain.guards))
        for name in GUARD_NAMES:
            assert guards[name] == chain_guards[MIRROR.get(name, name)], name
        done += 1


def test_swap_matches_rebuilt_chain():
    rng = random.Random(17)
    done = 0
    while done < 20:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        assert (chain_fields(swap_chain(build_chain(kb, a, b, c)))
                == chain_fields(build_chain(kb, c, b, a)))
        done += 1


# a bound in [0, 1]: 0 or 1, a small fraction, or one with a 30-40 digit
# denominator
_BOUND = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.fractions(0, 1, max_denominator=20),
    st.integers(10 ** 29, 10 ** 40 - 1).flatmap(
        lambda d: st.integers(0, d).map(lambda k: F(k, d))))
# an interval: any two bounds in order, or equal bounds
_INTERVAL = st.one_of(
    st.tuples(_BOUND, _BOUND).map(lambda p: Interval.make(min(p), max(p))),
    _BOUND.map(lambda f: Interval.make(f, f)))


@settings(max_examples=150, deadline=None)
@given(_INTERVAL, _INTERVAL)
@example(Interval.make(0, 0), Interval.make(1, 1))
@example(Interval.make(1, 1), Interval.make(0, 0))
def test_a_unit_half_fires_no_condition(first, second):
    # every condition compares a bound of the A-B half (u, v) with one of
    # the B-C half (x, y); when one half is [0, 1] on both conditionals no
    # condition can hold, whatever the other half and the guard word (the
    # lemma behind the check command's skips)
    a, b, c = (conjunction([n]) for n in "ABC")
    for guards in range(512):
        for bounds in ((UNIT, UNIT, first, second),
                       (first, second, UNIT, UNIT)):
            chain = ChainPremise(a, b, c, *bounds, guards)
            assert check_consistency(chain).consistent, (bounds, guards)
