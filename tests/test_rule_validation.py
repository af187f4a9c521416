"""Adjudication of the two candidate closed forms for the first chaining
lower-bound operand.

The additive form can exceed 1, so it cannot be a sound lower bound for a
probability; the multiplicative form u1(v1+x1-1)/v1 parallels the
corresponding combination operand.  This suite settles the choice against the
exact LP oracle on random coherent, consistent chains whose bounds activate
the operand (v1 + x1 > 1): the shipped form must be sound and tight on every
one of them, and the rejected form must be demonstrably unsound.
"""

import random
from fractions import Fraction as F

from taxprob import (Interval, KnowledgeBase, ProbabilisticFormula,
                     TaxonomyStore, Universe, check_consistency, conjunction,
                     validate_coherence)
from taxprob.oracle import tight_answer
from taxprob.rules import CHAINING_CA_LOWER, Operand

from helpers import (build_chain, fraction_bound, fraction_eval, fraction_view,
                     rule_slots)

GRID = [F(i, 20) for i in range(21)]

# the rejected closed form, with the shipped form's guard (v1 + x1 > 1) and
# in its place in the table
ADDITIVE = Operand(CHAINING_CA_LOWER[1].guard, "u1+u1/v1+u1*x1/v1")
ADDITIVE_CA_LOWER = (CHAINING_CA_LOWER[0], ADDITIVE) + CHAINING_CA_LOWER[2:]


def activated_chains(seed, count):
    """Random consistent chains over three basics with v1 + x1 > 1."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        names = ["a", "b", "c"]
        u = Universe(names)
        a, b, c = (conjunction([n]) for n in names)
        v1 = rng.choice([g for g in GRID if F(1, 2) < g < 1])
        x1 = rng.choice([g for g in GRID if 1 - v1 < g < 1])
        v2 = rng.choice([g for g in GRID if g >= v1])
        x2 = rng.choice([g for g in GRID if g >= x1])
        u1 = rng.choice([g for g in GRID if g < 1])
        u2 = rng.choice([g for g in GRID if g >= u1 and g > 0])
        y1 = rng.choice([g for g in GRID if g < 1])
        y2 = rng.choice([g for g in GRID if g >= y1 and g > 0])
        kb = KnowledgeBase(u, TaxonomyStore(u, []), [
            ProbabilisticFormula(b, a, Interval.make(u1, u2)),
            ProbabilisticFormula(a, b, Interval.make(v1, v2)),
            ProbabilisticFormula(c, b, Interval.make(x1, x2)),
            ProbabilisticFormula(b, c, Interval.make(y1, y2))])
        if validate_coherence(kb):
            continue
        chain = build_chain(kb, a, b, c)
        if not check_consistency(chain).consistent:
            continue
        made += 1
        yield kb, chain, (c, a)


def test_multiplicative_form_is_sound_and_tight():
    exercised = 0
    for kb, chain, goal in activated_chains(seed=101, count=120):
        (res,) = rule_slots("chaining", chain)
        ans = tight_answer(kb, goal)
        assert not ans.empty
        assert res.interval.lo == ans.lower and res.interval.hi == ans.upper
        if "u1(v1+x1-1)/v1" in res.lower_tags:
            exercised += 1
    # the operand must actually decide the bound, not pass vacuously
    assert exercised >= 60


def test_additive_form_is_unsound():
    overshoots = 0
    for kb, chain, goal in activated_chains(seed=202, count=60):
        lower, _ = fraction_bound(ADDITIVE_CA_LOWER, chain, True)
        ans = tight_answer(kb, goal)
        if lower > ans.lower:
            overshoots += 1
    assert overshoots > 0


def test_additive_form_can_exceed_one():
    op = ADDITIVE
    u = Universe(["a", "b", "c"])
    a, b, c = (conjunction([n]) for n in ["a", "b", "c"])
    val = F(6, 10)
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [
        ProbabilisticFormula(b, a, Interval.make(val, 1)),
        ProbabilisticFormula(a, b, Interval.make(val, 1)),
        ProbabilisticFormula(c, b, Interval.make(val, 1)),
        ProbabilisticFormula(b, c, Interval.make(val, 1))])
    view = fraction_view(build_chain(kb, a, b, c))
    assert fraction_eval(op.guard, view)
    assert fraction_eval(op.expr, view) == F(22, 10)  # not a probability
