"""The four guarded inference rules over chain premises, as one slot table.

Each rule deduces tight bounds for one or two conditionals built from the
chain roles A, B, C.  `RULE_SLOTS` has one row per deduced conditional, in
evaluation order, holding the rule, the slot (conclusion | premise), the
lower and the upper operands:

* sharpening  -> (B|A) and (A|B)
* chaining    -> (C|A)
* fusion      -> (B|AC) and (AC|B)
* combination -> (C|AB) and (AB|C)

Fusion and combination are partial: a row also names the chain's
product-false flag (ac_false, ab_false) under which its premise is
taxonomy-false, and the slot then gets the (1, 0) answer instead.

A bound is the max (lower) or min (upper) of a list of operands; an operand
participates only when all of its guard conditions hold.  This module is
the one place where an operand is written: a guard and a formula, both as
text.  The consistency conditions of `chains.CONDITIONS` are written in
the same grammar.  The formula reads the bounds u1..y2 and int constants with
`+ - * /`, `min` and `max`; the guard joins the flags alpha..zeta and the
tests pos(q) (q > 0), lt1(q) (q < 1), gt(a, b) (a > b) and
sum_gt1(a, b) (a + b > 1) with `and`, and is empty for an unconditional
operand.  An operand's tag, which traces report when the operand attains
a bound, is its formula with every `*` removed (u1*x1/v2 is u1x1/v2), so a
formula writes a `*` for every product and a space only right after a
comma, which the generator checks.  Every operand containing a division
carries a guard that makes its denominator strictly positive, and every
operand list has an unconditional member.

Each operand list is generated into one straight-line function over plain
ints in the module `_kernels`, named by the generator's `kernel_name`.  A
kernel takes the chain's `kernel_args` up to the product-false flags
(`chains.KERNEL_PARAMS`: the eight bounds as reduced int terms, then the
six guard flags), multiplies the formulas out without a gcd, compares
operands by cross-multiplication and returns the best value as unreduced
terms (n, d), d > 0, with the tags that attain it in operand order.  A
division by zero raises `ZeroDivisionError`.  A tier-1 test regenerates
the module and fails when it differs.

The mirror symmetry of the premise, `MIRROR` ((A,B,C,u,v,x,y) ->
(C,B,A,y,x,v,u), beta and gamma, delta and epsilon, and the AB and BC
product-false flags trading places), turns the same table into deductions
for (B|C), (C|B), (A|C), (A|BC) and (BC|A); it is the one statement of the
mirror, which the mirrored half of `KNOWN_BOUND` and the generator read.
The fusion slots (B|AC) and (AC|B) are their own mirrors, and so are their
product-false flag, known bounds and operand lists (a tier-1 test checks
the values), so the mirror adds nothing there.  The generator writes one
straight-line runner, `run_rows`, of the chain's `kernel_args` and a
`record` function, with one row for each of the chain's twelve distinct
slots: the seven rows of `RULE_SLOTS`, then the five whose slot is not its
own mirror, calling the same kernels on the chain's arguments of the
mirrored names (u1n reads y1n) under the mirrored product-false flag.  It
runs every row, skips a partial row whose premise is taxonomy-false, and
keeps a row's result only when its unreduced terms raise the lower or cut
the upper bound of the row's slot in `KNOWN_BOUND`, tested by
cross-multiplication.  Only a kept result is reduced, once per bound, into
the terms that key its `Interval`, and recorded as an identity-free
`SlotResult`.

`evaluate_slots` calls the runner once per chain, and `evaluate_chain`
checks a chain's consistency first (None for an inconsistent chain), so
the engine can cache the results by the chain's value signature;
`SLOT_PART_INDEX` resolves each result's slot to positions in the chain's
six part events, listed in `SLOT_PARTS` order.

One lower-bound operand of chaining, u1(v1+x1-1)/v1, is the
multiplicative one of two candidate closed forms; it mirrors the
corresponding combination operand.  The other, additive form
u1 + u1/v1 + u1x1/v1 can exceed 1 (u1=v1=x1=0.6 gives 2.2), so it cannot be
a sound lower bound.  The test suite validates the choice against the exact
LP oracle on random consistent chains with v1 + x1 > 1, and keeps the
additive form there to show that it is unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from ._kernels import run_rows
from .chains import ChainPremise, check_consistency
from .intervals import Interval

RULE_NAMES = ("sharpening", "chaining", "fusion", "combination")
ALL_RULES: FrozenSet[str] = frozenset(RULE_NAMES)


@dataclass(frozen=True)
class Operand:
    guard: str  # "" for an unconditional operand
    expr: str


# -- operand tables, one per rule part ---------------------------------------

SHARPENING_BA_LOWER = (
    Operand("", "u1"),
    Operand("gamma and pos(v1) and pos(y1)", "v1*y1/(v1*y1+x2*(1-y1))"),
    Operand("gamma and delta", "y1"),
)

SHARPENING_BA_UPPER = (
    Operand("", "u2"),
    Operand("beta and pos(v2) and pos(y2)", "v2*y2/(v2*y2+x1*(1-y2))"),
    Operand("beta and epsilon", "y2"),
)

SHARPENING_AB_LOWER = (
    Operand("beta and lt1(u1) and gt(u1, y2) and pos(y2)",
            "u1*x1*(1-y2)/(y2*(1-u1))"),
    Operand("", "v1"),
    Operand("delta", "x1"),
)

SHARPENING_AB_UPPER = (
    Operand("alpha", "1-x1"),
    Operand("gamma and gt(y1, u2)", "u2*x2*(1-y1)/(y1*(1-u2))"),
    Operand("", "v2"),
    Operand("epsilon", "x2"),
)

CHAINING_CA_LOWER = (
    Operand("", "0"),
    Operand("sum_gt1(v1, x1)", "u1*(v1+x1-1)/v1"),
    Operand("epsilon", "u1"),
    Operand("delta and pos(v2)", "u1*x1/v2"),
    Operand("beta and pos(v2) and pos(y2)", "u1*x1/(v2*y2)"),
    Operand("beta and epsilon and pos(y2)", "u1/y2"),
    Operand("gamma", "1"),
)

CHAINING_CA_UPPER = (
    Operand("", "1"),
    Operand("gt(v1, x2)", "1-u1+u1*x2/v1"),
    Operand("pos(v1) and pos(y1)", "u2*x2/(v1*y1)"),
    Operand("gt(v1, x2) and pos(y1)", "x2/(v1*y1+x2*(1-y1))"),
    Operand("alpha", "1-u1"),
    Operand("pos(v1) and pos(y1)", "u2-u2*x2/v1+u2*x2/(v1*y1)"),
    Operand("delta and gt(y1, u2)", "u2/y1"),
    Operand("beta and gt(u1, y2)", "(1-u1)/(1-y2)"),
    Operand("zeta and gt(v1, x2)", "u2*x2/v1"),
    Operand("zeta", "u2"),
    Operand("alpha and pos(v1) and pos(y1)", "u2*(1-y1)*min(x2,1-v1)/(v1*y1)"),
    Operand("alpha and zeta", "0"),
    Operand("alpha and pos(v1) and pos(y1)",
            "(1-y1)*min(x2,1-v1)/(v1*y1+(1-y1)*min(x2,1-v1))"),
)

FUSION_BAC_LOWER = (
    Operand("sum_gt1(x1, v1)",
            "max(y1*(v1+x1-1)/(y1*(v1-1)+x1), u1*(x1+v1-1)/(u1*(x1-1)+v1))"),
    Operand("epsilon", "u1"),
    Operand("delta", "y1"),
    Operand("epsilon and pos(v1) and pos(y1)", "v1*y1/(v1*y1+x2*(1-y1))"),
    Operand("delta and pos(x1) and pos(u1)", "x1*u1/(x1*u1+v2*(1-u1))"),
    Operand("", "0"),
    Operand("zeta", "1"),
)

FUSION_BAC_UPPER = (
    Operand("", "1"),
    Operand("gamma", "u2"),
    Operand("beta", "y2"),
    Operand("alpha", "0"),
)

FUSION_ACB_LOWER = (
    Operand("", "0"),
    Operand("", "x1+v1-1"),
    Operand("delta", "x1"),
    Operand("epsilon", "v1"),
)

FUSION_ACB_UPPER = (
    Operand("", "v2"),
    Operand("", "x2"),
    Operand("gamma and gt(y1, u2)", "u2*x2*(1-y1)/(y1*(1-u2))"),
    Operand("beta and gt(u1, y2)", "v2*y2*(1-u1)/(u1*(1-y2))"),
    Operand("alpha", "0"),
)

COMBINATION_CAB_LOWER = (
    Operand("", "0"),
    Operand("sum_gt1(v1, x1)", "1-1/v1+x1/v1"),
    Operand("epsilon", "1"),
    Operand("delta and pos(v2)", "x1/v2"),
)

COMBINATION_CAB_UPPER = (
    Operand("", "1"),
    Operand("beta and gt(u1, y2)", "y2*(1-u1)/(u1*(1-y2))"),
    Operand("alpha", "0"),
    Operand("gt(v1, x2)", "x2/v1"),
)

COMBINATION_ABC_LOWER = (
    Operand("", "0"),
    Operand("sum_gt1(v1, x1)", "v1*y1/x1-y1/x1+y1"),
    Operand("delta", "y1"),
    Operand("beta and epsilon", "u1"),
    Operand("beta and pos(u1) and pos(x1)", "u1*x1/(u1*x1+v2*(1-u1))"),
    Operand("epsilon and pos(x2)", "v1*y1/x2"),
)

COMBINATION_ABC_UPPER = (
    Operand("gt(x1, v2)", "v2*y2/x1"),
    Operand("gamma and lt1(u2)", "u2*(1-y1)/(1-u2)"),
    Operand("gamma and gt(x1, v2) and pos(v2)", "u2*v2/(u2*x1+v2*(1-u2))"),
    Operand("alpha", "0"),
    Operand("", "y2"),
    Operand("gamma", "u2"),
)


class SlotResult(NamedTuple):
    """One deduced conditional that can still tighten a bound, identity-free.

    `slot` names the conclusion and premise as role combinations, e.g.
    ("B", "AC").
    """

    slot: Tuple[str, str]
    interval: Interval
    rule: str
    lower_tags: Tuple[str, ...]
    upper_tags: Tuple[str, ...]


# One row per deduced conditional, in evaluation order: (rule, slot, lower
# operands, upper operands, the product-false flag of `chains.KERNEL_PARAMS`
# that makes the slot's premise taxonomy-false, or None for a rule that is
# total on the slot).
RULE_SLOTS = (
    ("sharpening", ("B", "A"), SHARPENING_BA_LOWER, SHARPENING_BA_UPPER, None),
    ("sharpening", ("A", "B"), SHARPENING_AB_LOWER, SHARPENING_AB_UPPER, None),
    ("chaining", ("C", "A"), CHAINING_CA_LOWER, CHAINING_CA_UPPER, None),
    ("fusion", ("B", "AC"), FUSION_BAC_LOWER, FUSION_BAC_UPPER, "ac_false"),
    ("fusion", ("AC", "B"), FUSION_ACB_LOWER, FUSION_ACB_UPPER, None),
    ("combination", ("C", "AB"), COMBINATION_CAB_LOWER, COMBINATION_CAB_UPPER,
     "ab_false"),
    ("combination", ("AB", "C"), COMBINATION_ABC_LOWER, COMBINATION_ABC_UPPER,
     None),
)


# The chain mirror (A, B, C, u, v, x, y) -> (C, B, A, y, x, v, u): each
# name of the chain and the name a mirrored row of the runner reads in its
# place.  The guards and the product-false flags of AB and BC trade places;
# a name it leaves out (B, alpha, zeta, ac_false) is its own mirror.  The
# runner is generated from it, so an edit here needs a regeneration.
MIRROR = {"A": "C", "C": "A", "u": "y", "y": "u", "v": "x", "x": "v",
          "beta": "gamma", "gamma": "beta", "delta": "epsilon",
          "epsilon": "delta", "ab_false": "bc_false", "bc_false": "ab_false"}


def _mirrored(name: Optional[str]) -> Optional[str]:
    return MIRROR.get(name, name)


def _swap_slot(slot: Tuple[str, str]) -> Tuple[str, str]:
    def remap(combo: str) -> str:
        return "".join(sorted(_mirrored(r) for r in combo))
    return (remap(slot[0]), remap(slot[1]))


# Per reported slot, the bound that its target is known to lie within, as
# the chain's names: the input the target was read from (u, v, x, y), or the
# two flags under which the target's taxonomy-forced interval is [0, 0] and
# [1, 1], else [0, 1] (None where the flags cannot tell [1, 1] from
# [0, 1]).  Bounds only shrink, from canonical ∩ asserted, so a result that
# contains its known bound contains the target's current bound too.  The
# literal lists the slots of `RULE_SLOTS`; each mirrored slot's bound is the
# direct one's under `MIRROR` ((B|AC) and (AC|B) are their own mirrors).
KNOWN_BOUND = {
    ("B", "A"): "u", ("A", "B"): "v", ("C", "A"): ("ac_false", "gamma"),
    ("B", "AC"): ("alpha", "zeta"), ("AC", "B"): ("alpha", None),
    ("C", "AB"): ("alpha", "epsilon"), ("AB", "C"): ("alpha", None),
}
KNOWN_BOUND.update({
    _swap_slot(slot): (_mirrored(known) if isinstance(known, str)
                       else tuple(map(_mirrored, known)))
    for slot, known in KNOWN_BOUND.items()})

# the six slot parts of a chain, and every slot the runner reports as its
# (conclusion, premise) part indices; `engine.saturate` lists a chain's part
# events in this order
SLOT_PARTS = ("A", "B", "C", "AB", "AC", "BC")
SLOT_PART_INDEX: Dict[Tuple[str, str], Tuple[int, int]] = {
    slot: (SLOT_PARTS.index(slot[0]), SLOT_PARTS.index(slot[1]))
    for slot in KNOWN_BOUND}


def _slot_result(slot: Tuple[str, str], rule: str, lo_n: int, lo_d: int,
                 lo_tags: Tuple[str, ...], hi_n: int, hi_d: int,
                 hi_tags: Tuple[str, ...]) -> SlotResult:
    """The record of a kept row: its bounds' unreduced terms reduced once
    into the terms that key the interval."""
    g = gcd(lo_n, lo_d)
    h = gcd(hi_n, hi_d)
    return SlotResult(slot, Interval.from_terms(lo_n // g, lo_d // g,
                                                hi_n // h, hi_d // h),
                      rule, lo_tags, hi_tags)


def evaluate_slots(chain: ChainPremise,
                   enabled: FrozenSet[str] = ALL_RULES) -> Tuple[SlotResult, ...]:
    """The results of the enabled rows of the generated runner, on the
    chain's twelve distinct slots, that can still tighten a bound,
    identity-free.

    `run_rows` runs the rows of `RULE_SLOTS` on the chain, then the mirrored
    rows on its mirror, and leaves out every row whose premise the taxonomy
    forces false (the (1, 0) convention settles it) and every result that
    contains its slot's `KNOWN_BOUND`, tested on the kernels' unreduced
    terms; only the rest are reduced and interned.  Slots of the mirrored
    rows are expressed in the original roles, so the result depends only
    on the chain's value signature.  The kernels are pure, so the rows of a
    disabled rule run and are then dropped.
    """
    results = run_rows(*chain.kernel_args, _slot_result)
    if enabled != ALL_RULES:
        results = [res for res in results if res.rule in enabled]
    return tuple(results)


def evaluate_chain(chain: ChainPremise, enabled: FrozenSet[str] = ALL_RULES
                   ) -> Optional[Tuple[SlotResult, ...]]:
    """The slot results of a consistent chain, None for an inconsistent one.
    Nothing depends on the role events, so the result can be cached by the
    chain's value signature.
    """
    if not check_consistency(chain).consistent:
        return None
    return evaluate_slots(chain, enabled)
