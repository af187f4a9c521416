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
the one place where an operand is written: a printable tag, which traces
report when the operand attains a bound, a guard and a formula, both as
text.  The formula reads the bounds u1..y2 and int constants with
`+ - * /`, `min` and `max`; the guard joins the flags alpha..zeta and the
tests pos(q) (q > 0), lt1(q) (q < 1), gt(a, b) (a > b) and
sum_gt1(a, b) (a + b > 1) with `and`, and is empty for an unconditional
operand.  Every operand containing a division carries a guard that makes
its denominator strictly positive, and every operand list has an
unconditional member.

`tests/kernelgen.py` turns each operand list into one straight-line
function over plain ints in the generated module `_kernels`, whose `ROWS`
table lists the (lower, upper) kernels in `RULE_SLOTS` order.  A kernel
takes the eight bounds as reduced int terms (the intervals' lo_n, lo_d,
hi_n, hi_d of u, v, x, y) and the six guard flags, multiplies the
formulas out without a gcd, compares operands by cross-multiplication
and returns the best value as unreduced terms (n, d), d > 0, with the
tags that attain it in operand order; only that value is reduced, once
per bound, into the terms that key the resulting `Interval`.  A division
by zero raises `ZeroDivisionError`.  A tier-1 test regenerates the module
and fails when it differs.

The mirror symmetry of the premise ((A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u),
beta and gamma, delta and epsilon, and the AB and BC product-false flags
trading places) turns the same table into deductions for (B|C), (C|B),
(A|C), (A|BC) and (BC|A); `evaluate_slots` always runs both orientations,
the mirror by permuting the kernels' arguments, and returns one
identity-free `SlotResult` per enabled row and orientation.

`evaluate_chain` checks a chain's consistency and returns those results
unchanged (None for an inconsistent chain), so the engine can cache them by
the chain's value signature; `SLOT_PART_INDEX` resolves each result's slot
to positions in the chain's six part events, listed in `SLOT_PARTS` order.

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

from ._kernels import ROWS as _KERNELS
from .chains import ChainPremise, check_consistency
from .intervals import Interval

RULE_NAMES = ("sharpening", "chaining", "fusion", "combination")
ALL_RULES: FrozenSet[str] = frozenset(RULE_NAMES)


@dataclass(frozen=True)
class Operand:
    tag: str
    guard: str  # "" for an unconditional operand
    expr: str


# -- operand tables, one per rule part ---------------------------------------

SHARPENING_BA_LOWER = (
    Operand("u1", "", "u1"),
    Operand("v1y1/(v1y1+x2(1-y1))", "gamma and pos(v1) and pos(y1)",
            "v1*y1/(v1*y1+x2*(1-y1))"),
    Operand("y1", "gamma and delta", "y1"),
)

SHARPENING_BA_UPPER = (
    Operand("u2", "", "u2"),
    Operand("v2y2/(v2y2+x1(1-y2))", "beta and pos(v2) and pos(y2)",
            "v2*y2/(v2*y2+x1*(1-y2))"),
    Operand("y2", "beta and epsilon", "y2"),
)

SHARPENING_AB_LOWER = (
    Operand("u1x1(1-y2)/(y2(1-u1))",
            "beta and lt1(u1) and gt(u1, y2) and pos(y2)",
            "u1*x1*(1-y2)/(y2*(1-u1))"),
    Operand("v1", "", "v1"),
    Operand("x1", "delta", "x1"),
)

SHARPENING_AB_UPPER = (
    Operand("1-x1", "alpha", "1-x1"),
    Operand("u2x2(1-y1)/(y1(1-u2))", "gamma and gt(y1, u2)",
            "u2*x2*(1-y1)/(y1*(1-u2))"),
    Operand("v2", "", "v2"),
    Operand("x2", "epsilon", "x2"),
)

CHAINING_CA_LOWER = (
    Operand("0", "", "0"),
    Operand("u1(v1+x1-1)/v1", "sum_gt1(v1, x1)", "u1*(v1+x1-1)/v1"),
    Operand("u1", "epsilon", "u1"),
    Operand("u1x1/v2", "delta and pos(v2)", "u1*x1/v2"),
    Operand("u1x1/(v2y2)", "beta and pos(v2) and pos(y2)", "u1*x1/(v2*y2)"),
    Operand("u1/y2", "beta and epsilon and pos(y2)", "u1/y2"),
    Operand("1", "gamma", "1"),
)

CHAINING_CA_UPPER = (
    Operand("1", "", "1"),
    Operand("1-u1+u1x2/v1", "gt(v1, x2)", "1-u1+u1*x2/v1"),
    Operand("u2x2/(v1y1)", "pos(v1) and pos(y1)", "u2*x2/(v1*y1)"),
    Operand("x2/(v1y1+x2(1-y1))", "gt(v1, x2) and pos(y1)",
            "x2/(v1*y1+x2*(1-y1))"),
    Operand("1-u1", "alpha", "1-u1"),
    Operand("u2-u2x2/v1+u2x2/(v1y1)", "pos(v1) and pos(y1)",
            "u2-u2*x2/v1+u2*x2/(v1*y1)"),
    Operand("u2/y1", "delta and gt(y1, u2)", "u2/y1"),
    Operand("(1-u1)/(1-y2)", "beta and gt(u1, y2)", "(1-u1)/(1-y2)"),
    Operand("u2x2/v1", "zeta and gt(v1, x2)", "u2*x2/v1"),
    Operand("u2", "zeta", "u2"),
    Operand("u2(1-y1)min(x2,1-v1)/(v1y1)", "alpha and pos(v1) and pos(y1)",
            "u2*(1-y1)/(v1*y1)*min(x2, 1-v1)"),
    Operand("0", "alpha and zeta", "0"),
    Operand("(1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))",
            "alpha and pos(v1) and pos(y1)",
            "(1-y1)*min(x2, 1-v1)/(v1*y1+(1-y1)*min(x2, 1-v1))"),
)

FUSION_BAC_LOWER = (
    Operand("max(y1(v1+x1-1)/(y1(v1-1)+x1), u1(x1+v1-1)/(u1(x1-1)+v1))",
            "sum_gt1(x1, v1)",
            "max(y1*(v1+x1-1)/(y1*(v1-1)+x1), u1*(x1+v1-1)/(u1*(x1-1)+v1))"),
    Operand("u1", "epsilon", "u1"),
    Operand("y1", "delta", "y1"),
    Operand("v1y1/(v1y1+x2(1-y1))", "epsilon and pos(v1) and pos(y1)",
            "v1*y1/(v1*y1+x2*(1-y1))"),
    Operand("x1u1/(x1u1+v2(1-u1))", "delta and pos(x1) and pos(u1)",
            "x1*u1/(x1*u1+v2*(1-u1))"),
    Operand("0", "", "0"),
    Operand("1", "zeta", "1"),
)

FUSION_BAC_UPPER = (
    Operand("1", "", "1"),
    Operand("u2", "gamma", "u2"),
    Operand("y2", "beta", "y2"),
    Operand("0", "alpha", "0"),
)

FUSION_ACB_LOWER = (
    Operand("0", "", "0"),
    Operand("x1+v1-1", "", "x1+v1-1"),
    Operand("x1", "delta", "x1"),
    Operand("v1", "epsilon", "v1"),
)

FUSION_ACB_UPPER = (
    Operand("v2", "", "v2"),
    Operand("x2", "", "x2"),
    Operand("u2x2(1-y1)/(y1(1-u2))", "gamma and gt(y1, u2)",
            "u2*x2*(1-y1)/(y1*(1-u2))"),
    Operand("v2y2(1-u1)/(u1(1-y2))", "beta and gt(u1, y2)",
            "v2*y2*(1-u1)/(u1*(1-y2))"),
    Operand("0", "alpha", "0"),
)

COMBINATION_CAB_LOWER = (
    Operand("0", "", "0"),
    Operand("1-1/v1+x1/v1", "sum_gt1(v1, x1)", "1-1/v1+x1/v1"),
    Operand("1", "epsilon", "1"),
    Operand("x1/v2", "delta and pos(v2)", "x1/v2"),
)

COMBINATION_CAB_UPPER = (
    Operand("1", "", "1"),
    Operand("y2(1-u1)/(u1(1-y2))", "beta and gt(u1, y2)",
            "y2*(1-u1)/(u1*(1-y2))"),
    Operand("0", "alpha", "0"),
    Operand("x2/v1", "gt(v1, x2)", "x2/v1"),
)

COMBINATION_ABC_LOWER = (
    Operand("0", "", "0"),
    Operand("v1y1/x1-y1/x1+y1", "sum_gt1(v1, x1)", "v1*y1/x1-y1/x1+y1"),
    Operand("y1", "delta", "y1"),
    Operand("u1", "beta and epsilon", "u1"),
    Operand("u1x1/(u1x1+v2(1-u1))", "beta and pos(u1) and pos(x1)",
            "u1*x1/(u1*x1+v2*(1-u1))"),
    Operand("v1y1/x2", "epsilon and pos(x2)", "v1*y1/x2"),
)

COMBINATION_ABC_UPPER = (
    Operand("v2y2/x1", "gt(x1, v2)", "v2*y2/x1"),
    Operand("u2(1-y1)/(1-u2)", "gamma and lt1(u2)", "u2*(1-y1)/(1-u2)"),
    Operand("u2v2/(u2x1+v2(1-u2))", "gamma and gt(x1, v2) and pos(v2)",
            "u2*v2/(u2*x1+v2*(1-u2))"),
    Operand("0", "alpha", "0"),
    Operand("y2", "", "y2"),
    Operand("u2", "gamma", "u2"),
)


class SlotResult(NamedTuple):
    """One deduced conditional, identity-free.

    `slot` names the conclusion and premise as role combinations, e.g.
    ("B", "AC").  `interval` is None in the partial-rule case where the
    premise is taxonomy-false, so the conditional gets the (1, 0) answer.
    """

    slot: Tuple[str, str]
    interval: Optional[Interval]
    rule: str
    lower_tags: Tuple[str, ...]
    upper_tags: Tuple[str, ...]


# One row per deduced conditional, in evaluation order: (rule, slot, lower
# operands, upper operands, the ChainPremise flag that makes the slot's
# premise taxonomy-false, or None for a rule that is total on the slot).
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


_SWAP_ROLE = {"A": "C", "B": "B", "C": "A"}


def _swap_slot(slot: Tuple[str, str]) -> Tuple[str, str]:
    def remap(combo: str) -> str:
        return "".join(sorted(_SWAP_ROLE[r] for r in combo))
    return (remap(slot[0]), remap(slot[1]))


_SLOTS = tuple(row[1] for row in RULE_SLOTS)
# each row's slot as the mirrored run reports it, in the original roles
_MIRRORED_SLOTS = tuple(_swap_slot(slot) for slot in _SLOTS)

# the six slot parts of a chain, and every slot either run reports as its
# (conclusion, premise) part indices; `engine.saturate` lists a chain's part
# events in this order
SLOT_PARTS = ("A", "B", "C", "AB", "AC", "BC")
SLOT_PART_INDEX: Dict[Tuple[str, str], Tuple[int, int]] = {
    slot: (SLOT_PARTS.index(slot[0]), SLOT_PARTS.index(slot[1]))
    for slot in _SLOTS + _MIRRORED_SLOTS}

# per orientation, per row: the rule, the chain's product-false flag that
# empties the slot (the mirrored chain's AB is the chain's BC), both kernels
# and the slot as reported
_RUNS = tuple(
    tuple((rule, flags.get(false_premise, false_premise), lower, upper, slot)
          for (rule, _, _, _, false_premise), (lower, upper), slot
          in zip(RULE_SLOTS, _KERNELS, slots))
    for flags, slots in (({}, _SLOTS),
                         ({"ab_false": "bc_false"}, _MIRRORED_SLOTS)))


def evaluate_slots(chain: ChainPremise,
                   enabled: FrozenSet[str] = ALL_RULES) -> Tuple[SlotResult, ...]:
    """Run the enabled rows of `RULE_SLOTS` on the chain and then on its
    mirror, identity-free.

    Slots of the mirrored run are expressed in the original roles, so the
    result depends only on the chain's value signature.  The mirrored run
    passes the kernels the bounds (y, x, v, u) and the flags with beta and
    gamma, delta and epsilon swapped.
    """
    u, v, x, y = chain.u, chain.v, chain.x, chain.y
    tu = (u.lo_n, u.lo_d, u.hi_n, u.hi_d)
    tv = (v.lo_n, v.lo_d, v.hi_n, v.hi_d)
    tx = (x.lo_n, x.lo_d, x.hi_n, x.hi_d)
    ty = (y.lo_n, y.lo_d, y.hi_n, y.hi_d)
    alpha, beta, gamma = chain.alpha, chain.beta, chain.gamma
    delta, epsilon, zeta = chain.delta, chain.epsilon, chain.zeta
    args = tu + tv + tx + ty + (alpha, beta, gamma, delta, epsilon, zeta)
    mirrored = ty + tx + tv + tu + (alpha, gamma, beta, epsilon, delta, zeta)
    results = []
    for rows, run_args in zip(_RUNS, (args, mirrored)):
        for rule, false_premise, lower, upper, slot in rows:
            if rule not in enabled:
                continue
            if false_premise is not None and getattr(chain, false_premise):
                results.append(SlotResult(slot, None, rule, (), ()))
                continue
            lo_n, lo_d, lo_tags = lower(*run_args)
            hi_n, hi_d, hi_tags = upper(*run_args)
            g = gcd(lo_n, lo_d)
            h = gcd(hi_n, hi_d)
            results.append(SlotResult(
                slot, Interval.from_terms(lo_n // g, lo_d // g,
                                          hi_n // h, hi_d // h),
                rule, lo_tags, hi_tags))
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
