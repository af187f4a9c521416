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
participates only when all of its guard conditions hold.  Operands are kept
as data (guard predicate + expression + printable tag) rather than inlined
arithmetic so that traces can report which operand attained a bound and each
formula can be unit-tested in isolation.  Every operand containing a division
carries a guard that makes its denominator strictly positive, and every
operand list has an unconditional member.

Operands read the `ChainPremise` itself, whose bounds u1..y2 are exact
ratios of plain ints: each operand's arithmetic multiplies int terms out
without a gcd, the operands of a bound compare by cross-multiplication, and
only the winning value is reduced, once per bound, into the integer terms
that key the resulting `Interval`.  Constants are plain ints, so an operand
reads the same on any object with those attribute names whose bounds are
`Fraction`s.

The mirror symmetry of the premise ((A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u)) turns
the same table into deductions for (B|C), (C|B), (A|C), (A|BC) and (BC|A);
`evaluate_slots` always runs both orientations (the mirror is
`ChainPremise.mirror`) and returns one identity-free `SlotResult` per enabled
row and orientation.

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
from fractions import Fraction
from math import gcd
from typing import (Callable, Dict, FrozenSet, Iterable, NamedTuple,
                    Optional, Tuple)

from .chains import ChainPremise, check_consistency
from .intervals import Interval

RULE_NAMES = ("sharpening", "chaining", "fusion", "combination")
ALL_RULES: FrozenSet[str] = frozenset(RULE_NAMES)

# constants are plain ints, exact against int ratios and Fractions alike
_ONE = 1
_ZERO = 0


@dataclass(frozen=True)
class Operand:
    tag: str
    guard: Callable[[ChainPremise], bool]
    expr: Callable[[ChainPremise], object]  # a ratio of ints, or an int


def _always(_c: ChainPremise) -> bool:
    return True


def _const(value: int) -> Callable[[ChainPremise], int]:
    return lambda _c: value


# guard predicates in plain integer arithmetic on numerator and denominator,
# reduced or not (bounds are nonnegative and denominators positive, so
# positivity is a numerator test and strict comparison is cross-multiplication)

def _pos(q: Fraction) -> bool:
    return q.numerator > 0


def _lt1(q: Fraction) -> bool:
    return q.numerator < q.denominator


def _gt(a: Fraction, b: Fraction) -> bool:
    return a.numerator * b.denominator > b.numerator * a.denominator


def _sum_gt1(a: Fraction, b: Fraction) -> bool:
    return (a.numerator * b.denominator + b.numerator * a.denominator
            > a.denominator * b.denominator)


# -- operand tables, one per rule part ---------------------------------------

SHARPENING_BA_LOWER = (
    Operand("u1", _always, lambda c: c.u1),
    Operand("v1y1/(v1y1+x2(1-y1))",
            lambda c: c.gamma and _pos(c.v1) and _pos(c.y1),
            lambda c: c.v1 * c.y1 / (c.v1 * c.y1 + c.x2 * (1 - c.y1))),
    Operand("y1", lambda c: c.gamma and c.delta, lambda c: c.y1),
)

SHARPENING_BA_UPPER = (
    Operand("u2", _always, lambda c: c.u2),
    Operand("v2y2/(v2y2+x1(1-y2))",
            lambda c: c.beta and _pos(c.v2) and _pos(c.y2),
            lambda c: c.v2 * c.y2 / (c.v2 * c.y2 + c.x1 * (1 - c.y2))),
    Operand("y2", lambda c: c.beta and c.epsilon, lambda c: c.y2),
)

SHARPENING_AB_LOWER = (
    Operand("u1x1(1-y2)/(y2(1-u1))",
            lambda c: c.beta and _lt1(c.u1) and _gt(c.u1, c.y2) and _pos(c.y2),
            lambda c: c.u1 * c.x1 * (1 - c.y2) / (c.y2 * (1 - c.u1))),
    Operand("v1", _always, lambda c: c.v1),
    Operand("x1", lambda c: c.delta, lambda c: c.x1),
)

SHARPENING_AB_UPPER = (
    Operand("1-x1", lambda c: c.alpha, lambda c: 1 - c.x1),
    Operand("u2x2(1-y1)/(y1(1-u2))",
            lambda c: c.gamma and _gt(c.y1, c.u2),
            lambda c: c.u2 * c.x2 * (1 - c.y1) / (c.y1 * (1 - c.u2))),
    Operand("v2", _always, lambda c: c.v2),
    Operand("x2", lambda c: c.epsilon, lambda c: c.x2),
)

CHAINING_CA_LOWER = (
    Operand("0", _always, _const(_ZERO)),
    Operand("u1(v1+x1-1)/v1",
            lambda c: _sum_gt1(c.v1, c.x1),
            lambda c: c.u1 * (c.v1 + c.x1 - 1) / c.v1),
    Operand("u1", lambda c: c.epsilon, lambda c: c.u1),
    Operand("u1x1/v2",
            lambda c: c.delta and _pos(c.v2),
            lambda c: c.u1 * c.x1 / c.v2),
    Operand("u1x1/(v2y2)",
            lambda c: c.beta and _pos(c.v2) and _pos(c.y2),
            lambda c: c.u1 * c.x1 / (c.v2 * c.y2)),
    Operand("u1/y2",
            lambda c: c.beta and c.epsilon and _pos(c.y2),
            lambda c: c.u1 / c.y2),
    Operand("1", lambda c: c.gamma, _const(_ONE)),
)

CHAINING_CA_UPPER = (
    Operand("1", _always, _const(_ONE)),
    Operand("1-u1+u1x2/v1",
            lambda c: _gt(c.v1, c.x2),
            lambda c: 1 - c.u1 + c.u1 * c.x2 / c.v1),
    Operand("u2x2/(v1y1)",
            lambda c: _pos(c.v1) and _pos(c.y1),
            lambda c: c.u2 * c.x2 / (c.v1 * c.y1)),
    Operand("x2/(v1y1+x2(1-y1))",
            lambda c: _gt(c.v1, c.x2) and _pos(c.y1),
            lambda c: c.x2 / (c.v1 * c.y1 + c.x2 * (1 - c.y1))),
    Operand("1-u1", lambda c: c.alpha, lambda c: 1 - c.u1),
    Operand("u2-u2x2/v1+u2x2/(v1y1)",
            lambda c: _pos(c.v1) and _pos(c.y1),
            lambda c: c.u2 - c.u2 * c.x2 / c.v1 + c.u2 * c.x2 / (c.v1 * c.y1)),
    Operand("u2/y1",
            lambda c: c.delta and _gt(c.y1, c.u2),
            lambda c: c.u2 / c.y1),
    Operand("(1-u1)/(1-y2)",
            lambda c: c.beta and _gt(c.u1, c.y2),
            lambda c: (1 - c.u1) / (1 - c.y2)),
    Operand("u2x2/v1",
            lambda c: c.zeta and _gt(c.v1, c.x2),
            lambda c: c.u2 * c.x2 / c.v1),
    Operand("u2", lambda c: c.zeta, lambda c: c.u2),
    Operand("u2(1-y1)min(x2,1-v1)/(v1y1)",
            lambda c: c.alpha and _pos(c.v1) and _pos(c.y1),
            lambda c: c.u2 * (1 - c.y1) / (c.v1 * c.y1) * min(c.x2, 1 - c.v1)),
    Operand("0", lambda c: c.alpha and c.zeta, _const(_ZERO)),
    Operand("(1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))",
            lambda c: c.alpha and _pos(c.v1) and _pos(c.y1),
            lambda c: ((1 - c.y1) * min(c.x2, 1 - c.v1)
                       / (c.v1 * c.y1 + (1 - c.y1) * min(c.x2, 1 - c.v1)))),
)

FUSION_BAC_LOWER = (
    Operand("max(y1(v1+x1-1)/(y1(v1-1)+x1), u1(x1+v1-1)/(u1(x1-1)+v1))",
            lambda c: _sum_gt1(c.x1, c.v1),
            lambda c: max(c.y1 * (c.v1 + c.x1 - 1) / (c.y1 * (c.v1 - 1) + c.x1),
                          c.u1 * (c.x1 + c.v1 - 1) / (c.u1 * (c.x1 - 1) + c.v1))),
    Operand("u1", lambda c: c.epsilon, lambda c: c.u1),
    Operand("y1", lambda c: c.delta, lambda c: c.y1),
    Operand("v1y1/(v1y1+x2(1-y1))",
            lambda c: c.epsilon and _pos(c.v1) and _pos(c.y1),
            lambda c: c.v1 * c.y1 / (c.v1 * c.y1 + c.x2 * (1 - c.y1))),
    Operand("x1u1/(x1u1+v2(1-u1))",
            lambda c: c.delta and _pos(c.x1) and _pos(c.u1),
            lambda c: c.x1 * c.u1 / (c.x1 * c.u1 + c.v2 * (1 - c.u1))),
    Operand("0", _always, _const(_ZERO)),
    Operand("1", lambda c: c.zeta, _const(_ONE)),
)

FUSION_BAC_UPPER = (
    Operand("1", _always, _const(_ONE)),
    Operand("u2", lambda c: c.gamma, lambda c: c.u2),
    Operand("y2", lambda c: c.beta, lambda c: c.y2),
    Operand("0", lambda c: c.alpha, _const(_ZERO)),
)

FUSION_ACB_LOWER = (
    Operand("0", _always, _const(_ZERO)),
    Operand("x1+v1-1", _always, lambda c: c.x1 + c.v1 - 1),
    Operand("x1", lambda c: c.delta, lambda c: c.x1),
    Operand("v1", lambda c: c.epsilon, lambda c: c.v1),
)

FUSION_ACB_UPPER = (
    Operand("v2", _always, lambda c: c.v2),
    Operand("x2", _always, lambda c: c.x2),
    Operand("u2x2(1-y1)/(y1(1-u2))",
            lambda c: c.gamma and _gt(c.y1, c.u2),
            lambda c: c.u2 * c.x2 * (1 - c.y1) / (c.y1 * (1 - c.u2))),
    Operand("v2y2(1-u1)/(u1(1-y2))",
            lambda c: c.beta and _gt(c.u1, c.y2),
            lambda c: c.v2 * c.y2 * (1 - c.u1) / (c.u1 * (1 - c.y2))),
    Operand("0", lambda c: c.alpha, _const(_ZERO)),
)

COMBINATION_CAB_LOWER = (
    Operand("0", _always, _const(_ZERO)),
    Operand("1-1/v1+x1/v1",
            lambda c: _sum_gt1(c.v1, c.x1),
            lambda c: 1 - 1 / c.v1 + c.x1 / c.v1),
    Operand("1", lambda c: c.epsilon, _const(_ONE)),
    Operand("x1/v2",
            lambda c: c.delta and _pos(c.v2),
            lambda c: c.x1 / c.v2),
)

COMBINATION_CAB_UPPER = (
    Operand("1", _always, _const(_ONE)),
    Operand("y2(1-u1)/(u1(1-y2))",
            lambda c: c.beta and _gt(c.u1, c.y2),
            lambda c: c.y2 * (1 - c.u1) / (c.u1 * (1 - c.y2))),
    Operand("0", lambda c: c.alpha, _const(_ZERO)),
    Operand("x2/v1",
            lambda c: _gt(c.v1, c.x2),
            lambda c: c.x2 / c.v1),
)

COMBINATION_ABC_LOWER = (
    Operand("0", _always, _const(_ZERO)),
    Operand("v1y1/x1-y1/x1+y1",
            lambda c: _sum_gt1(c.v1, c.x1),
            lambda c: c.v1 * c.y1 / c.x1 - c.y1 / c.x1 + c.y1),
    Operand("y1", lambda c: c.delta, lambda c: c.y1),
    Operand("u1", lambda c: c.beta and c.epsilon, lambda c: c.u1),
    Operand("u1x1/(u1x1+v2(1-u1))",
            lambda c: c.beta and _pos(c.u1) and _pos(c.x1),
            lambda c: c.u1 * c.x1 / (c.u1 * c.x1 + c.v2 * (1 - c.u1))),
    Operand("v1y1/x2",
            lambda c: c.epsilon and _pos(c.x2),
            lambda c: c.v1 * c.y1 / c.x2),
)

COMBINATION_ABC_UPPER = (
    Operand("v2y2/x1",
            lambda c: _gt(c.x1, c.v2),
            lambda c: c.v2 * c.y2 / c.x1),
    Operand("u2(1-y1)/(1-u2)",
            lambda c: c.gamma and _lt1(c.u2),
            lambda c: c.u2 * (1 - c.y1) / (1 - c.u2)),
    Operand("u2v2/(u2x1+v2(1-u2))",
            lambda c: c.gamma and _gt(c.x1, c.v2) and _pos(c.v2),
            lambda c: c.u2 * c.v2 / (c.u2 * c.x1 + c.v2 * (1 - c.u2))),
    Operand("0", lambda c: c.alpha, _const(_ZERO)),
    Operand("y2", _always, lambda c: c.y2),
    Operand("u2", lambda c: c.gamma, lambda c: c.u2),
)


# -- evaluation ---------------------------------------------------------------

def _best(operands: Iterable[Operand], chain: ChainPremise, maximize: bool):
    """Best operand value among those whose guards hold, unreduced, plus
    attained tags."""
    best = None
    tags: list = []
    for op in operands:
        if not op.guard(chain):
            continue
        value = op.expr(chain)
        if best is None or (value > best if maximize else value < best):
            best = value
            tags = [op.tag]
        elif value == best:
            tags.append(op.tag)
    if best is None:
        raise AssertionError("operand list with no unconditional member")
    return best, tuple(tags)


def _reduced(value) -> Tuple[int, int]:
    """Lowest terms of an operand value (a ratio or an int)."""
    n, d = value.numerator, value.denominator
    g = gcd(n, d)
    return n // g, d // g


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


def evaluate_slots(chain: ChainPremise,
                   enabled: FrozenSet[str] = ALL_RULES) -> Tuple[SlotResult, ...]:
    """Run the enabled rows of `RULE_SLOTS` on the chain and then on its
    mirror, identity-free.

    Slots of the mirrored run are expressed in the original roles, so the
    result depends only on the chain's value signature.
    """
    results = []
    for run, slots in ((chain, _SLOTS), (chain.mirror(), _MIRRORED_SLOTS)):
        for (rule, _, lower, upper, false_premise), slot in zip(RULE_SLOTS,
                                                                 slots):
            if rule not in enabled:
                continue
            if false_premise is not None and getattr(run, false_premise):
                results.append(SlotResult(slot, None, rule, (), ()))
                continue
            lo, lo_tags = _best(lower, run, True)
            hi, hi_tags = _best(upper, run, False)
            lo_n, lo_d = _reduced(lo)
            hi_n, hi_d = _reduced(hi)
            results.append(SlotResult(
                slot, Interval.from_terms(lo_n, lo_d, hi_n, hi_d), rule,
                lo_tags, hi_tags))
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
