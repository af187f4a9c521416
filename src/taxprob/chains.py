"""Chain premises and their consistency check.

A chain premise is three conjunctive events A, B, C together with interval
bounds for the four adjacent conditionals

    u = (B|A),  v = (A|B),  x = (C|B),  y = (B|C)

and nine facts of the underlying taxonomy: six guard entailments and
whether AB, AC or BC is taxonomy-false.  For a coherent KB,
seven arithmetic conditions on these bounds decide whether the chain forces
one of its role events to probability zero; only chains passing the check may
be fed to the inference rules.  `CONDITIONS` holds them as text, one row
each: a guard over the flags alpha..zeta and a strict comparison of two
formulas over u1..y2, in the grammar of the rule operands of `rules`, and
the roles the condition forces to zero.  A condition's number is its place
in `CONDITIONS`, from 1.

The engine builds every chain one way, from its value signature: the
constructor's arguments after the roles (`engine.saturate` on a
signature-cache miss, `engine.survey_chains` for the check command, also
on a miss of its verdict cache).

A `ChainPremise` is the one record of a chain.  It is built from the roles,
the four intervals and its nine taxonomy facts as one `taxonomy.guard_bits`
word, `guards`.  It lays out once, as `kernel_args`, what the
generated code takes, in the order of `KERNEL_PARAMS`: the eight bounds
u1..y2 as the intervals' reduced int terms (lo_n, lo_d, hi_n, hi_d of u,
v, x, y), then alpha..zeta, then ab_false, ac_false and bc_false.  The
consistency check and the rule runner take the whole tuple, and the rule
kernels the names before the product-false flags.  All of them are
generated from the text into `_kernels` and compare those terms by
cross-multiplication, so none builds a `Fraction`.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple

from ._kernels import fired_conditions
from .events import ConjunctiveEvent
from .intervals import Interval

# the parameters of the generated code, named as the condition and operand
# text reads them: the bounds u1..y2 as int terms (n, d), then the nine
# flags of a `taxonomy.guard_bits` word in bit order: the guard flags, then
# the product-false flags, which only the rule runner reads (the rule
# kernels take the names before them)
KERNEL_PARAMS = ("u1n", "u1d", "u2n", "u2d", "v1n", "v1d", "v2n", "v2d",
                 "x1n", "x1d", "x2n", "x2d", "y1n", "y1d", "y2n", "y2d",
                 "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "ab_false", "ac_false", "bc_false")


class ChainPremise:
    """Roles, interval bounds and the guard word.

    `guards` holds the chain's nine taxonomy facts as `taxonomy.guard_bits`
    bits: the six guards, then the product-false flags that gate the
    partial rules (ab_false: taxonomy forces AB false; ac_false: AC false;
    bc_false: BC false, needed when the chain is mirrored).  The
    constructor decodes them into the flags of `kernel_args`, the argument
    tuple of the generated code.
    """

    __slots__ = ("a", "b", "c", "u", "v", "x", "y", "guards", "kernel_args")

    def __init__(self, a: ConjunctiveEvent, b: ConjunctiveEvent,
                 c: ConjunctiveEvent, u: Interval, v: Interval, x: Interval,
                 y: Interval, guards: int):
        self.a, self.b, self.c = a, b, c
        self.u, self.v, self.x, self.y = u, v, x, y
        self.guards = guards
        # the arguments of `KERNEL_PARAMS`
        self.kernel_args = (
            u.lo_n, u.lo_d, u.hi_n, u.hi_d, v.lo_n, v.lo_d, v.hi_n, v.hi_d,
            x.lo_n, x.lo_d, x.hi_n, x.hi_d, y.lo_n, y.lo_d, y.hi_n, y.hi_d,
            bool(guards & 1), bool(guards & 2), bool(guards & 4),
            bool(guards & 8), bool(guards & 16), bool(guards & 32),
            bool(guards & 64), bool(guards & 128), bool(guards & 256))


class Condition(NamedTuple):
    """One inconsistency condition: when the guard holds and the strict
    comparison `test` of two formulas over u1..y2 is true, the roles in
    `forces` have probability zero."""

    guard: str
    test: str
    forces: str


CONDITIONS = (
    Condition("gamma and delta", "u2 < y1", "AC"),
    Condition("beta and epsilon", "u1 > y2", "AC"),
    Condition("gamma", "u2*x2*(1-y1) < v1*y1*(1-u2)", "ABC"),
    Condition("beta", "u1*x1*(1-y2) > v2*y2*(1-u1)", "ABC"),
    Condition("epsilon", "v1 > x2", "B"),
    Condition("delta", "v2 < x1", "B"),
    Condition("alpha", "x1+v1 > 1", "B"),
)


class ConsistencyVerdict(NamedTuple):
    """Outcome of the seven-condition check: the numbers of every condition
    that holds (not just the first), each its place in `CONDITIONS`."""

    fired_conditions: FrozenSet[int]

    @property
    def consistent(self) -> bool:
        return not self.fired_conditions

    @property
    def forced_false(self) -> FrozenSet[str]:
        return frozenset(role for n in self.fired_conditions
                         for role in CONDITIONS[n - 1].forces)

    def __str__(self):
        if self.consistent:
            return "consistent"
        fired = ", ".join(str(i) for i in sorted(self.fired_conditions))
        forced = ", ".join(sorted(self.forced_false))
        return f"inconsistent (conditions {fired}; forced false: {forced})"


def check_consistency(chain: ChainPremise) -> ConsistencyVerdict:
    """Evaluate the seven conditions of `CONDITIONS` exactly, with the
    generated kernel `_kernels.fired_conditions`.

    All comparisons are strict exactly as stated, so boundary cases such as
    x1 + v1 = 1 classify as consistent.

    Every condition compares a bound of the A-B half (u, v) with one of the
    B-C half (x, y), so none fires when either half is [0, 1] on both
    conditionals (`engine.survey_chains` proves it and skips such chains).
    The verdict reads nothing but the chain's bounds and guards, so chains
    with one value signature share it.
    """
    return ConsistencyVerdict(fired_conditions(*chain.kernel_args))
