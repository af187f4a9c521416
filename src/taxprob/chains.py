"""Chain premises and their consistency check.

A chain premise is three conjunctive events A, B, C together with interval
bounds for the four adjacent conditionals

    u = (B|A),  v = (A|B),  x = (C|B),  y = (B|C)

and the six guard entailments of the underlying taxonomy.  For a coherent KB,
seven arithmetic conditions on these bounds decide whether the chain forces
one of its role events to probability zero; only chains passing the check may
be fed to the inference rules.

Chains are built in one place, `engine.build_chain`, which reads the four
bounds from the KB's canonical intervals or from the engine's state.

A `ChainPremise` is the one record of a chain.  It is built from the roles,
the four intervals, the guards as `taxonomy.guard_bits` bits and the three
product-false flags, and it also holds what the consistency check and the
rules read, as plain attributes: the eight bounds u1..y2 as exact ratios of
plain ints (`intervals._Ratio`, the intervals' `lo_q` and `hi_q`) and the
six guard flags alpha..zeta.  A ratio's terms are never reduced along the
way (no gcd per operation) and it compares by cross-multiplication, so a
rule bound costs int arithmetic only and is reduced once, when it becomes
an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from .events import ConjunctiveEvent
from .intervals import Interval


class ChainPremise:
    """Roles, interval bounds, guard bits, and the product-false flags that
    gate the partial rules (ab_false: taxonomy forces AB false; ac_false:
    AC false; bc_false: BC false, needed when the chain is mirrored).

    `guards` holds the six guard flags as `taxonomy.guard_bits` bits.  The
    constructor decodes them into alpha..zeta, and the intervals' bounds
    into u1, u2, ..., y1, y2, as plain attributes.  Two chains are equal
    when their constructor arguments are.
    """

    __slots__ = ("a", "b", "c", "u", "v", "x", "y", "guards",
                 "ab_false", "ac_false", "bc_false",
                 "u1", "u2", "v1", "v2", "x1", "x2", "y1", "y2",
                 "alpha", "beta", "gamma", "delta", "epsilon", "zeta")

    def __init__(self, a: ConjunctiveEvent, b: ConjunctiveEvent,
                 c: ConjunctiveEvent, u: Interval, v: Interval, x: Interval,
                 y: Interval, guards: int, ab_false: bool, ac_false: bool,
                 bc_false: bool):
        self.a, self.b, self.c = a, b, c
        self.u, self.v, self.x, self.y = u, v, x, y
        self.guards = guards
        self.ab_false, self.ac_false, self.bc_false = (ab_false, ac_false,
                                                       bc_false)
        self.u1, self.u2, self.v1, self.v2 = u.lo_q, u.hi_q, v.lo_q, v.hi_q
        self.x1, self.x2, self.y1, self.y2 = x.lo_q, x.hi_q, y.lo_q, y.hi_q
        self.alpha = bool(guards & 1)
        self.beta = bool(guards & 2)
        self.gamma = bool(guards & 4)
        self.delta = bool(guards & 8)
        self.epsilon = bool(guards & 16)
        self.zeta = bool(guards & 32)

    def _fields(self):
        return (self.a, self.b, self.c, self.u, self.v, self.x, self.y,
                self.guards, self.ab_false, self.ac_false, self.bc_false)

    def __eq__(self, other):
        return (type(other) is ChainPremise
                and self._fields() == other._fields())

    def mirror(self) -> "ChainPremise":
        """The mirrored chain (A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u): beta and
        gamma, delta and epsilon, and the AB and BC product-false flags
        trade places."""
        g = self.guards
        return ChainPremise(self.c, self.b, self.a,
                            self.y, self.x, self.v, self.u,
                            g & 0b100001 | g >> 1 & 0b01010 | g << 1 & 0b10100,
                            self.bc_false, self.ac_false, self.ab_false)


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of the seven-condition check.

    `fired_conditions` lists every condition that holds (not just the first);
    conditions 1-4 force the A and C roles to probability zero, conditions
    3-7 force B.
    """

    consistent: bool
    fired_conditions: FrozenSet[int]
    forced_false: FrozenSet[str]

    def __str__(self):
        if self.consistent:
            return "consistent"
        fired = ", ".join(str(i) for i in sorted(self.fired_conditions))
        forced = ", ".join(sorted(self.forced_false))
        return f"inconsistent (conditions {fired}; forced false: {forced})"


def check_consistency(chain: ChainPremise) -> ConsistencyVerdict:
    """Evaluate the seven inconsistency conditions with exact rationals.

    All comparisons are strict exactly as stated, so boundary cases such as
    x1 + v1 = 1 classify as consistent.
    """
    u1, u2 = chain.u1, chain.u2
    v1, v2 = chain.v1, chain.v2
    x1, x2 = chain.x1, chain.x2
    y1, y2 = chain.y1, chain.y2

    fired = set()
    if chain.gamma and chain.delta and u2 < y1:
        fired.add(1)
    if chain.beta and chain.epsilon and u1 > y2:
        fired.add(2)
    if chain.gamma and u2 * x2 * (1 - y1) < v1 * y1 * (1 - u2):
        fired.add(3)
    if chain.beta and u1 * x1 * (1 - y2) > v2 * y2 * (1 - u1):
        fired.add(4)
    if chain.epsilon and v1 > x2:
        fired.add(5)
    if chain.delta and v2 < x1:
        fired.add(6)
    if chain.alpha and x1 + v1 > 1:
        fired.add(7)

    forced = set()
    if fired & {1, 2, 3, 4}:
        forced.update(("A", "C"))
    if fired & {3, 4, 5, 6, 7}:
        forced.add("B")
    return ConsistencyVerdict(not fired, frozenset(fired), frozenset(forced))
