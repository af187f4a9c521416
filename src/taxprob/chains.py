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

A `ChainPremise` holds the roles, the four intervals and the flags.  The
consistency check and the rules read a chain through one face, its
`ChainView`: the eight bounds u1..y2 as exact ratios of plain ints
(`intervals._Ratio`, built from each interval's reduced terms), beside the
guard and product-false flags.  A ratio's terms are never reduced along the
way (no gcd per operation) and it compares by cross-multiplication, so a
rule bound costs int arithmetic only and is reduced once, when it becomes
an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet

from .events import ConjunctiveEvent
from .intervals import Interval
from .taxonomy import GuardFlags


class ChainView:
    """What the consistency check and the rules read of a chain: the eight
    bounds u1..y2 as exact int ratios (the intervals' `lo_q` and `hi_q`),
    the six guard flags and the three product-false flags, as plain
    attributes."""

    __slots__ = ("u1", "u2", "v1", "v2", "x1", "x2", "y1", "y2",
                 "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                 "ab_false", "ac_false", "bc_false")

    def __init__(self, u1, u2, v1, v2, x1, x2, y1, y2,
                 alpha, beta, gamma, delta, epsilon, zeta,
                 ab_false, ac_false, bc_false):
        self.u1, self.u2, self.v1, self.v2 = u1, u2, v1, v2
        self.x1, self.x2, self.y1, self.y2 = x1, x2, y1, y2
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.delta, self.epsilon, self.zeta = delta, epsilon, zeta
        self.ab_false, self.ac_false, self.bc_false = (ab_false, ac_false,
                                                       bc_false)

    def mirror(self) -> "ChainView":
        """The view of the mirrored chain (A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u):
        beta and gamma, delta and epsilon, and the AB and BC product-false
        flags trade places."""
        return ChainView(self.y1, self.y2, self.x1, self.x2,
                         self.v1, self.v2, self.u1, self.u2,
                         self.alpha, self.gamma, self.beta,
                         self.epsilon, self.delta, self.zeta,
                         self.bc_false, self.ac_false, self.ab_false)


@dataclass(frozen=True)
class ChainPremise:
    """Roles, interval bounds, guard flags, and the product-false flags that
    gate the partial rules (ab_false: taxonomy forces AB false; ac_false:
    AC false; bc_false: BC false, needed when the chain is mirrored)."""

    a: ConjunctiveEvent
    b: ConjunctiveEvent
    c: ConjunctiveEvent
    u: Interval
    v: Interval
    x: Interval
    y: Interval
    guards: GuardFlags
    ab_false: bool
    ac_false: bool
    bc_false: bool

    @cached_property
    def view(self) -> ChainView:
        """The chain as the consistency check and the rules read it."""
        u, v, x, y, g = self.u, self.v, self.x, self.y, self.guards
        return ChainView(u.lo_q, u.hi_q, v.lo_q, v.hi_q,
                         x.lo_q, x.hi_q, y.lo_q, y.hi_q,
                         g.alpha, g.beta, g.gamma, g.delta, g.epsilon, g.zeta,
                         self.ab_false, self.ac_false, self.bc_false)

    def __str__(self):
        return (f"chain A={self.a}, B={self.b}, C={self.c}; "
                f"u={self.u} v={self.v} x={self.x} y={self.y}; "
                f"guards {self.guards}")


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
    c = chain.view
    u1, u2 = c.u1, c.u2
    v1, v2 = c.v1, c.v2
    x1, x2 = c.x1, c.x2
    y1, y2 = c.y1, c.y2

    fired = set()
    if c.gamma and c.delta and u2 < y1:
        fired.add(1)
    if c.beta and c.epsilon and u1 > y2:
        fired.add(2)
    if c.gamma and u2 * x2 * (1 - y1) < v1 * y1 * (1 - u2):
        fired.add(3)
    if c.beta and u1 * x1 * (1 - y2) > v2 * y2 * (1 - u1):
        fired.add(4)
    if c.epsilon and v1 > x2:
        fired.add(5)
    if c.delta and v2 < x1:
        fired.add(6)
    if c.alpha and x1 + v1 > 1:
        fired.add(7)

    forced = set()
    if fired & {1, 2, 3, 4}:
        forced.update(("A", "C"))
    if fired & {3, 4, 5, 6, 7}:
        forced.add("B")
    return ConsistencyVerdict(not fired, frozenset(fired), frozenset(forced))
