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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet

from .events import ConjunctiveEvent
from .intervals import Interval
from .taxonomy import GuardFlags


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

    # bound shorthands used throughout the rule formulas
    @property
    def u1(self) -> Fraction:
        return self.u.lo

    @property
    def u2(self) -> Fraction:
        return self.u.hi

    @property
    def v1(self) -> Fraction:
        return self.v.lo

    @property
    def v2(self) -> Fraction:
        return self.v.hi

    @property
    def x1(self) -> Fraction:
        return self.x.lo

    @property
    def x2(self) -> Fraction:
        return self.x.hi

    @property
    def y1(self) -> Fraction:
        return self.y.lo

    @property
    def y2(self) -> Fraction:
        return self.y.hi

    @property
    def alpha(self) -> bool:
        return self.guards.alpha

    @property
    def beta(self) -> bool:
        return self.guards.beta

    @property
    def gamma(self) -> bool:
        return self.guards.gamma

    @property
    def delta(self) -> bool:
        return self.guards.delta

    @property
    def epsilon(self) -> bool:
        return self.guards.epsilon

    @property
    def zeta(self) -> bool:
        return self.guards.zeta

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
    g = chain.guards
    u1, u2 = chain.u1, chain.u2
    v1, v2 = chain.v1, chain.v2
    x1, x2 = chain.x1, chain.x2
    y1, y2 = chain.y1, chain.y2

    fired = set()
    if g.gamma and g.delta and u2 < y1:
        fired.add(1)
    if g.beta and g.epsilon and u1 > y2:
        fired.add(2)
    if g.gamma and u2 * x2 * (1 - y1) < v1 * y1 * (1 - u2):
        fired.add(3)
    if g.beta and u1 * x1 * (1 - y2) > v2 * y2 * (1 - u1):
        fired.add(4)
    if g.epsilon and v1 > x2:
        fired.add(5)
    if g.delta and v2 < x1:
        fired.add(6)
    if g.alpha and x1 + v1 > 1:
        fired.add(7)

    forced = set()
    if fired & {1, 2, 3, 4}:
        forced.update(("A", "C"))
    if fired & {3, 4, 5, 6, 7}:
        forced.add("B")
    return ConsistencyVerdict(not fired, frozenset(fired), frozenset(forced))
