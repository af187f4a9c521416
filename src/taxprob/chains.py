"""Chain premises and their consistency check.

A chain premise is three conjunctive events A, B, C together with interval
bounds for the four adjacent conditionals

    u = (B|A),  v = (A|B),  x = (C|B),  y = (B|C)

and the six guard entailments of the underlying taxonomy.  For a coherent KB,
seven arithmetic conditions on these bounds decide whether the chain forces
one of its role events to probability zero; only chains passing the check may
be fed to the inference rules.

The engine builds every chain one way, from its value signature: the
constructor's arguments after the roles (`engine.saturate` on a
signature-cache miss, `engine.survey_chains` for the check command, also
on a miss of its verdict cache).

A `ChainPremise` is the one record of a chain.  It is built from the roles,
the four intervals, the guards as `taxonomy.guard_bits` bits and the three
product-false flags, and it also holds the six guard flags alpha..zeta as
plain attributes.  The consistency check and the rule kernels read the
eight bounds u1..y2 as the intervals' reduced int terms (lo_n, lo_d, hi_n,
hi_d of u, v, x, y) and compare them by cross-multiplication, so neither
builds a `Fraction`.
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

    `guards` holds the six guard flags as `taxonomy.guard_bits` bits,
    which the constructor decodes into alpha..zeta.
    """

    __slots__ = ("a", "b", "c", "u", "v", "x", "y", "guards",
                 "ab_false", "ac_false", "bc_false",
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
        self.alpha = bool(guards & 1)
        self.beta = bool(guards & 2)
        self.gamma = bool(guards & 4)
        self.delta = bool(guards & 8)
        self.epsilon = bool(guards & 16)
        self.zeta = bool(guards & 32)


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
    """Evaluate the seven inconsistency conditions exactly, by
    cross-multiplying the bounds' int terms.

    All comparisons are strict exactly as stated, so boundary cases such as
    x1 + v1 = 1 classify as consistent.

    Every condition compares a bound of the A-B half (u, v) with one of the
    B-C half (x, y), so none fires when either half is [0, 1] on both
    conditionals (`engine.survey_chains` proves it and skips such chains).
    The verdict reads nothing but the chain's bounds and guards, so chains
    with one value signature share it.
    """
    u, v, x, y = chain.u, chain.v, chain.x, chain.y
    u1n, u1d, u2n, u2d = u.lo_n, u.lo_d, u.hi_n, u.hi_d
    v1n, v1d, v2n, v2d = v.lo_n, v.lo_d, v.hi_n, v.hi_d
    x1n, x1d, x2n, x2d = x.lo_n, x.lo_d, x.hi_n, x.hi_d
    y1n, y1d, y2n, y2d = y.lo_n, y.lo_d, y.hi_n, y.hi_d

    fired = set()
    # u2 < y1
    if chain.gamma and chain.delta and u2n * y1d < y1n * u2d:
        fired.add(1)
    # u1 > y2
    if chain.beta and chain.epsilon and u1n * y2d > y2n * u1d:
        fired.add(2)
    # u2 x2 (1 - y1) < v1 y1 (1 - u2), cross-multiplied and divided by
    # the positive common factor u2d y1d
    if chain.gamma and (u2n * x2n * (y1d - y1n) * v1d
                        < v1n * y1n * (u2d - u2n) * x2d):
        fired.add(3)
    # u1 x1 (1 - y2) > v2 y2 (1 - u1), likewise without u1d y2d
    if chain.beta and (u1n * x1n * (y2d - y2n) * v2d
                       > v2n * y2n * (u1d - u1n) * x1d):
        fired.add(4)
    # v1 > x2
    if chain.epsilon and v1n * x2d > x2n * v1d:
        fired.add(5)
    # v2 < x1
    if chain.delta and v2n * x1d < x1n * v2d:
        fired.add(6)
    # x1 + v1 > 1
    if chain.alpha and x1n * v1d + v1n * x1d > x1d * v1d:
        fired.add(7)

    forced = set()
    if fired & {1, 2, 3, 4}:
        forced.update(("A", "C"))
    if fired & {3, 4, 5, 6, 7}:
        forced.add("B")
    return ConsistencyVerdict(not fired, frozenset(fired), frozenset(forced))
