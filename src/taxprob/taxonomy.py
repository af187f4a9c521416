"""Taxonomic formulas and linear-time entailment via a hull operator.

A taxonomic formula G -> H constrains probabilistic interpretations to
Pr(G) = Pr(GH).  Over conjunctive events these formulas behave exactly like
functional dependencies (Horn clauses), so entailment reduces to an
attribute-set closure: the smallest superset of a seed that fires every rule
whose left-hand side it covers.

Name sets are int bitmasks over the universe's sorted names.
`compute_closure` runs a counter-based worklist over the rules indexed by
lhs bit, so it is linear in the total size of the store (Dowling & Gallier,
1984); atom enumeration, which asks each mask once, calls it directly.
`closure_mask` is the memoized form, because chain building and saturation
ask the same queries over and over: it is the lookup of a dict that fills
itself through `compute_closure` on a mask's first read, so a repeated read
runs no Python code.  This memo is the package's one closure table; it
lives as long as the store, and the engine keeps no copy of it.  A closure
that reaches falsum is -1, and `Universe.mask_of` gives bottom events the
mask -1 too, so every test is one mask expression: G -> H holds iff H's
mask lies inside G's closure (mh & ~cl(mg) == 0), and G is taxonomy-false
iff cl(mg) < 0.

`guard_bits` is the one guard formula and the one guard encoding: the
chain's nine taxonomy facts, the six guards and the three product-false
flags, as the bits of an int that a `chains.ChainPremise` decodes into
named flags.  It works over closures the caller supplies, which saturation
and the chain survey read from `closure_mask`.
`TaxonomyStore.guard_flags` computes them from the roles alone, for the
test suite's role-based chain reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from .events import ConjunctiveEvent, Universe


@dataclass(frozen=True)
class TaxonomicFormula:
    """An implication between two conjunctive events."""

    lhs: ConjunctiveEvent
    rhs: ConjunctiveEvent

    def __str__(self):
        return f"{self.lhs} -> {self.rhs}"


class _ClosureMemo(dict):
    """mask -> closure; a mask read for the first time gets its closure
    from `compute`, stored there.  Falsum (-1) is its own closure."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[int], int]):
        super().__init__({-1: -1})
        self.compute = compute

    def __missing__(self, mask: int) -> int:
        cl = self[mask] = self.compute(mask)
        return cl


class TaxonomyStore:
    """An immutable set of taxonomic formulas over one universe."""

    def __init__(self, universe: Universe,
                 formulas: Iterable[TaxonomicFormula] = ()):
        self.universe = universe
        seen = {}
        for fm in formulas:
            universe.check_event(fm.lhs)
            universe.check_event(fm.rhs)
            seen[(fm.lhs, fm.rhs)] = fm
        self.formulas: Tuple[TaxonomicFormula, ...] = tuple(
            sorted(seen.values(),
                   key=lambda f: (f.lhs.sort_key, f.rhs.sort_key)))

        # A rule adds its rhs mask (-1 for a bottom head) once its whole lhs
        # is reached: rules with an empty lhs from the start (`_root_adds`),
        # the rest when the count of their unreached lhs names drops to zero
        # (`_by_bit` indexes them by lhs bit).
        n = len(universe)
        self._root_adds = 0
        self._by_bit: List[List[int]] = [[] for _ in range(n)]
        self._lhs_sizes: List[int] = []
        self._rhs_masks: List[int] = []
        for fm in self.formulas:
            if fm.lhs.is_bottom or fm.rhs.is_top:
                continue  # bottom -> H and G -> top are tautologies
            lhs = universe.mask_of(fm.lhs)
            rhs = universe.mask_of(fm.rhs)
            bits = [i for i in range(n) if lhs >> i & 1]
            if not bits:
                self._root_adds |= rhs
            else:
                for i in bits:
                    self._by_bit[i].append(len(self._lhs_sizes))
                self._lhs_sizes.append(len(bits))
                self._rhs_masks.append(rhs)

        self._closure_memo = _ClosureMemo(self.compute_closure)
        # the smallest rule-closed superset of a name mask, or -1 when it
        # reaches falsum: the memo's own lookup, so a hit runs no Python
        # frame and a miss fills the entry through `compute_closure`
        self.closure_mask = self._closure_memo.__getitem__

    # -- closure -----------------------------------------------------------

    def compute_closure(self, mask: int) -> int:
        """`closure_mask` without the memo, for callers that ask each mask
        once (atom enumeration)."""
        # every reached bit is processed once; a counted rule fires when its
        # last lhs bit is processed, so the work is linear in the store size
        reached = mask | self._root_adds
        if reached < 0:
            return -1  # a root rule with a bottom head
        todo = reached
        pending: Dict[int, int] = {}
        by_bit, sizes = self._by_bit, self._lhs_sizes
        rhs_masks = self._rhs_masks
        while todo:
            low = todo & -todo
            todo ^= low
            bit = low.bit_length() - 1
            adds = 0
            for idx in by_bit[bit]:
                left = pending.get(idx, sizes[idx]) - 1
                pending[idx] = left
                if not left:
                    adds |= rhs_masks[idx]
            if adds:
                if adds < 0:
                    return -1
                todo |= adds & ~reached
                reached |= adds
        return reached

    # -- entailment --------------------------------------------------------

    def entails(self, g: ConjunctiveEvent, h: ConjunctiveEvent) -> bool:
        """Does the store entail g -> h?"""
        mask_of = self.universe.mask_of
        return not mask_of(h) & ~self.closure_mask(mask_of(g))

    def forces_false(self, g: ConjunctiveEvent) -> bool:
        """Does the store entail g -> false?"""
        return self.closure_mask(self.universe.mask_of(g)) < 0

    def guard_flags(self, a: ConjunctiveEvent, b: ConjunctiveEvent,
                    c: ConjunctiveEvent) -> int:
        """The guard entailments and product-false flags of the chain
        roles (a, b, c), as `guard_bits` bits."""
        mask_of = self.universe.mask_of
        ma, mb, mc = mask_of(a), mask_of(b), mask_of(c)
        cl = self.closure_mask
        return guard_bits(ma, mb, mc, cl(ma), cl(mc), cl(ma | mb), cl(ma | mc),
                          cl(mb | mc), cl(ma | mb | mc))


def guard_bits(ma: int, mb: int, mc: int, cl_a: int, cl_c: int, cl_ab: int,
               cl_ac: int, cl_bc: int, cl_abc: int) -> int:
    """The taxonomy facts of the chain roles with masks (ma, mb, mc), given
    the closures of A, C, AB, AC, BC and ABC, as the bits of an int, in the
    order of the flags in `chains.KERNEL_PARAMS`.  From bit 0, the six
    guards, which switch rule operands on and off: alpha is ABC -> false,
    beta is C -> A, gamma is A -> C, delta is BC -> A, epsilon is AB -> C
    and zeta is AC -> B.  Bits 6-8 are the product-false flags, which make
    a partial rule's premise taxonomy-false: ab_false is AB -> false,
    ac_false is AC -> false and bc_false is BC -> false.

    Each guard G -> H holds when H's mask lies inside the closure of G's
    (a falsum closure, -1, contains every mask)."""
    bits = ((not ma & ~cl_c) << 1
            | (not mc & ~cl_a) << 2
            | (not ma & ~cl_bc) << 3
            | (not mc & ~cl_ab) << 4
            | (not mb & ~cl_ac) << 5)
    if cl_abc < 0:
        # a false product makes ABC false: only alpha's chains test them
        bits |= 1 | (cl_ab < 0) << 6 | (cl_ac < 0) << 7 | (cl_bc < 0) << 8
    return bits
