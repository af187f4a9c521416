"""Globally complete tight answers by linear programming over atomic events.

A probabilistic interpretation is a nonnegative mass vector over the
taxonomy-consistent atoms summing to one; each asserted conditional
(H|G)[l, u] contributes the two homogeneous rows

    sum_{A => GH} m_A - l * sum_{A => G} m_A >= 0
    u * sum_{A => G} m_A - sum_{A => GH} m_A >= 0.

For a goal (F|E), the conditional ratio is linearized by rescaling: over
y >= 0 with the homogeneous rows and sum_{A => E} y_A = 1, the objective
sum_{A => EF} y_A ranges exactly over the achievable values of
Pr(EF)/Pr(E).  Such a y exists iff some model gives E positive probability:
scale that model up by 1/Pr(E), or divide y (which is not zero) by its total
mass to recover one.  So one LP, the one `lp.solve_lp` call of
`tight_answer`, decides the premise and bounds the goal: an infeasible
phase 1 is the empty (1, 0) answer, an unsatisfiable KB included, and
otherwise minimizing and then maximizing the objective from the same basis
yields the attained tight bounds.  The objective lives in
[0, 1], so an unbounded status is impossible.  This is exactly the form
`solve_lp` takes: the objective, the homogeneous rows (A y >= 0) and the
norm row (the indicator of E), all in ints, handed over as they are.

The LP has a column per atom and two rows per conditional.  When the atoms
far outnumber the rows, `solve_lp` prices them in by column generation
(Jaumard, Hansen & Poggi de Aragão, 1991, for probabilistic
satisfiability): its tableau holds only the atoms that priced in, those
whose reduced cost under the row duals of a restricted optimum was negative,
and the answer is still the optimum over every atom, exactly.  Each row is
built in integers, its coefficients times its bound's denominator.

Every system is projected onto the relevant basics R: those in the
probabilistic formulas plus those in the queried events.  An assignment
P to R extends to a consistent atom iff the taxonomy closure cl(P) is not
falsum and cl(P) & R == P (cl(P) is one such atom, and every closed superset
of P contains it).  Every row, indicator and objective reads only R's bits,
so a mass vector over the full atoms pushes forward to one over the
projected atoms, and each projected atom lifts to cl(P): the LP optima are
unchanged, over far fewer columns.

This module is the ground truth the rule suites are validated against, so it
never takes a floating-point shortcut.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Tuple

from .errors import AtomSpaceError
from .events import (DEFAULT_ATOM_CAP, ConjunctiveEvent, Universe, conjoin,
                     enumerate_atom_masks, mask_implies)
from .kb import KnowledgeBase, QueryAnswer
from .lp import solve_lp

ATOM_CAP_ENV = "TAXPROB_ATOM_CAP"


def atom_cap() -> int:
    """The atom cap from the environment, or `DEFAULT_ATOM_CAP` when it is
    unset.

    It bounds the atoms of one system, that is the projected count: a KB
    with many irrelevant basics stays under a cap its full space exceeds."""
    raw = os.environ.get(ATOM_CAP_ENV)
    if not raw:
        return DEFAULT_ATOM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise AtomSpaceError(
            f"{ATOM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True)
class AtomSystem:
    """Taxonomy-consistent atoms, projected onto the `keep` basics, and the
    constraint rows over their masses.

    Every row means `coeffs . m >= 0`, in integers; there are two per
    probabilistic formula.  Rows whose coefficients are all nonnegative are
    trivially satisfied by any nonnegative mass vector; solvers skip them,
    and `active` holds the indices of the others.
    """

    universe: Universe
    atom_masks: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    keep: int
    active: Tuple[int, ...]

    def indicator(self, event: ConjunctiveEvent) -> List[int]:
        mask = self.universe.mask_of(event)
        if mask >= 0 and mask & ~self.keep:  # bottom (-1) has no basics
            raise ValueError(f"event {event} is not over the kept basics")
        return [1 if mask_implies(am, mask) else 0 for am in self.atom_masks]

    def active_rows(self):
        return [self.rows[i] for i in self.active]


def relevant_mask(kb: KnowledgeBase,
                  events: Iterable[ConjunctiveEvent]) -> int:
    """The basics of the probabilistic formulas and of `events`, as a mask."""
    mask = 0
    for event in chain(events, *((fm.premise, fm.conclusion)
                                 for fm in kb.probabilistic)):
        event_mask = kb.universe.mask_of(event)
        if event_mask >= 0:  # bottom (-1) has no basics
            mask |= event_mask
    return mask


def build_atom_system(kb: KnowledgeBase,
                      keep: Optional[int] = None) -> AtomSystem:
    """Enumerate consistent atoms projected onto `keep` (default: every
    basic) and assemble the constraint rows."""
    if keep is None:
        keep = (1 << len(kb.universe)) - 1
    masks = tuple(enumerate_atom_masks(kb.universe, kb.taxonomy, atom_cap(),
                                       keep))
    rows: List[Tuple[int, ...]] = []
    active: List[int] = []
    for fm in kb.probabilistic:
        g_mask = kb.universe.mask_of(fm.premise)
        gh_mask = kb.universe.mask_of(conjoin(fm.premise, fm.conclusion))
        iv = fm.interval
        # coefficients per atom kind: outside G, in GH, in G but not H (no
        # atom lies inside bottom's mask, -1), times the bound's denominator
        lower = (0, iv.lo_d - iv.lo_n, -iv.lo_n)
        upper = (0, iv.hi_n - iv.hi_d, iv.hi_n)
        kinds = [0 if g_mask & ~am else 1 if not gh_mask & ~am else 2
                 for am in masks]
        present = set(kinds)
        for coeffs in (lower, upper):
            if any(coeffs[k] < 0 for k in present):
                active.append(len(rows))
            rows.append(tuple([coeffs[k] for k in kinds]))
    return AtomSystem(kb.universe, masks, tuple(rows), keep, tuple(active))


def tight_answer(kb: KnowledgeBase,
                 goal: Tuple[ConjunctiveEvent, ConjunctiveEvent]) -> QueryAnswer:
    """The exact tight bounds entailed by the whole KB for (F|E)."""
    f, e = goal
    kb.universe.check_event(f)
    kb.universe.check_event(e)
    system = build_atom_system(kb, keep=relevant_mask(kb, goal))
    bounds = solve_lp(system.indicator(conjoin(e, f)), system.active_rows(),
                      system.indicator(e))
    if bounds is None:
        return QueryAnswer.empty_answer()
    return QueryAnswer(*bounds)
