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

`tight_answer` reaches the columns one of two ways.  A query with at most
`ENUMERATION_LIMIT` projected atoms enumerates them (`build_atom_system`)
and hands `solve_lp` the dense rows.  Past that, enumerating and pricing
every atom each round costs more than the LP, so `EliminationColumns`
prices the atoms by variable elimination without listing them; see `lp`
for why both stay.  Elimination runs only while its largest table has no
more entries than the atom cap and than the assignments to the relevant
basics, which bound the atoms enumeration visits; otherwise the atoms are
enumerated after all.  So the atom cap (`TAXPROB_ATOM_CAP`) refuses a query
only when it has more projected atoms than the cap and, past the limit, an
elimination table wider than the cap: a query within the cap answers as it
did before elimination, and a cap at or below the limit acts as before.

This module is the ground truth the rule suites are validated against, so it
never takes a floating-point shortcut.
"""

from __future__ import annotations

import os
from itertools import chain
from operator import add
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .errors import AtomSpaceError
from .events import (DEFAULT_ATOM_CAP, ConjunctiveEvent, Universe, conjoin,
                     enumerate_atom_masks, mask_implies)
from .kb import KnowledgeBase, QueryAnswer
from .lp import solve_lp

ATOM_CAP_ENV = "TAXPROB_ATOM_CAP"
# a query enumerates at most this many projected atoms and past it prices
# them by elimination.  Measured in-process, enumeration takes 0.2x the time
# of elimination on the wide KB (10 atoms) and 0.6x on medical_reduced.kb
# (128), but 2.0x on chain-7 (128) and 1.4x on chain-8 (256); on seeded
# random KBs of 6-10 basics the median is 0.6x at 32-64 atoms, 1.05x at
# 65-128 and 1.4x at 129-256
ENUMERATION_LIMIT = 128


def atom_cap() -> int:
    """The atom cap from the environment, or `DEFAULT_ATOM_CAP` when it is
    unset.

    It bounds the atoms one query enumerates, that is the projected count,
    so a KB with many irrelevant basics stays under a cap its full space
    exceeds; past `ENUMERATION_LIMIT` atoms, a query whose largest
    elimination table fits under it answers too (module docstring)."""
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


class AtomSystem(NamedTuple):
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


def _formula_rows(kb: KnowledgeBase):
    """(G mask, GH mask, lower coefficients, upper coefficients) of each
    probabilistic formula (H|G): the row coefficients per atom kind,
    outside G, in GH, in G but not H (see `_kinds`), times the bound's
    denominator."""
    for fm in kb.probabilistic:
        iv = fm.interval
        yield (kb.universe.mask_of(fm.premise),
               kb.universe.mask_of(conjoin(fm.premise, fm.conclusion)),
               (0, iv.lo_d - iv.lo_n, -iv.lo_n),
               (0, iv.hi_n - iv.hi_d, iv.hi_n))


def _kinds(g_mask: int, gh_mask: int, atoms: Iterable[int]) -> List[int]:
    """Per atom, 0 when it is outside G, 1 when it is in GH, 2 when it is
    in G but not H; no atom lies inside bottom's mask, -1."""
    return [0 if g_mask & ~atom else 1 if not gh_mask & ~atom else 2
            for atom in atoms]


def build_atom_system(kb: KnowledgeBase, keep: Optional[int] = None,
                      cap: Optional[int] = None) -> AtomSystem:
    """Enumerate consistent atoms projected onto `keep` (default: every
    basic) and assemble the constraint rows.

    Raises AtomSpaceError past `cap` atoms (default: `atom_cap()`)."""
    if keep is None:
        keep = (1 << len(kb.universe)) - 1
    masks = tuple(enumerate_atom_masks(
        kb.universe, kb.taxonomy, atom_cap() if cap is None else cap, keep))
    rows: List[Tuple[int, ...]] = []
    active: List[int] = []
    for g_mask, gh_mask, lower, upper in _formula_rows(kb):
        kinds = _kinds(g_mask, gh_mask, masks)
        present = set(kinds)
        for coeffs in (lower, upper):
            if any(coeffs[k] < 0 for k in present):
                active.append(len(rows))
            rows.append(tuple([coeffs[k] for k in kinds]))
    return AtomSystem(kb.universe, masks, tuple(rows), keep, tuple(active))


def _bits(mask: int) -> List[int]:
    """The single-bit masks of `mask`, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _subsets(scope: int) -> List[int]:
    """Every mask inside `scope`; the i-th sets the k-th lowest bit of
    `scope` when bit k of i is set."""
    masks = [0]
    for bit in _bits(scope):
        masks += [m | bit for m in masks]
    return masks


def _elimination_order(scopes: Iterable[int]) -> List[Tuple[int, int]]:
    """The basics of `scopes`, as single-bit masks, in min-degree order,
    each with its bucket's scope: each step eliminates a basic with the
    fewest neighbours left (the lowest on ties) and joins its neighbours
    to one another.  A basic's neighbours when it goes, itself included,
    are the basics of every table that reads it then, so they are the
    scope of its bucket."""
    adjacent = {}
    for scope in scopes:
        for bit in _bits(scope):
            adjacent[bit] = adjacent.get(bit, 0) | scope
    order = []
    while adjacent:
        bit = min(adjacent, key=lambda b: (adjacent[b].bit_count(), b))
        scope = adjacent.pop(bit)
        neighbours = scope & ~bit
        for other in _bits(neighbours):
            adjacent[other] = (adjacent[other] | neighbours) & ~bit
        order.append((bit, scope))
    return order


class EliminationColumns:
    """The columns of `tight_answer`'s LP, an `lp` column source whose keys
    are projected atom masks, priced by min-sum variable elimination
    instead of enumerating the atoms.

    The value of an atom under the pricing weights is a sum of terms, one
    per weight: the objective's and the norm row's indicators of EF and E,
    and each active row's coefficient of the atom's kind.  A term reads
    only the basics of its G and GH, so the terms are summed into tables
    over those scopes, and each taxonomic rule G -> H is a hard factor
    over G and one head basic (G alone for a bottom head).  The consistent
    atoms are the assignments to the basics that satisfy every hard
    factor, and their projections onto the kept basics are the projected
    atoms (module docstring), so the least value over the assignments is
    the least over the LP's columns.  Only the rules that connect to the
    kept basics are factors (`_hard_factors`).  Bucket elimination
    (Dechter, 1999) finds the least value exactly: in min-degree order,
    each basic's bucket minimizes the sum of the tables that read it over
    its two values, for every assignment to the bucket's other basics,
    into a table over those.  Tracing the minimizing values back gives the
    atom.

    Everything but the weights is fixed per query, so the order, the
    buckets and, per bucket, where each joint assignment reads each input
    table, are built once, over the joint assignments that satisfy the
    bucket's hard factors and whose inputs are feasible.  A round then
    fills the tables from the weights and runs the buckets as list
    arithmetic, and offers the one most negative column.  The rows are the
    formulas' rows that some consistent atom makes negative, read from
    closures: the active rows of `build_atom_system`, in its order.

    Raises AtomSpaceError, before any table is built, when a bucket's
    table would have more than `cap` entries.
    """

    generate = True  # every column starts outside the tableau

    def __init__(self, kb: KnowledgeBase,
                 goal: Tuple[ConjunctiveEvent, ConjunctiveEvent], cap: int):
        f, e = goal
        universe, closure = kb.universe, kb.taxonomy.compute_closure
        self.keep = relevant_mask(kb, goal)
        ef, e_mask = universe.mask_of(conjoin(e, f)), universe.mask_of(e)
        # one term (G mask, GH mask, value per kind) per pricing weight: the
        # objective, the active rows, the norm
        self.terms = [(ef, ef, (0, 1, 1))]
        for g_mask, gh_mask, lower, upper in _formula_rows(kb):
            cl_g = closure(g_mask)
            present = ([1] * (closure(gh_mask) >= 0)
                       + [2] * (cl_g >= 0 and gh_mask & ~cl_g != 0))
            self.terms += [(g_mask, gh_mask, coeffs)
                           for coeffs in (lower, upper)
                           if any(coeffs[k] < 0 for k in present)]
        self.terms.append((e_mask, e_mask, (0, 1, 1)))
        self.feasible = closure(0) >= 0  # some atom is consistent
        self.buckets, self.roots = [], []
        self.tables, self.constants = [], []
        if not self.feasible:
            return
        hard = _hard_factors(kb, self.keep)
        order = _elimination_order(
            [scope for scope, _ in self._scoped()]
            + [lhs | head for lhs, head in hard])
        widest = max((scope.bit_count() for _, scope in order), default=0)
        if 1 << widest > cap:
            raise AtomSpaceError(f"elimination table too large: 2^{widest} "
                                 f"entries, more than {cap}")
        self.tables, self.constants = self._soft_tables()
        self.buckets, self.roots = self._buckets(order, hard)

    def _scoped(self):
        """(scope, term index) of each term but those inside bottom's mask,
        which no atom is in, so they are 0: the basics of its GH, or of its
        G when GH is bottom."""
        return [(gh_mask if gh_mask >= 0 else g_mask, i)
                for i, (g_mask, gh_mask, _) in enumerate(self.terms)
                if g_mask >= 0]

    def _soft_tables(self):
        """The terms summed into tables, each [scope, [(term index, value
        per mask inside the scope)]], a term in the first table whose scope
        holds its own, the widest first; and the terms over no basic, as
        (term index, value)."""
        tables, constants = [], []
        for scope, i in sorted(self._scoped(),
                               key=lambda s: -s[0].bit_count()):
            g_mask, gh_mask, coeffs = self.terms[i]
            if not scope:
                constants.append((i, coeffs[_kinds(g_mask, gh_mask, [0])[0]]))
                continue
            table = next((t for t in tables if not scope & ~t[0]), None)
            if table is None:
                table = [scope, []]
                tables.append(table)
            table[1].append((i, [coeffs[k] for k in _kinds(
                g_mask, gh_mask, _subsets(table[0]))]))
        return tables, constants

    def _buckets(self, order, hard):
        """The buckets of `order` (basic, scope), each (rest, index, low,
        high, reads): its message is a table over the `rest` basics, at
        position `index[r]` for each rest mask r with a feasible joint
        assignment; there, the lowest and the highest feasible value of the
        eliminated basic are `low[p]` and `high[p]` (the same when only one
        is), and each input table `tid` of `reads` (tid, at_low, at_high) is
        read at at_low[p] and at_high[p].  Also the ids of the messages over
        no basic, whose one entry each adds to the least value."""
        position = {bit: i for i, (bit, _) in enumerate(order)}

        def first(scope):
            return min(_bits(scope), key=position.__getitem__)

        # per table id (soft tables, then one message per bucket): its
        # scope, and the position of each feasible mask of it
        scope_of = [t[0] for t in self.tables]
        index_of = [{m: i for i, m in enumerate(_subsets(s))}
                    for s in scope_of]
        inputs_at = [[] for _ in order]
        for tid, scope in enumerate(scope_of):
            inputs_at[position[first(scope)]].append(tid)
        hard_at = [[] for _ in order]
        for lhs, head in hard:
            hard_at[position[first(lhs | head)]].append((lhs, head))
        buckets, roots = [], []
        for (bit, scope), inputs, rules in zip(order, inputs_at, hard_at):
            rest = scope & ~bit
            index, low, high = {}, [], []
            reads = [(tid, [], []) for tid in inputs]
            for r in _subsets(rest):
                joint = [a for a in (r, r | bit)
                         if all(lhs & ~a or a & head for lhs, head in rules)
                         and all(a & scope_of[tid] in index_of[tid]
                                 for tid in inputs)]
                if not joint:
                    continue
                index[r] = len(index)
                low.append(joint[0] & bit)
                high.append(joint[-1] & bit)
                for tid, at_low, at_high in reads:
                    at_low.append(index_of[tid][joint[0] & scope_of[tid]])
                    at_high.append(index_of[tid][joint[-1] & scope_of[tid]])
            buckets.append((rest, index, low, high, reads))
            if rest:
                inputs_at[position[first(rest)]].append(len(scope_of))
            else:
                roots.append(len(scope_of))
            scope_of.append(rest)
            index_of.append(index)
        return buckets, roots

    def __len__(self):
        """The assignments to the kept basics: a bound on the LP's columns,
        and their number when no rule reads the kept basics (chain-n)."""
        return 1 << self.keep.bit_count()

    def initial(self) -> list:
        return []

    def entries(self, keys):
        values = [[coeffs[k] for k in _kinds(g_mask, gh_mask, keys)]
                  for g_mask, gh_mask, coeffs in self.terms]
        return values[0], values[1:-1], values[-1]
    def price(self, cost_weight, duals, norm_weight):
        if not self.feasible:
            return [], []
        weights = [cost_weight, *(-w for w in duals), norm_weight]
        tables = []
        for scope, terms in self.tables:
            table = None
            for i, values in terms:
                w = weights[i]
                if w:
                    table = ([w * v for v in values] if table is None
                             else [t + w * v for t, v in zip(table, values)])
            tables.append(table or [0] * (1 << scope.bit_count()))
        best = sum(weights[i] * v for i, v in self.constants)
        chosen = []
        for rest, index, low, high, reads in self.buckets:
            at_low = at_high = [0] * len(low)
            for tid, read_low, read_high in reads:
                table = tables[tid]
                at_low = list(map(add, at_low, map(table.__getitem__,
                                                   read_low)))
                at_high = list(map(add, at_high, map(table.__getitem__,
                                                     read_high)))
            tables.append(list(map(min, at_low, at_high)))
            chosen.append((at_low, at_high))
        best += sum(tables[tid][0] for tid in self.roots)
        if best >= 0:
            return [], []
        atom = 0
        for (rest, index, low, high, _), (at_low, at_high) in zip(
                reversed(self.buckets), reversed(chosen)):
            p = index[atom & rest]
            atom |= high[p] if at_high[p] < at_low[p] else low[p]
        return [atom & self.keep], [best]


def _hard_factors(kb: KnowledgeBase, keep: int) -> List[Tuple[int, int]]:
    """The taxonomic rules G -> H as (G mask, head bit) for each basic of H
    outside G, or (G mask, 0) for a bottom head: an atom with all of G and
    not the head is inconsistent.

    Only the factors whose basics reach `keep` through one another are
    listed.  Every other factor reads only basics outside `keep` that no
    listed factor reads; when some atom is consistent, its values there
    satisfy every other factor whatever the other basics hold, so those
    factors rule out no assignment to the listed factors' basics."""
    hard = []
    for fm in kb.taxonomy.formulas:
        if fm.lhs.is_bottom or fm.rhs.is_top:
            continue  # tautologies
        lhs, rhs = kb.universe.mask_of(fm.lhs), kb.universe.mask_of(fm.rhs)
        hard += ([(lhs, 0)] if rhs < 0
                 else [(lhs, bit) for bit in _bits(rhs & ~lhs)])
    reach, last = keep, None
    while reach != last:
        last = reach
        for lhs, head in hard:
            if (lhs | head) & reach:
                reach |= lhs | head
    return [(lhs, head) for lhs, head in hard if (lhs | head) & reach]


def tight_answer(kb: KnowledgeBase,
                 goal: Tuple[ConjunctiveEvent, ConjunctiveEvent],
                 cap: Optional[int] = None) -> QueryAnswer:
    """The exact tight bounds entailed by the whole KB for (F|E).

    `cap`, when given, lowers the atom cap for this query: the smaller of
    it and `atom_cap()` applies, so it never raises the environment's."""
    f, e = goal
    kb.universe.check_event(f)
    kb.universe.check_event(e)
    cap = atom_cap() if cap is None else min(cap, atom_cap())
    keep = relevant_mask(kb, goal)
    try:
        system = build_atom_system(kb, keep, min(cap, ENUMERATION_LIMIT))
    except AtomSpaceError:
        if cap <= ENUMERATION_LIMIT:
            raise
        system = None
    if system is None:
        # no elimination table may be wider than the cap, nor than the
        # kept basics' assignments, which bound the atoms enumerated
        try:
            columns = EliminationColumns(kb, goal,
                                         min(cap, 1 << keep.bit_count()))
        except AtomSpaceError as too_wide:
            try:
                system = build_atom_system(kb, keep, cap)
            except AtomSpaceError as too_many:
                raise AtomSpaceError(f"{too_many}, and {too_wide}") from None
    if system is None:
        bounds = solve_lp(columns)
    else:
        bounds = solve_lp(system.indicator(conjoin(e, f)),
                          system.active_rows(), system.indicator(e))
    if bounds is None:
        return QueryAnswer.empty_answer()
    return QueryAnswer(*bounds)
