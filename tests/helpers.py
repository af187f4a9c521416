"""Shared builders for the test suite: the role-based chain reference
(`build_chain`), the chain comparison (`chain_fields`), fixture loading,
the worked example
rows with their chain roles, one rule's slots on a chain, guard bits by
name, the chain's bounds as Fractions and operand text evaluated on them
(the reference for the generated rule kernels), the mirrored chain premise,
every row's slot results from the row kernels (`unpruned_slots`), the
Fraction reference for the pruned `evaluate_slots`, a chain's slot events by
part name, the per-chain rule reference (`apply_all`), the results the
reference saturation applies, the candidate triples and that saturation
loop, the check command's survey without skips or verdict cache
(`candidate_survey`), the stored pairs of a state, brute-force taxonomic
entailment, KB satisfiability and an event's largest probability (from the
oracle's answer), a general LP solved as a cone LP (`solve_general`), the
columns each pricing round appends (`spy_appended`), the artificial after
each phase one (`spy_artificial`), a cone LP's answer read from its dual
(`lp_by_duality`), the mutual-exclusion and chain families, and the random
generators used by the property suites."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import FrozenSet, NamedTuple, Optional, Tuple

from taxprob import (ALL_RULES, BOTTOM, TOP, ChainPremise, ConjunctiveEvent,
                     ConsistencyVerdict, Interval, KnowledgeBase,
                     ProbabilisticFormula, TaxonomicFormula, TaxonomyStore,
                     Universe, _kernels, check_consistency, conjoin,
                     conjunction, lp, parse_kb, tight_answer,
                     validate_coherence)
from taxprob.engine import (ChainDiagnostic, TraceStep, _BoundTable,
                            _candidate_groups, _links_of, seed_state)
from taxprob.errors import ProbabilisticConflictError
from taxprob.events import enumerate_atom_masks, mask_implies
from taxprob.intervals import UNIT
from taxprob.lp import solve_lp
from taxprob.oracle import atom_cap
from taxprob.rules import (KNOWN_BOUND, RULE_SLOTS, SlotResult,
                           _swap_slot, evaluate_chain)
from taxprob.taxonomy import guard_bits

from kernelgen import PARAMS, kernel_name, operand_tag

FIXTURES = Path(__file__).parent / "fixtures"

# chain roles (A, B, C) for the worked example rows, by fixture name
ROW_ROLES = {
    "row_a": ("A", "B", "C"),
    "row_b": ("A", "B", "C"),
    "row_c": ("A", "B", "C"),
    "row_d": ("A", "B", "C"),
    "row_e": ("A", "B", "A C"),
    "row_f": ("A", "B", "C"),
    "row_g": ("A", "B", "C"),
    "row_h": ("A", "B", "C"),
    "row_i": ("A", "B", "C"),
    "row_j": ("A", "B", "A C"),
    "row_k": ("A", "B", "C"),
}


def chain_guards(tax, a, b, c):
    """The guard word of the chain roles (a, b, c): the six guards from
    `TaxonomyStore.guard_flags`, and the product-false flags, bits 6-8,
    from `forces_false` of `conjoin`."""
    return (tax.guard_flags(a, b, c) & 63
            | tax.forces_false(conjoin(a, b)) << 6
            | tax.forces_false(conjoin(a, c)) << 7
            | tax.forces_false(conjoin(b, c)) << 8)


def build_chain(kb, a, b, c, bounds=None):
    """The role-based chain reference: the chain (a, b, c) with its four
    bounds read from `bounds[conclusion, premise]` (default: a fresh bound
    table, which holds the KB's canonical intervals) and its guard word
    from `chain_guards`.  The engine builds chains from their value
    signature instead."""
    if bounds is None:
        bounds = _BoundTable(kb)
    return ChainPremise(
        a=a, b=b, c=c,
        u=bounds[b, a], v=bounds[a, b], x=bounds[c, b], y=bounds[b, c],
        guards=chain_guards(kb.taxonomy, a, b, c))


def chain_fields(chain):
    """A chain's constructor arguments, in order: the value two chains are
    compared by (`ChainPremise` itself compares by identity)."""
    return (chain.a, chain.b, chain.c, chain.u, chain.v, chain.x, chain.y,
            chain.guards)


def load_fixture(name):
    text = (FIXTURES / f"{name}.kb").read_text(encoding="utf-8")
    return parse_kb(text)


def load_row(name):
    """KB plus the chain roles for one of the worked example rows."""
    parsed = load_fixture(name)
    roles = tuple(conjunction(spec.split()) for spec in ROW_ROLES[name])
    return parsed.kb, roles


def rule_slots(name, chain):
    """The slot results of one rule's rows on `chain` itself: the
    `unpruned_slots` before the mirrored rows."""
    results = unpruned_slots(chain, frozenset({name}))
    return results[:sum(row[0] == name for row in RULE_SLOTS)]


# the flags of `taxonomy.guard_bits`, from bit 0: the six guards, then the
# product-false flags of AB, AC and BC
GUARD_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta",
               "ab_false", "ac_false", "bc_false")


def decode_guards(bits):
    """The nine flags of `taxonomy.guard_bits` bits, by name."""
    return SimpleNamespace(**{name: bool(bits >> i & 1)
                              for i, name in enumerate(GUARD_NAMES)})


def chain_flag(chain, name):
    """One flag of the chain's guard word, by name."""
    return bool(chain.guards >> GUARD_NAMES.index(name) & 1)


def fraction_view(chain):
    """What operand text reads of a chain, with its eight bounds as
    `Fraction`s and its flags decoded by `decode_guards`."""
    u, v, x, y = chain.u, chain.v, chain.x, chain.y
    return SimpleNamespace(
        u1=u.lo, u2=u.hi, v1=v.lo, v2=v.hi, x1=x.lo, x2=x.hi, y1=y.lo,
        y2=y.hi, **vars(decode_guards(chain.guards)))


# the names of the operand grammar besides the bounds and the flags, on
# Fractions
_OPERAND_NAMES = {
    "__builtins__": {}, "min": min, "max": max,
    "pos": lambda q: q > 0, "lt1": lambda q: q < 1,
    "gt": lambda a, b: a > b, "sum_gt1": lambda a, b: a + b > 1}


@lru_cache(maxsize=None)
def _operand_code(text):
    return compile(text, "<operand>", "eval")


def fraction_eval(text, view):
    """An operand's guard or formula text evaluated by Python on a
    `fraction_view`; an empty guard holds."""
    if not text:
        return True
    return eval(_operand_code(text), _OPERAND_NAMES, vars(view))


def fraction_bound(operands, chain, maximize):
    """Reference for one bound: the best operand value on the chain's
    Fraction view among those whose guards hold, plus the attained tags
    (`kernelgen.operand_tag`).  The reference that the generated kernels
    are tested against."""
    view = fraction_view(chain)
    best = None
    tags = []
    for op in operands:
        if not fraction_eval(op.guard, view):
            continue
        value = fraction_eval(op.expr, view)
        if best is None or (value > best if maximize else value < best):
            best = value
            tags = [operand_tag(op.expr)]
        elif value == best:
            tags.append(operand_tag(op.expr))
    return Fraction(best), tuple(tags)


# each flag's name under the chain mirror (A, B, C) -> (C, B, A)
_MIRRORED_GUARD = {"alpha": "alpha", "beta": "gamma", "gamma": "beta",
                   "delta": "epsilon", "epsilon": "delta", "zeta": "zeta",
                   "ab_false": "bc_false", "ac_false": "ac_false",
                   "bc_false": "ab_false"}


def swap_guards(bits):
    """A guard word remapped under the chain mirror, by name."""
    flags = vars(decode_guards(bits))
    return sum(1 << GUARD_NAMES.index(_MIRRORED_GUARD[name])
               for name, on in flags.items() if on)


def swap_chain(chain):
    """The mirrored chain premise (A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u), guards
    remapped: the reference for the mirrored rows of the generated runner,
    which pass the chain's arguments of the mirrored names instead."""
    return ChainPremise(
        a=chain.c, b=chain.b, c=chain.a,
        u=chain.y, v=chain.x, x=chain.v, y=chain.u,
        guards=swap_guards(chain.guards))


def kernel_args(chain):
    """A chain's arguments of `chains.KERNEL_PARAMS`: its bounds' reduced
    terms, then its guard flags and its product-false flags."""
    terms = []
    for iv in (chain.u, chain.v, chain.x, chain.y):
        terms += [iv.lo_n, iv.lo_d, iv.hi_n, iv.hi_d]
    flags = vars(decode_guards(chain.guards))
    return tuple(terms) + tuple(flags[name] for name in GUARD_NAMES)


def row_kernels(rule, slot):
    """The generated (lower, upper) kernels of the `RULE_SLOTS` row."""
    return (getattr(_kernels, kernel_name(rule, slot, "lower")),
            getattr(_kernels, kernel_name(rule, slot, "upper")))


def _runs(chain):
    """The rows the generated runner runs, in its order, each as (the chain
    or its mirror, the `RULE_SLOTS` row, the slot it reports): every row on
    the chain, then on the mirror every row whose slot is not its own
    mirror, so each of the chain's twelve distinct slots once."""
    mirror = swap_chain(chain)
    return ([(chain, row, row[1]) for row in RULE_SLOTS]
            + [(mirror, row, _swap_slot(row[1])) for row in RULE_SLOTS
               if _swap_slot(row[1]) != row[1]])


def unpruned_slots(chain, enabled=ALL_RULES):
    """Every enabled row of the generated runner, from the row kernels, as
    `SlotResult`s with None for the (1, 0) answer of a taxonomy-false
    premise: what `rules.evaluate_slots` reports before it leaves out the
    empty answers and the results that contain their slot's known
    bound."""
    results = []
    for run, (rule, row_slot, _, _, false_premise), slot in _runs(chain):
        if rule not in enabled:
            continue
        if false_premise is not None and chain_flag(run, false_premise):
            results.append(SlotResult(slot, None, rule, (), ()))
            continue
        args = kernel_args(run)[:len(PARAMS)]
        lower, upper = row_kernels(rule, row_slot)
        lo_n, lo_d, lo_tags = lower(*args)
        hi_n, hi_d, hi_tags = upper(*args)
        results.append(SlotResult(
            slot, Interval.from_terms(lo_n, lo_d, hi_n, hi_d), rule,
            lo_tags, hi_tags))
    return tuple(results)


def known_bound(chain, slot):
    """The slot's `rules.KNOWN_BOUND` on the chain, as Fractions (lo, hi)."""
    known = KNOWN_BOUND[slot]
    if isinstance(known, str):
        iv = getattr(chain, known)
        return iv.lo, iv.hi
    flags = vars(decode_guards(chain.guards))
    zero, one = known
    if flags[zero]:
        return Fraction(0), Fraction(0)
    if one is not None and flags[one]:
        return Fraction(1), Fraction(1)
    return Fraction(0), Fraction(1)


def pruned_reference(chain, enabled=ALL_RULES):
    """Reference for `rules.evaluate_slots`, in Fractions: every enabled
    row of the generated runner, evaluated from the operand text
    (`fraction_bound`), without the rows whose premise is taxonomy-false
    and the results that contain their slot's `known_bound`, as (slot,
    (lo, hi), rule, lower tags, upper tags)."""
    kept = []
    for run, (rule, _, lower, upper, false_premise), slot in _runs(chain):
        if rule not in enabled or (false_premise is not None
                                   and chain_flag(run, false_premise)):
            continue
        lo, lo_tags = fraction_bound(lower, run, True)
        hi, hi_tags = fraction_bound(upper, run, False)
        known_lo, known_hi = known_bound(chain, slot)
        if lo > known_lo or hi < known_hi:
            kept.append((slot, (lo, hi), rule, lo_tags, hi_tags))
    return kept


def slot_events(a, b, c):
    """The events behind the six slot parts of the chain (A, B, C), by part
    name: the reference for resolving slots through `rules.SLOT_PART_INDEX`."""
    return {"A": a, "B": b, "C": c, "AB": conjoin(a, b), "AC": conjoin(a, c),
            "BC": conjoin(b, c)}


class RuleConclusion(NamedTuple):
    conclusion: ConjunctiveEvent
    premise: ConjunctiveEvent
    interval: Optional[Interval]  # None in the empty (taxonomy-false premise) case
    rule: str
    lower_tags: Tuple[str, ...]
    upper_tags: Tuple[str, ...]

    @property
    def empty(self) -> bool:
        return self.interval is None

    def __str__(self):
        iv = "[1, 0] (empty)" if self.empty else str(self.interval)
        return f"({self.conclusion} | {self.premise}) {iv} via {self.rule}"


class RuleOutput(NamedTuple):
    conclusions: Tuple[RuleConclusion, ...]
    verdict: ConsistencyVerdict


def apply_all(chain: ChainPremise,
              enabled: FrozenSet[str] = ALL_RULES) -> RuleOutput:
    """The per-chain rule reference: consistency-check a chain, then run
    every enabled row on it (`unpruned_slots`).

    Inconsistent chains produce no conclusions, and `rules.evaluate_chain`
    agrees on which those are; the verdict is attached either way.  Each
    slot resolves to its events by part name (`slot_events`), and
    conclusions whose (conclusion, premise) events coincide (this happens
    when roles overlap) are merged by intersecting their intervals.
    """
    verdict = check_consistency(chain)
    assert (evaluate_chain(chain, enabled) is None) == (not verdict.consistent)
    if not verdict.consistent:
        return RuleOutput((), verdict)
    events = slot_events(chain.a, chain.b, chain.c)
    merged = {}
    for slot, iv, rule, lo_tags, hi_tags in unpruned_slots(chain, enabled):
        new = RuleConclusion(events[slot[0]], events[slot[1]], iv, rule,
                             lo_tags, hi_tags)
        key = (new.conclusion, new.premise)
        old = merged.get(key)
        merged[key] = new if old is None else _merge_conclusions(old, new)
    return RuleOutput(tuple(merged.values()), verdict)


def _merge_conclusions(a: RuleConclusion, b: RuleConclusion) -> RuleConclusion:
    if a.empty or b.empty:
        keep = a if a.empty else b
        return keep
    meet = a.interval.intersect(b.interval)
    if meet is None:
        # two locally complete deductions for one conditional cannot disagree
        raise AssertionError(
            f"contradictory rule outputs for ({a.conclusion} | {a.premise}): "
            f"{a.interval} vs {b.interval}")
    rule = a.rule if a.rule == b.rule else f"{a.rule}+{b.rule}"
    lo_tags = a.lower_tags if meet.lo == a.interval.lo else b.lower_tags
    hi_tags = a.upper_tags if meet.hi == a.interval.hi else b.upper_tags
    return RuleConclusion(a.conclusion, a.premise, meet, rule, lo_tags, hi_tags)


def stored_pairs(state):
    """The seeded and improved pairs of a state, each with its interval in
    the bound table, by (conclusion, premise): every pair the KB asserts,
    then every pair a trace step produced."""
    keys = [(fm.conclusion, fm.premise) for fm in state.kb.probabilistic]
    keys += [step.produced_key for step in state.trace]
    return {key: state.bounds[key] for key in keys}


def stored_by_name(state):
    """`stored_pairs` as sorted (conclusion, premise, interval) strings,
    which do not depend on the objects' addresses, for digests."""
    return sorted((str(c), str(p), str(iv))
                  for (c, p), iv in stored_pairs(state).items())


def unpruned_actions(chain, enabled):
    """The chain's `unpruned_slots` without the empty-answer and [0, 1]
    ones, and none for an inconsistent chain: what the reference
    saturation applies, where `rules.evaluate_slots` also leaves out every
    result that contains its slot's known bound."""
    if not check_consistency(chain).consistent:
        return ()
    return tuple(res for res in unpruned_slots(chain, enabled)
                 if res.interval is not None and res.interval is not UNIT)


def _candidate_triples(n, links):
    """Role-id triples (a, b, c) reading at least one linked pair, deduped up
    to mirroring (a <= c), in (B, A, C) order: the reference for
    `engine._candidate_groups`, built as a set of int codes, then sorted."""
    nn = n * n
    # a triple is encoded as (b * n + a) * n + c; a linked pair (x, y) is read
    # by the chains with B = y and {A, C} = {x, z}, and with B = x and
    # {A, C} = {y, z} (the other two orientations are their mirrors)
    keys = set()
    for x, y in links:
        for b, w in ((y, x), (x, y)):
            base = b * nn
            keys.update(range(base + w, base + w * n + w, n))  # z < w
            keys.update(range(base + w * n + w, base + w * n + n))  # z >= w
    return [(k // n % n, k // nn, k % n) for k in sorted(keys)]


def candidate_survey(kb):
    """`engine.survey_chains` without its skips and verdict cache:
    every `_candidate_groups` chain of the seeded default pool, built from
    its value signature with the closures from `closure_mask` and checked
    one by one; the inconsistent ones in role-id order of (A, B, C).  The
    reference that the survey's skips and cache are compared with."""
    state = seed_state(kb)
    closure_mask = kb.taxonomy.closure_mask
    bounds = state.bounds
    roles = state.role_pool
    masks = [kb.universe.mask_of(ev) for ev in roles]
    closures = [closure_mask(m) for m in masks]
    links = _links_of(state, state.informative)
    found = {}
    for ib, ia, cs in _candidate_groups(len(roles), links):
        a, b, ma, mb = roles[ia], roles[ib], masks[ia], masks[ib]
        cl_ab = closure_mask(ma | mb)
        u, v = bounds[b, a], bounds[a, b]
        for ic in cs:
            c, mc = roles[ic], masks[ic]
            cl_ac, cl_bc = closure_mask(ma | mc), closure_mask(mb | mc)
            sig = (u, v, bounds[c, b], bounds[b, c],
                   guard_bits(ma, mb, mc, closures[ia], closures[ic], cl_ab,
                              cl_ac, cl_bc, closure_mask(ma | mb | mc)))
            verdict = check_consistency(ChainPremise(a, b, c, *sig))
            if not verdict.consistent:
                found[ia, ib, ic] = verdict
    return [ChainDiagnostic(roles[ia], roles[ib], roles[ic], found[ia, ib, ic])
            for ia, ib, ic in sorted(found)]


def reference_saturate(state):
    """`engine.saturate` without its pair-event table, groups and rows:
    the candidates from `_candidate_triples`, every bound through
    `state.bounds`, the guard word from `chain_guards`, the slot events
    from `slot_events` by part name, and a signature cache of its own that
    keeps the `unpruned_actions`.  The reference for the differential
    saturation tests."""
    config = state.config
    kb = state.kb
    tax = kb.taxonomy
    roles = state.role_pool
    cache = {}
    links = _links_of(state, state.informative)
    while links and state.sweeps_run < config.max_sweeps:
        state.sweeps_run += 1
        improved_keys = set()
        for ia, ib, ic in _candidate_triples(len(roles), links):
            a, b, c = roles[ia], roles[ib], roles[ic]
            sig = (state.bounds[b, a], state.bounds[a, b],
                   state.bounds[c, b], state.bounds[b, c],
                   chain_guards(tax, a, b, c))
            actions = cache.get(sig)
            if actions is None:
                actions = cache[sig] = unpruned_actions(
                    build_chain(kb, a, b, c, state.bounds),
                    config.enabled_rules)
            if not actions:
                continue
            events = slot_events(a, b, c)
            for slot, new_iv, rule, lo_tags, hi_tags in actions:
                concl, prem = events[slot[0]], events[slot[1]]
                key = (concl, prem)
                old_iv = state.bounds[key]
                if not (new_iv.lo > old_iv.lo or new_iv.hi < old_iv.hi):
                    continue
                meet = old_iv.intersect(new_iv)
                if meet is None:
                    raise ProbabilisticConflictError(
                        concl, prem, old_iv, new_iv,
                        f"while applying {rule} to chain A={a}, B={b}, C={c}")
                state.bounds[key] = meet
                state.informative.add(key)
                improved_keys.add(key)
                state.trace.append(TraceStep(
                    rule=rule, a=a, b=b, c=c, conclusion=concl, premise=prem,
                    old=old_iv, new=meet, lower_tags=lo_tags,
                    upper_tags=hi_tags))
        links = _links_of(state, improved_keys)
    state.stop_reason = "max-sweeps" if links else "fixpoint"
    return state


def entails_bruteforce(store, g, h):
    """Semantic taxonomic entailment: every consistent atom implying g
    implies h (for h = bottom: no consistent atom implies g).  The
    reference for `TaxonomyStore.entails` and `forces_false`."""
    g_mask = store.universe.mask_of(g)
    h_mask = store.universe.mask_of(h)
    if g_mask < 0:
        return True
    for am in enumerate_atom_masks(store.universe, store, atom_cap()):
        if mask_implies(am, g_mask) and not mask_implies(am, h_mask):
            return False
    return True


def kb_satisfiable(kb):
    """Is there any probabilistic interpretation satisfying the KB?  The
    oracle's (TOP | TOP) LP is feasible exactly then."""
    return not tight_answer(kb, (TOP, TOP)).empty


def max_event_probability(kb, event):
    """The largest Pr(event) over all models, the upper bound of the
    oracle's (event | TOP) answer; None when the KB is unsatisfiable."""
    answer = tight_answer(kb, (event, TOP))
    return None if answer.empty else answer.upper


def solve_general(objective, rows):
    """`solve_lp` on a general LP: (min, max) of objective . x over x >= 0
    subject to rows (coeffs, "<=" / ">=" / "==", rhs) of ints or Fractions.
    One more column t, held at 1 by the norm row, makes a . x <= b the cone
    row b t - a . x >= 0 (">=" the negation, "==" both), scaled to ints."""
    def scaled(values):
        denom = math.lcm(*(Fraction(v).denominator for v in values))
        return [int(v * denom) for v in values], denom

    cone = [scaled([sign * v for v in (*coeffs, -rhs)])[0]
            for coeffs, sense, rhs in rows
            for sign in {"<=": (-1,), ">=": (1,), "==": (1, -1)}[sense]]
    costs, denom = scaled(objective)
    bounds = solve_lp(costs + [0], cone, [0] * len(objective) + [1])
    return None if bounds is None else (bounds[0] / denom, bounds[1] / denom)


def spy_appended(monkeypatch):
    """A list that gets the columns each pricing round of `lp.solve_lp`
    appends."""
    appended = []
    append = lp._Tableau._append

    def spy(tab, entering, entries):
        appended.append(list(entering))
        append(tab, entering, entries)

    monkeypatch.setattr(lp._Tableau, "_append", spy)
    return appended


def spy_artificial(monkeypatch):
    """A list that gets, after every phase one of `lp.solve_lp`, whether it
    found the LP feasible and the artificial's value: None while it is
    nonbasic, else the value it is basic at."""
    seen = []
    phase_one = lp._Tableau.phase_one

    def spy(tab):
        feasible = phase_one(tab)
        art = tab.total - 1
        value = None
        if art in tab.basis:
            row = tab.rows[tab.basis.index(art)]
            value = Fraction(row[-1], row[art])
        seen.append((feasible, value))
        return feasible

    monkeypatch.setattr(lp._Tableau, "phase_one", spy)
    return seen


def _dual_lp(rows, costs):
    """The dual of min costs . x over {x >= 0, rows}, max b . y subject to
    A^T y <= costs, over nonnegative variables: an inequality row gives one
    (y_i = -u for '<=', u for '>='), an equality two (y_i = u - u').
    Returns the dual's objective b and its rows, one per primal column."""
    duals = [(sign, i) for i, (_, sense, _) in enumerate(rows)
             for sign in {"<=": (-1,), ">=": (1,), "==": (1, -1)}[sense]]
    b = [sign * rows[i][2] for sign, i in duals]
    return b, [([sign * rows[i][0][j] for sign, i in duals], "<=", cost)
               for j, cost in enumerate(costs)]


def lp_by_duality(objective, rows, norm, claimed):
    """What LPs over the dual's variables say `solve_lp(objective, rows,
    norm)` is, given its `claimed` answer: None when the LP is infeasible (a
    Farkas ray of the dual), "below" or "above" when the objective is
    unbounded that way (the dual of that direction is infeasible), else the
    dual optima as (min, max).

    A claimed (min, max) is checked bound by bound: the dual's optimum is
    read from the dual with the row b . y >= the claimed bound added, so
    that its other direction is bounded too; an infeasible dual, or a claim
    above the optimum, makes that LP infeasible and the bound None.  The
    duals are solved by `solve_general`; each has a column per row, few
    against its row per primal column, so solve_lp takes every column of
    it from the start."""
    primal = [(row, ">=", 0) for row in rows] + [(norm, "==", 1)]
    b, farkas = _dual_lp(primal, [0] * len(objective))
    zero = [0] * len(b)
    if solve_general(zero, farkas + [(b, "==", 1)]) is not None:
        return None
    bounds = []
    for sign, direction in ((1, "below"), (-1, "above")):
        _, dual = _dual_lp(primal, [sign * c for c in objective])
        if isinstance(claimed, tuple):
            floor = sign * claimed[(1 - sign) // 2]
            optimum = solve_general(b, dual + [(b, ">=", floor)])
            bounds.append(None if optimum is None else sign * optimum[1])
        elif solve_general(zero, dual) is None:
            return direction
        else:
            bounds.append("optimal")
    return tuple(bounds)


def wide_text():
    """Six exclusive diseases, each implying three of twelve symptoms; the
    conditionals and the goal read only d0, d1, s00 and s11."""
    symptoms = [f"s{i:02d}" for i in range(12)]
    diseases = [f"d{i}" for i in range(6)]
    lines = ["basics: " + " ".join(diseases + symptoms)]
    for i, d in enumerate(diseases):
        lines.append(f"tax: {d} -> {' '.join((symptoms * 2)[2 * i:2 * i + 3])}")
        lines += [f"tax: {d} {e} -> false" for e in diseases[i + 1:]]
    lines += ["prob: ( d0 | true ) [ 0.05, 0.1 ]",
              "prob: ( d1 | true ) [ 0.1, 0.2 ]",
              "prob: ( s00 | true ) [ 0.2, 0.4 ]",
              "prob: ( s11 | d0 ) [ 0.7, 0.9 ]",
              "prob: ( s11 | d1 ) [ 0.1, 0.3 ]",
              "prob: ( s11 | true ) [ 0.2, 0.5 ]",
              "query: ( d0 | s00 s11 )"]
    return "\n".join(lines) + "\n"


def mutex_kb(n):
    """n pairwise-exclusive events, each with probability at least 1/n."""
    names = [f"B{i:03d}" for i in range(1, n + 1)]
    universe = Universe(names)
    evs = {nm: conjunction([nm]) for nm in names}
    tax = TaxonomyStore(universe, [
        TaxonomicFormula(conjoin(evs[a], evs[b]), BOTTOM)
        for i, a in enumerate(names) for b in names[i + 1:]])
    pkb = [ProbabilisticFormula(evs[nm], TOP, Interval.make(Fraction(1, n), 1))
           for nm in names]
    return KnowledgeBase(universe, tax, pkb), evs, names


def chain_kb(n):
    """chain4.kb's pattern over n basics B01..Bn with no taxonomy: each
    neighbour pair has a weak forward (B(i+1) | Bi)[1/10, 3/20] and a strong
    backward (Bi | B(i+1))[4/5, 1] conditional.  Returns the KB and the goal
    (Bn | B01)."""
    names = [f"B{i:02d}" for i in range(1, n + 1)]
    universe = Universe(names)
    evs = [conjunction([nm]) for nm in names]
    pkb = []
    for first, second in zip(evs, evs[1:]):
        pkb.append(ProbabilisticFormula(
            second, first, Interval.make(Fraction(1, 10), Fraction(3, 20))))
        pkb.append(ProbabilisticFormula(first, second, Interval.make(Fraction(4, 5), 1)))
    return KnowledgeBase(universe, TaxonomyStore(universe), pkb), (evs[-1], evs[0])


# -- random generation --------------------------------------------------------

GRID = [Fraction(i, 20) for i in range(21)]


def random_event(rng, names, top_weight=0.12):
    if rng.random() < top_weight:
        return TOP
    k = rng.randint(1, min(3, len(names)))
    return conjunction(rng.sample(names, k))


def random_taxonomy(rng, universe, names, max_formulas=3, bottom_weight=0.15):
    formulas = []
    for _ in range(rng.randint(0, max_formulas)):
        lhs = conjunction(rng.sample(names, rng.randint(1, min(2, len(names)))))
        if rng.random() < bottom_weight:
            rhs = BOTTOM
        else:
            rhs = conjunction(rng.sample(names, rng.randint(1, min(2, len(names)))))
        formulas.append(TaxonomicFormula(lhs, rhs))
    return TaxonomyStore(universe, formulas)


def random_rules(rng, names):
    """Up to five rules over `names`, some with a bottom head or an empty
    lhs."""
    def some():
        return conjunction(rng.sample(names, rng.randint(1, min(2, len(names)))))
    return [TaxonomicFormula(TOP if rng.random() < 0.1 else some(),
                             BOTTOM if rng.random() < 0.3 else some())
            for _ in range(rng.randint(0, 5))]


def draw_interval(rng, forced_one=False, forced_zero=False):
    if forced_zero:
        return Interval.make(0, 0)
    if forced_one:
        return Interval.make(1, 1)
    lo = rng.choice(GRID[:-1])
    hi = rng.choice([h for h in GRID if h >= lo and h > 0])
    return Interval.make(lo, hi)


def random_chain_kb(rng, max_basics=4):
    """A random coherent chain KB with its roles, or None when the draw is
    rejected (taxonomy-false role, or an impossible bound combination)."""
    n = rng.randint(2, max_basics)
    names = ["a", "b", "c", "d"][:n]
    universe = Universe(names)
    tax = random_taxonomy(rng, universe, names)
    roles = [random_event(rng, names) for _ in range(3)]
    if any(tax.forces_false(r) for r in roles):
        return None
    a, b, c = roles
    drawn = {}
    for concl, prem in ((b, a), (a, b), (c, b), (b, c)):
        key = (concl, prem)
        if key in drawn:
            continue
        forced_one = tax.entails(prem, concl)
        forced_zero = tax.forces_false(conjoin(prem, concl))
        if forced_one and forced_zero:
            return None
        drawn[key] = ProbabilisticFormula(
            concl, prem, draw_interval(rng, forced_one, forced_zero))
    kb = KnowledgeBase(universe, tax, list(drawn.values()))
    if validate_coherence(kb):
        return None
    return kb, a, b, c


def random_small_kb(rng, max_basics=4, max_formulas=6):
    """A random coherent KB (not necessarily satisfiable)."""
    n = rng.randint(2, max_basics)
    names = ["a", "b", "c", "d"][:n]
    universe = Universe(names)
    tax = random_taxonomy(rng, universe, names, max_formulas=2)
    formulas = {}
    for _ in range(rng.randint(1, max_formulas)):
        concl = random_event(rng, names, top_weight=0.05)
        prem = random_event(rng, names)
        if tax.forces_false(prem) or concl.is_top:
            continue
        key = (concl, prem)
        if key in formulas:
            continue
        forced_one = tax.entails(prem, concl)
        forced_zero = tax.forces_false(conjoin(prem, concl))
        if forced_one and forced_zero:
            continue
        formulas[key] = ProbabilisticFormula(
            concl, prem, draw_interval(rng, forced_one, forced_zero))
    if not formulas:
        return None
    kb = KnowledgeBase(universe, tax, list(formulas.values()))
    if validate_coherence(kb):
        return None
    return kb


def random_store(rng, n, max_formulas=5):
    names = [f"e{i}" for i in range(n)]
    universe = Universe(names)
    return random_taxonomy(rng, universe, names,
                           max_formulas=max_formulas), universe, names
