"""Shared builders for the test suite: fixture loading, the worked example
rows with their chain roles, one rule's slots on a chain, the mirrored
chain premise, a chain's slot events by part name, the reference
saturation loop, the mutual-exclusion and chain families, and the random
generators used by the property suites."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from taxprob import (BOTTOM, TOP, ChainPremise, Interval, KnowledgeBase,
                     ProbabilisticFormula, TaxonomicFormula, TaxonomyStore,
                     Universe, conjoin, conjunction, parse_kb,
                     validate_coherence)
from taxprob.engine import (TraceStep, _candidate_triples, _improving_actions,
                            _links_of, build_chain)
from taxprob.errors import ProbabilisticConflictError
from taxprob.rules import evaluate_chain, evaluate_slots

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


def load_fixture(name):
    text = (FIXTURES / f"{name}.kb").read_text(encoding="utf-8")
    return parse_kb(text)


def load_row(name):
    """KB plus the chain roles for one of the worked example rows."""
    parsed = load_fixture(name)
    roles = tuple(conjunction(spec.split()) for spec in ROW_ROLES[name])
    return parsed.kb, roles


def rule_slots(name, chain):
    """The slot results of one rule on `chain` itself: the first half of
    `evaluate_slots`, before the mirrored run."""
    results = evaluate_slots(chain, frozenset({name}))
    return results[:len(results) // 2]


def swap_chain(chain):
    """The mirrored chain premise (A,B,C,u,v,x,y) -> (C,B,A,y,x,v,u), guards
    remapped: the reference for `ChainView.mirror`."""
    return ChainPremise(
        a=chain.c, b=chain.b, c=chain.a,
        u=chain.y, v=chain.x, x=chain.v, y=chain.u,
        guards=chain.guards.swap(),
        ab_false=chain.bc_false,
        ac_false=chain.ac_false,
        bc_false=chain.ab_false,
    )


def slot_events(a, b, c):
    """The events behind the six slot parts of the chain (A, B, C), by part
    name: the reference for resolving slots through `rules.SLOT_PART_INDEX`."""
    return {"A": a, "B": b, "C": c, "AB": conjoin(a, b), "AC": conjoin(a, c),
            "BC": conjoin(b, c)}


def reference_saturate(state):
    """`engine.saturate` without its role-pair tables: every bound through
    `state.get_interval`, the guards from `TaxonomyStore.guard_flags`, the
    product-false flags from `forces_false` of `conjoin`, the slot events
    from `slot_events` by part name, and a signature cache of its own.  The
    reference for the differential saturation tests."""
    config = state.config
    kb = state.kb
    tax = kb.taxonomy
    roles = state.role_pool
    cache = {}
    links = _links_of(state, state.informative)
    while links and state.sweeps_run < config.max_sweeps:
        state.sweeps_run += 1
        improved_keys = set()
        for ia, ib, ic in _candidate_triples(state, links):
            a, b, c = roles[ia], roles[ib], roles[ic]
            sig = (state.get_interval(b, a).uid, state.get_interval(a, b).uid,
                   state.get_interval(c, b).uid, state.get_interval(b, c).uid,
                   tax.guard_flags(a, b, c).bits,
                   tax.forces_false(conjoin(a, b)),
                   tax.forces_false(conjoin(a, c)),
                   tax.forces_false(conjoin(b, c)))
            actions = cache.get(sig)
            if actions is None:
                chain = build_chain(kb, a, b, c, state.get_interval)
                actions = cache[sig] = _improving_actions(
                    evaluate_chain(chain, config.enabled_rules)[1])
            if not actions:
                continue
            events = slot_events(a, b, c)
            for slot, new_iv, rule, lo_tags, hi_tags in actions:
                concl, prem = events[slot[0]], events[slot[1]]
                key = (concl.uid, prem.uid)
                old_iv = state.get_interval(concl, prem)
                if not (new_iv.lo > old_iv.lo or new_iv.hi < old_iv.hi):
                    continue
                meet = old_iv.intersect(new_iv)
                if meet is None:
                    raise ProbabilisticConflictError(
                        concl, prem, old_iv, new_iv,
                        f"while applying {rule} to chain A={a}, B={b}, C={c}")
                state.store(concl, prem, meet)
                state.informative.add(key)
                improved_keys.add(key)
                state.trace.append(TraceStep(
                    rule=rule, a=a, b=b, c=c, conclusion=concl, premise=prem,
                    old=old_iv, new=meet, lower_tags=lo_tags,
                    upper_tags=hi_tags))
        links = _links_of(state, improved_keys)
    state.stop_reason = "max-sweeps" if links else "fixpoint"
    return state


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
        key = (concl.uid, prem.uid)
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
        key = (concl.uid, prem.uid)
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
