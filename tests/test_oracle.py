import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from taxprob import (BOTTOM, TOP, Interval, KnowledgeBase,
                     ProbabilisticFormula, TaxonomicFormula, TaxonomyStore,
                     Universe, conjoin, conjunction, oracle, parse_kb)
from taxprob.errors import AtomSpaceError
from taxprob.events import DEFAULT_ATOM_CAP, mask_implies
from taxprob.lp import solve_lp
from taxprob.oracle import (EliminationColumns, build_atom_system,
                            relevant_mask, tight_answer)

from helpers import (chain_kb, entails_bruteforce, kb_satisfiable,
                     load_fixture, lp_by_duality, max_event_probability,
                     mutex_kb, random_rules, random_small_kb, random_store,
                     spy_appended, spy_artificial, wide_text)


def test_bird_example_exact():
    parsed = load_fixture("bird")
    ans = tight_answer(parsed.kb, parsed.queries[0])
    assert (ans.lower, ans.upper) == (F(0), F(1, 20))
    assert not ans.empty


def test_bird_atoms_exclude_forbidden_patterns():
    kb = load_fixture("bird").kb
    system = build_atom_system(kb)
    u = kb.universe
    ostrich_not_bird = (u.mask_of(conjunction(["ostrich"])),
                        u.mask_of(conjunction(["bird"])))
    for mask in system.atom_masks:
        if mask_implies(mask, ostrich_not_bird[0]):
            assert mask_implies(mask, ostrich_not_bird[1])
            assert not mask_implies(mask, u.mask_of(conjunction(["fly"])))


def test_atom_system_shapes():
    kb, _, _ = mutex_kb(10)
    system = build_atom_system(kb)
    assert len(system.atom_masks) == 11
    assert len(system.rows) == 20
    row_f = load_fixture("row_f").kb
    assert len(build_atom_system(row_f).atom_masks) == 7


def test_satisfiability_of_reference_rows():
    for name in ("row_f", "row_g", "row_h", "row_i", "row_j", "row_k"):
        assert kb_satisfiable(load_fixture(name).kb), name
    # the first worked inconsistency row is satisfiable, but only with B at
    # probability zero
    row_a = load_fixture("row_a").kb
    assert kb_satisfiable(row_a)
    assert max_event_probability(row_a, conjunction(["B"])) == 0


def test_empty_kb_is_satisfiable():
    u = Universe(["a", "b"])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [])
    assert kb_satisfiable(kb)


def test_unsatisfiable_when_top_forced_false():
    u = Universe(["a"])
    kb = KnowledgeBase(u, TaxonomyStore(u, [TaxonomicFormula(TOP, BOTTOM)]), [])
    assert not kb_satisfiable(kb)
    assert tight_answer(kb, (conjunction(["a"]), TOP)).empty


def test_tight_answer_solves_one_lp(monkeypatch):
    # one tableau gives both bounds and the empty answer alike
    calls = []

    def counted(objective, rows, norm):
        calls.append((objective, rows, norm))
        return solve_lp(objective, rows, norm)

    monkeypatch.setattr(oracle, "solve_lp", counted)
    parsed = load_fixture("bird")
    ans = tight_answer(parsed.kb, parsed.queries[0])
    assert (ans.lower, ans.upper, len(calls)) == (F(0), F(1, 20), 1)
    u = Universe(["a"])
    kb = KnowledgeBase(u, TaxonomyStore(u, [TaxonomicFormula(TOP, BOTTOM)]), [])
    assert tight_answer(kb, (conjunction(["a"]), TOP)).empty
    assert len(calls) == 2


def test_self_conditional_is_point_one():
    kb = load_fixture("row_k").kb
    a = conjunction(["A"])
    ans = tight_answer(kb, (a, a))
    assert (ans.lower, ans.upper) == (F(1), F(1))


def test_empty_answer_for_false_premise():
    u = Universe(["a", "b"])
    a, b = conjunction(["a"]), conjunction(["b"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, BOTTOM)])
    kb = KnowledgeBase(u, tax, [])
    ans = tight_answer(kb, (b, a))
    assert ans.empty and (ans.lower, ans.upper) == (F(1), F(0))
    assert tight_answer(kb, (b, BOTTOM)).empty


def test_empty_answer_for_kb_forced_premise():
    # row a forces B to probability zero only through the probabilistic part
    kb = load_fixture("row_a").kb
    ans = tight_answer(kb, (conjunction(["A"]), conjunction(["B"])))
    assert ans.empty


def test_tight_answer_within_canonical():
    rng = random.Random(55)
    done = 0
    while done < 25:
        kb = random_small_kb(rng)
        if kb is None:
            continue
        done += 1
        names = list(kb.universe.names)
        f = conjunction(rng.sample(names, rng.randint(1, len(names))))
        e = conjunction(rng.sample(names, rng.randint(1, len(names))))
        ans = tight_answer(kb, (f, e))
        if ans.empty:
            continue
        canonical = kb.canonical_interval(f, e)
        assert canonical.lo <= ans.lower <= ans.upper <= canonical.hi


def test_scale_invariance_spectator_event():
    base = load_fixture("row_h").kb
    goals = [(conjunction(["C"]), conjunction(["A"])),
             (conjunction(["B"]), conjunction(["A", "C"]))]
    before = [tight_answer(base, g) for g in goals]

    u2 = Universe(["A", "B", "C", "Z"])
    tax2 = TaxonomyStore(u2, list(base.taxonomy.formulas))
    kb2 = KnowledgeBase(u2, tax2, list(base.probabilistic))
    assert len(build_atom_system(kb2).atom_masks) == \
        2 * len(build_atom_system(base).atom_masks)
    for g, prev in zip(goals, before):
        ans = tight_answer(kb2, g)
        assert (ans.lower, ans.upper) == (prev.lower, prev.upper)


def test_atom_cap_error(monkeypatch):
    u = Universe([f"x{i}" for i in range(8)])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [])
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "100")
    with pytest.raises(AtomSpaceError):
        build_atom_system(kb)


def test_atom_cap_lowered_between_builds(monkeypatch):
    u = Universe([f"x{i}" for i in range(8)])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [])
    monkeypatch.delenv("TAXPROB_ATOM_CAP", raising=False)
    assert len(build_atom_system(kb).atom_masks) == 256
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "100")
    with pytest.raises(AtomSpaceError):
        build_atom_system(kb)
    # a fresh KB raises alike, and every build enumerates the atoms again
    # under the cap in force, so the same KB builds once the cap allows it
    fresh = KnowledgeBase(u, TaxonomyStore(u, []), [])
    with pytest.raises(AtomSpaceError):
        build_atom_system(fresh)
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "256")
    assert len(build_atom_system(kb).atom_masks) == 256


def test_entails_bruteforce_examples():
    u = Universe(["A", "B", "C"])
    store = TaxonomyStore(u, [TaxonomicFormula(conjunction(["C"]),
                                               conjunction(["A"]))])
    assert entails_bruteforce(store, conjunction(["B", "C"]), conjunction(["A"]))
    empty = TaxonomyStore(u, [])
    assert not entails_bruteforce(empty, conjunction(["A"]), conjunction(["C"]))
    assert entails_bruteforce(empty, BOTTOM, conjunction(["A"]))


def test_entails_agreement_small_stores():
    rng = random.Random(31)
    for _ in range(12):
        store, universe, names = random_store(rng, rng.randint(2, 4))
        events = [BOTTOM, TOP] + [
            conjunction(comb)
            for size in range(1, len(names) + 1)
            for comb in combinations(names, size)]
        for g in events:
            for h in events:
                assert store.entails(g, h) == entails_bruteforce(store, g, h), \
                    (str(g), str(h), [str(f) for f in store.formulas])


# -- independent check of the normalization transform -------------------------

def _vertices(system):
    """All vertices of {m >= 0, sum m = 1, rows . m >= 0} by active sets."""
    d = len(system.atom_masks)
    rows = [list(r) for r in system.rows]
    cands = [[F(1 if j == i else 0) for j in range(d)] for i in range(d)]
    cands += rows
    seen = set()
    out = []
    ones = [F(1)] * d
    for subset in combinations(range(len(cands)), d - 1):
        M = [ones] + [cands[i] for i in subset]
        rhs = [F(1)] + [F(0)] * (d - 1)
        x = _solve_square(M, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(c * v for c, v in zip(row, x)) < 0 for row in rows):
            continue
        key = tuple(x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def _solve_square(rows, rhs):
    n = len(rhs)
    M = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def test_tight_answer_matches_vertex_enumeration():
    # the conditional ratio is linear-fractional, so over the mass polytope
    # its extremes sit at vertices with positive premise probability; this
    # re-derives tight answers without the rescaling trick
    rng = random.Random(77)
    done = 0
    while done < 8:
        kb = random_small_kb(rng, max_basics=3, max_formulas=3)
        if kb is None:
            continue
        system = build_atom_system(kb)
        if len(system.atom_masks) > 8:
            continue
        done += 1
        verts = _vertices(system)
        names = list(kb.universe.names)
        for _ in range(4):
            f = conjunction(rng.sample(names, rng.randint(1, len(names))))
            e = conjunction(rng.sample(names, rng.randint(1, len(names))))
            e_ind = system.indicator(e)
            ef_ind = system.indicator(conjoin(e, f))
            ratios = []
            for v in verts:
                pe = sum(c * m for c, m in zip(e_ind, v))
                if pe > 0:
                    pef = sum(c * m for c, m in zip(ef_ind, v))
                    ratios.append(pef / pe)
            ans = tight_answer(kb, (f, e))
            if not ratios:
                assert ans.empty
            else:
                assert (ans.lower, ans.upper) == (min(ratios), max(ratios))


def test_medical_tight_answer_exact():
    parsed = load_fixture("medical")
    ans = tight_answer(parsed.kb, parsed.queries[0])
    assert (ans.lower, ans.upper, ans.empty) == (F(4, 5), F(1), False)


# -- the projected oracle against LPs over the full atom space -----------------

def _differential_kb(rng, n):
    """A random KB over n <= 5 basics whose conditionals mention only the
    first k < n basics, so a goal may read basics no conditional mentions.
    Rules may have bottom heads or an empty lhs; coherence is not required."""
    names = [f"x{i}" for i in range(n)]
    u = Universe(names)
    formulas = random_rules(rng, names)
    inner = names[:rng.randint(0, n - 1)]
    prob = {}
    for _ in range(rng.randint(0, 3) if inner else 0):
        concl = conjunction(rng.sample(inner, rng.randint(1, len(inner))))
        prem = (TOP if rng.random() < 0.3
                else conjunction(rng.sample(inner, rng.randint(1, len(inner)))))
        lo = F(rng.randint(0, 10), 10)
        prob[(concl, prem)] = ProbabilisticFormula(
            concl, prem, Interval.make(lo, max(lo, F(rng.randint(1, 10), 10))))
    return KnowledgeBase(u, TaxonomyStore(u, formulas), list(prob.values()))


def _full_answers(kb, f, e):
    """Satisfiability, max Pr(E) and the tight (F | E) answer, from LPs over
    the unprojected `build_atom_system(kb)` with all of its rows."""
    system = build_atom_system(kb)
    # the full atoms are the rule-closed name sets, whatever the enumerator
    closed = [m for m in range(1 << len(kb.universe))
              if kb.taxonomy.closure_mask(m) == m]
    assert list(system.atom_masks) == closed
    n = len(system.atom_masks)
    if n == 0:
        return False, None, None
    rows, mass = system.rows, [1] * n
    feasible = solve_lp([0] * n, rows, mass) is not None
    range_e = solve_lp(system.indicator(e), rows, mass)
    best_e = None if range_e is None else range_e[1]
    if not best_e:
        return feasible, best_e, None
    return feasible, best_e, solve_lp(system.indicator(conjoin(e, f)), rows,
                                      system.indicator(e))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.data())
def test_projected_oracle_matches_full_atom_lps(seed, n, data):
    rng = random.Random(seed)
    kb = _differential_kb(rng, n)
    names = list(kb.universe.names)
    event = st.one_of(st.just(BOTTOM), st.lists(
        st.sampled_from(names), max_size=n).map(conjunction))
    # a rule's own conditional (H | G) exposes a projected atom that cuts
    # G's closure short of a relevant basic
    goals = [(data.draw(event), data.draw(event))] + [
        (fm.rhs, fm.lhs) for fm in kb.taxonomy.formulas]
    for f, e in goals:
        feasible, best_e, bounds = _full_answers(kb, f, e)
        assert kb_satisfiable(kb) == feasible
        assert max_event_probability(kb, e) == best_e
        ans = tight_answer(kb, (f, e))
        if bounds is None:
            assert ans.empty
        else:
            assert (ans.lower, ans.upper, ans.empty) == (*bounds, False)


# -- column generation against the dual of the same atom system ----------------

def _wide_kb(rng):
    """A KB over 6 to 8 basics with random rules and four to seven
    conditionals, enough rows for the LP to price its atoms in, and its
    basics."""
    names = [f"x{i}" for i in range(rng.randint(6, 8))]
    u = Universe(names)
    prob = {}
    for _ in range(rng.randint(4, 7)):
        concl = conjunction(rng.sample(names, rng.randint(1, 2)))
        prem = (TOP if rng.random() < 0.2
                else conjunction(rng.sample(names, rng.randint(1, 2))))
        lo = F(rng.randint(0, 10), 10)
        prob[(concl, prem)] = ProbabilisticFormula(
            concl, prem, Interval.make(lo, max(lo, F(rng.randint(1, 10), 10))))
    kb = KnowledgeBase(u, TaxonomyStore(u, random_rules(rng, names)),
                       list(prob.values()))
    return kb, names


def test_generated_tight_answers_match_the_dual(monkeypatch):
    # tight_answer's LP, where generation prices the atoms in, against LPs
    # over the dual of the same projected atom system, until four empty and
    # four non-empty answers have come through generation (about 60 draws);
    # after every phase one the artificial is basic only when the LP is
    # infeasible, and then at 1
    artificial = spy_artificial(monkeypatch)
    appended = spy_appended(monkeypatch)
    rng = random.Random(1)
    outcomes = Counter()
    for _ in range(200):
        if min(outcomes["empty"], outcomes["answered"]) >= 4:
            break
        kb, names = _wide_kb(rng)
        f, e = (conjunction(rng.sample(names, rng.randint(1, 2)))
                for _ in range(2))
        rounds = len(appended)
        ans = tight_answer(kb, (f, e))
        if len(appended) == rounds:
            continue
        outcomes["empty" if ans.empty else "answered"] += 1
        system = build_atom_system(kb, keep=relevant_mask(kb, (f, e)))
        claimed = None if ans.empty else (ans.lower, ans.upper)
        assert lp_by_duality(system.indicator(conjoin(e, f)),
                             system.active_rows(), system.indicator(e),
                             claimed) == claimed
    assert min(outcomes["empty"], outcomes["answered"]) >= 4, outcomes
    assert all(value == (None if feasible else 1)
               for feasible, value in artificial)


# -- the elimination pricer against the enumerated atoms -----------------------

def test_regime_follows_the_projected_atom_count(monkeypatch):
    # 64, 128 and 10 projected atoms are enumerated and handed over as
    # lists; chain-10's 1,024 are priced by elimination, whose length is
    # the atom count
    sources = []

    def spy(*args):
        sources.append(args[0])
        return solve_lp(*args)

    monkeypatch.setattr(oracle, "solve_lp", spy)
    reduced = load_fixture("medical_reduced")
    wide = parse_kb(wide_text())
    for kb, goal in (chain_kb(6), (reduced.kb, reduced.queries[0]),
                     (wide.kb, wide.queries[0]), chain_kb(10)):
        tight_answer(kb, goal)
    assert [type(source) for source in sources] == [list] * 3 + [
        EliminationColumns]
    assert [len(source) for source in sources] == [64, 128, 10, 1024]


def test_chain_20_is_exact_by_elimination():
    kb, goal = chain_kb(20)
    start = time.perf_counter()
    ans = tight_answer(kb, goal)
    assert time.perf_counter() - start < 2
    assert (ans.lower, ans.upper, ans.empty) == (0, F(3, 16) ** 19, False)


def _categories_text(k, linked):
    """k pairwise exclusive categories, and chain-8's conditionals over
    a0..a7 with the goal (a7 | a0): 256 projected atoms.  When `linked`,
    category i implies a(i mod 8)."""
    cats = [f"c{i:02d}" for i in range(k)]
    lines = ["basics: " + " ".join(cats + [f"a{i}" for i in range(8)])]
    for i, c in enumerate(cats):
        lines += [f"tax: {c} {d} -> false" for d in cats[i + 1:]]
        lines += [f"tax: {c} -> a{i % 8}"] * linked
    for i in range(7):
        lines += [f"prob: ( a{i + 1} | a{i} ) [ 0.1, 0.15 ]",
                  f"prob: ( a{i} | a{i + 1} ) [ 0.8, 1 ]"]
    return "\n".join(lines + ["query: ( a7 | a0 )"]) + "\n"


@pytest.mark.parametrize("k, linked, source", [
    (24, False, EliminationColumns), (16, True, list)],
    ids=["unlinked", "linked"])
def test_an_exclusion_clique_keeps_the_enumerated_answer(monkeypatch, k,
                                                         linked, source):
    # unlinked, no rule of the categories reaches the kept basics, so
    # elimination leaves them out, where their clique alone would need a
    # table of 2^24 entries; linked, one bucket holds the clique, a table
    # under the cap but wider than the 2^8 assignments to the kept basics,
    # so the atoms are enumerated.  Either way the answer is the enumerated
    # atoms' LP's, at once
    sources = []

    def spy(*args):
        sources.append(args[0])
        return solve_lp(*args)

    monkeypatch.setattr(oracle, "solve_lp", spy)
    parsed = parse_kb(_categories_text(k, linked))
    kb, goal = parsed.kb, parsed.queries[0]
    start = time.perf_counter()
    ans = tight_answer(kb, goal)
    assert time.perf_counter() - start < 1
    assert [type(s) for s in sources] == [source]
    f, e = goal
    system = build_atom_system(kb, relevant_mask(kb, goal))
    assert len(system.atom_masks) == 256
    assert (ans.lower, ans.upper) == solve_lp(
        system.indicator(conjoin(e, f)), system.active_rows(),
        system.indicator(e))


def test_elimination_reads_rules_that_reach_the_goal_through_others():
    # x2 holds and excludes x1, which x0 implies, so x0 is impossible,
    # though neither rule about x2 reads x0
    parsed = parse_kb("basics: x0 x1 x2\ntax: x0 -> x1\ntax: x1 x2 -> false\n"
                      "tax: true -> x2\nquery: ( x0 | true )\n")
    goal = parsed.queries[0]
    assert relevant_mask(parsed.kb, goal) == 1
    assert solve_lp(EliminationColumns(parsed.kb, goal, 8)) == (0, 0)


def test_elimination_refuses_a_wide_table_before_building_any():
    names = [f"x{i}" for i in range(40)]
    parsed = parse_kb(f"prob: ( {' '.join(names[1:])} | x0 ) [ 0.1, 0.9 ]\n"
                      "query: ( x1 | x0 )\n")
    start = time.perf_counter()
    with pytest.raises(AtomSpaceError,
                       match=r"2\^40 entries, more than 4194304"):
        EliminationColumns(parsed.kb, parsed.queries[0], DEFAULT_ATOM_CAP)
    assert time.perf_counter() - start < 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.data())
def test_elimination_pricer_matches_the_enumerated_atoms(seed, n, data):
    # the same LP (each enumerated atom's column), the same least reduced
    # cost under random weights, and the same answer, on KBs whose rules
    # have bottom heads or an empty lhs and whose goals may read basics no
    # conditional mentions
    rng = random.Random(seed)
    kb = _differential_kb(rng, n)
    names = list(kb.universe.names)
    event = st.one_of(st.just(BOTTOM), st.lists(
        st.sampled_from(names), max_size=n).map(conjunction))
    goals = [(data.draw(event), data.draw(event)) for _ in range(2)]
    for f, e in goals:
        system = build_atom_system(kb, keep=relevant_mask(kb, (f, e)))
        columns = EliminationColumns(kb, (f, e), 2 ** 22)
        dense = (system.indicator(conjoin(e, f)), system.active_rows(),
                 system.indicator(e))
        atoms = system.atom_masks
        assert columns.entries(atoms) == (
            dense[0], [list(row) for row in dense[1]], dense[2])
        weights = [rng.randint(-9, 9) for _ in range(len(dense[1]) + 2)]
        values = [sum(w * c for w, c in zip(weights, column))
                  for column in zip(dense[0], *dense[1], dense[2])]
        keys, priced = columns.price(
            weights[0], [-w for w in weights[1:-1]], weights[-1])
        if values and min(values) < 0:
            assert priced == [min(values)]
            assert values[atoms.index(keys[0])] == min(values)
        else:
            assert (keys, priced) == ([], [])
        assert solve_lp(columns) == solve_lp(*dense)
