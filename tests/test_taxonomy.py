import random

from hypothesis import given, settings, strategies as st

from taxprob import (BOTTOM, TOP, TaxonomicFormula, TaxonomyStore, Universe,
                     conjunction, normalize_event)

from helpers import decode_guards, load_row, random_store, swap_guards


def store_over(names, *formulas):
    u = Universe(names)
    built = [TaxonomicFormula(normalize_event(lhs.split()),
                              normalize_event(rhs.split()))
             for lhs, rhs in formulas]
    return TaxonomyStore(u, built)


def name_mask(store, names):
    """Bitmask of a set of names; `closure_mask` maps masks to masks, with
    falsum as -1 (a mask that contains every mask)."""
    index = store.universe.index
    return sum(1 << index[n] for n in set(names))


def test_closure_fires_rules():
    s = store_over(["A", "B", "C"], ("C", "A"), ("A B", "C"))
    assert (s.closure_mask(name_mask(s, ["A", "B"]))
            == name_mask(s, ["A", "B", "C"]))
    assert s.closure_mask(name_mask(s, ["C"])) == name_mask(s, ["A", "C"])


def test_closure_ex_falso():
    s = store_over(["A", "B", "C"], ("A B C", "false"))
    reached = s.closure_mask(name_mask(s, ["A", "B", "C"]))
    assert reached == -1
    assert not name_mask(s, ["A", "B", "C"]) & ~reached  # everything follows
    assert s.closure_mask(name_mask(s, ["A", "B"])) == name_mask(s, ["A", "B"])


def test_entails_examples():
    empty = store_over(["A", "B", "C"])
    assert empty.entails(conjunction(["A", "C"]), conjunction(["A"]))
    s = store_over(["A", "B", "C"], ("C", "A"))
    assert s.entails(conjunction(["B", "C"]), conjunction(["A"]))
    s2 = store_over(["A", "B", "C"], ("A B", "false"))
    assert s2.entails(conjunction(["A", "B"]), conjunction(["C"]))


def test_entails_bottom_and_top_edges():
    s = store_over(["A", "B"])
    assert s.entails(BOTTOM, conjunction(["A"]))
    assert s.entails(conjunction(["A"]), TOP)
    assert not s.entails(conjunction(["A"]), BOTTOM)


def test_forces_false():
    s = store_over(["A", "B", "C"], ("A B C", "false"))
    assert s.forces_false(conjunction(["A", "B", "C"]))
    assert not s.forces_false(conjunction(["A", "B"]))
    assert s.forces_false(BOTTOM)


def test_tautological_formulas_are_inert():
    s = store_over(["A", "B"], ("false", "A"), ("A", "true"))
    assert s.closure_mask(name_mask(s, ["B"])) == name_mask(s, ["B"])
    assert not s.forces_false(conjunction(["A"]))


def test_guard_flags_row_g():
    kb, (a, b, c) = load_row("row_g")
    flags = decode_guards(kb.taxonomy.guard_flags(a, b, c))
    assert (flags.beta, flags.delta, flags.epsilon) == (True, True, True)
    assert not (flags.alpha or flags.gamma or flags.zeta)


def test_guard_flags_row_j_structural():
    kb, (a, b, c) = load_row("row_j")
    flags = decode_guards(kb.taxonomy.guard_flags(a, b, c))
    assert flags.beta and flags.delta
    assert not (flags.alpha or flags.gamma or flags.epsilon or flags.zeta)


def test_guard_flags_row_k_all_clear():
    kb, (a, b, c) = load_row("row_k")
    assert kb.taxonomy.guard_flags(a, b, c) == 0


seeds = st.lists(st.sampled_from(["e0", "e1", "e2", "e3"]), max_size=4)


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6), seeds, seeds)
def test_closure_hull_laws(seed, s1, s2):
    rng = random.Random(seed)
    store, universe, names = random_store(rng, 4)
    m1 = name_mask(store, s1)
    m2 = name_mask(store, s2)
    every = name_mask(store, names)
    r1 = store.closure_mask(m1)
    # a closure is a name mask, or -1 for falsum
    assert r1 == -1 or 0 <= r1 <= every
    # extensive
    assert not m1 & ~r1
    # idempotent (falsum reaches every name, whose closure is falsum again)
    again = store.closure_mask(every if r1 < 0 else r1)
    assert again == r1
    # monotone
    joint = store.closure_mask(m1 | m2)
    assert not r1 & ~joint
    if r1 < 0:
        assert joint < 0


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_guard_implications(seed):
    # entailment is preserved when premises gain conjuncts, so beta implies
    # delta and gamma implies epsilon
    rng = random.Random(seed)
    store, universe, names = random_store(rng, 4)
    evs = [conjunction(rng.sample(names, rng.randint(1, 3))) for _ in range(3)]
    flags = decode_guards(store.guard_flags(*evs))
    assert not flags.beta or flags.delta
    assert not flags.gamma or flags.epsilon


def test_guard_swap_remap():
    rng = random.Random(11)
    for _ in range(50):
        store, universe, names = random_store(rng, 4)
        a, b, c = (conjunction(rng.sample(names, rng.randint(1, 2)))
                   for _ in range(3))
        fwd = store.guard_flags(a, b, c)
        rev = store.guard_flags(c, b, a)
        assert swap_guards(fwd) == rev
        assert swap_guards(swap_guards(fwd)) == fwd


def _event_strategy(names):
    return st.one_of(
        st.just(BOTTOM),
        st.lists(st.sampled_from(names), max_size=len(names)).map(conjunction))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.data())
def test_mask_taxonomy_agrees_with_consistent_atoms(seed, n, data):
    # g -> h holds iff every consistent atom that implies g also implies h
    # (entails_bruteforce enumerates them with enumerate_atom_masks)
    from taxprob import KnowledgeBase, conjoin
    from taxprob.intervals import POINT_ONE, POINT_ZERO, UNIT
    from helpers import entails_bruteforce

    rng = random.Random(seed)
    store, universe, names = random_store(rng, n)

    def entails(g, h):
        return entails_bruteforce(store, g, h)

    def forces_false(g):
        return entails_bruteforce(store, g, BOTTOM)

    a, b, c = (data.draw(_event_strategy(names)) for _ in range(3))
    for g in (a, b, c, TOP, BOTTOM):
        assert store.forces_false(g) == forces_false(g)
        for h in (a, b, c, TOP, BOTTOM):
            assert store.entails(g, h) == entails(g, h)

    ab, bc, ac = conjoin(a, b), conjoin(b, c), conjoin(a, c)
    flags = decode_guards(store.guard_flags(a, b, c))
    assert flags.alpha == forces_false(conjoin(ab, c))
    assert flags.beta == entails(c, a)
    assert flags.gamma == entails(a, c)
    assert flags.delta == entails(bc, a)
    assert flags.epsilon == entails(ab, c)
    assert flags.zeta == entails(ac, b)
    assert flags.ab_false == forces_false(ab)
    assert flags.ac_false == forces_false(ac)
    assert flags.bc_false == forces_false(bc)

    kb = KnowledgeBase(universe, store, [])
    for concl, prem in ((a, b), (b, c), (c, a), (ab, c), (a, TOP)):
        expected = (POINT_ZERO if forces_false(conjoin(prem, concl))
                    else POINT_ONE if entails(prem, concl) else UNIT)
        assert kb.canonical_taxonomic(concl, prem) is expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_closure_memo_agrees_with_the_unmemoized_closure(seed, n):
    # closure_mask is the memo's own lookup: a mask's first read stores
    # compute_closure's answer as one new entry, a repeated read stores
    # nothing, and falsum (-1) is in the memo from the start
    rng = random.Random(seed)
    store, universe, names = random_store(rng, n)
    memo = store._closure_memo
    assert memo == {-1: -1}
    for mask in range(2 ** n):
        before = len(memo)
        assert store.closure_mask(mask) == store.compute_closure(mask)
        assert len(memo) == before + 1
        assert store.closure_mask(mask) == store.compute_closure(mask)
        assert len(memo) == before + 1
    before = len(memo)
    assert store.closure_mask(-1) == store.compute_closure(-1) == -1
    assert len(memo) == before
