import random

import pytest
from hypothesis import given, settings, strategies as st

from taxprob import (BOTTOM, TOP, Universe, UnknownEventError, conjoin,
                     conjunction, enumerate_atom_masks, mask_implies,
                     normalize_event)
from taxprob.errors import AtomSpaceError
from taxprob.taxonomy import TaxonomicFormula, TaxonomyStore

from helpers import mutex_kb, random_rules

names = st.sampled_from(["a", "b", "c", "d"])
events = st.one_of(
    st.just(BOTTOM),
    st.lists(names, min_size=0, max_size=4).map(conjunction),
)


def test_normalize_collapses_duplicates():
    assert normalize_event(["A", "A", "B"]) == conjunction(["A", "B"])


def test_normalize_false_absorbs():
    assert normalize_event(["false", "A"]) is BOTTOM
    assert normalize_event(["A", "false"]) is BOTTOM


def test_normalize_true_is_neutral():
    assert normalize_event(["true"]) is TOP
    assert normalize_event(["true", "A"]) == conjunction(["A"])


def test_normalize_rejects_unknown_names_with_universe():
    u = Universe(["A", "B"])
    with pytest.raises(UnknownEventError):
        normalize_event(["A", "Z"], u)


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_event([])


def test_conjunction_is_canonically_ordered():
    assert conjunction(["b", "a"]).names == ("a", "b")
    assert str(conjunction(["b", "a"])) == "a b"
    assert conjunction(["a", "b"]) is conjunction(["b", "a", "a"])


def test_conjoin_examples():
    a = conjunction(["A"])
    ac = conjunction(["A", "C"])
    assert conjoin(a, ac) is ac
    assert conjoin(BOTTOM, conjunction(["B"])) is BOTTOM
    assert conjoin(TOP, conjunction(["C"])) == conjunction(["C"])


@given(events, events, events)
def test_conjoin_algebra(c, d, e):
    assert conjoin(c, d) is conjoin(d, c)
    assert conjoin(c, c) is c
    assert conjoin(conjoin(c, d), e) is conjoin(c, conjoin(d, e))
    assert conjoin(c, TOP) is c
    assert conjoin(c, BOTTOM) is BOTTOM


def test_mask_implies_examples():
    u = Universe(["A", "B", "C"])
    atom = 0b101  # A and C positive, B negative
    assert mask_implies(atom, u.mask_of(conjunction(["A", "C"])))
    assert not mask_implies(atom, u.mask_of(conjunction(["A", "B"])))
    assert mask_implies(atom, u.mask_of(TOP))
    assert not mask_implies(atom, u.mask_of(BOTTOM))


@given(st.integers(0, 7), events, events)
def test_mask_implies_distributes_over_conjoin(mask, g, h):
    u = Universe(["a", "b", "c"])
    ok = all(n in u.index for n in g.names) and all(n in u.index for n in h.names)
    if not ok:
        return
    assert mask_implies(mask, u.mask_of(conjoin(g, h))) == (
        mask_implies(mask, u.mask_of(g)) and mask_implies(mask, u.mask_of(h)))


def test_enumerate_atom_masks_counts():
    assert len(list(enumerate_atom_masks(Universe(["a", "b"])))) == 4
    assert len(list(enumerate_atom_masks(Universe(["a", "b", "c"])))) == 8


def test_enumerate_atom_masks_pairwise_exclusion_n10():
    kb, _, _ = mutex_kb(10)
    atoms = list(enumerate_atom_masks(kb.universe, kb.taxonomy))
    # brute-force expectation: at most one positive sign per atom
    expected = [m for m in range(2 ** 10) if bin(m).count("1") <= 1]
    assert sorted(atoms) == expected
    assert len(atoms) == 11


def test_enumerate_atom_masks_cap():
    u = Universe([f"x{i}" for i in range(8)])
    with pytest.raises(AtomSpaceError):
        list(enumerate_atom_masks(u, cap=100))


def test_pruned_enumeration_equals_filtered_enumeration():
    # pruning must yield exactly the unpruned atoms passing the rule check
    import random
    rng = random.Random(5)
    for trial in range(20):
        n = rng.randint(2, 6)
        names = [f"x{i}" for i in range(n)]
        u = Universe(names)
        formulas = []
        for _ in range(rng.randint(0, 4)):
            lhs = conjunction(rng.sample(names, rng.randint(1, 2)))
            rhs = (BOTTOM if rng.random() < 0.3
                   else conjunction(rng.sample(names, rng.randint(1, 2))))
            formulas.append(TaxonomicFormula(lhs, rhs))
        store = TaxonomyStore(u, formulas)
        pruned = set(enumerate_atom_masks(u, store))

        def consistent(mask):
            for fm in store.formulas:
                lm = u.mask_of(fm.lhs)
                rm = u.mask_of(fm.rhs)
                # bottom's mask, -1, is implied by no atom
                if lm & ~mask == 0 and rm & ~mask != 0:
                    return False
            return True

        unpruned = {m for m in range(2 ** n) if consistent(m)}
        assert pruned == unpruned


def test_atoms_stream_in_deterministic_order():
    u = Universe(["a", "b", "c"])
    masks = list(enumerate_atom_masks(u))
    assert masks == sorted(masks)


def _closed(store, mask):
    u = store.universe
    for fm in store.formulas:
        lm, rm = u.mask_of(fm.lhs), u.mask_of(fm.rhs)
        if lm & ~mask == 0 and rm & ~mask:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
def test_projected_enumeration_is_the_projection_of_the_full_one(seed, n, data):
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    u = Universe(names)
    store = TaxonomyStore(u, random_rules(rng, names))
    everything = (1 << n) - 1
    full = list(enumerate_atom_masks(u, store))
    # the default keep yields every consistent atom once, in increasing order
    assert full == [m for m in range(1 << n) if _closed(store, m)]
    assert list(enumerate_atom_masks(u, store, keep=everything)) == full
    keep = data.draw(st.integers(0, everything))
    expected = sorted({m & keep for m in full})
    assert list(enumerate_atom_masks(u, store, keep=keep)) == expected
    assert list(enumerate_atom_masks(u, keep=keep)) == \
        sorted({m & keep for m in range(1 << n)})
