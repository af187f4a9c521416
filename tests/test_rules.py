import ast
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from taxprob import (Interval, check_consistency, conjoin, conjunction,
                     parse_kb, render_kb)
from taxprob.chains import ChainPremise, Condition
from taxprob.oracle import tight_answer
from taxprob.intervals import UNIT
from taxprob.rules import (ALL_RULES, KNOWN_BOUND, RULE_NAMES, RULE_SLOTS,
                           SLOT_PART_INDEX, SLOT_PARTS, Operand,
                           _swap_slot, evaluate_slots)

import kernelgen
from helpers import (FIXTURES, GUARD_NAMES, apply_all, build_chain,
                     chain_flag, decode_guards, fraction_bound, kernel_args,
                     known_bound, load_row, pruned_reference, random_chain_kb,
                     row_kernels, rule_slots, swap_chain, unpruned_slots)

# published reference intervals, two decimals, by row and conditional slot;
# slots name the conclusion and premise as role combinations
EXPECTED = {
    "row_f": {
        ("B", "A"): (0.90, 0.95), ("A", "B"): (0.10, 0.15),
        ("C", "B"): (0.20, 0.25), ("B", "C"): (0.75, 0.80),
        ("C", "A"): (0.00, 0.10), ("A", "C"): (0.00, 0.07),
        ("B", "AC"): (0.00, 0.00), ("AC", "B"): (0.00, 0.00),
        ("C", "AB"): (0.00, 0.00), ("AB", "C"): (0.00, 0.00),
        ("A", "BC"): (0.00, 0.00), ("BC", "A"): (0.00, 0.00),
    },
    "row_g": {
        ("B", "A"): (0.60, 0.65), ("A", "B"): (0.30, 0.30),
        ("C", "B"): (0.30, 0.30), ("B", "C"): (0.75, 0.80),
        ("C", "A"): (0.75, 0.87), ("A", "C"): (1.00, 1.00),
        ("B", "AC"): (0.75, 0.80), ("AC", "B"): (0.30, 0.30),
        ("C", "AB"): (1.00, 1.00), ("AB", "C"): (0.75, 0.80),
        ("A", "BC"): (1.00, 1.00), ("BC", "A"): (0.60, 0.65),
    },
    "row_h": {
        ("B", "A"): (0.85, 0.88), ("A", "B"): (0.30, 0.35),
        ("C", "B"): (0.20, 0.25), ("B", "C"): (0.76, 0.80),
        ("C", "A"): (0.61, 0.75), ("A", "C"): (1.00, 1.00),
        ("B", "AC"): (0.76, 0.80), ("AC", "B"): (0.20, 0.25),
        ("C", "AB"): (0.57, 0.71), ("AB", "C"): (0.76, 0.80),
        ("A", "BC"): (1.00, 1.00), ("BC", "A"): (0.49, 0.60),
    },
    "row_i": {
        ("B", "A"): (0.90, 0.95), ("A", "B"): (0.30, 0.35),
        ("C", "B"): (0.20, 0.25), ("B", "C"): (0.75, 0.80),
        ("C", "A"): (0.51, 0.85), ("A", "C"): (0.75, 0.96),
        ("B", "AC"): (0.84, 1.00), ("AC", "B"): (0.20, 0.25),
        ("C", "AB"): (0.57, 0.83), ("AB", "C"): (0.75, 0.80),
        ("A", "BC"): (1.00, 1.00), ("BC", "A"): (0.51, 0.79),
    },
    "row_j": {
        ("B", "A"): (0.85, 0.88), ("A", "B"): (0.30, 0.35),
        ("C", "B"): (0.20, 0.25), ("B", "C"): (0.76, 0.80),
        ("C", "A"): (0.61, 0.75), ("A", "C"): (1.00, 1.00),
        ("B", "AC"): (0.76, 0.80), ("AC", "B"): (0.20, 0.25),
        ("C", "AB"): (0.57, 0.71), ("AB", "C"): (0.76, 0.80),
        ("A", "BC"): (1.00, 1.00), ("BC", "A"): (0.49, 0.60),
    },
    "row_k": {
        ("B", "A"): (0.85, 0.90), ("A", "B"): (0.30, 0.35),
        ("C", "B"): (0.20, 0.25), ("B", "C"): (0.75, 0.80),
        ("C", "A"): (0.00, 0.86), ("A", "C"): (0.00, 1.00),
        ("B", "AC"): (0.00, 1.00), ("AC", "B"): (0.00, 0.25),
        ("C", "AB"): (0.00, 0.83), ("AB", "C"): (0.00, 0.80),
        ("A", "BC"): (0.00, 1.00), ("BC", "A"): (0.00, 0.75),
    },
}

TOLERANCE = F(5, 1000)


def slot_events(roles, slot):
    a, b, c = roles
    by_role = {"A": a, "B": b, "C": c}
    concl = by_role[slot[0][0]]
    for r in slot[0][1:]:
        concl = conjoin(concl, by_role[r])
    prem = by_role[slot[1][0]]
    for r in slot[1][1:]:
        prem = conjoin(prem, by_role[r])
    return concl, prem


def row_output(name):
    kb, roles = load_row(name)
    chain = build_chain(kb, *roles)
    out = apply_all(chain)
    assert out.verdict.consistent
    return roles, {(c.conclusion, c.premise): c for c in out.conclusions}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_reference_tables_reproduced(name):
    roles, by_pair = row_output(name)
    for slot, (lo, hi) in EXPECTED[name].items():
        concl, prem = slot_events(roles, slot)
        got = by_pair[(concl, prem)]
        assert not got.empty, (name, slot)
        assert abs(got.interval.lo - F(lo).limit_denominator(100)) <= TOLERANCE, \
            (name, slot, "lower", got.interval.lo)
        assert abs(got.interval.hi - F(hi).limit_denominator(100)) <= TOLERANCE, \
            (name, slot, "upper", got.interval.hi)


def test_spot_values_exact():
    _, by_pair = row_output("row_g")
    a, b, c = (conjunction([n]) for n in "ABC")
    ca = by_pair[(c, a)]
    assert ca.interval == Interval.make(F(3, 4), F(13, 15))
    assert "u1/y2" in ca.lower_tags
    assert "u2x2/(v1y1)" in ca.upper_tags

    _, by_pair = row_output("row_h")
    assert by_pair[(c, a)].interval == Interval.make(F(17, 28), F(3, 4))
    cab = by_pair[(c, conjoin(a, b))]
    assert "x1/v2" in cab.lower_tags
    assert "y2(1-u1)/(u1(1-y2))" in cab.upper_tags

    _, by_pair = row_output("row_i")
    bac = by_pair[(b, conjoin(a, c))]
    assert "x1u1/(x1u1+v2(1-u1))" in bac.lower_tags

    _, by_pair = row_output("row_f")
    assert "1-u1" in by_pair[(c, a)].upper_tags


def test_row_j_equals_row_h_output():
    # the implicit structural entailment in row j carries exactly the
    # explicit taxonomic knowledge of row h
    roles_h, by_pair_h = row_output("row_h")
    roles_j, by_pair_j = row_output("row_j")
    for slot in EXPECTED["row_h"]:
        ch, ph = slot_events(roles_h, slot)
        cj, pj = slot_events(roles_j, slot)
        h = by_pair_h[(ch, ph)].interval
        j = by_pair_j[(cj, pj)].interval
        assert h == j, slot


def test_slot_table_shape():
    # every bound has an unconditional operand, so no guard combination
    # leaves a slot without a value
    for rule, slot, lower, upper, _ in RULE_SLOTS:
        for operands in (lower, upper):
            assert any(op.guard == "" for op in operands), (rule, slot)
    # seven rows and their mirrors cover the twelve slots of a chain whose
    # roles are distinct, once each after merging
    roles, by_pair = row_output("row_g")
    slots = {slot_events(roles, slot) for slot in EXPECTED["row_g"]}
    assert len(slots) == 12 and set(by_pair) == slots


def test_slot_part_index_covers_every_slot():
    # every slot the runner reports resolves to the positions of its two
    # part names in SLOT_PARTS
    assert set(SLOT_PART_INDEX) == set(EXPECTED["row_g"])
    for slot, (ci, pi) in SLOT_PART_INDEX.items():
        assert (SLOT_PARTS[ci], SLOT_PARTS[pi]) == slot


def test_sharpening_no_taxonomy_no_improvement():
    kb, roles = load_row("row_k")
    chain = build_chain(kb, *roles)
    (ba, ab) = rule_slots("sharpening", chain)
    assert (ba.interval.lo, ba.interval.hi) == (F(85, 100), F(90, 100))
    assert (ab.interval.lo, ab.interval.hi) == (F(30, 100), F(35, 100))


def test_chaining_collapses_when_c_equals_b():
    kb, (a, b, _) = load_row("row_k")
    chain = build_chain(kb, a, b, b)
    (ca,) = rule_slots("chaining", chain)
    assert (ca.interval.lo, ca.interval.hi) == (chain.u.lo, chain.u.hi)


def test_fusion_empty_case_for_false_product():
    kb, (a, b, c) = load_row("row_f")  # taxonomy forces ABC false
    chain = build_chain(kb, conjoin(a, b), c, c)
    # here the fusion premise is (A B) C, which the taxonomy forces false
    assert chain_flag(chain, "ac_false")
    results = rule_slots("fusion", chain)
    assert results[0].slot == ("B", "AC") and results[0].interval is None
    assert results[1].interval is not None


def test_inconsistent_chain_yields_no_conclusions():
    kb, roles = load_row("row_a")
    out = apply_all(build_chain(kb, *roles))
    assert out.conclusions == ()
    assert not out.verdict.consistent
    assert 7 in out.verdict.fired_conditions


def test_swapped_guard_example_row_h():
    kb, roles = load_row("row_h")
    chain = build_chain(kb, *roles)
    mirrored = decode_guards(swap_chain(chain).guards)
    assert mirrored.gamma and mirrored.epsilon
    assert not (mirrored.beta or mirrored.delta)


def test_bounds_ordered_on_consistent_chains():
    rng = random.Random(23)
    done = 0
    while done < 80:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        chain = build_chain(kb, a, b, c)
        out = apply_all(chain)
        if not out.verdict.consistent:
            continue
        done += 1
        for concl in out.conclusions:
            if not concl.empty:
                assert concl.interval.lo <= concl.interval.hi


def test_attained_tags_reference_live_operands():
    rng = random.Random(29)
    done = 0
    while done < 40:
        made = random_chain_kb(rng)
        if made is None:
            continue
        kb, a, b, c = made
        chain = build_chain(kb, a, b, c)
        out = apply_all(chain)
        if not out.verdict.consistent:
            continue
        done += 1
        for res in unpruned_slots(chain):
            if res.interval is not None:
                assert res.lower_tags and res.upper_tags


def _assert_locally_complete(kb, a, b, c):
    """Every conclusion of the chain (a, b, c) equals the tight answer over
    its own KB, and an empty conclusion (taxonomy-false premise) is exactly
    an empty answer.  Returns (consistent, empty conclusions)."""
    out = apply_all(build_chain(kb, a, b, c))
    if not out.verdict.consistent:
        return False, 0
    empties = 0
    for concl in out.conclusions:
        ans = tight_answer(kb, (concl.conclusion, concl.premise))
        where = (render_kb(kb), str(concl))
        if concl.empty:
            empties += 1
            assert ans.empty, where
        else:
            assert not ans.empty, where
            assert (ans.lower, ans.upper) == \
                (concl.interval.lo, concl.interval.hi), where
    return True, empties


# chains on which operands that random draws rarely need set their bound
# alone, so losing one breaks local completeness: the KB, the roles
# (A, B, C) as basic names, and the (lower, upper) tags of each witnessed
# slot.  The first two witness fusion operands that only the mirrored run
# supplied before it left the self-mirrored rows out; on the third, the
# sharpening operand u1x1(1-y2)/(y2(1-u1)) sets (A|B) to [81/140, 7/10];
# on the fourth (row f), the chaining operand u2(1-y1)min(x2,1-v1)/(v1y1)
# of the mirrored run sets (A|C) to [0, 1/15]; on the fifth, the chaining
# operand (1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1)) sets (C|A) to
# [0, 9/128].
OPERAND_WITNESSES = (
    ("basics: a b\n"
     "prob: ( a | true ) [ 13/20, 9/10 ]\n"
     "prob: ( b | a ) [ 0, 13/20 ]\n"
     "prob: ( a | b ) [ 1/2, 3/5 ]\n",
     ("b", "a", ""), {("B", "AC"): (("u1",), ("u2",))}),
    ("basics: b c\n"
     "prob: ( c | true ) [ 19/20, 19/20 ]\n"
     "prob: ( c | b ) [ 9/10, 9/10 ]\n"
     "prob: ( b | c ) [ 0, 1/2 ]\n",
     ("b", "c", ""),
     {("AC", "B"): (("0", "x1+v1-1", "v1"), ("u2x2(1-y1)/(y1(1-u2))",))}),
    ("basics: a b c\n"
     "prob: ( b | a ) [ 3/10, 17/20 ]\n"
     "prob: ( b | a c ) [ 1/10, 1/4 ]\n"
     "prob: ( a | b ) [ 3/10, 7/10 ]\n"
     "prob: ( a c | b ) [ 9/20, 7/10 ]\n",
     ("a", "b", "a c"),
     {("A", "B"): (("u1x1(1-y2)/(y2(1-u1))",), ("v2",))}),
    ((FIXTURES / "row_f.kb").read_text(encoding="utf-8"), ("A", "B", "C"),
     {("A", "C"): (("0",), ("u2(1-y1)min(x2,1-v1)/(v1y1)",))}),
    ("basics: a b c\n"
     "tax: a b c -> false\n"
     "prob: ( b | a ) [ 7/20, 19/20 ]\n"
     "prob: ( a | b ) [ 7/10, 4/5 ]\n"
     "prob: ( c | b ) [ 0, 7/10 ]\n"
     "prob: ( b | c ) [ 17/20, 17/20 ]\n",
     ("a", "b", "c"),
     {("C", "A"): (("0",),
                   ("(1-y1)min(x2,1-v1)/(v1y1+(1-y1)min(x2,1-v1))",))}),
)


def test_local_completeness_per_slot():
    # on a single consistent chain the rules are locally complete, on the
    # operand witnesses and on random chains
    for text, roles, tags in OPERAND_WITNESSES:
        kb = parse_kb(text).kb
        a, b, c = (conjunction(r.split()) for r in roles)
        assert {res.slot: (res.lower_tags, res.upper_tags)
                for res in unpruned_slots(build_chain(kb, a, b, c))
                if res.slot in tags} == tags
        assert _assert_locally_complete(kb, a, b, c) == (True, 0)
    rng = random.Random(7)
    draws = chains = empties = 0
    while draws < 200:
        made = random_chain_kb(rng)
        if made is None:
            continue
        draws += 1
        consistent, empty = _assert_locally_complete(*made)
        chains += consistent
        empties += empty
    assert chains >= 150 and empties > 0


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_local_completeness_per_slot_shrinks(rng):
    # the same property with hypothesis driving the draws, so a failing
    # chain KB shrinks to a small one
    made = None
    while made is None:
        made = random_chain_kb(rng)
    _assert_locally_complete(*made)


# -- the generated integer kernels against Fraction arithmetic ---------------

def _fraction_fired(chain):
    """Reference: the seven consistency conditions on Fraction bounds."""
    g = decode_guards(chain.guards)
    u1, u2, v1, v2 = chain.u.lo, chain.u.hi, chain.v.lo, chain.v.hi
    x1, x2, y1, y2 = chain.x.lo, chain.x.hi, chain.y.lo, chain.y.hi
    conditions = (
        g.gamma and g.delta and u2 < y1,
        g.beta and g.epsilon and u1 > y2,
        g.gamma and u2 * x2 * (1 - y1) < v1 * y1 * (1 - u2),
        g.beta and u1 * x1 * (1 - y2) > v2 * y2 * (1 - u1),
        g.epsilon and v1 > x2,
        g.delta and v2 < x1,
        g.alpha and x1 + v1 > 1,
    )
    return frozenset(i for i, fired in enumerate(conditions, 1) if fired)


# bounds of 0 and 1, small denominators (so equal values and tag ties are
# common), and denominators of more than 30 digits
_BOUND = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 20).flatmap(
        lambda d: st.integers(0, d).map(lambda n: F(n, d))),
    st.integers(10 ** 31, 10 ** 40).flatmap(
        lambda d: st.integers(0, d).map(lambda n: F(n, d))),
)


@st.composite
def _intervals(draw):
    lo, hi = sorted((draw(_BOUND), draw(_BOUND)))
    if draw(st.booleans()):
        hi = lo
    return Interval.make(lo, hi)


_ROLES = tuple(conjunction([n]) for n in "ABC")


@settings(max_examples=50, deadline=None)
@given(st.lists(_intervals(), min_size=4, max_size=4), st.integers(0, 7))
def test_ratio_evaluation_matches_fractions(bounds, false_flags):
    # all 64 guard combinations under one drawn set of product-false flags
    for bits in range(false_flags << 6, false_flags + 1 << 6):
        chain = ChainPremise(*_ROLES, *bounds, bits)
        assert dict(zip(GUARD_NAMES, chain.kernel_args[16:])) == \
            vars(decode_guards(bits))
        # the layout the chain builds once is the kernels' parameter order
        assert chain.kernel_args == kernel_args(chain)

        fired = _fraction_fired(chain)
        verdict = check_consistency(chain)
        assert verdict.fired_conditions == fired
        assert verdict.consistent == (not fired)

        # every kernel on the chain and on its mirror against the operand
        # text evaluated on Fractions
        for run in (chain, swap_chain(chain)):
            args = kernel_args(run)[:len(kernelgen.PARAMS)]
            for rule, slot, lower, upper, _ in RULE_SLOTS:
                kernels = row_kernels(rule, slot)
                for operands, kernel, maximize in ((lower, kernels[0], True),
                                                   (upper, kernels[1], False)):
                    n, d, tags = kernel(*args)
                    ref = fraction_bound(operands, run, maximize)
                    assert d > 0 and (F(n, d), tags) == ref, \
                        (kernel.__name__, bits)
        # the generated runner against the pruned reference
        expected = pruned_reference(chain)
        if any(not 0 <= lo <= hi <= 1 for _, (lo, hi), *_ in expected):
            # bounds no chain of a coherent KB has; the rules then make
            # no interval
            with pytest.raises(ValueError):
                evaluate_slots(chain)
            continue
        assert _by_value(evaluate_slots(chain)) == expected


def _by_value(results):
    """Slot results as `helpers.pruned_reference` lists them."""
    return [(res.slot, (res.interval.lo, res.interval.hi), res.rule,
             res.lower_tags, res.upper_tags) for res in results]


def test_evaluate_slots_matches_the_pruned_reference_on_random_chains():
    # consistent random chains with every combination of product-false
    # flags (which empty the partial rows' premises) set on top of their
    # own, and a random rule subset each: the runners keep the reference's
    # results, in its order (a flag is only ever set: a row run on a
    # premise that is taxonomy-false makes no interval)
    rng = random.Random(31)
    done = 0
    subsets = set()
    while done < 150:
        made = random_chain_kb(rng)
        if made is None:
            continue
        chain = build_chain(*made)
        if not check_consistency(chain).consistent:
            continue
        done += 1
        for extra in range(8):
            guards = chain.guards | extra << 6
            variant = ChainPremise(chain.a, chain.b, chain.c, chain.u,
                                   chain.v, chain.x, chain.y, guards)
            enabled = frozenset(rule for rule in RULE_NAMES
                                if rng.random() < 0.5) or ALL_RULES
            subsets.add(enabled)
            assert _by_value(evaluate_slots(variant, enabled)) == \
                pruned_reference(variant, enabled), (guards, enabled)
    assert len(subsets) == 15


def test_known_bound_table_covers_every_slot():
    # the runner reports each of the twelve slots once, and each has a
    # known bound
    slots = [row[1] for row in kernelgen.runner_rows()]
    assert len(slots) == len(set(slots)) == 12
    assert set(slots) == set(KNOWN_BOUND) == set(SLOT_PART_INDEX)


@settings(max_examples=25, deadline=None)
@given(st.lists(_intervals(), min_size=4, max_size=4))
def test_self_mirrored_rows_equal_their_mirror(bounds):
    # the runner runs a row whose slot is its own mirror on the chain only:
    # on the mirrored chain the row would run under the same product-false
    # flag, against the same known bound, and give the same values
    rows = [row for row in RULE_SLOTS if _swap_slot(row[1]) == row[1]]
    assert rows
    for bits in range(512):
        chain = ChainPremise(*_ROLES, *bounds, bits)
        mirror = swap_chain(chain)
        for _, slot, lower, upper, false_premise in rows:
            if false_premise is not None:
                assert (chain_flag(mirror, false_premise)
                        == chain_flag(chain, false_premise))
            assert known_bound(mirror, slot) == known_bound(chain, slot)
            for operands, maximize in ((lower, True), (upper, False)):
                value, _ = fraction_bound(operands, chain, maximize)
                mirrored, _ = fraction_bound(operands, mirror, maximize)
                assert value == mirrored, (slot, maximize, bits)


# the slots whose target is the pair a chain input was read from, and the
# slots whose taxonomy-forced [1, 1] the chain's flags cannot tell from [0, 1]
INPUT_SLOTS = {("B", "A"): "u", ("A", "B"): "v", ("C", "B"): "x",
               ("B", "C"): "y"}
UNDECIDED_SLOTS = {("AC", "B"), ("AB", "C"), ("BC", "A")}


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pruned_slot_results_contain_a_known_bound(seed):
    # on a consistent chain, `evaluate_slots` leaves a row's result out only
    # when it is an empty answer, or contains the taxonomy-forced interval
    # of its slot's events, or on an input slot the chain's own input; it
    # keeps every other result, in row order, and the ones it keeps can
    # still tighten a bound
    drawn = random_chain_kb(random.Random(seed))
    if drawn is None:
        return
    kb, a, b, c = drawn
    chain = build_chain(kb, a, b, c)
    if not check_consistency(chain).consistent:
        return
    results = unpruned_slots(chain)
    kept = evaluate_slots(chain)
    assert list(kept) == [res for res in results if res in kept]
    def contains(outer, inner):
        return outer.lo <= inner.lo and inner.hi <= outer.hi

    for res in results:
        iv = res.interval
        forced = kb.canonical_taxonomic(*slot_events((a, b, c), res.slot))
        own = INPUT_SLOTS.get(res.slot)
        known = iv is None or contains(iv, forced) or (
            own is not None and contains(iv, getattr(chain, own)))
        if res not in kept:
            assert known, res
            continue
        assert iv is not None and iv is not UNIT, res
        if not (res.slot in UNDECIDED_SLOTS and forced.lo == 1):
            assert not known, res


def test_kernels_module_is_generated():
    # the committed kernels are what the generator makes of RULE_SLOTS, and
    # the runner calls two kernels for each of the twelve slots
    text = kernelgen.TARGET.read_text(encoding="utf-8")
    assert kernelgen.render() == text
    (run_rows,) = (node for node in ast.parse(text).body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "run_rows")
    calls = [node.func.id for node in ast.walk(run_rows)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id != "record"]
    assert len(calls) == 24


def test_generated_division_sign_and_zero():
    # a quotient's denominator is made positive, and a zero one raises
    namespace = {}
    exec(kernelgen.kernel("k", (Operand("", "u1/v1"),), True),
         namespace)
    k = namespace["k"]
    args = [0] * len(kernelgen.PARAMS)
    u1n, u1d, v1n, v1d = (kernelgen.PARAMS.index(p)
                          for p in ("u1n", "u1d", "v1n", "v1d"))
    args[u1n], args[u1d], args[v1n], args[v1d] = 1, 2, -1, 4
    n, d, tags = k(*args)
    assert d > 0 and F(n, d) == -2 and tags == ("u1/v1",)
    args[v1n] = 0
    with pytest.raises(ZeroDivisionError):
        k(*args)


@pytest.mark.parametrize("operands", [
    (Operand("", "u1**2"),),
    (Operand("", "abs(u1)"),),
    (Operand("", "w1"),),
    (Operand("pos(w1)", "u1"), Operand("", "0")),
    (Operand("alpha or beta", "u1"), Operand("", "0")),
    (Operand("", "min(x2,  1-v1)"),),
    (Operand("delta", "u1"),),
])
def test_generator_rejects_text_outside_the_grammar(operands):
    # a formula with whitespace other than one space after a comma would
    # give its tag a stray space; the last case has no unconditional
    # operand
    with pytest.raises(ValueError):
        kernelgen.kernel("k", operands, True)


@pytest.mark.parametrize("guard, test", [
    ("", "u2 <= y1"),
    ("", "u2 == y1"),
    ("", "u2 < y1 < x1"),
    ("", "w1 > x2"),
    ("alpha or beta", "u2 < y1"),
])
def test_condition_generator_rejects_text_outside_the_grammar(guard, test):
    with pytest.raises(ValueError):
        kernelgen.conditions_kernel("k", (Condition(guard, test, "B"),))
