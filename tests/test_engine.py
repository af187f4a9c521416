import random
from fractions import Fraction as F

import pytest

from taxprob import (BOTTOM, TOP, Interval, KnowledgeBase,
                     ProbabilisticFormula, TaxonomicFormula, TaxonomyStore,
                     Universe, conjoin, conjunction)
from taxprob.engine import (EngineConfig, local_query, saturate, seed_state,
                            survey_chains, trace_slice)
from taxprob.errors import CoherenceError
from taxprob.oracle import tight_answer

from helpers import load_fixture, load_row, mutex_kb, random_small_kb

CHAIN_ONLY = EngineConfig(enabled_rules=frozenset({"chaining"}))


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(enabled_rules=frozenset())
    with pytest.raises(ValueError):
        EngineConfig(enabled_rules=frozenset({"sharpening", "mystery"}))
    with pytest.raises(ValueError):
        EngineConfig(pool_policy="everything")


def test_seeding_examples():
    kb = load_fixture("row_h").kb
    state = seed_state(kb)
    a, b = conjunction(["A"]), conjunction(["B"])
    # asserted bounds appear verbatim
    assert state.get_interval(b, a) == Interval.make(F(85, 100), F(90, 100))
    # taxonomy-forced pairs read as canonical defaults
    assert state.get_interval(a, conjunction(["C"])) == Interval.make(1, 1)
    # everything else is vacuous
    assert state.get_interval(conjunction(["C"]), a) == Interval.make(0, 1)


def test_seeding_intersects_duplicates():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [
        ProbabilisticFormula(b, a, Interval.make(F(2, 10), F(6, 10))),
        ProbabilisticFormula(b, a, Interval.make(F(4, 10), F(9, 10)))])
    state = seed_state(kb)
    assert state.get_interval(b, a) == Interval.make(F(4, 10), F(6, 10))


def test_pool_policies():
    kb = load_fixture("row_k").kb
    plain = seed_state(kb, EngineConfig(pool_policy="kb-events"))
    assert {str(e) for e in plain.pool} == {"true", "A", "B", "C"}
    rich = seed_state(kb, EngineConfig())
    assert conjunction(["A", "B"]) in rich.pool
    assert conjunction(["A", "B", "C"]) not in rich.pool  # single product level


def test_pool_cap_is_respected():
    kb, _, _ = mutex_kb(40)
    state = seed_state(kb, EngineConfig(pool_cap=64))
    assert len(state.pool) >= 64  # base events always kept
    # taxonomy-false products are excluded from chain roles
    assert all(not kb.taxonomy.forces_false(e) for e in state.role_pool)


def test_medical_reduced_query():
    parsed = load_fixture("medical_reduced")
    ans = local_query(parsed.kb, parsed.queries[0])
    assert (ans.lower, ans.upper) == (F(4, 5), F(1))
    assert any(step.rule == "chaining" for step in ans.trace)
    oracle = tight_answer(parsed.kb, parsed.queries[0])
    assert (oracle.lower, oracle.upper) == (F(4, 5), F(1))


def test_medical_full_query_local():
    parsed = load_fixture("medical")
    ans = local_query(parsed.kb, parsed.queries[0])
    assert (ans.lower, ans.upper) == (F(4, 5), F(1))


def test_chain4_fixture_values():
    parsed = load_fixture("chain4")
    goal = parsed.queries[0]
    ans = local_query(parsed.kb, goal, CHAIN_ONLY)
    assert ans.upper == F(9261, 10240)  # 0.90439453125
    assert F(9040, 10000) <= ans.upper <= F(9045, 10000)
    oracle = tight_answer(parsed.kb, goal)
    assert oracle.upper == F(27, 4096)
    assert F(65, 10000) <= oracle.upper <= F(75, 10000)
    # the derivation passes through the intermediate two-step link
    b2, b4 = conjunction(["B2"]), conjunction(["B4"])
    state = seed_state(parsed.kb, CHAIN_ONLY, queries=[goal])
    saturate(state)
    assert state.get_interval(b4, b2).hi == F(9, 256)  # 0.03515625


def test_mutual_exclusion_n10():
    kb, evs, names = mutex_kb(10)
    goal = (evs[names[0]], TOP)
    ans = local_query(kb, goal)
    assert (ans.lower, ans.upper) == (F(1, 10), F(9, 10))
    oracle = tight_answer(kb, goal)
    assert (oracle.lower, oracle.upper) == (F(1, 10), F(1, 10))


def test_self_conditional_needs_no_trace():
    kb = load_fixture("row_k").kb
    a = conjunction(["A"])
    ans = local_query(kb, (a, a))
    assert (ans.lower, ans.upper) == (F(1), F(1))
    assert ans.trace == ()


def test_empty_answer_for_taxonomy_false_premise():
    u = Universe(["a", "b"])
    a, b = conjunction(["a"]), conjunction(["b"])
    kb = KnowledgeBase(u, TaxonomyStore(u, [TaxonomicFormula(a, BOTTOM)]), [])
    ans = local_query(kb, (b, a))
    assert ans.empty


def test_incoherent_kb_rejected():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, b)])
    kb = KnowledgeBase(u, tax, [
        ProbabilisticFormula(b, a, Interval.make(F(9, 10), 1))])
    with pytest.raises(CoherenceError):
        local_query(kb, (b, a))
    # the override still runs
    ans = local_query(kb, (b, a), check_coherence=False)
    assert ans.upper == 1


def test_saturation_is_monotone_and_deterministic():
    parsed = load_fixture("chain4")
    runs = []
    for _ in range(2):
        state = seed_state(parsed.kb, CHAIN_ONLY, queries=parsed.queries)
        saturate(state)
        runs.append(state)
        for step in state.trace:
            assert step.old.contains(step.new)
            assert step.new != step.old
    assert runs[0].intervals == runs[1].intervals
    assert [str(s) for s in runs[0].trace] == [str(s) for s in runs[1].trace]
    assert runs[0].stop_reason == "fixpoint"


def test_max_sweeps_stop():
    parsed = load_fixture("chain4")
    state = seed_state(parsed.kb, EngineConfig(enabled_rules=frozenset({"chaining"}),
                                               max_sweeps=1),
                       queries=parsed.queries)
    saturate(state)
    assert state.sweeps_run == 1
    assert state.stop_reason == "max-sweeps"


def test_trace_slice_is_minimal_and_sufficient():
    parsed = load_fixture("chain4")
    goal = parsed.queries[0]
    state = seed_state(parsed.kb, CHAIN_ONLY, queries=[goal])
    saturate(state)
    goal_key = (goal[0].uid, goal[1].uid)
    steps = trace_slice(state.trace, goal_key)
    assert steps
    assert steps[-1].produced_key == goal_key
    produced = {s.produced_key for s in steps}
    # every step is on a path to the goal: its output pair is the goal's or
    # feeds a later kept step
    for i, step in enumerate(steps):
        if step.produced_key == goal_key:
            continue
        assert any(step.produced_key in later.input_keys
                   for later in steps[i + 1:])
    assert produced <= {s.produced_key for s in state.trace}


def test_engine_soundness_on_fixtures():
    rng = random.Random(3)
    for name in ("bird", "medical_reduced", "chain4", "row_f", "row_g",
                 "row_h", "row_i", "row_j", "row_k"):
        kb = load_fixture(name).kb
        state = seed_state(kb)
        pool_names = [e for e in state.pool if not e.is_bottom]
        for _ in range(6):
            f = rng.choice(pool_names)
            e = rng.choice(pool_names)
            local = local_query(kb, (f, e))
            oracle = tight_answer(kb, (f, e))
            if oracle.empty:
                continue
            assert local.lower <= oracle.lower <= oracle.upper <= local.upper, \
                (name, str(f), str(e))


def test_engine_soundness_on_random_kbs():
    from taxprob.errors import ProbabilisticConflictError
    from taxprob.oracle import max_event_probability

    rng = random.Random(41)
    done = 0
    while done < 25:
        kb = random_small_kb(rng)
        if kb is None:
            continue
        done += 1
        names = list(kb.universe.names)
        for _ in range(5):
            f = conjunction(rng.sample(names, rng.randint(1, len(names))))
            e = conjunction(rng.sample(names, rng.randint(1, len(names))))
            try:
                local = local_query(kb, (f, e))
            except ProbabilisticConflictError:
                # two sound derivations met in an empty intersection: the KB
                # must force some asserted premise to probability zero (the
                # situation the rules' contract excludes)
                assert any(max_event_probability(kb, fm.premise) in (None, 0)
                           for fm in kb.probabilistic)
                continue
            oracle = tight_answer(kb, (f, e))
            if oracle.empty:
                continue
            assert local.lower <= oracle.lower
            assert oracle.upper <= local.upper


def test_survey_chains_reports_fired_conditions():
    kb = load_fixture("row_a").kb
    findings = survey_chains(kb)
    roles = {str(d.a) for d in findings} | {str(d.c) for d in findings}
    fired = set()
    for d in findings:
        fired |= d.verdict.fired_conditions
    assert 7 in fired
    assert any("B" in (str(d.a), str(d.b), str(d.c)) for d in findings)
    # consistent fixtures produce no findings
    assert survey_chains(load_fixture("row_g").kb) == []


@pytest.mark.parametrize("name", ["row_k", "row_f", "medical_reduced"])
def test_fixpoint_stop_when_links_run_out(name):
    # the last sweep improves only pairs that link no role events, so no
    # candidate chain is left although the budget is not used up
    parsed = load_fixture(name)
    state = seed_state(parsed.kb, EngineConfig(pool_policy="kb-events"),
                       queries=parsed.queries)
    saturate(state)
    assert state.sweeps_run < state.config.max_sweeps
    assert state.stop_reason == "fixpoint"
