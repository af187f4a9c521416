import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from taxprob import (BOTTOM, TOP, Interval, KnowledgeBase,
                     ProbabilisticFormula, TaxonomicFormula, TaxonomyStore,
                     Universe, conjunction)
from taxprob import engine
from taxprob.engine import (POOL_CAP, POOL_POLICIES, EngineConfig,
                            local_query, saturate, seed_state, survey_chains,
                            trace_slice)
from taxprob.errors import CoherenceError, ProbabilisticConflictError
from taxprob.oracle import tight_answer
from taxprob.rules import ALL_RULES, RULE_NAMES

from helpers import (FIXTURES, _candidate_triples, build_chain,
                     candidate_survey, chain_fields, chain_kb, load_fixture,
                     max_event_probability, mutex_kb, random_chain_kb,
                     random_small_kb, stored_by_name, stored_pairs)

CHAIN_ONLY = EngineConfig(enabled_rules=frozenset({"chaining"}))


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(enabled_rules=frozenset())
    with pytest.raises(ValueError):
        EngineConfig(enabled_rules=frozenset({"sharpening", "mystery"}))
    with pytest.raises(ValueError):
        EngineConfig(pool_policy="everything")


def test_a_replaced_config_is_validated_too():
    assert EngineConfig()._replace(max_sweeps=7).max_sweeps == 7
    with pytest.raises(ValueError):
        EngineConfig()._replace(max_sweeps=0)
    with pytest.raises(ValueError):
        EngineConfig._make([frozenset(), "kb-events", 1])


def test_seeding_examples():
    kb = load_fixture("row_h").kb
    state = seed_state(kb)
    a, b = conjunction(["A"]), conjunction(["B"])
    # asserted bounds appear verbatim
    assert state.bounds[b, a] == Interval.make(F(85, 100), F(90, 100))
    # taxonomy-forced pairs read as canonical defaults
    assert state.bounds[a, conjunction(["C"])] == Interval.make(1, 1)
    # everything else is vacuous
    assert state.bounds[conjunction(["C"]), a] == Interval.make(0, 1)


def test_seeding_intersects_duplicates():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [
        ProbabilisticFormula(b, a, Interval.make(F(2, 10), F(6, 10))),
        ProbabilisticFormula(b, a, Interval.make(F(4, 10), F(9, 10)))])
    state = seed_state(kb)
    assert state.bounds[b, a] == Interval.make(F(4, 10), F(6, 10))


def test_pool_policies():
    kb = load_fixture("row_k").kb
    plain = seed_state(kb, EngineConfig(pool_policy="kb-events"))
    assert {str(e) for e in plain.pool} == {"true", "A", "B", "C"}
    rich = seed_state(kb, EngineConfig())
    assert conjunction(["A", "B"]) in rich.pool
    assert conjunction(["A", "B", "C"]) not in rich.pool  # single product level


def test_pool_cap_is_respected(monkeypatch):
    kb, _, _ = mutex_kb(40)
    monkeypatch.setattr(engine, "POOL_CAP", 64)
    state = seed_state(kb)
    assert len(state.pool) >= 64  # base events always kept
    # taxonomy-false products are excluded from chain roles
    assert all(not kb.taxonomy.forces_false(e) for e in state.role_pool)


def test_pool_cap_trims_the_products_to_exactly_the_cap():
    # chain-40 has 41 base events (true and 40 basics), and its basics have
    # 780 pairwise products, so the products fill the pool up to the cap
    # and no further
    kb, _ = chain_kb(40)
    base = seed_state(kb, EngineConfig(pool_policy="kb-events"))
    assert len(base.pool) == 41 < POOL_CAP < 41 + 40 * 39 // 2
    state = seed_state(kb)
    assert len(state.pool) == POOL_CAP
    assert set(base.pool) < set(state.pool)


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
    assert state.bounds[b4, b2].hi == F(9, 256)  # 0.03515625


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
def test_chain_family_oracle_bound(n):
    # each link of chain-n multiplies the exact upper bound by 3/16
    kb, goal = chain_kb(n)
    ans = tight_answer(kb, goal)
    assert not ans.empty
    assert (ans.lower, ans.upper) == (0, F(3, 16) ** (n - 1))


@pytest.mark.parametrize("n, upper", [(4, F(9261, 10240)), (6, F(1))])
def test_chain_family_local_bound(n, upper):
    # global incompleteness: the local rules lose the product of the links,
    # and from n = 6 on they bound the goal by nothing at all
    kb, goal = chain_kb(n)
    ans = local_query(kb, goal)
    assert not ans.empty
    assert (ans.lower, ans.upper) == (0, upper)


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
            assert step.old.lo <= step.new.lo <= step.new.hi <= step.old.hi
            assert step.new != step.old
    assert stored_pairs(runs[0]) == stored_pairs(runs[1])
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
    goal_key = (goal[0], goal[1])
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


# sha256 of each fixture's full saturation record (every trace step in order,
# the final intervals keyed by event names, the stop reason and the sweep
# count), under both pool policies; medical.kb is left out for its run time
GOLDEN_SATURATION = {
    ("bc_store", "kb-events"): "c970508a37a6ccb78cc340eeac3cce82787e34a65d72e945b376264361a05b25",
    ("bc_store", "kb-plus-products"): "c970508a37a6ccb78cc340eeac3cce82787e34a65d72e945b376264361a05b25",
    ("bird", "kb-events"): "68ca9d51537c5ed764005f0cd2290b02d77e082314b72cb77efb4f425ddd951c",
    ("bird", "kb-plus-products"): "f944d8011bf4fd10fe44ea7dae55682bd3dca3db45f1d350d4f92ca9361ef1ff",
    ("chain4", "kb-events"): "42f48e9be40e6c044e38fa8068441c1972a27ec63d494f8288d9d9b95284b276",
    ("chain4", "kb-plus-products"): "066362f065e7878941718733ba17fc5e703975707037688ec9826a7934feb499",
    ("medical_reduced", "kb-events"): "d27095e4e239c6224b6628c525bfce8b022c9206588c34211ef5036ac6f32eb1",
    ("medical_reduced", "kb-plus-products"): "ef80f58a1eb34b121886ffe4b85add5d87500336d534d1b2de6622172f6ddb5c",
    ("row_a", "kb-events"): "367860808a6bbd127057252baa844e0ed5a0f11c173a4c86490a3a5507c7935e",
    ("row_a", "kb-plus-products"): "7a027b949abf8602c1b5c5a163651823ca705ca3e477aefb257cb76c2177c2d3",
    ("row_b", "kb-events"): "f7fe42ccf9d0fa13e792e74ae69edfb67365ad469060195d61c6b639a9679b32",
    ("row_b", "kb-plus-products"): "5d4f2ce0a3eae1a7235dbc116fdd16c25b6e36a7b670fda2c47c502a48043a59",
    ("row_c", "kb-events"): "cb571cea9b78a1546afecd599fbc98954575f2c0e8d5b2a9653d624ca4fb3337",
    ("row_c", "kb-plus-products"): "f2752fe5ae88435a3ccc4f7b07cc791e89805a1ff5ddc8de6f65500094d8d104",
    ("row_d", "kb-events"): "f9656e04fd5b0f2ef957a16919c56771d88723c3dfd553ab31f1e4f5655ea560",
    ("row_d", "kb-plus-products"): "f0d033df33eab53e0e886239eda210b0f53a72638dcd98d73ab41569b94a7e42",
    ("row_e", "kb-events"): "4a81cb66bcab405db1d2a1be2df925f2c6ab4f3d59ebb56687b382ea026432ab",
    ("row_e", "kb-plus-products"): "d054b8b3d64557cd677c3136e919df5f9a6f38c2bf012725fc1e29b7e16f8890",
    ("row_f", "kb-events"): "8944fbab56c7cb4a8096496e675230f5f82a81dba8815106b1560451d0324ab9",
    ("row_f", "kb-plus-products"): "a9d0f869400a9fed84eafb24d7acfb80e0183051e4894484149d999598b68450",
    ("row_g", "kb-events"): "bd3f7ac633aa2e5cffeb90bf2909bf51d35606493e6c7050ffea20338b36eee6",
    ("row_g", "kb-plus-products"): "0c0827dc401f17cf513055d846b9e0113ae6962839825573723aac2b588ee795",
    ("row_h", "kb-events"): "70c97c99e1558b6db0eba7c218313853648539d22fc8188c9dfcc133e22484a3",
    ("row_h", "kb-plus-products"): "9ccaf59aab13167dae48ecaad5d21f67c702a4e7d638172d9a8bf9d02a4fead6",
    ("row_i", "kb-events"): "f9656e04fd5b0f2ef957a16919c56771d88723c3dfd553ab31f1e4f5655ea560",
    ("row_i", "kb-plus-products"): "f0d033df33eab53e0e886239eda210b0f53a72638dcd98d73ab41569b94a7e42",
    ("row_j", "kb-events"): "a074cfb4659e799c5f88ea2bbabf23e359020d2e5a5d40cfd97d56371aeccd84",
    ("row_j", "kb-plus-products"): "3c2df21731bf755e0e4b1f03f09eff39e083ea1cf630dfe22a761bdff4c2ea6e",
    ("row_k", "kb-events"): "9d0f33416db94bdfdd16ebfbffb2803fa71f073c1b27cf8cfabaee4c880cd73d",
    ("row_k", "kb-plus-products"): "8a71d63fdd8673315d072737190f2dc8c1238d5fdeef4bb7cdcde23834108d4d",
}


def _saturation_digest(name, pool):
    import hashlib
    import json

    from taxprob.errors import ProbabilisticConflictError

    parsed = load_fixture(name)
    state = seed_state(parsed.kb, EngineConfig(pool_policy=pool),
                       queries=parsed.queries)
    error = None
    try:
        saturate(state)
    except ProbabilisticConflictError as exc:
        error = f"{type(exc).__name__}: {exc}"
    record = {"trace": [str(step) for step in state.trace],
              "intervals": stored_by_name(state), "stop": state.stop_reason,
              "sweeps": state.sweeps_run, "error": error}
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("name,pool", sorted(GOLDEN_SATURATION))
def test_saturation_matches_golden_digest(name, pool):
    assert _saturation_digest(name, pool) == GOLDEN_SATURATION[(name, pool)]


def test_signature_key_covers_every_chain_field():
    # saturate caches slot results under the chain's value signature and
    # builds the chain of a cache miss as ChainPremise(a, b, c, *signature),
    # so the signature is every constructor argument after the role events,
    # in order; an argument added here must also be added to the signature,
    # or the cache hands one chain another chain's results
    import inspect

    from taxprob.chains import ChainPremise

    assert list(inspect.signature(ChainPremise).parameters) == [
        "a", "b", "c", "u", "v", "x", "y", "guards"]


def _full_scan_findings(kb):
    """Reference for `survey_chains`: every mirror-deduped triple of the
    default role pool, in (A, B, C) role order, checked one by one."""
    from taxprob.chains import check_consistency

    state = seed_state(kb)
    rp = state.role_pool
    findings = []
    for i, a in enumerate(rp):
        for b in rp:
            for c in rp[i:]:
                verdict = check_consistency(
                    build_chain(kb, a, b, c, state.bounds))
                if not verdict.consistent:
                    findings.append((str(a), str(b), str(c), verdict))
    return findings


def _survey_findings(kb):
    return [(str(d.a), str(d.b), str(d.c), d.verdict)
            for d in survey_chains(kb)]


@pytest.mark.parametrize("name", sorted(
    p.stem for p in FIXTURES.glob("*.kb") if p.stem != "medical"))
def test_survey_matches_full_scan_on_fixtures(name):
    # medical.kb is left out: its 144 role events make 1.5M full-scan chains
    kb = load_fixture(name).kb
    assert _survey_findings(kb) == _full_scan_findings(kb)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_survey_matches_full_scan_on_random_kbs(seed, chain):
    rng = random.Random(seed)
    drawn = random_chain_kb(rng) if chain else random_small_kb(rng)
    if drawn is None:
        return
    kb = drawn[0] if chain else drawn
    assert _survey_findings(kb) == _full_scan_findings(kb)


def _engine_chains_against_reference(monkeypatch, kb, bounds_now, run):
    """Run `run()` with every chain the engine constructs compared, at
    construction, with `build_chain` from its roles over `bounds_now()`;
    the chains built and those that differ from their reference."""
    built, differ = [], []
    make = engine.ChainPremise

    def recording(*args):
        chain = make(*args)
        reference = build_chain(kb, chain.a, chain.b, chain.c, bounds_now())
        built.append(chain)
        if chain_fields(chain) != chain_fields(reference):
            differ.append((chain_fields(chain), chain_fields(reference)))
        return chain

    with monkeypatch.context() as patch:
        patch.setattr(engine, "ChainPremise", recording)
        try:
            run()
        except ProbabilisticConflictError:
            pass
    return built, differ


def _check_chain_routes(monkeypatch, kb, pool):
    """Every chain `survey_chains` checks, and every chain `saturate` builds
    on a signature-cache miss, equals the role-based reference; the count
    of each."""
    # survey_chains reads the seeded bounds, which are the canonical ones
    surveyed, differ = _engine_chains_against_reference(
        monkeypatch, kb, lambda: None, lambda: survey_chains(kb))
    assert differ == []
    state = seed_state(kb, EngineConfig(pool_policy=pool))
    missed, differ = _engine_chains_against_reference(
        monkeypatch, kb, lambda: state.bounds, lambda: saturate(state))
    assert differ == []
    return len(surveyed), len(missed)


@pytest.mark.parametrize("pool", POOL_POLICIES)
@pytest.mark.parametrize("name", sorted(
    p.stem for p in FIXTURES.glob("*.kb") if p.stem != "medical"))
def test_engine_chains_match_the_role_reference_on_fixtures(monkeypatch, name,
                                                            pool):
    # a wrong guard bit or flag on a consistent chain leaves the findings
    # and often the trace unchanged, so the chains themselves are compared
    surveyed, missed = _check_chain_routes(monkeypatch,
                                           load_fixture(name).kb, pool)
    assert surveyed and missed


def test_engine_chains_match_the_role_reference_on_random_kbs(monkeypatch):
    rng = random.Random(17)
    surveyed = missed = done = 0
    while done < 60:
        kb = random_small_kb(rng)
        if kb is None:
            continue
        done += 1
        counts = _check_chain_routes(monkeypatch, kb, POOL_POLICIES[done % 2])
        surveyed += counts[0]
        missed += counts[1]
    assert surveyed and missed


def test_survey_interns_no_events():
    # the pool's products are interned by seeding; the survey itself reads
    # closures, so it adds no conjunction event and no conjoin memo entry
    from taxprob import events

    kb = load_fixture("chain4").kb
    seed_state(kb)
    before = (len(events._event_intern), len(events._conjoin_memo))
    survey_chains(kb)
    assert (len(events._event_intern), len(events._conjoin_memo)) == before


WIDE_FINDINGS_KB = """\
basics: a b c z0 z1 z2 z3 z4
prob: ( b | true ) [ 1/4, 9/10 ]
prob: ( a c | a ) [ 1/10, 3/10 ]
prob: ( a b c | a b c ) [ 1, 1 ]
prob: ( a b | b ) [ 17/20, 17/20 ]
prob: ( a b c | b ) [ 19/20, 1 ]
prob: ( a b c | b c ) [ 1/20, 7/10 ]
prob: ( b c | c ) [ 0, 3/10 ]
""" + "".join(f"prob: ( z{i} | true ) [ 1/2, 1/2 ]\n" for i in range(5))


def test_check_lists_findings_in_role_order_on_a_large_pool(tmp_path, capsys):
    import json

    from taxprob import parse_kb
    from taxprob.cli import main

    kb = parse_kb(WIDE_FINDINGS_KB).kb
    state = seed_state(kb)
    assert len(state.role_pool) > 30
    path = tmp_path / "wide_findings.kb"
    path.write_text(WIDE_FINDINGS_KB)
    assert main(["check", str(path), "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)["inconsistent_chains"]
    assert len(listed) >= 2
    by_name = {str(ev): i for i, ev in enumerate(state.role_pool)}
    keys = [(by_name[d["a"]], by_name[d["b"]], by_name[d["c"]])
            for d in listed]
    assert keys == sorted(keys)


def _survey_kb(name):
    """A KB for the survey tests by name: a fixture, the chain-10 family
    member or the wide-findings KB (whose pools the full scan leaves out)."""
    from taxprob import parse_kb

    if name == "chain10":
        return chain_kb(10)[0]
    if name == "wide_findings":
        return parse_kb(WIDE_FINDINGS_KB).kb
    return load_fixture(name).kb


SURVEY_KBS = sorted(p.stem for p in FIXTURES.glob("*.kb")) + [
    "chain10", "wide_findings"]


@pytest.mark.parametrize("name", ["medical", "chain10", "wide_findings"])
def test_survey_matches_the_candidate_survey_on_large_pools(name):
    kb = _survey_kb(name)
    assert survey_chains(kb) == candidate_survey(kb)


def test_survey_matches_the_candidate_survey_on_random_kbs():
    findings = 0
    for seed in range(150):
        rng = random.Random(seed)
        for draw in (random_small_kb, random_chain_kb):
            drawn = draw(rng)
            if drawn is None:
                continue
            kb = drawn if draw is random_small_kb else drawn[0]
            expected = candidate_survey(kb)
            assert survey_chains(kb) == expected, (seed, draw.__name__)
            findings += len(expected)
    assert findings


GUARD_SPLIT_KB = """\
basics: a b c d
tax: a b c -> false
prob: ( a | b ) [ 3/5, 7/10 ]
prob: ( c | b ) [ 3/5, 7/10 ]
prob: ( d | b ) [ 3/5, 7/10 ]
"""


def test_survey_tells_signatures_apart_by_their_guards():
    # the chains (a, b, a), (a, b, c) and (a, b, d) read the same four
    # bounds and no false product, and only (a, b, c) has alpha (ABC is
    # false), which condition 7 needs: a verdict cached without the guard
    # bits hands it the verdict of (a, b, a)
    from taxprob import parse_kb

    kb = parse_kb(GUARD_SPLIT_KB).kb
    findings = survey_chains(kb)
    assert [(str(d.a), str(d.b), str(d.c), d.verdict.fired_conditions)
            for d in findings] == [("a", "b", "c", frozenset({7}))]
    assert findings == candidate_survey(kb)


@pytest.mark.parametrize("name", SURVEY_KBS)
def test_survey_builds_only_chains_that_can_fire_once_per_signature(
        monkeypatch, name):
    # a chain with a [0, 1] A-B or B-C half fires no condition, and the
    # verdict depends on the signature alone, so the survey builds neither
    # such a chain nor a second chain with a signature it has checked
    from taxprob.intervals import UNIT

    built = []
    make = engine.ChainPremise

    def recording(*args):
        chain = make(*args)
        built.append(chain)
        return chain

    kb = _survey_kb(name)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "ChainPremise", recording)
        survey_chains(kb)
    assert [ch for ch in built if (ch.u is UNIT and ch.v is UNIT)
            or (ch.x is UNIT and ch.y is UNIT)] == []
    signatures = [chain_fields(ch)[3:] for ch in built]
    assert len(set(signatures)) == len(signatures)


def _saturation_record(kb, config):
    """Seed and saturate `kb`; the trace, the intervals keyed by event names,
    the stop reason and any conflict message, plus the state (None after a
    conflict)."""
    from taxprob.errors import ProbabilisticConflictError

    try:
        state = saturate(seed_state(kb, config))
    except ProbabilisticConflictError as exc:
        return {"conflict": str(exc)}, None
    return {"trace": [str(step) for step in state.trace],
            "intervals": stored_by_name(state),
            "stop": state.stop_reason}, state


def test_saturation_is_invariant_under_rendering_and_line_order():
    # on random KBs: rendering round-trips, the order of the tax: and prob:
    # lines changes nothing saturation reports, and a fixpoint stays one when
    # every stored pair is marked informative
    from taxprob import parse_kb, render_kb

    config = EngineConfig(max_sweeps=30)
    rng = random.Random(7)
    done = fixpoints = conflicts = 0
    while done < 40:
        kb = random_small_kb(rng, 3, 6)
        if kb is None:
            continue
        done += 1
        text = render_kb(kb)
        parsed = parse_kb(text)
        assert render_kb(parsed.kb) == text
        record, state = _saturation_record(parsed.kb, config)

        header, *formulas = text.splitlines()
        assert header.startswith("basics:")
        assert all(line.startswith(("tax:", "prob:")) for line in formulas)
        rng.shuffle(formulas)
        shuffled = parse_kb("\n".join([header] + formulas) + "\n").kb
        assert _saturation_record(shuffled, config)[0] == record, text

        if state is None:
            conflicts += 1
            continue
        if state.stop_reason != "fixpoint":
            continue
        fixpoints += 1
        steps = len(state.trace)
        stored = stored_pairs(state)
        state.informative = set(stored)
        state.sweeps_run = 0
        saturate(state)
        assert len(state.trace) == steps, text
        assert stored_pairs(state) == stored, text
        assert state.stop_reason == "fixpoint"
    assert fixpoints >= 20 and conflicts > 0


def _saturation_report(state, saturator):
    """Run `saturator` on `state`: the trace strings, the intervals keyed by
    event names, the stop reason, the sweep count and any conflict message."""
    from taxprob.errors import ProbabilisticConflictError

    conflict = None
    try:
        saturator(state)
    except ProbabilisticConflictError as exc:
        conflict = str(exc)
    return {"trace": [str(step) for step in state.trace],
            "intervals": stored_by_name(state), "stop": state.stop_reason,
            "sweeps": state.sweeps_run, "conflict": conflict}


def _assert_saturate_matches_reference(kb, config, queries=()):
    """`saturate` and `helpers.reference_saturate` on two states seeded
    alike report the same; after a run without a conflict, they do again on
    a second saturation of the same states with every stored pair marked
    informative.  Returns the first report."""
    from helpers import reference_saturate

    states = [seed_state(kb, config, queries) for _ in range(2)]
    runs = (saturate, reference_saturate)
    first = [_saturation_report(st, run) for st, run in zip(states, runs)]
    assert first[0] == first[1]
    if first[0]["conflict"] is None:
        for st in states:
            st.informative = set(stored_pairs(st))
        second = [_saturation_report(st, run) for st, run in zip(states, runs)]
        assert second[0] == second[1]
    return first[0]


# every fixture under both pools, with all rules (ids name-pool) and with
# each rule alone (ids name-pool-rule)
FIXTURE_RUNS = [
    pytest.param(name, pool, rule, id="-".join(filter(None, (name, pool, rule))))
    for rule in (None,) + RULE_NAMES
    for name in sorted(p.stem for p in FIXTURES.glob("*.kb"))
    for pool in ("kb-events", "kb-plus-products")]


@pytest.mark.parametrize("name,pool,rule", FIXTURE_RUNS)
def test_saturate_matches_reference_on_fixtures(name, pool, rule):
    parsed = load_fixture(name)
    rules = ALL_RULES if rule is None else frozenset({rule})
    _assert_saturate_matches_reference(
        parsed.kb, EngineConfig(enabled_rules=rules, pool_policy=pool),
        parsed.queries)


def test_each_rule_alone_stores_other_bounds_than_all_rules():
    # so the single-rule runs above fail a saturate that ignores
    # `enabled_rules`: on row_g each rule alone stores other bounds
    parsed = load_fixture("row_g")
    everything = _saturation_record(parsed.kb, EngineConfig())[0]
    for rule in RULE_NAMES:
        alone = EngineConfig(enabled_rules=frozenset({rule}))
        assert _saturation_record(parsed.kb, alone)[0] != everything, rule


def test_saturate_matches_reference_on_random_kbs():
    # 100 draws with a 30-sweep budget under alternating pools; the seed is
    # one whose draws include a budget stop, which about 1 in 200 draws has
    rng = random.Random(39)
    done = 0
    stops = {"fixpoint": 0, "max-sweeps": 0, None: 0}
    while done < 100:
        kb = random_small_kb(rng)
        if kb is None:
            continue
        pool = ("kb-events", "kb-plus-products")[done % 2]
        done += 1
        report = _assert_saturate_matches_reference(
            kb, EngineConfig(pool_policy=pool, max_sweeps=30))
        stops[report["stop"]] += 1  # None after a conflict
    assert stops["fixpoint"] >= 80
    assert stops["max-sweeps"] >= 1 and stops[None] >= 5


@st.composite
def role_links(draw):
    """A role count n <= 40 and a set of unordered links (i <= j) over it,
    self-links and links at n - 1 included."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=12))
    if draw(st.booleans()):
        pairs.add((n - 1, draw(st.integers(0, n - 1))))
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        pairs.add((i, i))
    return n, {(min(i, j), max(i, j)) for i, j in pairs}


@settings(max_examples=300, deadline=None)
@given(role_links())
@example((5, set()))
@example((5, {(4, 4)}))
@example((5, {(0, 0)}))
@example((5, {(0, 4), (2, 3), (3, 3)}))
def test_candidate_groups_flatten_to_the_reference_triples(case):
    n, links = case
    flat = [(ia, ib, ic) for ib, ia, cs in engine._candidate_groups(n, links)
            for ic in cs]
    assert flat == _candidate_triples(n, links)


def _owned_dict_sizes(kb):
    """Entry counts of the dicts the KB, its taxonomy and its universe own."""
    sizes = {f"{label}.{attr}": len(value)
             for label, owner in (("kb", kb), ("taxonomy", kb.taxonomy))
             for attr, value in vars(owner).items() if isinstance(value, dict)}
    sizes.update((f"universe.{attr}", len(getattr(kb.universe, attr)))
                 for attr in type(kb.universe).__slots__
                 if isinstance(getattr(kb.universe, attr), dict))
    return sizes


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.kb")))
def test_repeated_queries_leave_the_kb_tables_alone(name):
    # the caches saturation fills belong to its state: running a fixture's
    # goals a second time over one KB grows no dict the KB, its taxonomy or
    # its universe owns, and the signature cache holds only SlotResults
    from taxprob.errors import ProbabilisticConflictError
    from taxprob.rules import SlotResult

    parsed = load_fixture(name)
    kb = parsed.kb
    assert not hasattr(kb, "_canonical_memo")
    sizes = []
    for _ in range(2):
        for goal in parsed.queries:
            state = seed_state(kb, queries=[goal])
            try:
                saturate(state)
            except ProbabilisticConflictError:
                pass
            state.bounds[goal]
            for actions in state._slot_cache.values():
                assert type(actions) is tuple
                assert all(type(res) is SlotResult for res in actions)
        sizes.append(_owned_dict_sizes(kb))
    assert "taxonomy._closure_memo" in sizes[0]
    assert sizes[1] == sizes[0]


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.kb")))
def test_a_repeated_local_query_interns_nothing(name):
    # events, intervals and conjunctions are interned for the life of the
    # process; a second identical local query in one process adds no entry
    # to any of those tables
    from taxprob import events, intervals
    from taxprob.errors import ProbabilisticConflictError

    def sizes():
        return (len(intervals._intern), len(events._event_intern),
                len(events._conjoin_memo))

    parsed = load_fixture(name)
    for goal in parsed.queries:
        after = []
        for _ in range(2):
            try:
                local_query(parsed.kb, goal)
            except (CoherenceError, ProbabilisticConflictError):
                pass
            after.append(sizes())
        assert after[1] == after[0], goal


def test_bounds_and_events_are_truthy():
    # saturate reads `pair_events.get(key) or pair_event(...)`: the
    # fallback runs only on a miss as long as no event is falsy (the bound
    # table needs no such read: it fills itself on a miss)
    for ev in (TOP, BOTTOM, conjunction(["a"]), conjunction(["a", "b"])):
        assert ev
