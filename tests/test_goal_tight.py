"""The goal-tight stop: saturation ends at the first store that puts the
oracle's exact answer on the goal pair.

A stopped run must answer as the full run does, with the same trace slice
and the same conflict, except where a later sweep would have met a conflict
on another pair: `zero_premise.kb` and `FALSE_CONFLICT_KBS` pin such cases.
"""

import random
import time
from fractions import Fraction

import pytest

from taxprob import cli, parse_kb
from taxprob.cli import STOP_ATOM_CAP, main
from taxprob.engine import (POOL_POLICIES, EngineConfig, saturate, seed_state,
                            trace_slice)
from taxprob.errors import AtomSpaceError, ProbabilisticConflictError
from taxprob.kb import QueryAnswer
from taxprob.kbformat import parse_goal
from taxprob.oracle import tight_answer

from helpers import (FIXTURES, ROW_ROLES, chain_kb, load_fixture, load_row,
                     random_event, random_small_kb, wide_text)

# a fixture whose outcome the stop moves; it is left out of the differential
# and pinned below
MOVED = "zero_premise"


def fixture(name):
    return str(FIXTURES / f"{name}.kb")


def _run(kb, goal, config, exact=None):
    """The outcome of one saturation towards `goal`, (answer interval,
    trace slice) or ("conflict", message), and its state."""
    state = seed_state(kb, config, queries=[goal])
    try:
        saturate(state, goal, exact)
    except ProbabilisticConflictError as exc:
        return ("conflict", str(exc)), state
    return (state.bounds[goal], trace_slice(state.trace, goal)), state


def _assert_stop_changes_nothing(kb, goal, config):
    """Compare a stopped saturation with a full one; True when it stopped."""
    if kb.taxonomy.forces_false(goal[1]):
        return False  # answered (1, 0) before any saturation
    full, _ = _run(kb, goal, config)
    calls = []

    def exact():
        calls.append(goal)
        return tight_answer(kb, goal)

    stopped, state = _run(kb, goal, config, exact)
    assert stopped == full
    assert len(calls) <= 1
    return state.stop_reason == "goal-tight"


def _differential_cases():
    for path in sorted(FIXTURES.glob("*.kb")):
        if path.stem == MOVED:
            continue
        parsed = load_fixture(path.stem)
        for goal in parsed.queries:
            yield path.stem, parsed.kb, goal
    for name in sorted(ROW_ROLES):
        kb, (a, _, c) = load_row(name)
        yield f"{name} (C | A)", kb, (c, a)
    kb, goal = chain_kb(10)
    yield "chain-10", kb, goal
    wide = parse_kb(wide_text())
    yield "wide", wide.kb, wide.queries[0]


@pytest.mark.parametrize("pool", POOL_POLICIES)
def test_stopped_saturation_matches_the_full_one(pool):
    config = EngineConfig(pool_policy=pool)
    stops = [label for label, kb, goal in _differential_cases()
             if _assert_stop_changes_nothing(kb, goal, config)]
    assert stops


def test_stopped_saturation_matches_the_full_one_on_random_kbs():
    rng = random.Random(11)
    runs = stops = 0
    while runs < 300:
        kb = random_small_kb(rng, 4, 8)
        if kb is None:
            continue
        names = list(kb.universe.names)
        for _ in range(3):
            goal = (random_event(rng, names, 0.05), random_event(rng, names))
            for pool in POOL_POLICIES:
                runs += 1
                stops += _assert_stop_changes_nothing(
                    kb, goal, EngineConfig(pool_policy=pool, max_sweeps=30))
    assert stops >= 25


def test_medical_stops_in_the_first_sweep():
    parsed = load_fixture("medical")
    kb, goal = parsed.kb, parsed.queries[0]
    state = seed_state(kb, queries=[goal])
    saturate(state, goal, lambda: tight_answer(kb, goal))
    assert state.stop_reason == "goal-tight"
    assert (len(state.trace), state.sweeps_run) == (80, 1)
    tight = state.bounds[goal]
    assert (tight.lo, tight.hi) == (Fraction(4, 5), 1)


def test_a_goal_never_improved_calls_no_oracle():
    kb, goal = chain_kb(6)
    state = seed_state(kb, queries=[goal])
    saturate(state, goal, lambda: pytest.fail("oracle called"))
    assert state.stop_reason == "fixpoint"


@pytest.mark.parametrize("answer", [None, QueryAnswer.empty_answer()])
def test_no_answer_and_the_empty_answer_never_stop(answer):
    # the goal is stored, and the oracle's own answer stops it
    parsed = load_fixture("medical_reduced")
    kb, goal = parsed.kb, parsed.queries[0]
    _, state = _run(kb, goal, EngineConfig(), lambda: tight_answer(kb, goal))
    assert state.stop_reason == "goal-tight"
    full, _ = _run(kb, goal, EngineConfig())
    stopped, state = _run(kb, goal, EngineConfig(), lambda: answer)
    assert stopped == full
    assert state.stop_reason == "fixpoint"


# -- the moved outcomes ------------------------------------------------------------

# two more seeded draws whose bounds force a premise to zero: Pr(a b c) = 0,
# since (a b c d | a b c) is at least 9/10 and at most 13/20; and Pr(d) = 0,
# since (a b | d) is at least 1/2 and at most 3/10
FALSE_CONFLICT_KBS = [
    ("""basics: a b c d
prob: ( b c d | true ) [ 2/5, 2/5 ]
prob: ( a c | a b ) [ 4/5, 17/20 ]
prob: ( a c d | a b c ) [ 9/10, 1 ]
prob: ( b c d | a b c ) [ 11/20, 13/20 ]
prob: ( b c | a b d ) [ 3/4, 19/20 ]
prob: ( b d | d ) [ 4/5, 9/10 ]
query: ( c | true )
""", "(a b c d|a b c)"), ("""basics: a b c d
tax: a b -> c
tax: d -> b d
prob: ( a b c | a c ) [ 9/10, 9/10 ]
prob: ( a b | b d ) [ 1/2, 11/20 ]
prob: ( a c d | d ) [ 3/10, 3/10 ]
query: ( a b c | true )
""", "(a b|d)")]


@pytest.mark.parametrize("pool", POOL_POLICIES)
@pytest.mark.parametrize("text,pair", [
    ((FIXTURES / f"{MOVED}.kb").read_text(encoding="utf-8"), "(a b|c)"),
    *FALSE_CONFLICT_KBS], ids=[MOVED, "abc-zero", "d-zero"])
def test_the_stop_answers_before_a_false_conflict(text, pair, pool):
    # no model bounds a conditional on a zero premise, but the full sweeps
    # derive two disjoint bounds for one; the goal is tight before that
    parsed = parse_kb(text)
    kb, goal = parsed.kb, parsed.queries[0]
    config = EngineConfig(pool_policy=pool)
    full, _ = _run(kb, goal, config)
    assert full[1].startswith(f"probabilistic conflict for {pair}: ")
    oracle = tight_answer(kb, goal)
    stopped, state = _run(kb, goal, config, lambda: oracle)
    assert state.stop_reason == "goal-tight"
    assert (stopped[0].lo, stopped[0].hi) == (oracle.lower, oracle.upper)


@pytest.mark.parametrize("pool", POOL_POLICIES)
@pytest.mark.parametrize("method", ["local", "both"])
def test_the_stopped_query_answers_zero_premise(method, pool, capsys):
    # the oracle's answer, where the full saturation exits 3
    assert main(["query", fixture(MOVED), "--method", method,
                 "--pool", pool]) == 0
    assert "local : [0.0000, 0.9500]  (exact [0, 19/20])" in \
        capsys.readouterr().out


# -- the bounded oracle call of --method local ------------------------------------

def test_a_refused_stop_leaves_a_wide_query_fast(tmp_path, monkeypatch,
                                                 capsys):
    # one conditional over 18 basics: its exact answer needs a 2^18-entry
    # table, past STOP_ATOM_CAP, so the stop is refused after a few ms
    # where an unbounded oracle call takes seconds
    heads = " ".join(f"a{i}" for i in range(9))
    body = " ".join(f"b{i}" for i in range(9))
    path = tmp_path / "wide18.kb"
    path.write_text(f"prob: ( {heads} | {body} ) [ 1/2, 3/4 ]\n"
                    f"query: ( {heads} {body} | {body} )\n")
    attempts = []

    def spy(kb, goal, cap=None):
        try:
            return tight_answer(kb, goal, cap=cap)
        except AtomSpaceError as exc:
            attempts.append((cap, str(exc)))
            raise

    monkeypatch.setattr(cli, "tight_answer", spy)
    start = time.perf_counter()
    assert main(["query", str(path), "--method", "local"]) == 0
    assert time.perf_counter() - start < 0.5
    assert "local : [0.5000, 0.7500]" in capsys.readouterr().out
    assert [cap for cap, _ in attempts] == [STOP_ATOM_CAP]


def test_a_malformed_atom_cap_leaves_the_local_answer(monkeypatch, capsys):
    argv = ["query", fixture("medical_reduced"), "--method", "local",
            "--trace"]
    assert main(argv) == 0
    stopped = capsys.readouterr().out
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "abc")
    assert main(argv) == 0
    assert capsys.readouterr().out == stopped


# -- --method both ----------------------------------------------------------------------

def test_both_solves_the_goal_lp_once(monkeypatch, capsys):
    calls = []

    def spy(kb, goal, cap=None):
        calls.append(cap)
        return tight_answer(kb, goal, cap=cap)

    monkeypatch.setattr(cli, "tight_answer", spy)
    assert main(["query", fixture("medical"), "--method", "both"]) == 0
    assert calls == [None]
    assert "gap:    lower 0.0000, upper 0.0000" in capsys.readouterr().out


def test_an_oracle_error_still_lets_a_local_conflict_exit_3(monkeypatch,
                                                           capsys):
    def refuse(kb, goal, cap=None):
        raise AtomSpaceError("atom space too large")

    monkeypatch.setattr(cli, "tight_answer", refuse)
    assert main(["query", fixture("row_e"), "--goal", "( A C | A )"]) == 3
    assert "probabilistic conflict" in capsys.readouterr().err
    assert main(["query", fixture("bird")]) == 1
    assert "atom space too large" in capsys.readouterr().err


def test_both_reports_a_local_answer_outside_the_oracle_as_unsound(
        monkeypatch, capsys):
    # an oracle answer the local one cannot contain: bird's local answer is
    # [0, 1/20], so a wrong oracle reading [1/2, 1] never stops saturation
    monkeypatch.setattr(cli, "tight_answer", lambda kb, goal, cap=None:
                        QueryAnswer(Fraction(1, 2), Fraction(1)))
    assert main(["query", fixture("bird"), "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "soundness violation" in out
    assert "gap:" not in out


def test_the_stop_cap_only_lowers_the_atom_cap(monkeypatch):
    parsed = parse_kb("basics: x0 x1 x2 x3 x4 x5 x6 x7\n"
                      "prob: ( x1 x2 x3 x4 x5 x6 x7 | x0 ) [ 0.1, 0.9 ]\n")
    goal = parse_goal("( x1 | x0 )", parsed.kb.universe)
    assert tight_answer(parsed.kb, goal, cap=256).upper == 1
    with pytest.raises(AtomSpaceError):
        tight_answer(parsed.kb, goal, cap=100)
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "100")
    with pytest.raises(AtomSpaceError):
        tight_answer(parsed.kb, goal, cap=10 ** 6)
