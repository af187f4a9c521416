"""Checks of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kbgen  # noqa: E402
import run  # noqa: E402
from taxprob import (EngineConfig, parse_kb, render_kb, saturate,  # noqa: E402
                     seed_state, validate_coherence)
from taxprob import cli, engine, oracle  # noqa: E402
from taxprob.kb import KnowledgeBase  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_generators_are_pure_functions_of_the_seed():
    for make in (lambda s: kbgen.chain_kb(s, 11), kbgen.wide_kb,
                 lambda s: "".join(kbgen.random_batch(s, 30))):
        assert make(4) == make(4)
        assert make(4) != make(5)
    text = kbgen.wide_kb(0)
    assert kbgen.shuffle_lines(text, "x") == kbgen.shuffle_lines(text, "x")


def test_shuffled_lines_parse_to_the_same_kb():
    for text in [kbgen.chain_kb(0, 5), kbgen.wide_kb(0)] + kbgen.random_batch(0, 20):
        a, b = parse_kb(text), parse_kb(kbgen.shuffle_lines(text, 9))
        assert render_kb(a.kb, a.queries) == render_kb(b.kb, b.queries)


def test_generated_kbs_are_coherent():
    kbs = run.workload_kbs("random-batch")
    kbs["wide"] = kbgen.wide_kb(0)
    kbs["chain"] = kbgen.chain_kb(0, 11)
    for key, text in kbs.items():
        parsed = parse_kb(text)
        assert validate_coherence(parsed.kb) == [], key
        assert len(parsed.queries) == 1, key


def test_wide_atom_count_does_not_depend_on_the_seed():
    for seed in range(3):
        kb = parse_kb(kbgen.wide_kb(seed)).kb
        assert len(oracle.build_atom_system(kb).atom_masks) == 2 ** 12 + 6 * 2 ** 9


def test_batch_holds_a_conflict_and_a_kb_that_keeps_sweeping():
    expected = json.loads(run.EXPECTED.read_text())["random-batch"]
    assert any(v["local"]["rc"] == 3 for v in expected.values())
    # the draw must still be improving intervals on its hundredth sweep
    parsed = parse_kb(run.workload_kbs("random-batch")["sweeps"])
    goal = parsed.queries[0]
    steps = []
    for budget in (99, 100):
        state = seed_state(parsed.kb, EngineConfig(max_sweeps=budget), [goal])
        saturate(state)
        assert state.sweeps_run == budget
        steps.append(len(state.trace))
    assert steps[1] > steps[0]


def test_tail_is_the_rank_with_ten_samples_above():
    assert run.tail([3, 1, 2]) == 3
    assert run.tail(list(range(15))) == 7  # the median
    for n in (21, 100):
        values = list(range(n))
        assert sum(v > run.tail(values) for v in values) == 10


def test_soundness_gate():
    def ans(lo, hi, empty=False):
        return {"rc": 0, "lower": lo, "upper": hi, "empty": empty}
    assert run.soundness_miss(ans("0", "1"), ans("1/4", "1/2")) is None
    assert "soundness" in run.soundness_miss(ans("1/3", "1"), ans("1/4", "1/2"))
    assert "empty" in run.soundness_miss(ans("0", "1"), ans("1", "0", True))
    assert run.soundness_miss({"rc": 3}, ans("1", "0", True)) is None


def test_gate_flags_mismatch_and_undocumented_exit():
    log = [run.Entry(kind, "k", outcome, 0.1, 1.0, 0.0) for kind, outcome in (
        ("check", {"rc": 0, "status": "ok"}),
        ("local", {"rc": 7}),
        ("oracle", {"rc": 0, "lower": "0", "upper": "1", "empty": False}))]
    expected = {"k": {"check": {"rc": 0, "status": "ok"},
                      "local": {"rc": 0},
                      "oracle": {"rc": 0, "lower": "0", "upper": "1/2",
                                 "empty": False}}}
    reasons = run.gate(log, [3], expected)
    assert reasons[0] is None
    assert reasons[1].startswith("undocumented exit code")
    assert reasons[2].startswith("mismatch")


def test_tracer_restores_the_program_and_splits_chain_counts(tmp_path):
    def current():
        return (cli.local_query, engine.conjoin, engine.ChainPremise,
                oracle.enumerate_atom_masks, oracle.solve_lp,
                KnowledgeBase.canonical_interval)
    originals = current()
    path = tmp_path / "chain.kb"
    path.write_text(kbgen.chain_kb(0, 4))
    tracer = Tracer()
    tracer.install()
    try:
        assert current() != originals
        for kind in ("check", "local"):
            outcome, *_ = run.run_op(cli, kind, str(path), [])
            assert outcome["rc"] == 0
    finally:
        tracer.uninstall()
    assert current() == originals
    assert tracer.total(tracer.calls, "chains.built", "engine.saturate") > 0
    assert tracer.total(tracer.calls, "chains.built", "engine.survey_chains") > 0
    assert tracer.facts["sweeps"] and tracer.facts["pool_events"]


def test_tracer_drains_atom_enumeration_inside_its_span(tmp_path):
    path = tmp_path / "chain.kb"
    path.write_text(kbgen.chain_kb(0, 6))
    tracer = Tracer()
    tracer.install()
    try:
        outcome, *_ = run.run_op(cli, "oracle", str(path), [])
    finally:
        tracer.uninstall()
    assert outcome["rc"] == 0
    (span,) = [s for s in tracer.spans if s[2] == "events.enumerate_atom_masks"]
    parent = tracer.spans[span[1]]
    assert parent[2] == "oracle.build_atom_system"
    assert span[5] > span[4]
    assert tracer.facts["atoms"] == [2 ** 6]


def test_slowdown_uses_the_probe_samples_taken_during_a_command():
    speed = run.MachineSpeed()
    ref = run.REFERENCE_S
    speed.samples = [(0.0, ref), (1.0, 2 * ref), (1.1, 2 * ref), (3.0, ref)]
    assert speed.slowdown(1.0, 1.2) == 2.0
    assert speed.slowdown(2.9, 3.0) == 1.0


def test_declared_metrics_match_the_printed_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    log = [run.Entry(kind, "k", {"rc": 0}, 0.5, 10.0, 0.0)
           for kind in ("check", "local", "oracle")]
    speed = run.MachineSpeed()
    printed = run.end_to_end(log, (0.1, 1.0), speed)
    assert list(printed) == [m["name"] for m in declared["end_to_end"]]
    layers, _ = run.per_layer(Tracer(), 1, 0.0, log, 10.0)
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    for group in ("end_to_end", "per_layer"):
        for metric in declared[group]:
            value, unit = (printed if group == "end_to_end" else layers)[metric["name"]]
            assert unit == metric["unit"], metric["name"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
