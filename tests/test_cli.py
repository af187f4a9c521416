import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from taxprob import parse_kb
from taxprob.cli import main
from taxprob.oracle import build_atom_system

from helpers import FIXTURES, wide_text


def fixture(name):
    return str(FIXTURES / f"{name}.kb")


def test_check_coherent_consistent(capsys):
    code = main(["check", fixture("row_g")])
    out = capsys.readouterr().out
    assert code == 0
    assert "coherent" in out and "all pool chains consistent" in out


def test_check_reports_inconsistent_chain(capsys):
    code = main(["check", fixture("row_a")])
    out = capsys.readouterr().out
    assert code == 0  # inconsistency is a finding, not an input failure
    assert "inconsistent chain" in out
    assert "conditions 7" in out
    assert "forced false: B" in out


def test_check_incoherent_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("basics: a b\ntax: a -> b\nprob: ( b | a ) [ 0.9, 1 ]\n")
    code = main(["check", str(bad)])
    assert code == 2
    assert "incoherent" in capsys.readouterr().out


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("prob: ( B | A ) [ 0.9, 0.2 ]\n")
    code = main(["check", str(bad)])
    assert code == 1
    assert "lower exceeds upper" in capsys.readouterr().err
    assert main(["query", str(bad), "--goal", "(B | A)"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("bound", ["1e-400000", "1e-10000000"])
def test_exponent_bound_is_an_input_error(bound, tmp_path, capsys):
    # an exponent is not a bound literal; once accepted, the first broke
    # rendering with a traceback and the second made check build a
    # ten-million-digit denominator
    bad = tmp_path / "exp.kb"
    bad.write_text(f"basics: a b\nprob: ( a | b ) [ {bound} , 1 ]\n")
    for argv in (["check", str(bad)],
                 ["query", str(bad), "--goal", "(a | b)"]):
        t0 = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - t0 < 1
        err = capsys.readouterr().err
        assert "line 2: not a number" in err and "Traceback" not in err


def test_missing_file_exit_1(capsys):
    assert main(["check", "does_not_exist.kb"]) == 1
    capsys.readouterr()


def test_query_bird_oracle(capsys):
    code = main(["query", fixture("bird"), "--goal", "( ostrich | bird )",
                 "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[0.0000, 0.0500]" in out
    assert "1/20" in out


def test_query_defaults_to_file_queries_and_both(capsys):
    code = main(["query", fixture("bird")])
    out = capsys.readouterr().out
    assert code == 0
    assert "local" in out and "oracle" in out and "gap" in out


def test_query_chain4_both_methods(capsys):
    code = main(["query", fixture("chain4"), "--goal", "(B4 | B1)",
                 "--method", "both", "--rules", "chaining"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.9044" in out  # local upper
    assert "0.0066" in out  # oracle upper


def test_query_trace(capsys):
    code = main(["query", fixture("medical_reduced"), "--method", "local",
                 "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chaining" in out
    assert "0.8000" in out


def test_query_json_schema_and_determinism(capsys):
    args = ["query", fixture("medical_reduced"), "--method", "both", "--json",
            "--trace"]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    payload = json.loads(first)
    assert payload["goal"] == "(fever head | typh)"
    assert payload["method"] == "both"
    assert set(payload["local"]) == {"lower", "upper", "exact_lower",
                                     "exact_upper", "trace"}
    assert payload["local"]["exact_lower"] == "4/5"
    assert set(payload["oracle"]) == {"lower", "upper", "exact_lower",
                                      "exact_upper", "empty"}
    assert payload["oracle"]["exact_lower"] == "4/5"
    assert payload["oracle"]["empty"] is False
    assert payload["status"] == "ok"
    main(args)
    second = capsys.readouterr().out
    assert first == second  # byte-identical across runs


def test_query_incoherent_requires_force(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("basics: a b\ntax: a -> b\nprob: ( b | a ) [ 0.9, 1 ]\n")
    assert main(["query", str(bad), "--goal", "(b | a)"]) == 2
    capsys.readouterr()
    code = main(["query", str(bad), "--goal", "(b | a)", "--force",
                 "--method", "oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle" in out


def test_query_conflict_exit_3(tmp_path, capsys):
    bad = tmp_path / "conflict.kb"
    # coherent, satisfiable, but the premise a is forced to probability zero,
    # which saturation discovers as an empty intersection
    bad.write_text("basics: a b c\n"
                   "tax: b c -> a b\n"
                   "prob: ( b | a ) [ 0.3, 0.4 ]\n"
                   "prob: ( b c | a ) [ 0.9, 0.9 ]\n")
    code = main(["query", str(bad), "--goal", "(c | a)", "--method", "local"])
    assert code == 3
    assert "probabilistic conflict" in capsys.readouterr().err


def test_local_misses_an_empty_premise_that_only_the_bounds_force(capsys):
    # a known gap: on row_e the asserted bounds force A to probability zero
    # (`check` lists the chain that fires condition 4), but the taxonomy does
    # not, so under kb-events the local path answers [0, 1] where the oracle
    # answers (1, 0); the default pool meets the same fact as a conflict
    goal = ["query", fixture("row_e"), "--goal", "( A C | A )"]
    assert main(goal + ["--pool", "kb-events"]) == 0
    out = capsys.readouterr().out
    assert "local : [0.0000, 1.0000]  (exact [0, 1])" in out
    assert "oracle: [1, 0] (empty" in out
    assert "gap: local did not detect the empty premise" in out
    assert main(goal) == 3
    assert "probabilistic conflict" in capsys.readouterr().err


def test_query_no_goal_exit_1(capsys):
    assert main(["query", fixture("row_g")]) == 1
    assert "no goal" in capsys.readouterr().err


def test_query_unknown_rule_exit_1(capsys):
    assert main(["query", fixture("bird"), "--goal", "(fly | bird)",
                 "--rules", "sorcery"]) == 1
    capsys.readouterr()


def test_query_empty_answer_rendering(tmp_path, capsys):
    kb = tmp_path / "empty.kb"
    kb.write_text("basics: a b\ntax: a -> false\n")
    code = main(["query", str(kb), "--goal", "(b | a)", "--method", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[1, 0]") == 2  # local and oracle agree on the convention


def test_check_json(capsys):
    code = main(["check", fixture("row_a"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["inconsistent_chains"]
    entry = payload["inconsistent_chains"][0]
    assert set(entry) == {"a", "b", "c", "conditions", "forced_false"}


def test_conflicting_duplicate_assertions_exit_3(tmp_path, capsys):
    bad = tmp_path / "dup.kb"
    bad.write_text("basics: A B\n"
                   "prob: ( B | A ) [ 0.1, 0.2 ]\n"
                   "prob: ( B | A ) [ 0.5, 0.6 ]\n")
    assert main(["check", str(bad)]) == 3
    assert main(["query", str(bad), "--goal", "(B | A)"]) == 3
    assert capsys.readouterr().err.count("probabilistic conflict") == 2


def test_query_rejects_bad_numeric_flags(capsys):
    for flag, value in (("--max-sweeps", "0"), ("--precision", "-2")):
        code = main(["query", fixture("bird"), "--goal", "(fly | bird)",
                     flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} ")


def test_query_empty_rules_exit_1(capsys):
    assert main(["query", fixture("bird"), "--goal", "(fly | bird)",
                 "--rules", ","]) == 1
    assert capsys.readouterr().err.startswith("error: --rules ")


def test_malformed_atom_cap_exit_1(monkeypatch, capsys):
    for raw in ("abc", "-5"):
        monkeypatch.setenv("TAXPROB_ATOM_CAP", raw)
        code = main(["query", fixture("bird"), "--goal", "(fly | bird)",
                     "--method", "oracle"])
        assert code == 1
        assert "TAXPROB_ATOM_CAP must be a positive integer" in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["query", fixture("bird"), "--goal", "(fly | bird)", "--max-sweeps", "abc"],
    ["query", fixture("bird"), "--method", "nope"],
    ["query"],
    ["check", fixture("bird"), "--no-such-flag"],
    [],
], ids=["max-sweeps-abc", "method-nope", "missing-kb", "unknown-flag",
        "no-command"])
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 means an incoherent knowledge base, so a malformed command line
    # must not use argparse's default code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_kb_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_bytes(b"\xff\xfe")
    for argv in (["check", str(bad)], ["query", str(bad)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}")


def test_query_medical_both_json_contains_oracle(capsys):
    assert main(["query", fixture("medical"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    local, oracle = report["local"], report["oracle"]
    assert not oracle["empty"]
    assert (oracle["lower"], oracle["upper"]) == ("0.8000", "1.0000")
    assert Fraction(local["exact_lower"]) <= Fraction(4, 5)
    assert Fraction(local["exact_upper"]) >= 1


def test_atom_cap_bounds_the_projected_count(tmp_path, monkeypatch, capsys):
    path = tmp_path / "wide.kb"
    path.write_text(wide_text())
    kb = parse_kb(wide_text()).kb
    assert len(build_atom_system(kb).atom_masks) == 2 ** 12 + 6 * 2 ** 9
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "100")
    assert main(["query", str(path), "--method", "oracle", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["oracle"]["empty"]
    # chain4's four basics are all relevant: 16 atoms exceed a cap of 5
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "5")
    assert main(["query", fixture("chain4"), "--method", "oracle"]) == 1
    assert "atom space too large: more than 5 atoms" in capsys.readouterr().err


def test_atom_cap_past_the_enumeration_limit(tmp_path, monkeypatch, capsys):
    # past the 128 atoms the oracle enumerates, a query answers when its
    # elimination tables or its projected atoms fit under the cap.  The
    # conditional reads all ten basics, so its one table has 2^10 entries;
    # there are 1,024 projected atoms, 768 once x1 implies x2, and 2^20
    # with a second conditional over ten other basics
    path = tmp_path / "broad.kb"
    broad = ("prob: ( x1 x2 x3 x4 x5 x6 x7 x8 x9 | x0 ) [ 0.1, 0.9 ]\n"
             "query: ( x1 | x0 )\n")
    argv = ["query", str(path), "--method", "oracle"]
    for text, cap, code, output in (
            # a cap within the limit acts as before elimination existed
            (broad, "100", 1, "atom space too large: more than 100 atoms "
                              "projected onto 10 of 10 basics\n"),
            (broad, "1000", 1, "atom space too large: more than 1000 atoms "
                               "projected onto 10 of 10 basics, and "
                               "elimination table too large: 2^10 entries, "
                               "more than 1000"),
            (broad, "1024", 0, "exact [1/10, 1]"),
            ("tax: x1 -> x2\n" + broad, "1000", 0, "exact [1/10, 1]"),
            (broad.replace("x", "y") + broad, "1024", 0, "exact [1/10, 1]")):
        path.write_text(text)
        monkeypatch.setenv("TAXPROB_ATOM_CAP", cap)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert output in (captured.err if code else captured.out)


def test_a_conditional_over_forty_basics_exits_1_at_once(
        tmp_path, monkeypatch, capsys):
    # its 2^40-entry table is refused before any table is built, and
    # enumeration stops at the cap
    path = tmp_path / "forty.kb"
    path.write_text("prob: ( " + " ".join(f"x{i}" for i in range(1, 40))
                    + " | x0 ) [ 0.1, 0.9 ]\nquery: ( x1 | x0 )\n")
    monkeypatch.setenv("TAXPROB_ATOM_CAP", "4096")
    start = time.perf_counter()
    assert main(["query", str(path), "--method", "oracle"]) == 1
    assert time.perf_counter() - start < 2
    assert ("atom space too large: more than 4096 atoms projected onto 40 of "
            "40 basics, and elimination table too large: 2^40 entries, more "
            "than 4096") in capsys.readouterr().err


def test_query_rejects_precision_above_the_maximum(capsys):
    # 5,000 places would pass Python's int-to-str digit limit halfway
    # through the report; the flag is rejected before anything is printed
    argv = ["query", fixture("bird"), "--goal", "(fly | bird)", "--precision"]
    assert main(argv + ["5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --precision ")
    assert main(argv + ["1000"]) == 0
    assert "exact" in capsys.readouterr().out


def test_atom_enumeration_leaves_the_closure_memo_alone():
    kb = parse_kb(wide_text()).kb
    before = dict(kb.taxonomy._closure_memo)
    assert len(build_atom_system(kb).atom_masks) == 2 ** 12 + 6 * 2 ** 9
    assert kb.taxonomy._closure_memo == before


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_exits_1_without_traceback(unbuffered):
    # stdout is a pipe whose reader is gone before the first byte: buffered,
    # the final flush fails; unbuffered, the first print does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "taxprob.cli", "query", fixture("bird"),
             "--method", "oracle"],
            stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=60)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_a_reused_parser_keeps_nothing_between_calls(capsys):
    # the parser is built once per process; a --goal of one call must not
    # reach the next, which answers the file's query: lines
    assert main(["query", fixture("bird"), "--goal", "( fly | bird )"]) == 0
    assert "(fly | bird):" in capsys.readouterr().out
    assert main(["query", fixture("bird")]) == 0
    out = capsys.readouterr().out
    assert "(ostrich | bird):" in out and "(fly | bird)" not in out


# token-level edits of the fixtures: keywords, punctuation, bounds and one
# unknown identifier, or a token of the text itself
_TOKEN_RE = re.compile(r"->|[()|\[\],:#]|[^\s()|\[\],:#]+|\s+")
_INSERTS = ["(", ")", "|", "[", "]", ",", "->", ":", "#", "true", "false",
            "0.5", "1/3", "2", "-0.1", "1e-3", "zz", "tax:", "prob:", "query:",
            "basics:", "\n", " "]


def mutate(text, rng):
    """`text` after one to three seeded edits: swap two tokens, drop one,
    insert one, or duplicate a line."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        if op == 3:
            lines = text.splitlines(keepends=True)
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "".join(lines)
            continue
        tokens = _TOKEN_RE.findall(text)
        sites = [i for i, tok in enumerate(tokens) if not tok.isspace()]
        i = rng.choice(sites)
        if op == 0:
            j = rng.choice(sites)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif op == 1:
            del tokens[i]
        else:
            tokens.insert(i, rng.choice(_INSERTS + [tokens[rng.choice(sites)]]))
        text = "".join(tokens)
    return text


MALFORMED_GOALS = ["", "ostrich | bird", "( ostrich | )", "( | bird )",
                   "( ostrich | bird ) [0, 1]", "( ostrich | bird | fly )",
                   "( ostrich | zz )", "( false zz | bird )", "((ostrich | bird))",
                   "( ostr-ich | bird )", "( ostrich | bird ) )", "\n"]


def test_no_mutated_input_ends_in_a_traceback(tmp_path, capsys):
    # every run of a mutated small fixture or a malformed goal ends with a
    # documented exit code, not a raised exception
    rng = random.Random(1301)
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.kb"))
             if p.stem != "medical"]
    path = tmp_path / "mutated.kb"
    t0 = time.perf_counter()
    codes = []
    for _ in range(400):
        path.write_text(mutate(rng.choice(texts), rng), encoding="utf-8")
        codes.append(main(["check", str(path)]))
        codes.append(main(["query", str(path), "--method", "both",
                           "--max-sweeps", "10"]))
    for goal in MALFORMED_GOALS:
        codes.append(main(["query", fixture("bird"), "--goal", goal]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    assert time.perf_counter() - t0 < 5
