from fractions import Fraction as F

import pytest

from taxprob import (BOTTOM, TOP, Interval, conjunction, parse_goal, parse_kb,
                     render_kb)
from taxprob.kbformat import KbFormatError

from helpers import FIXTURES, load_fixture


def test_parse_taxonomic_line():
    parsed = parse_kb("tax: tb lep -> g_pos\n")
    (fm,) = parsed.kb.taxonomy.formulas
    assert fm.lhs == conjunction(["tb", "lep"])
    assert fm.rhs == conjunction(["g_pos"])


def test_parse_prob_line_exact_rational():
    parsed = parse_kb("prob: ( fly | bird ) [ 0.95, 1 ]\n")
    (fm,) = parsed.kb.probabilistic
    assert fm.interval == Interval.make(F(19, 20), 1)
    assert fm.interval.lo == F(19, 20)  # decimal literals are exact


def test_parse_fraction_bounds():
    parsed = parse_kb("prob: ( a | b ) [ 1/3, 2/3 ]\n")
    (fm,) = parsed.kb.probabilistic
    assert fm.interval == Interval.make(F(1, 3), F(2, 3))


def test_lower_exceeds_upper_is_positioned_error():
    with pytest.raises(KbFormatError) as err:
        parse_kb("prob: ( B | A ) [ 0.9, 0.2 ]\n")
    (diag,) = err.value.diagnostics
    assert diag.line == 1
    assert "lower exceeds upper" in diag.message


def test_bound_out_of_range():
    with pytest.raises(KbFormatError) as err:
        parse_kb("prob: ( B | A ) [ 0, 1.5 ]\n")
    assert "out of [0, 1]" in str(err.value)


@pytest.mark.parametrize("literal", ["1e-3", "1_0/20", ".5", "1.", "+0.5",
                                     "0.5/1", "1/0", "١/2", "nan"])
def test_bound_literal_outside_the_format(literal):
    # bounds are decimals or p/q fractions; other forms `Fraction` would take
    # (exponents, underscores, signs, non-ASCII digits) are rejected
    with pytest.raises(KbFormatError) as err:
        parse_kb(f"basics: a b\nprob: ( a | b ) [ {literal}, 1 ]\n")
    (diag,) = err.value.diagnostics
    assert diag.line == 2 and diag.message.startswith("not a number")


def test_unknown_identifier_with_declared_universe():
    text = "basics: a b\nprob: ( a | z ) [ 0, 1 ]\n"
    with pytest.raises(KbFormatError) as err:
        parse_kb(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 2 and "unknown identifier 'z'" in diag.message


def test_universe_inferred_when_undeclared():
    parsed = parse_kb("prob: ( b | a c ) [ 0.5, 1 ]\n")
    assert parsed.kb.universe.names == ("a", "b", "c")


def test_malformed_lines_collected():
    text = "basics: a\nnonsense here\ntax: a ->\nprob: (a | a) 0.5\n"
    with pytest.raises(KbFormatError) as err:
        parse_kb(text)
    lines = [d.line for d in err.value.diagnostics]
    assert lines == [2, 3, 4]


def test_comments_blanks_and_crlf():
    text = "# header\r\n\r\nbasics: a b\r\nprob: ( a | b ) [ 0, 1 ] # inline\r\n"
    parsed = parse_kb(text)
    assert len(parsed.kb.probabilistic) == 1


def test_true_false_events():
    parsed = parse_kb("basics: a\ntax: a -> false\nprob: ( a | true ) [ 0, 0 ]\n")
    (fm,) = parsed.kb.taxonomy.formulas
    assert fm.rhs is BOTTOM
    (pf,) = parsed.kb.probabilistic
    assert pf.premise is TOP


def test_duplicate_prob_lines_intersect_with_warning():
    text = ("prob: ( b | a ) [ 0.2, 0.6 ]\n"
            "prob: ( b | a ) [ 0.4, 0.9 ]\n")
    parsed = parse_kb(text)
    (fm,) = parsed.kb.probabilistic
    assert fm.interval == Interval.make(F(2, 5), F(3, 5))
    assert len(parsed.warnings) == 1


def test_parse_goal():
    parsed = load_fixture("medical")
    f, e = parse_goal("( fever head | typh )", parsed.kb.universe)
    assert f == conjunction(["fever", "head"])
    assert e == conjunction(["typh"])
    f, e = parse_goal("(true | true)", parsed.kb.universe)
    assert f is TOP and e is TOP
    with pytest.raises(KbFormatError):
        parse_goal("(fever | unknown_id)", parsed.kb.universe)
    with pytest.raises(KbFormatError):
        parse_goal("fever | typh", parsed.kb.universe)


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.kb")):
        parsed = parse_kb(path.read_text(encoding="utf-8"))
        rendered = render_kb(parsed.kb, parsed.queries)
        reparsed = parse_kb(rendered)
        assert reparsed.kb.universe.names == parsed.kb.universe.names, path
        assert set(reparsed.kb.taxonomy.formulas) == \
            set(parsed.kb.taxonomy.formulas), path
        assert set(reparsed.kb.probabilistic) == \
            set(parsed.kb.probabilistic), path
        assert reparsed.queries == parsed.queries, path
        # rendering is a fixpoint
        assert render_kb(reparsed.kb, reparsed.queries) == rendered, path


def test_unknown_identifiers_are_reported_tax_then_prob_then_query():
    text = ("basics: a\n"
            "query: ( qz | a )\n"
            "prob: ( pz | a ) [ 0, 1 ]\n"
            "tax: tz -> a\n"
            "prob: ( a | pw ) [ 0, 1 ]\n")
    with pytest.raises(KbFormatError) as err:
        parse_kb(text)
    assert [str(d) for d in err.value.diagnostics] == [
        "line 4: unknown identifier 'tz'",
        "line 3: unknown identifier 'pz'",
        "line 5: unknown identifier 'pw'",
        "line 2: unknown identifier 'qz'"]


# a conditional read as a query: line, as a goal and, followed by
# [ 0, 1 ], as a prob: line: its two events, the one diagnostic all three
# give, or None when it does not have the shape `( H | G )`
CONDITIONALS = [
    ("( a | b )", ("a", "b")),
    ("(b a|true)", ("a b", "true")),
    ("( a false | b )", ("false", "b")),
    ("( false zz | a )", "unknown identifier 'zz'"),
    ("( | a )", "empty event"),
    ("( a | )", "empty event"),
    ("( a | b | c )", "malformed identifier '|'"),
    ("( a- | b )", "malformed identifier 'a-'"),
    ("( a | b ) [0, 1]", None),
    ("a | b", None),
    ("( a | b", None),
    ("( a ) | b", None),
]


def test_a_goal_reports_every_unknown_identifier_as_a_query_line():
    # `false` makes the event bottom, but the names after it are still read
    text = "( false zz | a yy zz )"
    with pytest.raises(KbFormatError) as err:
        parse_goal(text, parse_kb("basics: a b\n").kb.universe)
    with pytest.raises(KbFormatError) as line_err:
        parse_kb(f"basics: a b\nquery: {text}\n")
    messages = [d.message for d in err.value.diagnostics]
    assert messages == [d.message for d in line_err.value.diagnostics] == [
        "unknown identifier 'zz'", "unknown identifier 'yy'",
        "unknown identifier 'zz'"]


@pytest.mark.parametrize("text, expected", CONDITIONALS)
def test_a_conditional_reads_one_way(text, expected):
    universe = parse_kb("basics: a b c\n").kb.universe
    shape = {"query": "malformed query: line (expected 'query: ( F | E )')",
             "prob": "malformed prob: line (expected "
                     "'prob: ( H | G ) [ lo, hi ]')",
             "goal": f"malformed goal: {text!r}"}
    readers = {
        "query": lambda: parse_kb(f"basics: a b c\nquery: {text}\n").queries[0],
        "prob": lambda: next(
            (fm.conclusion, fm.premise) for fm in parse_kb(
                f"basics: a b c\nprob: {text} [ 0, 1 ]\n").kb.probabilistic),
        "goal": lambda: parse_goal(text, universe),
    }
    for kind, read in readers.items():
        if isinstance(expected, tuple):
            assert tuple(map(str, read())) == expected, kind
            continue
        with pytest.raises(KbFormatError) as err:
            read()
        (diag,) = err.value.diagnostics
        assert diag.message == (expected or shape[kind]), kind
