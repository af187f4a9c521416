from fractions import Fraction as F

import pytest

from taxprob import (BOTTOM, Interval, KnowledgeBase, ProbabilisticFormula,
                     TaxonomicFormula, TaxonomyStore, Universe, conjunction,
                     parse_kb, validate_coherence)
from taxprob.cli import main
from taxprob.errors import ProbabilisticConflictError
from taxprob.intervals import fmt_decimal

from helpers import load_fixture


def test_row_fixtures_are_coherent():
    for name in ("row_f", "row_g", "row_h", "row_i", "row_j", "row_k",
                 "row_a", "row_b", "row_c", "row_d", "row_e"):
        kb = load_fixture(name).kb
        assert validate_coherence(kb) == [], name


def test_medical_kb_is_coherent():
    assert validate_coherence(load_fixture("medical").kb) == []
    assert validate_coherence(load_fixture("medical_reduced").kb) == []


def test_lower_must_be_one_violation():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, b)])
    kb = KnowledgeBase(u, tax, [
        ProbabilisticFormula(b, a, Interval.make(F(9, 10), 1))])
    violations = validate_coherence(kb)
    assert len(violations) == 1
    assert violations[0].kind == "lower-must-be-one"


def test_upper_must_be_zero_violation():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [TaxonomicFormula(conjunction(["A", "B"]), BOTTOM)])
    kb = KnowledgeBase(u, tax, [
        ProbabilisticFormula(b, a, Interval.make(0, F(1, 2)))])
    kinds = {v.kind for v in validate_coherence(kb)}
    assert kinds == {"upper-must-be-zero"}


def test_gratuitous_zero_and_one_are_violations():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [])
    kb = KnowledgeBase(u, tax, [
        ProbabilisticFormula(b, a, Interval.make(0, 0)),
        ProbabilisticFormula(a, b, Interval.make(1, 1))])
    kinds = sorted(v.kind for v in validate_coherence(kb))
    assert kinds == ["lower-must-not-be-one", "upper-must-not-be-zero"]


@pytest.mark.parametrize("interval", ["0, 0", "1, 1", "1/5, 1/2"])
def test_taxonomy_false_premise_is_one_violation(tmp_path, capsys, interval):
    # a false premise both entails b and makes ab false, so the two bound
    # rules would ask for an upper bound 0 and a lower bound 1 at once
    text = f"basics: a b\ntax: a -> false\nprob: ( b | a ) [ {interval} ]\n"
    violations = validate_coherence(parse_kb(text).kb)
    assert [v.kind for v in violations] == ["premise-false"]
    assert "premise a false" in str(violations[0])
    path = tmp_path / "false_premise.kb"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "incoherent (1 violation(s))" in out and "premise a false" in out


def test_canonical_interval_defaults():
    u = Universe(["A", "B", "C"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, b),
                            TaxonomicFormula(conjunction(["B", "C"]), BOTTOM)])
    kb = KnowledgeBase(u, tax, [])
    c = conjunction(["C"])
    assert kb.canonical_interval(b, a) == Interval.make(1, 1)
    assert kb.canonical_interval(c, b) == Interval.make(0, 0)
    assert kb.canonical_interval(a, b) == Interval.make(0, 1)
    # A pulls B into the closure, so AC is taxonomy-false via BC -> false
    assert kb.canonical_interval(c, a) == Interval.make(0, 0)


def test_canonical_interval_for_false_premise_is_zero():
    u = Universe(["A", "B"])
    a = conjunction(["A"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, BOTTOM)])
    kb = KnowledgeBase(u, tax, [])
    assert kb.canonical_interval(conjunction(["B"]), a) == Interval.make(0, 0)


def test_canonical_conflict_with_assertion():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    tax = TaxonomyStore(u, [TaxonomicFormula(a, b)])
    kb = KnowledgeBase(u, tax, [
        ProbabilisticFormula(b, a, Interval.make(F(1, 4), F(1, 2)))])
    with pytest.raises(ProbabilisticConflictError):
        kb.canonical_interval(b, a)


def test_duplicate_assertions_intersect_with_note():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    kb = KnowledgeBase(u, TaxonomyStore(u, []), [
        ProbabilisticFormula(b, a, Interval.make(F(2, 10), F(6, 10))),
        ProbabilisticFormula(b, a, Interval.make(F(4, 10), F(9, 10)))])
    assert [(fm.conclusion, fm.premise, fm.interval)
            for fm in kb.probabilistic] == [
                (b, a, Interval.make(F(4, 10), F(6, 10)))]
    assert len(kb.merge_notes) == 1


def test_duplicate_assertions_conflict():
    u = Universe(["A", "B"])
    a, b = conjunction(["A"]), conjunction(["B"])
    with pytest.raises(ProbabilisticConflictError):
        KnowledgeBase(u, TaxonomyStore(u, []), [
            ProbabilisticFormula(b, a, Interval.make(0, F(1, 4))),
            ProbabilisticFormula(b, a, Interval.make(F(1, 2), 1))])


def test_interval_basics():
    iv = Interval.make(F(1, 4), F(3, 4))
    assert iv.intersect(Interval.make(F(1, 2), 1)) == Interval.make(F(1, 2), F(3, 4))
    assert iv.intersect(Interval.make(F(4, 5), 1)) is None
    assert Interval.make(F(1, 4), F(3, 4)) is iv  # interned
    with pytest.raises(ValueError):
        Interval.make(F(3, 4), F(1, 4))


def test_fmt_decimal_rounds_half_up():
    assert fmt_decimal(F(17, 28), 2) == "0.61"
    assert fmt_decimal(F(9261, 10240), 4) == "0.9044"
    assert fmt_decimal(F(1, 2), 0) == "1"
    assert fmt_decimal(F(1, 8), 2) == "0.13"
    assert fmt_decimal(F(1), 4) == "1.0000"
