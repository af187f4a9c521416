"""The package's records are immutable values, and importing the CLI loads
no record machinery beyond `typing.NamedTuple`.

`dataclasses` would import `inspect` (and with it `ast`, `dis` and
`tokenize`) and `exec` several generated methods per record class, which
roughly doubled the time of a cold `import taxprob.cli`.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import load_fixture
from taxprob import (KbFormatError, QueryAnswer, build_atom_system,
                     local_query, parse_kb, survey_chains, validate_coherence)
from taxprob.chains import CONDITIONS
from taxprob.rules import SHARPENING_BA_LOWER

SRC = Path(__file__).resolve().parents[1] / "src"

# what `python -I` adds to `sys.modules` by importing the CLI, by name
_IMPORT_DIFF = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "before = set(sys.modules); import taxprob.cli; "
                "print(' '.join(sorted(set(sys.modules) - before)))")


def test_cli_import_loads_no_dataclass_machinery():
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_DIFF, str(SRC)],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added = set(proc.stdout.split())
    assert "taxprob.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def _bird_answer():
    parsed = load_fixture("bird")
    return local_query(parsed.kb, parsed.queries[0])


RECORD_KINDS = ("TraceStep", "ChainDiagnostic", "ConsistencyVerdict",
                "Condition", "QueryAnswer", "ProbabilisticFormula",
                "CoherenceViolation", "TaxonomicFormula", "Diagnostic",
                "ParsedKb", "AtomSystem", "Operand")


@pytest.fixture(scope="module")
def records():
    """One record of each public kind, taken from fixtures where they have
    one, by kind name."""
    bird = load_fixture("bird")
    answer = _bird_answer()
    (finding,) = survey_chains(load_fixture("row_b").kb)
    incoherent = parse_kb("basics: a b\ntax: a -> b\n"
                          "prob: ( b | a ) [ 0.9, 1 ]\n")
    with pytest.raises(KbFormatError) as err:
        parse_kb("basics: a b\nprob: ( b | a )\n")
    return {
        "TraceStep": answer.trace[0],
        "ChainDiagnostic": finding,
        "ConsistencyVerdict": finding.verdict,
        "Condition": CONDITIONS[0],
        "QueryAnswer": answer,
        "ProbabilisticFormula": bird.kb.probabilistic[0],
        "CoherenceViolation": validate_coherence(incoherent.kb)[0],
        "TaxonomicFormula": bird.kb.taxonomy.formulas[0],
        "Diagnostic": err.value.diagnostics[0],
        "ParsedKb": bird,
        "AtomSystem": build_atom_system(bird.kb),
        "Operand": SHARPENING_BA_LOWER[0],
    }


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_record_is_an_immutable_value(records, kind):
    record = records[kind]
    assert type(record).__name__ == kind
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)


def test_fixture_records_print_as_before():
    answer = _bird_answer()
    assert str(answer) == "[0, 1/20]"
    assert str(answer.trace[0]) == (
        "fusion: (bird fly | bird) [0, 1] -> [19/20, 1] "
        "[chain A=bird, B=bird, C=fly; lower: x1+v1-1, x1; upper: v2, x2]")
    (finding,) = survey_chains(load_fixture("row_b").kb)
    assert str(finding.verdict) == (
        "inconsistent (conditions 2, 5; forced false: A, B, C)")
    assert str(finding) == ("chain A=A, B=B, C=C: inconsistent "
                            "(conditions 2, 5; forced false: A, B, C)")


def test_empty_answer_convention():
    empty = QueryAnswer.empty_answer()
    assert empty.empty
    assert (empty.lower, empty.upper, empty.trace) == (Fraction(1),
                                                       Fraction(0), ())
    assert str(empty) == (
        "[1, 0] (empty: premise has no positive-probability model)")
    assert not QueryAnswer(Fraction(0), Fraction(1)).empty
