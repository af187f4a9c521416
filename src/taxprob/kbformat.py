"""Line-oriented text format for knowledge bases and goals.

    # comment, blank lines ignored
    basics: typh fever head
    tax: diar -> const_or_diar
    tax: leg typh -> false
    prob: ( fever head | typh ) [ 0.8, 1 ]
    query: ( fever head | typh )

An event is `true`, `false`, or one or more identifiers (a conjunction).
Bounds are decimals (`0.95`) or `p/q` fractions (`19/20`), parsed as exact
rationals (0.95 is 19/20, never a binary float); signs, exponents and
underscores are not part of the format.  With a `basics:` line every
identifier must be declared; without one the universe is inferred from the
identifiers used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import TaxprobError
from .events import (KEYWORDS, ConjunctiveEvent, Universe, is_event_name,
                     normalize_event)
from .intervals import Interval, parse_bound
from .kb import KnowledgeBase, ProbabilisticFormula
from .taxonomy import TaxonomicFormula, TaxonomyStore


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class KbFormatError(TaxprobError):
    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ParsedKb:
    kb: KnowledgeBase
    queries: List[Tuple[ConjunctiveEvent, ConjunctiveEvent]]
    warnings: List[str] = field(default_factory=list)


# one grammar for the conditional `( H | G )`: a prob: line follows it with
# `[ lo, hi ]`, a query: line and a goal end with it
_STATEMENT_RE = re.compile(
    r"\(\s*([^|)]+)\|([^)]+)\)\s*(?:\[\s*([^,\]]+),([^\]]+)\]\s*)?\Z")

# the diagnostic of a statement that does not have its kind's shape,
# formatted with the statement's text
_MALFORMED = {
    "tax": "tax: line needs '->'",
    "prob": "malformed prob: line (expected 'prob: ( H | G ) [ lo, hi ]')",
    "query": "malformed query: line (expected 'query: ( F | E )')",
    "goal": "malformed goal: {text!r}",
}


def _split_event(text: str, line: int, errors: List[Diagnostic]
                 ) -> Optional[List[str]]:
    tokens = text.split()
    if not tokens:
        errors.append(Diagnostic(line, "empty event"))
        return None
    for tok in tokens:
        if tok not in KEYWORDS and not is_event_name(tok):
            errors.append(Diagnostic(line, f"malformed identifier {tok!r}"))
            return None
    return tokens


def _read_statement(kind: str, text: str, line: int,
                    errors: List[Diagnostic]) -> Optional[tuple]:
    """The two event token lists and the two bound texts (None but on a
    prob: line) of a statement of `kind`, a key of `_MALFORMED`; None, with
    its diagnostics appended to `errors`, when it is malformed."""
    if kind == "tax":
        lhs, arrow, rhs = text.partition("->")
        parts = (lhs, rhs, None, None) if arrow else None
    else:
        m = _STATEMENT_RE.match(text.strip())
        parts = (m.groups() if m and (m.group(3) is None) != (kind == "prob")
                 else None)
    if parts is None:
        errors.append(Diagnostic(line, _MALFORMED[kind].format(text=text)))
        return None
    events = [_split_event(part, line, errors) for part in parts[:2]]
    return None if None in events else (events, parts[2:])


def _sites(line: int, events: List[List[str]]):
    """(line, token) of each identifier in a statement's event tokens."""
    return [(line, tok) for tokens in events for tok in tokens
            if tok not in KEYWORDS]


def _unknown_identifiers(sites, known) -> List[Diagnostic]:
    """A diagnostic per (line, token) site whose token is not `known`."""
    return [Diagnostic(line, f"unknown identifier {tok!r}")
            for line, tok in sites if tok not in known]


def parse_kb(text: str) -> ParsedKb:
    """Parse a KB document; raises KbFormatError with positioned diagnostics."""
    errors: List[Diagnostic] = []
    declared: Optional[List[str]] = None
    declared_line = 0
    # each statement once: kind -> [(line, event token lists, bound texts)]
    statements: dict = {"tax": [], "prob": [], "query": []}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or head != "basics" and head not in statements:
            errors.append(Diagnostic(
                lineno, f"malformed line (expected basics/tax/prob/query): {line!r}"))
            continue
        if head == "basics":
            if declared is not None:
                errors.append(Diagnostic(lineno, "duplicate basics: line"))
                continue
            names = rest.split()
            if not names:
                errors.append(Diagnostic(lineno, "basics: needs at least one name"))
                continue
            bad = [n for n in names if not is_event_name(n)]
            if bad:
                errors.append(Diagnostic(
                    lineno, f"invalid basic-event names: {', '.join(bad)}"))
                continue
            declared = names
            declared_line = lineno
        else:
            statement = _read_statement(head, rest, lineno, errors)
            if statement is not None:
                statements[head].append((lineno, *statement))

    sites = [site for table in statements.values()
             for lineno, events, _ in table for site in _sites(lineno, events)]
    if declared is not None:
        errors += _unknown_identifiers(sites, set(declared))
        names = declared
    else:
        names = sorted({tok for _, tok in sites})
        if not names:
            errors.append(Diagnostic(
                declared_line or 1,
                "no basic events declared or used"))

    if errors:
        raise KbFormatError(errors)

    universe = Universe(names)
    tax_formulas = [
        TaxonomicFormula(*(normalize_event(t, universe) for t in events))
        for _, events, _ in statements["tax"]]

    prob_formulas: List[ProbabilisticFormula] = []
    for lineno, events, (lo_text, hi_text) in statements["prob"]:
        try:
            lo = parse_bound(lo_text)
            hi = parse_bound(hi_text)
        except ValueError as exc:
            errors.append(Diagnostic(lineno, str(exc)))
            continue
        if lo > hi:
            errors.append(Diagnostic(
                lineno, f"lower exceeds upper: [{lo_text.strip()}, {hi_text.strip()}]"))
            continue
        prob_formulas.append(ProbabilisticFormula(
            *(normalize_event(t, universe) for t in events),
            Interval.make(lo, hi)))

    if errors:
        raise KbFormatError(errors)

    taxonomy = TaxonomyStore(universe, tax_formulas)
    kb = KnowledgeBase(universe, taxonomy, prob_formulas)
    queries = [tuple(normalize_event(t, universe) for t in events)
               for _, events, _ in statements["query"]]
    return ParsedKb(kb, queries, list(kb.merge_notes))


def parse_goal(text: str, universe: Universe
               ) -> Tuple[ConjunctiveEvent, ConjunctiveEvent]:
    """Parse a goal of the form '( F | E )' against a known universe."""
    errors: List[Diagnostic] = []
    statement = _read_statement("goal", text, 1, errors)
    if statement is not None:
        errors += _unknown_identifiers(_sites(1, statement[0]),
                                       universe.index)
    if errors:
        raise KbFormatError(errors)
    return tuple(normalize_event(t, universe) for t in statement[0])


def render_kb(kb: KnowledgeBase, queries=()) -> str:
    """Render a KB (and optional queries) back to the text format."""
    lines = ["basics: " + " ".join(kb.universe.names)]
    for fm in kb.taxonomy.formulas:
        lines.append(f"tax: {fm.lhs} -> {fm.rhs}")
    for fm in kb.probabilistic:
        lines.append(
            f"prob: ( {fm.conclusion} | {fm.premise} ) "
            f"[ {fm.interval.lo}, {fm.interval.hi} ]")
    for f, e in queries:
        lines.append(f"query: ( {f} | {e} )")
    return "\n".join(lines) + "\n"
