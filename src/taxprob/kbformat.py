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


_PROB_RE = re.compile(
    r"\(\s*(?P<concl>[^|)]+)\|(?P<prem>[^)]+)\)\s*"
    r"\[\s*(?P<lo>[^,\]]+),(?P<hi>[^\]]+)\]\s*\Z")
_GOAL_RE = re.compile(r"\(\s*(?P<concl>[^|)]+)\|(?P<prem>[^)]+)\)\s*\Z")


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


def parse_kb(text: str) -> ParsedKb:
    """Parse a KB document; raises KbFormatError with positioned diagnostics."""
    errors: List[Diagnostic] = []
    declared: Optional[List[str]] = None
    declared_line = 0
    tax_decls: List[Tuple[int, List[str], List[str]]] = []
    prob_decls: List[Tuple[int, List[str], List[str], str, str]] = []
    query_decls: List[Tuple[int, List[str], List[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or head not in ("basics", "tax", "prob", "query"):
            errors.append(Diagnostic(
                lineno, f"malformed line (expected basics/tax/prob/query): {line!r}"))
            continue
        rest = rest.strip()
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
        elif head == "tax":
            lhs_text, arrow, rhs_text = rest.partition("->")
            if not arrow:
                errors.append(Diagnostic(lineno, "tax: line needs '->'"))
                continue
            lhs = _split_event(lhs_text, lineno, errors)
            rhs = _split_event(rhs_text, lineno, errors)
            if lhs is not None and rhs is not None:
                tax_decls.append((lineno, lhs, rhs))
        elif head == "prob":
            m = _PROB_RE.match(rest)
            if not m:
                errors.append(Diagnostic(
                    lineno, "malformed prob: line (expected "
                            "'prob: ( H | G ) [ lo, hi ]')"))
                continue
            concl = _split_event(m.group("concl"), lineno, errors)
            prem = _split_event(m.group("prem"), lineno, errors)
            if concl is not None and prem is not None:
                prob_decls.append((lineno, concl, prem,
                                   m.group("lo"), m.group("hi")))
        else:  # query
            m = _GOAL_RE.match(rest)
            if not m:
                errors.append(Diagnostic(
                    lineno, "malformed query: line (expected 'query: ( F | E )')"))
                continue
            concl = _split_event(m.group("concl"), lineno, errors)
            prem = _split_event(m.group("prem"), lineno, errors)
            if concl is not None and prem is not None:
                query_decls.append((lineno, concl, prem))

    sites = [(lineno, tok) for lineno, tokens
             in _all_token_sites(tax_decls, prob_decls, query_decls)
             for tok in tokens if tok not in KEYWORDS]
    if declared is not None:
        known = set(declared)
        for lineno, tok in sites:
            if tok not in known:
                errors.append(Diagnostic(lineno, f"unknown identifier {tok!r}"))
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

    def event(tokens: List[str]) -> ConjunctiveEvent:
        return normalize_event(tokens, universe)

    tax_formulas = [TaxonomicFormula(event(lhs), event(rhs))
                    for _, lhs, rhs in tax_decls]

    prob_formulas: List[ProbabilisticFormula] = []
    for lineno, concl, prem, lo_text, hi_text in prob_decls:
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
            event(concl), event(prem), Interval.make(lo, hi)))

    if errors:
        raise KbFormatError(errors)

    taxonomy = TaxonomyStore(universe, tax_formulas)
    kb = KnowledgeBase(universe, taxonomy, prob_formulas)
    queries = [(event(concl), event(prem)) for _, concl, prem in query_decls]
    return ParsedKb(kb, queries, list(kb.merge_notes))


def _all_token_sites(tax_decls, prob_decls, query_decls):
    for lineno, lhs, rhs in tax_decls:
        yield lineno, lhs
        yield lineno, rhs
    for lineno, concl, prem, _, _ in prob_decls:
        yield lineno, concl
        yield lineno, prem
    for lineno, concl, prem in query_decls:
        yield lineno, concl
        yield lineno, prem


def parse_goal(text: str, universe: Universe
               ) -> Tuple[ConjunctiveEvent, ConjunctiveEvent]:
    """Parse a goal of the form '( F | E )' against a known universe."""
    m = _GOAL_RE.match(text.strip())
    if not m:
        raise KbFormatError([Diagnostic(1, f"malformed goal: {text!r}")])
    errors: List[Diagnostic] = []
    concl = _split_event(m.group("concl"), 1, errors)
    prem = _split_event(m.group("prem"), 1, errors)
    if errors:
        raise KbFormatError(errors)
    try:
        return (normalize_event(concl, universe),
                normalize_event(prem, universe))
    except TaxprobError as exc:
        raise KbFormatError([Diagnostic(1, str(exc))]) from exc


def _render_bound(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_kb(kb: KnowledgeBase, queries=()) -> str:
    """Render a KB (and optional queries) back to the text format."""
    lines = ["basics: " + " ".join(kb.universe.names)]
    for fm in kb.taxonomy.formulas:
        lines.append(f"tax: {fm.lhs} -> {fm.rhs}")
    for fm in kb.probabilistic:
        lines.append(
            f"prob: ( {fm.conclusion} | {fm.premise} ) "
            f"[ {_render_bound(fm.interval.lo)}, {_render_bound(fm.interval.hi)} ]")
    for f, e in queries:
        lines.append(f"query: ( {f} | {e} )")
    return "\n".join(lines) + "\n"
