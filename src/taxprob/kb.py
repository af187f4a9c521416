"""The combined knowledge base: taxonomy plus interval-bounded conditionals.

Also home of the two validation services every consumer relies on:

* coherence checking — the syntactic agreement between the taxonomy and the
  asserted bounds (an upper bound is 0 exactly when the taxonomy forces the
  conjunction false, a lower bound is 1 exactly when it entails the
  implication), and
* canonical intervals — the taxonomy-forced default bounds for a conditional
  that has no assertion, used to instantiate chains.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .errors import ProbabilisticConflictError
from .events import BOTTOM, ConjunctiveEvent, Universe, conjoin
from .intervals import Interval, POINT_ONE, POINT_ZERO, UNIT
from .taxonomy import TaxonomyStore


class ProbabilisticFormula(NamedTuple):
    """An interval restriction (conclusion | premise)[lo, hi]."""

    conclusion: ConjunctiveEvent
    premise: ConjunctiveEvent
    interval: Interval

    def __str__(self):
        return f"({self.conclusion} | {self.premise})[{self.interval.lo}, {self.interval.hi}]"


class CoherenceViolation(NamedTuple):
    formula: ProbabilisticFormula
    kind: str  # "premise-false" | "upper-must-be-zero" |
    #            "upper-must-not-be-zero" | "lower-must-be-one" |
    #            "lower-must-not-be-one"
    message: str

    def __str__(self):
        return f"{self.formula}: {self.message}"


class KnowledgeBase:
    """Immutable KB: a universe, a taxonomy store, and asserted conditionals.

    At most one interval is stored per (conclusion, premise) pair; duplicate
    assertions are intersected at load time (callers can surface the returned
    merge notes as warnings).
    """

    def __init__(self, universe: Universe, taxonomy: TaxonomyStore,
                 probabilistic: Iterable[ProbabilisticFormula] = ()):
        if taxonomy.universe is not universe:
            raise ValueError("taxonomy store must share the KB universe")
        self.universe = universe
        self.taxonomy = taxonomy
        self.merge_notes: List[str] = []
        merged: Dict[Tuple[ConjunctiveEvent, ConjunctiveEvent],
                     ProbabilisticFormula] = {}
        for fm in probabilistic:
            universe.check_event(fm.conclusion)
            universe.check_event(fm.premise)
            key = (fm.conclusion, fm.premise)
            old = merged.get(key)
            if old is None:
                merged[key] = fm
                continue
            meet = old.interval.intersect(fm.interval)
            if meet is None:
                raise ProbabilisticConflictError(
                    fm.conclusion, fm.premise, old.interval, fm.interval,
                    "duplicate assertions for one conditional")
            self.merge_notes.append(
                f"duplicate assertion for ({fm.conclusion} | {fm.premise}): "
                f"intersected {old.interval} with {fm.interval} to {meet}")
            merged[key] = ProbabilisticFormula(fm.conclusion, fm.premise, meet)
        self._by_pair: Dict[Tuple[ConjunctiveEvent, ConjunctiveEvent],
                            Interval] = {
            k: fm.interval for k, fm in merged.items()}
        self.probabilistic: Tuple[ProbabilisticFormula, ...] = tuple(
            sorted(merged.values(),
                   key=lambda f: (f.premise.sort_key, f.conclusion.sort_key)))

    def events_in_formulas(self) -> List[ConjunctiveEvent]:
        """Every conjunctive event that occurs syntactically in the KB."""
        seen = set()
        for fm in self.taxonomy.formulas:
            seen.update((fm.lhs, fm.rhs))
        for fm in self.probabilistic:
            seen.update((fm.conclusion, fm.premise))
        seen.discard(BOTTOM)
        return sorted(seen, key=lambda e: e.sort_key)

    def canonical_interval(self, conclusion: ConjunctiveEvent,
                           premise: ConjunctiveEvent) -> Interval:
        """Taxonomy-forced default bounds for a conditional, refined by any
        asserted interval for the same pair.

        Starts from [0, 1]; becomes [1, 1] when the taxonomy entails
        premise -> conclusion, then [0, 0] when it forces their conjunction
        false (for a taxonomy-false premise both hold and the false-premise
        value is [0, 0]).  Raises ProbabilisticConflictError when the asserted
        interval does not intersect the forced one.

        Not memoized: the engine's bound table (`engine.DeductionState.bounds`)
        stores it on a pair's first read, one table per saturation state.
        """
        iv = self.canonical_taxonomic(conclusion, premise)
        asserted = self._by_pair.get((conclusion, premise))
        if asserted is not None:
            meet = iv.intersect(asserted)
            if meet is None:
                raise ProbabilisticConflictError(
                    conclusion, premise, iv, asserted,
                    "asserted interval contradicts the taxonomy")
            iv = meet
        return iv

    def canonical_taxonomic(self, conclusion: ConjunctiveEvent,
                            premise: ConjunctiveEvent) -> Interval:
        """The taxonomy-forced part of the canonical interval (no assertions)."""
        tax = self.taxonomy
        mp = self.universe.mask_of(premise)
        mc = self.universe.mask_of(conclusion)
        if tax.closure_mask(mp | mc) < 0:
            return POINT_ZERO  # the conjunction is taxonomy-false
        if not mc & ~tax.closure_mask(mp):
            return POINT_ONE  # premise -> conclusion is entailed
        return UNIT


def validate_coherence(kb: KnowledgeBase) -> List[CoherenceViolation]:
    """Check every asserted conditional against the taxonomy.

    For each (H|G)[l, u]: u must be 0 exactly when the taxonomy forces GH
    false, and l must be 1 exactly when it entails G -> H.  A G that the
    taxonomy forces false meets both conditions, which no interval can
    satisfy, so such an assertion is one violation of its own kind,
    "premise-false".  Violations are returned as data; an empty list means
    the KB is coherent.
    """
    out: List[CoherenceViolation] = []
    tax = kb.taxonomy
    for fm in kb.probabilistic:
        gh_false = tax.forces_false(conjoin(fm.premise, fm.conclusion))
        implied = tax.entails(fm.premise, fm.conclusion)
        if gh_false and implied:
            # G -> H puts H inside cl(G), so cl(G) = cl(GH), which is falsum:
            # both hold exactly when G itself is taxonomy-false
            out.append(CoherenceViolation(
                fm, "premise-false",
                f"taxonomy forces the premise {fm.premise} false, so no "
                "interval can be asserted for it"))
            continue
        u = fm.interval.hi
        l = fm.interval.lo
        if gh_false and u != 0:
            out.append(CoherenceViolation(
                fm, "upper-must-be-zero",
                f"taxonomy forces {conjoin(fm.premise, fm.conclusion)} false, "
                f"so the upper bound must be 0 (got {u})"))
        elif not gh_false and u == 0:
            out.append(CoherenceViolation(
                fm, "upper-must-not-be-zero",
                "upper bound 0 requires the taxonomy to force "
                f"{conjoin(fm.premise, fm.conclusion)} false"))
        if implied and l != 1:
            out.append(CoherenceViolation(
                fm, "lower-must-be-one",
                f"taxonomy entails {fm.premise} -> {fm.conclusion}, "
                f"so the lower bound must be 1 (got {l})"))
        elif not implied and l == 1:
            out.append(CoherenceViolation(
                fm, "lower-must-not-be-one",
                f"lower bound 1 requires the taxonomy to entail "
                f"{fm.premise} -> {fm.conclusion}"))
    return out


class QueryAnswer(NamedTuple):
    """Bounds for a query, and the one home of the (1, 0) empty-answer
    convention: a premise that no model gives positive probability is
    answered (1, 0), which `empty_answer` builds and `empty` recognises.
    Every other answer is an interval 0 <= lower <= upper <= 1.
    """

    lower: Fraction
    upper: Fraction
    trace: tuple = ()

    @property
    def empty(self) -> bool:
        return self.lower > self.upper

    @staticmethod
    def empty_answer() -> "QueryAnswer":
        return QueryAnswer(Fraction(1), Fraction(0))

    def __str__(self):
        if self.empty:
            return "[1, 0] (empty: premise has no positive-probability model)"
        return f"[{self.lower}, {self.upper}]"
