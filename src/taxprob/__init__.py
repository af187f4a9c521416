"""Deduction over taxonomic-probabilistic knowledge bases.

Answers interval-probability queries over conjunctive events two ways: a
local engine that saturates guarded inference rules to a fixpoint, and a
globally complete oracle that solves exact linear programs over the
taxonomy-consistent atomic events.  Running both surfaces the gap between
local and global deduction for any given knowledge base.

Its records (answers, trace steps, formulas, diagnostics, `EngineConfig`)
are `typing.NamedTuple`s: immutable, and compared and hashed by value.
They cost little to define, which keeps `import taxprob.cli` fast;
`tests/test_records.py` checks which modules that import loads.
"""

from .chains import ChainPremise, ConsistencyVerdict, check_consistency
from .engine import (DeductionState, EngineConfig, TraceStep, local_query,
                     saturate, seed_state, survey_chains)
from .errors import (AtomSpaceError, CoherenceError,
                     ProbabilisticConflictError, TaxprobError,
                     UnknownEventError)
from .events import (BOTTOM, TOP, ConjunctiveEvent, Universe, conjoin,
                     conjunction, enumerate_atom_masks, mask_implies,
                     normalize_event)
from .intervals import Interval, fmt_decimal
from .kb import (CoherenceViolation, KnowledgeBase, ProbabilisticFormula,
                 QueryAnswer, validate_coherence)
from .kbformat import (Diagnostic, KbFormatError, ParsedKb, parse_goal,
                       parse_kb, render_kb)
from .oracle import AtomSystem, build_atom_system, tight_answer
from .rules import ALL_RULES
from .taxonomy import TaxonomicFormula, TaxonomyStore

__version__ = "0.1.0"
