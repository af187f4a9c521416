"""Per-layer tracing for the benchmark's traced run, from outside the program.

`Tracer.install()` wraps the public functions of each taxprob layer where
their callers look them up: a function imported by name into another module
(`engine` imports `conjoin`, `check_consistency`, `evaluate_slots` and
`ChainPremise`; `oracle` imports `solve_lp` and `enumerate_atom_masks`) is
replaced in every module that holds it, and methods are replaced on their
class.  `uninstall()` puts the originals back.

Coarse calls (parsing, coherence, seeding, saturation, the oracle and the LP)
are recorded as spans with a parent id.  Hot calls (conjoin, canonical
intervals, guard flags, chain construction, consistency checks, slot
evaluation) are only counted and timed, keyed by the innermost open span, so
that for example chain counts split between `saturate` and `survey_chains`.
Times are inclusive of nested calls.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from taxprob import chains, cli, engine, events, kb, kbformat, lp, oracle, rules, taxonomy

MODULES = (chains, cli, engine, events, kb, kbformat, lp, oracle, rules, taxonomy)

# (module that defines it, name, span name)
SPANNED = (
    (kbformat, "parse_kb", "kbformat.parse_kb"),
    (kb, "validate_coherence", "kb.validate_coherence"),
    (engine, "survey_chains", "engine.survey_chains"),
    (engine, "local_query", "engine.local_query"),
    (engine, "seed_state", "engine.seed_state"),
    (engine, "saturate", "engine.saturate"),
    (engine, "trace_slice", "engine.trace_slice"),
    (oracle, "tight_answer", "oracle.tight_answer"),
    (oracle, "build_atom_system", "oracle.build_atom_system"),
    (events, "enumerate_atom_masks", "events.enumerate_atom_masks"),
    (lp, "solve_lp", "lp.solve_lp"),
)

COUNTED = (
    (events, "conjoin", "events.conjoin"),
    (chains, "check_consistency", "chains.check_consistency"),
    (rules, "evaluate_slots", "rules.evaluate_slots"),
)

COUNTED_METHODS = (
    (kb.KnowledgeBase, "canonical_interval", "kb.canonical_interval"),
    (taxonomy.TaxonomyStore, "guard_flags", "taxonomy.guard_flags"),
    (taxonomy.TaxonomyStore, "entails", "taxonomy.entails"),
    (taxonomy.TaxonomyStore, "forces_false", "taxonomy.forces_false"),
)


class Tracer:
    """Spans and counters for every operation run while installed."""

    def __init__(self):
        self.spans = []          # [id, parent, name, op, start, end]
        self.stack = []          # open spans
        self.calls = defaultdict(int)     # (name, parent span name) -> calls
        self.seconds = defaultdict(float)  # (name, parent span name) -> s
        self.facts = defaultdict(list)    # name -> per-call observations
        self.op = None
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = [len(self.spans), parent[0] if parent else None, name,
                self.op, perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[5] = perf_counter()
        self.stack.pop()

    def _where(self):
        return self.stack[-1][2] if self.stack else "-"

    def span_seconds(self, name):
        return sum(s[5] - s[4] for s in self.spans if s[2] == name)

    def span_count(self, name):
        return sum(1 for s in self.spans if s[2] == name)

    def total(self, table, name, parent=None):
        return sum(v for (n, p), v in table.items()
                   if n == name and (parent is None or p == parent))

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "events.enumerate_atom_masks":
                    # a generator: drain it inside the span
                    result = iter(tuple(result))
            finally:
                tracer._close(span)
            tracer._observe(name, args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        calls, seconds, where = self.calls, self.seconds, self._where
        verdicts = name == "chains.check_consistency"

        def wrapper(*args, **kwargs):
            key = (name, where())
            calls[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - t0
            if verdicts and not result.consistent:
                calls[("chains.inconsistent", key[1])] += 1
            return result
        return wrapper

    def _observe(self, name, args, result):
        """Record sizes and outcomes taken from a finished coarse call."""
        facts = self.facts
        if name == "engine.seed_state" and self._where() == "engine.local_query":
            facts["pool_events"].append(len(result.pool))
            facts["role_events"].append(len(result.role_pool))
        elif name == "engine.saturate":
            state = result
            facts["sweeps"].append(state.sweeps_run)
            facts["improvements"].append(len(state.trace))
            # saturate keeps the "max-sweeps" label when candidate links run
            # out early, so a budget stop is read from the sweep count
            facts["max_sweeps_stops"].append(
                int(state.sweeps_run == state.config.max_sweeps))
            facts["stop_labels"].append(state.stop_reason)
        elif name == "oracle.build_atom_system":
            facts["atom_systems"].append(result)
        elif name == "oracle.tight_answer":
            systems = facts.pop("atom_systems", [])
            if systems:
                system = systems[-1]
                facts["atoms"].append(len(system.atom_masks))
                facts["active_rows"].append(len(system.active_rows()))
        elif name == "lp.solve_lp":
            facts["columns"].append(len(args[0]))

    # -- install / uninstall ----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, label in SPANNED:
            fn = getattr(module, name)
            self._replace_everywhere(fn, self._spanned(fn, label))
        for module, name, label in COUNTED:
            fn = getattr(module, name)
            self._replace_everywhere(fn, self._counted(fn, label))
        # chain constructions are counted where the engine makes them only;
        # rules.swap_chain builds mirrored chains that are not candidates
        self._saved.append((engine, "ChainPremise", engine.ChainPremise))
        engine.ChainPremise = self._counted(engine.ChainPremise, "chains.built")
        for cls, name, label in COUNTED_METHODS:
            fn = vars(cls)[name]
            self._saved.append((cls, name, fn))
            setattr(cls, name, self._counted(fn, label))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
