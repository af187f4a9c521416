"""Iterative local deduction: seed, saturate, query.

The engine keeps one best-known interval per (conclusion, premise) pair,
defaulting to the canonical (taxonomy-forced) interval, and repeatedly applies
the inference rules to candidate chains until no interval strictly shrinks.

Candidate selection: a chain whose four input conditionals all sit at their
canonical values cannot improve anything — the rules are locally complete, so
their output is then exactly the tight consequence of the taxonomy alone,
which the canonical defaults already encode.  Each sweep therefore only
evaluates chains that read at least one *informative* pair (an interval
strictly tighter than its taxonomy-forced value): initially the asserted
bounds, later anything a rule improved.  `survey_chains`, behind the check
command, selects the same way on the seeded state, so it checks the asserted
bounds' chains, in (A, B, C) role order, and of those only the ones that can
fail: no consistency condition fires on a chain whose A-B half, (B|A) and
(A|B), or whose B-C half, (C|B) and (B|C), is [0, 1] on both conditionals,
because each condition compares a bound of one half with one of the other
(`survey_chains` gives the proof).  Chains containing a taxonomy-false
role event are skipped entirely; such premises cannot belong to a coherent
chain, and every conditional over them is already settled by convention.

Events and intervals are interned (one object per value, never freed), so
every table here is keyed by the objects themselves.  The bound table
(`DeductionState.bounds`) maps (conclusion, premise) event pairs to their
best known interval and fills itself: a pair read for the first time gets
the KB's canonical interval, stored there.  Rule evaluation is cached by
the chain's value signature (u, v, x, y, guards): the four bound intervals
themselves and the `taxonomy.guard_bits` word of the chain's nine taxonomy
facts, every `ChainPremise` constructor argument but the roles.  It
collapses the large families of isomorphic chains that big uniform
knowledge bases produce.

Saturation works on dense role ids: role events are numbered in `sort_key`
order, and `_candidate_groups` yields the candidates as groups (b, a, cs)
in (B, A) order, each group the C ids of the chains with that middle and
first role, so flattening the groups gives the triples in (B, A, C) int
order.  The signature splits along that layout:
* per group, its A-B half: the intervals of (B|A) and (A|B) from the bound
  table, cl(A) and cl(AB); the two intervals are read again after each
  chain whose slot results were applied;
* per B, a row indexed by C, filled on first use: the intervals of (C|B)
  and (B|C) and cl(BC); a store to one of those pairs empties its entry,
  which the next chain that needs it fills again;
* per chain, the rest: cl(C), cl(AC), the closure of the whole triple,
  and the guard word from `taxonomy.guard_bits` over those closures.
Every closure is read through `TaxonomyStore.closure_mask`, the package's
one closure memo, which lives as long as the taxonomy.  The conjunction
events of chains with cached slot results come from a dict keyed by the
unordered pair of role ids, which one `saturate` call fills on first use,
so it grows with the pairs the sweeps touch, not with the square of the
pool.
On a signature-cache miss, and only there, the chain is built from the
signature as `ChainPremise(a, b, c, *signature)`, with no guard test of
its own, and `rules.evaluate_chain` checks it and calls the one generated
runner once, which evaluates each of the chain's twelve distinct slots
once: the `rules.RULE_SLOTS` rows, then the ones
whose slot is not its own mirror on the mirrored chain's arguments.  The
cache keeps what it returns: only the `rules.SlotResult` records that can
still tighten a bound.  Each slot's target lies within a
bound that the signature decides (`rules.KNOWN_BOUND`): on an input slot,
(B|A), (A|B), (C|B) or (B|C), the chain's own input; on any other, its
taxonomy-forced interval, which the flags give, except that they cannot
tell [1, 1] from [0, 1] for (AC|B), for (AB|C) under beta and for (BC|A)
under gamma.  Bounds only shrink, from canonical ∩ asserted, so a result
that contains its known bound contains the current one too: it can neither
improve nor conflict, and checking it only stored a first-read canonical
interval that any later read recomputes alike.  So every trace step and
conflict stays, and an entry holds for every chain with its signature, in
any `saturate` of the state.  A cached slot resolves to its conclusion and
premise events through `rules.SLOT_PART_INDEX`, positions in the six part
events of the chain; nothing else in the package evaluates or resolves
rule slots.

Saturation towards a goal can stop early (`saturate`'s goal-tight stop):
given a callable that returns the goal's exact answer, it stops at the
first store that puts that answer on the goal pair, since soundness leaves
no later store anything to change there, and the trace slice ends at that
store.  The callable runs at most once, at the first store on the goal
pair, so a goal that no rule improves never pays for the oracle.  The CLI
bounds the oracle call of `--method local` by `cli.STOP_ATOM_CAP` (2^10
atoms or elimination-table entries) and saturates to the fixpoint past it.

`survey_chains` builds each of its chains the same way, from the same
signature, read from the bound table and `closure_mask`: this is the
package's one way to build a chain.  A consistency verdict, too, depends on
the signature alone, so the survey caches it by the signature and builds a
chain only on a miss.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from .chains import ChainPremise, ConsistencyVerdict, check_consistency
from .errors import CoherenceError, ProbabilisticConflictError
from .events import TOP, ConjunctiveEvent, conjoin
from .intervals import UNIT, Interval
from .kb import KnowledgeBase, QueryAnswer, validate_coherence
from .rules import ALL_RULES, SLOT_PART_INDEX, evaluate_chain
from .taxonomy import guard_bits

POOL_POLICIES = ("kb-events", "kb-plus-products")
# the kb-plus-products pool grows by pairwise products up to this many events
POOL_CAP = 512


class _ConfigFields(NamedTuple):
    enabled_rules: FrozenSet[str] = ALL_RULES
    pool_policy: str = "kb-plus-products"
    max_sweeps: int = 100


class EngineConfig(_ConfigFields):
    """The engine's settings; the constructor refuses invalid ones."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.enabled_rules:
            raise ValueError("enabled_rules must be nonempty")
        unknown = self.enabled_rules - ALL_RULES
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        if self.pool_policy not in POOL_POLICIES:
            raise ValueError(f"pool_policy must be one of {POOL_POLICIES}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through `__new__`, so `_replace` validates too."""
        return cls(*iterable)


class TraceStep(NamedTuple):
    """One strict interval improvement and the chain that produced it."""

    rule: str
    a: ConjunctiveEvent
    b: ConjunctiveEvent
    c: ConjunctiveEvent
    conclusion: ConjunctiveEvent
    premise: ConjunctiveEvent
    old: Interval
    new: Interval
    lower_tags: Tuple[str, ...]
    upper_tags: Tuple[str, ...]

    @property
    def produced_key(self):
        return (self.conclusion, self.premise)

    @property
    def input_keys(self):
        return ((self.b, self.a), (self.a, self.b), (self.c, self.b),
                (self.b, self.c))

    def __str__(self):
        return (f"{self.rule}: ({self.conclusion} | {self.premise}) "
                f"{self.old} -> {self.new} "
                f"[chain A={self.a}, B={self.b}, C={self.c}; "
                f"lower: {', '.join(self.lower_tags) or '-'}; "
                f"upper: {', '.join(self.upper_tags) or '-'}]")


class ChainDiagnostic(NamedTuple):
    a: ConjunctiveEvent
    b: ConjunctiveEvent
    c: ConjunctiveEvent
    verdict: ConsistencyVerdict

    def __str__(self):
        return f"chain A={self.a}, B={self.b}, C={self.c}: {self.verdict}"


class _BoundTable(dict):
    """(conclusion, premise) -> best known interval; a pair read for the
    first time gets the KB's canonical interval, stored there."""

    __slots__ = ("kb",)

    def __init__(self, kb: KnowledgeBase):
        super().__init__()
        self.kb = kb

    def __missing__(self, key):
        iv = self[key] = self.kb.canonical_interval(*key)
        return iv


class DeductionState:
    """Mutable saturation state over an immutable KB.

    `bounds` is the state's one bound table: every (conclusion, premise)
    event pair read or stored so far, mapped to its best known interval, and
    filled with the canonical interval on a pair's first read.  It lives as
    long as the state, so a second `saturate` of the same state starts from
    every stored improvement.  `informative` holds the pairs whose interval
    is strictly tighter than their taxonomy-forced one.
    """

    def __init__(self, kb: KnowledgeBase, config: EngineConfig,
                 pool: Sequence[ConjunctiveEvent],
                 role_pool: Sequence[ConjunctiveEvent]):
        self.kb = kb
        self.config = config
        self.pool = tuple(pool)
        # role ids follow sort_key order, so int order is event order
        self.role_pool = tuple(sorted(role_pool, key=lambda e: e.sort_key))
        self.role_ids = {ev: i for i, ev in enumerate(self.role_pool)}
        self.bounds = _BoundTable(kb)
        self.informative: set = set()
        self.trace: List[TraceStep] = []
        self.sweeps_run = 0
        self.stop_reason: Optional[str] = None
        self._slot_cache: dict = {}


def seed_state(kb: KnowledgeBase, config: EngineConfig = EngineConfig(),
               queries: Iterable[Tuple[ConjunctiveEvent, ConjunctiveEvent]] = ()
               ) -> DeductionState:
    """Build the event pool and seed asserted intervals.

    The pool holds every event occurring in the KB, the true event, and the
    goal events of any queries (including each goal's conjunction); under the
    kb-plus-products policy it is extended by one level of pairwise
    conjunctions, in event order, up to `POOL_CAP` events.
    """
    base = {TOP, *kb.events_in_formulas()}
    for f, e in queries:
        for ev in (f, e, conjoin(f, e)):
            if not ev.is_bottom:
                kb.universe.check_event(ev)
                base.add(ev)
    pool = sorted(base, key=lambda e: e.sort_key)

    if config.pool_policy == "kb-plus-products" and len(pool) < POOL_CAP:
        products = set()
        for i, ev1 in enumerate(pool):
            for ev2 in pool[i + 1:]:
                products.add(conjoin(ev1, ev2))
        extra = sorted(products - base, key=lambda e: e.sort_key)
        room = POOL_CAP - len(pool)
        pool = pool + extra[:room]
        pool.sort(key=lambda e: e.sort_key)

    tax = kb.taxonomy
    role_pool = [ev for ev in pool if not tax.forces_false(ev)]

    state = DeductionState(kb, config, pool, role_pool)
    for fm in kb.probabilistic:
        key = (fm.conclusion, fm.premise)
        if state.bounds[key] is not kb.canonical_taxonomic(*key):
            state.informative.add(key)
    return state


def _links_of(state: DeductionState,
              pair_keys: Iterable[Tuple[ConjunctiveEvent, ConjunctiveEvent]]):
    """Unordered role-id pairs (i <= j) behind the given bound-table keys."""
    role_ids = state.role_ids
    links = set()
    for conclusion, premise in pair_keys:
        i = role_ids.get(conclusion)
        j = role_ids.get(premise)
        if i is not None and j is not None:
            links.add((i, j) if i <= j else (j, i))
    return links


def _candidate_groups(n: int, links
                      ) -> Iterator[Tuple[int, int, Sequence[int]]]:
    """Role-id groups (b, a, cs) of the triples (a, b, c), c in cs, that read
    at least one linked pair, deduped up to mirroring (a <= c), in (B, A, C)
    order.

    A linked pair {w, b} is read by the chains with B = b and w in {A, C}
    (and with B = w, by symmetry); mirror-deduped, those are (b, a, w) for
    a < w and (b, w, c) for c >= w.  So the group (b, a) holds every c >= a
    when a is one of b's link partners, and b's partners above a otherwise
    (one list, shared by the groups between two partners).
    """
    partners: Dict[int, set] = {}
    for x, y in links:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    # middle-role-major order: chains sharing a linking event run together,
    # which also lets chaining derivations through B land before equivalent
    # mirrored-sharpening ones on chains routed through the premise
    for b in sorted(partners):
        ws = sorted(partners[b])
        start = 0
        for k, w in enumerate(ws):
            above = ws[k:]
            for a in range(start, w):
                yield b, a, above
            yield b, w, range(w, n)
            start = w + 1


def saturate(state: DeductionState,
             goal: Optional[Tuple[ConjunctiveEvent, ConjunctiveEvent]] = None,
             exact: Optional[Callable[[], Optional[QueryAnswer]]] = None
             ) -> DeductionState:
    """Sweep candidate chains until fixpoint, the sweep budget runs out, or
    the goal pair is proved tight.

    The stop reason is "max-sweeps" only when the budget ran out with
    candidate links still pending.

    With a `goal` (conclusion, premise) pair and an `exact` callable that
    returns the goal's tight answer (or None), saturation stops as soon as
    a store on the goal pair equals that answer, with the stop reason
    "goal-tight".  `exact` is called lazily, at most once, at the first
    store on the goal pair, so a goal that no rule improves costs no call;
    an empty or None answer never stops.  A nonempty tight answer means
    some model gives the premise positive probability, so every sound
    bound on the goal contains it: no later store can move or conflict on
    the goal pair, and the trace slice, which ends at the goal's last
    store, is the one full saturation gives.  Only a conflict on another
    pair that a later store would have met is no longer raised.  Without
    `exact` the sweeps run exactly as they would without a goal.
    """
    config = state.config
    enabled = config.enabled_rules
    kb = state.kb
    closure_mask = kb.taxonomy.closure_mask
    bounds = state.bounds
    cache = state._slot_cache
    role_ids = state.role_ids
    roles = state.role_pool
    n = len(roles)
    masks = [kb.universe.mask_of(ev) for ev in roles]
    # the conjunction event per unordered role pair (i <= j) at key
    # i * n + j, filled on first use, so it grows with the pairs the sweeps
    # touch
    pair_events: Dict[int, ConjunctiveEvent] = {}
    get_pair_event = pair_events.get

    def pair_event(k, i, j):
        ev = pair_events[k] = conjoin(roles[i], roles[j])
        return ev

    # the goal-tight stop: the first store to the goal pair calls `exact`
    # once, and `tight` then holds the goal's exact interval (None: no stop)
    goal_f = goal_e = tight = None
    if goal is not None and exact is not None:
        goal_f, goal_e = goal

    links = _links_of(state, state.informative)
    while links and state.sweeps_run < config.max_sweeps:
        state.sweeps_run += 1
        improved_keys: set = set()
        row_b = -1
        for ib, ia, cs in _candidate_groups(n, links):
            if ib != row_b:
                row_b = ib
                b, mb = roles[ib], masks[ib]
                # this B's row, per C, filled on first use: the intervals
                # of (C|B) and (B|C), and cl(BC)
                row = [None] * n
            a, ma = roles[ia], masks[ia]
            # the A-B half of the signature, shared by the whole group
            mab = ma | mb
            cl_ab = closure_mask(mab)
            cl_a = closure_mask(ma)
            u = bounds[b, a]
            v = bounds[a, b]
            for ic in cs:
                c = roles[ic]
                r = row[ic]
                if r is None:
                    r = row[ic] = (bounds[c, b], bounds[b, c],
                                   closure_mask(mb | masks[ic]))
                x, y, cl_bc = r
                mc = masks[ic]
                # the chain's value signature: everything rule evaluation
                # reads but the identity of the role events, i.e. every
                # ChainPremise argument after a, b and c, in order
                sig = (u, v, x, y,
                       guard_bits(ma, mb, mc, cl_a, closure_mask(mc), cl_ab,
                                  closure_mask(ma | mc), cl_bc,
                                  closure_mask(mab | mc)))
                actions = cache.get(sig)
                if actions is None:
                    actions = cache[sig] = evaluate_chain(
                        ChainPremise(a, b, c, *sig), enabled) or ()
                if not actions:
                    continue
                # the events of the six slot parts, in `rules.SLOT_PARTS`
                # order (an event is never falsy, so `or` builds a
                # conjunction only on a pair-table miss; candidates have
                # ia <= ic)
                kab = ia * n + ib if ia <= ib else ib * n + ia
                kac = ia * n + ic
                kbc = ib * n + ic if ib <= ic else ic * n + ib
                parts = (a, b, c,
                         get_pair_event(kab) or pair_event(kab, ia, ib),
                         get_pair_event(kac) or pair_event(kac, ia, ic),
                         get_pair_event(kbc) or pair_event(kbc, ib, ic))
                for slot, new_iv, rule, lo_tags, hi_tags in actions:
                    ci, pi = SLOT_PART_INDEX[slot]
                    concl, prem = parts[ci], parts[pi]
                    key = (concl, prem)
                    old_iv = bounds[key]
                    if new_iv is old_iv:
                        continue
                    # strict improvement iff new raises the lower bound or
                    # cuts the upper one (integer cross-multiplication, no
                    # Fractions)
                    raises_lo = (new_iv.lo_n * old_iv.lo_d
                                 > old_iv.lo_n * new_iv.lo_d)
                    cuts_hi = (new_iv.hi_n * old_iv.hi_d
                               < old_iv.hi_n * new_iv.hi_d)
                    if not (raises_lo or cuts_hi):
                        continue
                    meet = old_iv.intersect(new_iv)
                    if meet is None:
                        raise ProbabilisticConflictError(
                            concl, prem, old_iv, new_iv,
                            f"while applying {rule} to chain "
                            f"A={a}, B={b}, C={c}")
                    bounds[key] = meet
                    state.informative.add(key)
                    improved_keys.add(key)
                    state.trace.append(TraceStep(
                        rule=rule, a=a, b=b, c=c,
                        conclusion=concl, premise=prem,
                        old=old_iv, new=meet,
                        lower_tags=lo_tags, upper_tags=hi_tags))
                    if concl is goal_f and prem is goal_e:
                        if exact is not None:
                            tight = _exact_interval(exact())
                            exact = None
                        if meet is tight:
                            state.stop_reason = "goal-tight"
                            return state
                    if b in key:
                        # a row entry over this pair is read again on use
                        for j in map(role_ids.get, key):
                            if j is not None:
                                row[j] = None
                # a store may have hit (B|A) or (A|B)
                u = bounds[b, a]
                v = bounds[a, b]
        links = _links_of(state, improved_keys)
    state.stop_reason = "max-sweeps" if links else "fixpoint"
    return state


def _exact_interval(answer: Optional[QueryAnswer]) -> Optional[Interval]:
    """The interned interval of a nonempty tight answer, else None."""
    if answer is None or answer.empty:
        return None
    return Interval.make(answer.lower, answer.upper)


def trace_slice(trace: Sequence[TraceStep],
                goal_key: Tuple[ConjunctiveEvent, ConjunctiveEvent]
                ) -> Tuple[TraceStep, ...]:
    """The minimal trace subsequence whose steps fed the goal pair."""
    needed = {goal_key}
    kept: List[TraceStep] = []
    for step in reversed(trace):
        if step.produced_key in needed:
            kept.append(step)
            needed.update(step.input_keys)
    kept.reverse()
    return tuple(kept)


def local_query(kb: KnowledgeBase,
                goal: Tuple[ConjunctiveEvent, ConjunctiveEvent],
                config: EngineConfig = EngineConfig(),
                check_coherence: bool = True,
                exact: Optional[Callable[[], Optional[QueryAnswer]]] = None
                ) -> QueryAnswer:
    """Saturate and answer one goal; correct (contains the tight answer),
    not necessarily tight.

    `exact`, when given, returns the goal's tight answer or None, and lets
    saturation stop once the goal is proved tight (`saturate`)."""
    f, e = goal
    kb.universe.check_event(f)
    kb.universe.check_event(e)
    if check_coherence:
        violations = validate_coherence(kb)
        if violations:
            raise CoherenceError(
                "knowledge base is incoherent: "
                + "; ".join(str(v) for v in violations))
    if kb.taxonomy.forces_false(e):
        return QueryAnswer.empty_answer()
    state = seed_state(kb, config, queries=[goal])
    saturate(state, goal, exact)
    iv = state.bounds[f, e]
    steps = trace_slice(state.trace, (f, e))
    return QueryAnswer(iv.lo, iv.hi, steps)


def survey_chains(kb: KnowledgeBase) -> List[ChainDiagnostic]:
    """Consistency-check the chains of the KB's default pool that can fail
    (for the check command); the findings in role-id order of (A, B, C).

    Only chains that read an informative pair can fire a condition.  The
    state is only seeded, so any other chain reads taxonomy-forced values
    alone: [0, 0], [1, 1] or [0, 1].  The model with mass 1/3 on each of
    the consistent atoms cl(A), cl(B) and cl(C) meets all four of those
    values and the taxonomy, and gives every role positive probability;
    the conditions are sound, so none of them fires on such a chain.

    Nor does any condition fire on a chain whose A-B half, (B|A) and
    (A|B), or whose B-C half, (C|B) and (B|C), is [0, 1] on both
    conditionals, whatever the other half and the guard word: each
    condition compares a bound of one half with one of the other.  With
    x = y = [0, 1] the conditions ask for u2 < 0 (1 and 3), u1 > 1 (2), a
    nonnegative side below 0 (4), v1 > 1 (5 and 7) or v2 < 0 (6); with
    u = v = [0, 1] they ask for y1 > 1 (1), y2 < 0 (2), a nonnegative side
    below 0 (3 and 4), x2 < 0 (5) or x1 > 1 (6 and 7).  So a candidate
    group with a [0, 1] A-B half, and a C with a [0, 1] B-C half, are
    skipped before any closure is read (`UNIT` is interned: an identity
    test).

    A verdict depends only on the chain's value signature, so it is cached
    by it: the chain is built as `saturate` builds a cache miss's,
    `ChainPremise(a, b, c, *signature)`, and checked on a miss alone.
    Sorted, the findings are those of a full scan, in its order.
    """
    state = seed_state(kb)
    closure_mask = kb.taxonomy.closure_mask
    bounds = state.bounds
    roles = state.role_pool
    masks = [kb.universe.mask_of(ev) for ev in roles]
    verdicts: Dict[tuple, ConsistencyVerdict] = {}
    found = {}
    for ib, ia, cs in _candidate_groups(len(roles),
                                        _links_of(state, state.informative)):
        a, b = roles[ia], roles[ib]
        u, v = bounds[b, a], bounds[a, b]
        if u is UNIT and v is UNIT:
            continue
        ma, mb = masks[ia], masks[ib]
        cl_a, cl_ab = closure_mask(ma), closure_mask(ma | mb)
        for ic in cs:
            c = roles[ic]
            x, y = bounds[c, b], bounds[b, c]
            if x is UNIT and y is UNIT:
                continue
            mc = masks[ic]
            # the value signature, in the order `saturate` builds it
            sig = (u, v, x, y,
                   guard_bits(ma, mb, mc, cl_a, closure_mask(mc), cl_ab,
                              closure_mask(ma | mc), closure_mask(mb | mc),
                              closure_mask(ma | mb | mc)))
            verdict = verdicts.get(sig)
            if verdict is None:
                verdict = verdicts[sig] = check_consistency(
                    ChainPremise(a, b, c, *sig))
            if not verdict.consistent:
                found[ia, ib, ic] = verdict
    return [ChainDiagnostic(roles[ia], roles[ib], roles[ic], found[ia, ib, ic])
            for ia, ib, ic in sorted(found)]
