"""Events: basic, conjunctive, and atomic.

A universe is a finite, sorted set of named basic events.  Conjunctive
events are either the false event (bottom), or a set of basic-event names
(the empty set is the true event, top).  An atomic event assigns a sign to
every basic event of the universe; it is a possible world that
probabilistic interpretations put mass on, and it is an int mask: bit i set
means the i-th basic event is positive.  `enumerate_atom_masks` yields the
taxonomy-consistent atoms, and `mask_implies` tests whether an atom
implies a conjunctive event.

Conjunctive events are immutable and interned: the factories return one
object per value, and the intern table never frees an entry, so an event is
its own key.  Identity is equality, and every table keyed by events (the
conjunction memo here, the mask memo of a universe, the engine's bound
table) hashes the object itself.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Sequence

from .errors import AtomSpaceError, UnknownEventError

# the two event keywords; neither can name a basic event
KEYWORDS = ("true", "false")
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

DEFAULT_ATOM_CAP = 2 ** 22


def is_event_name(name: str) -> bool:
    """The one rule for basic-event names: letters, digits and
    underscores, and not a keyword."""
    return bool(_NAME_RE.match(name)) and name not in KEYWORDS


def validate_name(name: str) -> str:
    if not is_event_name(name):
        raise ValueError(f"invalid basic-event name: {name!r}")
    return name


class ConjunctiveEvent:
    """Bottom, top, or a conjunction of basic events.

    Conjuncts are kept sorted, so equal events render identically.
    Instances built through the module factories are interned, so identity
    is equality and an event is its own dictionary key.  Bottom is the one
    `BOTTOM` object, which has no conjuncts and is not interned by them.
    """

    __slots__ = ("names",)

    def __init__(self, names: tuple):
        self.names = names

    @property
    def is_bottom(self) -> bool:
        return self is BOTTOM

    @property
    def is_top(self) -> bool:
        return self is TOP

    @property
    def sort_key(self):
        # bottom sorts before every conjunction; conjunctions lexicographically
        if self is BOTTOM:
            return (0, ())
        return (1, self.names)

    def __repr__(self):
        return f"<event {self}>"

    def __str__(self):
        if self is BOTTOM:
            return "false"
        if not self.names:
            return "true"
        return " ".join(self.names)


_event_intern: dict = {}

BOTTOM = ConjunctiveEvent(())


def conjunction(names: Iterable[str]) -> ConjunctiveEvent:
    """The conjunction of the given basic-event names (deduplicated, sorted)."""
    ordered = tuple(sorted(set(names)))
    ev = _event_intern.get(ordered)
    if ev is None:
        for n in ordered:
            validate_name(n)
        ev = _event_intern[ordered] = ConjunctiveEvent(ordered)
    return ev


TOP = conjunction(())


def normalize_event(tokens: Sequence[str],
                    universe: "Universe | None" = None) -> ConjunctiveEvent:
    """Build a conjunctive event from a token sequence.

    `false` anywhere makes the whole event bottom, `true` contributes nothing,
    duplicates collapse.  When a universe is given, every identifier must be
    declared in it.
    """
    if not tokens:
        raise ValueError("empty event")
    names = []
    for tok in tokens:
        if tok == "false":
            return BOTTOM
        if tok == "true":
            continue
        validate_name(tok)
        if universe is not None and tok not in universe.index:
            raise UnknownEventError(f"unknown identifier: {tok!r}")
        names.append(tok)
    return conjunction(names)


_conjoin_memo: dict = {}


def conjoin(c: ConjunctiveEvent, d: ConjunctiveEvent) -> ConjunctiveEvent:
    """C and D: union of conjunct sets; bottom absorbing, top neutral."""
    key = (c, d)
    out = _conjoin_memo.get(key)
    if out is not None:
        return out
    if c.is_bottom or d.is_bottom:
        out = BOTTOM
    elif not c.names:
        out = d
    elif not d.names:
        out = c
    else:
        out = conjunction(c.names + d.names)
    _conjoin_memo[key] = out
    return out


class Universe:
    """An ordered (sorted by name) finite set of basic events."""

    __slots__ = ("names", "index", "_mask_memo")

    def __init__(self, names: Iterable[str]):
        ordered = tuple(sorted(set(names)))
        if not ordered:
            raise ValueError("universe must be nonempty")
        for n in ordered:
            validate_name(n)
        self.names = ordered
        self.index = {n: i for i, n in enumerate(ordered)}
        self._mask_memo: dict = {}

    def __len__(self):
        return len(self.names)

    def check_event(self, event: ConjunctiveEvent) -> ConjunctiveEvent:
        for n in event.names:
            if n not in self.index:
                raise UnknownEventError(f"event {event} not over this universe: {n!r}")
        return event

    def mask_of(self, event: ConjunctiveEvent) -> int:
        """Bitmask of an event's conjuncts; -1 for bottom, which no atom
        implies and every closure test treats as falsum."""
        m = self._mask_memo.get(event)
        if m is None:
            if event.is_bottom:
                m = -1
            else:
                m = 0
                for n in event.names:
                    m |= 1 << self.index[n]
            self._mask_memo[event] = m
        return m


def mask_implies(atom_mask: int, event_mask: int) -> bool:
    """True iff the atom makes every conjunct of the event positive; the
    event is given by `Universe.mask_of`, so top (0) is implied by every
    atom and bottom (-1) by none: -1 & ~atom_mask is never 0."""
    return event_mask & ~atom_mask == 0


def enumerate_atom_masks(universe: Universe,
                         prune=None,
                         cap: int = DEFAULT_ATOM_CAP,
                         keep: Optional[int] = None) -> Iterator[int]:
    """Yield `m & keep` for the consistent atoms m, each once, increasing.

    `prune` is a taxonomy store (its `closure_mask` is -1 for falsum); None
    means no rules, so the closure is the identity.  `keep` defaults to
    every basic.  An assignment P to keep's bits extends to a consistent
    atom iff cl(P) is not falsum and cl(P) & keep == P: cl(P) is one such
    atom, and every closed superset of P contains it.

    The DFS decides keep's bits from the highest, negative branch first, so
    masks stream in increasing order.  A node (pos, neg) survives iff
    cl(pos) is not falsum and shares no bit with neg; then cl(pos) extends
    it to a leaf, so no branch dies.  Each node carries cl(pos), so the
    negative branch needs no closure, and each positive branch asks for a
    mask no other node asks for: the closures are computed unmemoized and
    the store's memo does not grow.

    Raises AtomSpaceError once more than `cap` masks would be yielded.
    """
    closure = prune.compute_closure if prune is not None else int
    if keep is None:
        keep = (1 << len(universe)) - 1
    bits = [1 << i for i in reversed(range(len(universe))) if keep >> i & 1]
    root = closure(0)
    if root < 0:
        return  # top -> bottom: no consistent atoms at all
    count = 0
    stack = [(0, 0, 0, root)]  # (depth, pos, neg, cl(pos))
    while stack:
        depth, pos, neg, cl = stack.pop()
        if depth == len(bits):
            count += 1
            if count > cap:
                raise AtomSpaceError(
                    f"atom space too large: more than {cap} atoms "
                    f"projected onto {len(bits)} of {len(universe)} basics")
            yield pos
            continue
        bit = bits[depth]
        # push the positive branch first so the negative one is explored first
        reached = cl if cl & bit else closure(pos | bit)
        if reached >= 0 and not reached & neg:
            stack.append((depth + 1, pos | bit, neg, reached))
        if not cl & bit:
            stack.append((depth + 1, pos, neg | bit, cl))
