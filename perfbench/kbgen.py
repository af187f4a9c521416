"""Seeded knowledge-base generators for the benchmark, as KB text.

Every generator is a pure function of its arguments: the same seed gives
byte-identical text.  Generators check coherence with their own Horn
closure, so the inputs do not depend on the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

GRID = [Fraction(i, 20) for i in range(21)]


def closure(rules, names):
    """Names reached from `names` under Horn rules (lhs, rhs); rhs None is
    falsum.  Returns (reached, falsum)."""
    reached = set(names)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs <= reached:
                if rhs is None:
                    return reached, True
                if not rhs <= reached:
                    reached |= rhs
                    changed = True
    return reached, False


def forces_false(rules, event) -> bool:
    """Does event -> false follow?  Events are frozensets of names."""
    return closure(rules, event)[1]


def entails(rules, g, h) -> bool:
    """Does g -> h follow?"""
    reached, falsum = closure(rules, g)
    return falsum or h <= reached


def render_event(event):
    """Events are frozensets of names; None is falsum."""
    if event is None:
        return "false"
    return " ".join(sorted(event)) or "true"


def render_bound(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def prob_line(concl, prem, lo, hi):
    return (f"prob: ( {render_event(concl)} | {render_event(prem)} ) "
            f"[ {render_bound(Fraction(lo))}, {render_bound(Fraction(hi))} ]")


def kb_text(names, tax_rules, prob_lines, goal, rng=None):
    """Assemble KB text.  With `rng`, the formula lines are shuffled: the
    parser canonicalises formula order, so the work is unchanged."""
    body = [f"tax: {render_event(lhs)} -> {render_event(rhs)}"
            for lhs, rhs in tax_rules] + list(prob_lines)
    if rng is not None:
        rng.shuffle(body)
    lines = ["basics: " + " ".join(names)] + body
    lines.append(f"query: ( {render_event(goal[0])} | {render_event(goal[1])} )")
    return "\n".join(lines) + "\n"


def shuffle_lines(text: str, seed) -> str:
    """The same KB with its formula lines in a seeded order."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("basics:")]
    tail = [ln for ln in lines if ln.startswith("query:")]
    body = [ln for ln in lines
            if ln.strip() and not ln.startswith(("basics:", "query:", "#"))]
    random.Random(seed).shuffle(body)
    return "\n".join(head + body + tail) + "\n"


# -- chain-n ------------------------------------------------------------------

def chain_kb(seed, n: int = 11) -> str:
    """The chain4 fixture's pattern over n basics: each neighbour pair has a
    weak forward and a strong backward conditional.  The seed orders the
    lines only."""
    names = [f"B{i:02d}" for i in range(1, n + 1)]
    lines = []
    for first, second in zip(names, names[1:]):
        lines.append(prob_line({second}, {first}, Fraction(1, 10), Fraction(3, 20)))
        lines.append(prob_line({first}, {second}, Fraction(4, 5), 1))
    goal = ({names[-1]}, {names[0]})
    return kb_text(names, [], lines, goal, random.Random(f"chain-{seed}"))


# -- wide-oracle ----------------------------------------------------------------

def wide_kb(seed, diseases: int = 6, symptoms: int = 12,
            per_disease: int = 3) -> str:
    """A medical-shaped KB: mutually exclusive diseases, each implying
    `per_disease` distinct symptoms.  Conditionals and the goal mention only
    the first two diseases and their symptoms.

    The consistent atoms number 2^symptoms + diseases * 2^(symptoms -
    per_disease) whatever symptoms the seed picks, so the seed changes the
    structure but not the size of the atom space.
    """
    rng = random.Random(f"wide-{seed}")
    dis = [f"d{i}" for i in range(diseases)]
    sym = [f"s{i:02d}" for i in range(symptoms)]
    implied = {d: sorted(rng.sample(sym, per_disease)) for d in dis}
    rules = [(frozenset({d}), frozenset(implied[d])) for d in dis]
    rules += [(frozenset({a, b}), None)
              for i, a in enumerate(dis) for b in dis[i + 1:]]
    d0, d1 = dis[0], dis[1]
    # a symptom d0 implies that d1 does not, so the diagnosis goal is open
    cue = next(s for s in implied[d0] if s not in implied[d1]) \
        if set(implied[d0]) - set(implied[d1]) else implied[d0][0]
    extra = [s for s in sym if s not in implied[d0] and s not in implied[d1]]
    witness = rng.choice(extra) if extra else cue
    lines = [
        prob_line({d0}, set(), Fraction(1, 20), Fraction(1, 10)),
        prob_line({d1}, set(), Fraction(1, 10), Fraction(1, 5)),
        prob_line({cue}, set(), Fraction(1, 5), Fraction(2, 5)),
        prob_line({witness}, {d0}, Fraction(7, 10), Fraction(9, 10)),
        prob_line({witness}, {d1}, Fraction(1, 10), Fraction(3, 10)),
        prob_line({witness}, set(), Fraction(1, 5), Fraction(1, 2)),
    ]
    goal = ({d0}, {cue, witness})
    return kb_text(dis + sym, rules, lines, goal, rng)


# -- random batch -----------------------------------------------------------------

def _random_event(rng, names, top_weight):
    if rng.random() < top_weight:
        return frozenset()
    return frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))


def _draw_interval(rng, forced_one, forced_zero):
    if forced_zero:
        return 0, 0
    if forced_one:
        return 1, 1
    lo = rng.choice(GRID[:-1])
    hi = rng.choice([h for h in GRID if h >= lo and h > 0])
    return lo, hi


def random_kb(rng, max_basics: int = 4, max_conditionals: int = 6):
    """One coherent random KB as text, or None when the draw is rejected."""
    names = ["a", "b", "c", "d"][:rng.randint(2, max_basics)]
    rules = []
    for _ in range(rng.randint(0, 2)):
        lhs = frozenset(rng.sample(names, rng.randint(1, min(2, len(names)))))
        if rng.random() < 0.15:
            rhs = None
        else:
            rhs = frozenset(rng.sample(names, rng.randint(1, min(2, len(names)))))
        rules.append((lhs, rhs))
    lines = {}
    for _ in range(rng.randint(1, max_conditionals)):
        concl = _random_event(rng, names, 0.05)
        prem = _random_event(rng, names, 0.12)
        if forces_false(rules, prem) or not concl or (concl, prem) in lines:
            continue
        forced_one = entails(rules, prem, concl)
        forced_zero = forces_false(rules, prem | concl)
        if forced_one and forced_zero:
            continue
        lo, hi = _draw_interval(rng, forced_one, forced_zero)
        lines[(concl, prem)] = prob_line(concl, prem, lo, hi)
    if not lines:
        return None
    goal = (_random_event(rng, names, 0.0), _random_event(rng, names, 0.12))
    return kb_text(names, rules, lines.values(), goal)


def random_batch(seed, count: int, max_basics: int = 4, stream: str = "batch"):
    """`count` coherent random KBs drawn from one seeded stream."""
    rng = random.Random(f"{stream}-{seed}")
    out = []
    while len(out) < count:
        text = random_kb(rng, max_basics)
        if text is not None:
            out.append(text)
    return out
