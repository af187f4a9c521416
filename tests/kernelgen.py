"""Generate `src/taxprob/_kernels.py`, the integer kernels of the rule
operand lists, the runner that calls them and the kernel of the seven
consistency conditions, from the operand text in `taxprob.rules.RULE_SLOTS`,
the table `taxprob.rules.KNOWN_BOUND`, the chain mirror
`taxprob.rules.MIRROR` and the condition text in `taxprob.chains.CONDITIONS`.

    python tests/kernelgen.py

rewrites the module.  Run it after editing an operand, a row, a known
bound or `MIRROR` in `rules.py`, or a condition or `KERNEL_PARAMS` in
`chains.py`; `tests/test_rules.py` fails while the committed module
differs from what `render()` returns.

Each operand list becomes one function of `PARAMS`, the names of
`chains.KERNEL_PARAMS` before the product-false flags: the eight bounds as
reduced int terms (u1n, u1d, u2n, u2d, ..., y2n, y2d) and the six guard
flags, which `ChainPremise.kernel_args` lays out.  Its body is
straight-line Python over ints: a rational subexpression is a pair of
int expressions (numerator, denominator), sums and products are multiplied
out without a gcd, every quotient gets a positive denominator (a zero one
raises `ZeroDivisionError`), `min`, `max` and the comparison with the
best operand so far cross-multiply.  The function returns the
best value's unreduced terms and the tags that attain it, in operand
order; an operand's tag is its formula without the `*`s (`operand_tag`),
and a formula with whitespace anywhere but one space right after a comma
is rejected, so that no tag carries a stray space.  A subexpression that
occurs twice in one formula is computed once.

The rows get one runner, `run_rows`, of `chains.KERNEL_PARAMS` and a
`record` function, with one row per distinct slot of a chain
(`runner_rows`): the rows of `RULE_SLOTS`, then one for each whose slot is
not its own mirror under `rules.MIRROR`, which passes the same kernels
the chain's arguments of the mirrored names (u1n reads y1n), written out,
and reads the mirrored product-false flag and the mirrored slot's known
bound.  A self-mirrored row is not run twice.  The runner's body runs the
rows in order, with no loop: unless the row's premise is taxonomy-false,
it calls the row's two kernels, tests the unreduced result against the
known bound of the row's slot by cross-multiplication, and passes a
result that raises its lower or cuts its upper bound to `record`, with
the slot as a literal; it returns what `record` made of them, in row
order.  `rules.evaluate_slots` calls it once per chain.

`fired_conditions`, of `chains.KERNEL_PARAMS`, returns the numbers of the
conditions that hold as a frozenset, a condition's number being its place
in `CONDITIONS`, from 1.  A condition's test is one strict
comparison (`<` or `>`) of two formulas of the operand grammar and its
guard is written as an operand's; under the guard, the kernel compares
the two sides' terms by cross-multiplication, so the test keeps its sign
and strictness.

The text is parsed with `ast.parse` and the code written as plain strings,
so the output is the same on every Python version the package supports.
Importing `taxprob` imports the committed module, so a name that the
package imports from it has to be there, as a stub if need be, before the
first run that generates it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "taxprob" / "_kernels.py"

# the package is importable when this file runs as a script
sys.path.insert(0, str(ROOT / "src"))
from taxprob.chains import CONDITIONS, KERNEL_PARAMS  # noqa: E402
from taxprob.rules import (KNOWN_BOUND, RULE_SLOTS, _mirrored,  # noqa: E402
                           _swap_slot)

# the rule kernels' parameters: the chain's kernel parameters before its
# three product-false flags
PARAMS = KERNEL_PARAMS[:-3]
# the formulas' bound names u1..y2, from the numerators' parameters, and
# the guard flags after the bounds' terms
BOUNDS = tuple(p[:-1] for p in PARAMS[:16:2])
FLAGS = PARAMS[16:]

HEADER = '''"""Integer kernels of the seven consistency conditions of
`chains.CONDITIONS` and of the rule operand lists of `rules.RULE_SLOTS`,
and the runner that calls the latter.

Generated by tests/kernelgen.py from the condition text and the kernel
parameters in chains.py and the operand text, the known-bound table and
the chain mirror in rules.py: do not edit; run `python tests/kernelgen.py`
after changing a condition, `KERNEL_PARAMS`, an operand, a row, a known
bound or `MIRROR`.

`fired_conditions` takes a chain's `kernel_args`, the eight bounds u1..y2
as reduced int terms (n, d), the six guard flags and the three
product-false flags, and returns the numbers of the conditions that hold
as a frozenset.

Each rule kernel takes the same arguments but the product-false flags and
returns the best operand value of its list as unreduced terms (n, d) with
d > 0, plus the tags that attain it in operand order.  `run_rows` takes a
chain's `kernel_args` and runs one row per distinct slot of the chain:
the rows of `RULE_SLOTS`, then each row whose slot is not its own mirror
on the arguments of the mirrored names.  It returns `record(slot, rule,
lo_n, lo_d, lo_tags, hi_n, hi_d, hi_tags)` for every result that can
tighten the known bound of its slot, in row order.
"""
'''

# operator precedence of a generated int expression
ATOM, PRODUCT, SUM = 3, 2, 1


def _wrap(code, prec):
    text, own = code
    return text if own >= prec else f"({text})"


def _mul(a, b):
    if a[0] == "0" or b[0] == "0":
        return ("0", ATOM)
    if a[0] == "1":
        return b
    if b[0] == "1":
        return a
    return (f"{_wrap(a, PRODUCT)} * {_wrap(b, PRODUCT)}", PRODUCT)


def _add(a, b):
    if a[0] == "0":
        return b
    if b[0] == "0":
        return a
    return (f"{a[0]} + {b[0]}", SUM)


def _sub(a, b):
    if b[0] == "0":
        return a
    return (f"{a[0]} - {_wrap(b, PRODUCT)}", SUM)


ONE = ("1", ATOM)


def operand_tag(expr):
    """The tag of the operand with formula text `expr`: the formula without
    its `*`s, as traces report it."""
    return expr.replace("*", "")


def parse_formula(text):
    """The formula as a tree of tuples: ("var", name), ("int", k) and
    (op, left, right) for op in add, sub, mul, div, min, max.  Whitespace
    other than one space right after a comma is rejected."""
    if re.search(r"\s", text.replace(", ", ",")):
        raise ValueError(f"whitespace outside ', ': {text!r}")
    return _formula(ast.parse(text, mode="eval").body, text)


_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}


def _formula(node, text):
    if isinstance(node, ast.Name) and node.id in BOUNDS:
        return ("var", node.id)
    if (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value >= 0):
        return ("int", node.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _formula(node.left, text),
                _formula(node.right, text))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max") and len(node.args) == 2
            and not node.keywords):
        return (node.func.id, _formula(node.args[0], text),
                _formula(node.args[1], text))
    raise ValueError(f"not in the formula grammar: {text!r}")


def guard_code(text):
    """The guard as an int condition, or None for an unconditional one."""
    if not text:
        return None
    body = ast.parse(text, mode="eval").body
    conjuncts = (body.values if isinstance(body, ast.BoolOp)
                 and isinstance(body.op, ast.And) else [body])
    return " and ".join(_conjunct(node, text) for node in conjuncts)


def _conjunct(node, text):
    if isinstance(node, ast.Name) and node.id in FLAGS:
        return node.id
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and not node.keywords
            and all(isinstance(a, ast.Name) and a.id in BOUNDS
                    for a in node.args)):
        name, args = node.func.id, [a.id for a in node.args]
        if name == "pos" and len(args) == 1:
            return f"{args[0]}n > 0"
        if name == "lt1" and len(args) == 1:
            return f"{args[0]}n < {args[0]}d"
        if name == "gt" and len(args) == 2:
            a, b = args
            return f"{a}n * {b}d > {b}n * {a}d"
        if name == "sum_gt1" and len(args) == 2:
            a, b = args
            return f"{a}n * {b}d + {b}n * {a}d > {a}d * {b}d"
    raise ValueError(f"not in the guard grammar: {text!r}")


def _count(tree, counts):
    counts[tree] = counts.get(tree, 0) + 1
    if tree[0] not in ("var", "int"):
        _count(tree[1], counts)
        _count(tree[2], counts)


class _Body:
    """The lines of one kernel, with fresh temporaries t0, t1, ..."""

    def __init__(self):
        self.lines = []
        self.temps = 0

    def emit(self, depth, line):
        self.lines.append("    " * depth + line)

    def fresh(self, depth, code):
        name = f"t{self.temps}"
        self.temps += 1
        self.emit(depth, f"{name} = {code[0]}")
        return (name, ATOM)

    def atom(self, depth, code):
        return code if code[1] == ATOM else self.fresh(depth, code)

    def value(self, depth, tree, counts, memo):
        """(numerator, denominator) int expressions of the formula tree,
        lines emitted at `depth` for what they need."""
        if tree in memo:
            return memo[tree]
        kind = tree[0]
        if kind == "var":
            result = ((f"{tree[1]}n", ATOM), (f"{tree[1]}d", ATOM))
        elif kind == "int":
            result = ((str(tree[1]), ATOM), ONE)
        else:
            (an, ad) = self.value(depth, tree[1], counts, memo)
            (bn, bd) = self.value(depth, tree[2], counts, memo)
            if kind == "mul":
                result = (_mul(an, bn), _mul(ad, bd))
            elif kind in ("add", "sub"):
                # each denominator is read twice
                ad, bd = self.atom(depth, ad), self.atom(depth, bd)
                join = _add if kind == "add" else _sub
                result = (join(_mul(an, bd), _mul(bn, ad)), _mul(ad, bd))
            elif kind == "div":
                n = self.fresh(depth, _mul(an, bd))
                d = self.fresh(depth, _mul(ad, bn))
                self.emit(depth, f"if {d[0]} <= 0:")
                self.emit(depth + 1, f"if not {d[0]}:")
                self.emit(depth + 2,
                          'raise ZeroDivisionError("ratio division by zero")')
                self.emit(depth + 1, f"{n[0]}, {d[0]} = -{n[0]}, -{d[0]}")
                result = (n, d)
            else:
                # min(a, b) is b when b < a, max(a, b) when b > a
                an, ad, bn, bd = (self.atom(depth, c)
                                  for c in (an, ad, bn, bd))
                op = "<" if kind == "min" else ">"
                n, d = f"t{self.temps}", f"t{self.temps + 1}"
                self.temps += 2
                self.emit(depth,
                          f"if {_mul(bn, ad)[0]} {op} {_mul(an, bd)[0]}:")
                self.emit(depth + 1, f"{n}, {d} = {bn[0]}, {bd[0]}")
                self.emit(depth, "else:")
                self.emit(depth + 1, f"{n}, {d} = {an[0]}, {ad[0]}")
                result = ((n, ATOM), (d, ATOM))
        if counts[tree] > 1:
            result = (self.atom(depth, result[0]), self.atom(depth, result[1]))
        memo[tree] = result
        return result


def kernel(name, operands, maximize):
    """The source of one kernel function."""
    body = _Body()
    # whether a best value is set: "no", "maybe" (only under a guard) or
    # "yes"; a list led by guarded operands starts from bn = None
    state = "no"
    if operands and operands[0].guard:
        body.emit(1, "bn = None")
    better = ">" if maximize else "<"
    for op in operands:
        guard = guard_code(op.guard)
        depth = 1
        body.emit(depth, f"# {operand_tag(op.expr)}")
        if guard is not None:
            body.emit(depth, f"if {guard}:")
            depth += 1
        tree = parse_formula(op.expr)
        counts = {}
        _count(tree, counts)
        n, d = body.value(depth, tree, counts, {})
        n, d = body.atom(depth, n), body.atom(depth, d)
        tag = repr(operand_tag(op.expr))
        take = f"bn, bd, tags = {n[0]}, {d[0]}, ({tag},)"
        compare = depth
        if state == "maybe":
            body.emit(depth, "if bn is None:")
            body.emit(depth + 1, take)
            body.emit(depth, "else:")
            compare = depth + 1
        if state == "no":
            body.emit(depth, take)
        else:
            new = body.atom(compare, _mul(n, ("bd", ATOM)))
            old = body.atom(compare, _mul(("bn", ATOM), d))
            body.emit(compare, f"if {new[0]} {better} {old[0]}:")
            body.emit(compare + 1, take)
            body.emit(compare, f"elif {new[0]} == {old[0]}:")
            body.emit(compare + 1, f"tags += ({tag},)")
        if guard is None:
            state = "yes"
        elif state == "no":
            state = "maybe"
    if state != "yes":
        raise ValueError(f"{name}: operand list with no unconditional member")
    body.emit(1, "return bn, bd, tags")
    lines = [_wrapped(f"def {name}(", PARAMS, "):")]
    return "\n".join(lines + body.lines) + "\n"


_COMPARE = {ast.Lt: "<", ast.Gt: ">"}


def parse_test(text):
    """A condition's test as (operator, left tree, right tree)."""
    body = ast.parse(text, mode="eval").body
    if not (isinstance(body, ast.Compare) and len(body.ops) == 1
            and type(body.ops[0]) in _COMPARE):
        raise ValueError(f"not one strict comparison: {text!r}")
    return (_COMPARE[type(body.ops[0])], _formula(body.left, text),
            _formula(body.comparators[0], text))


def conditions_kernel(name, conditions):
    """The source of the function that returns the numbers of the
    conditions that hold, each tested under its guard; a condition's number
    is its place in `conditions`, from 1."""
    body = _Body()
    body.emit(1, "fired = []")
    for number, cond in enumerate(conditions, 1):
        op, left, right = parse_test(cond.test)
        guard = guard_code(cond.guard)
        depth = 1
        body.emit(depth, f"# {number}: {cond.test}")
        if guard is not None:
            body.emit(depth, f"if {guard}:")
            depth += 1
        counts, memo = {}, {}
        _count(left, counts)
        _count(right, counts)
        ln, ld = body.value(depth, left, counts, memo)
        rn, rd = body.value(depth, right, counts, memo)
        # both denominators are positive
        lhs = body.atom(depth, _mul(ln, rd))
        rhs = body.atom(depth, _mul(rn, ld))
        body.emit(depth, f"if {lhs[0]} {op} {rhs[0]}:")
        body.emit(depth + 1, f"fired.append({number})")
    body.emit(1, "return frozenset(fired)")
    return "\n".join([_wrapped(f"def {name}(", KERNEL_PARAMS, "):")]
                     + body.lines) + "\n"


def _wrapped(head, names, close):
    """`head`, the names joined by commas and `close`, wrapped at 79
    columns under the first name."""
    indent = len(head)
    lines, line = [], ""
    for i, name in enumerate(names):
        piece = name + (", " if i + 1 < len(names) else close)
        if line and indent + len(line + piece.rstrip()) > 79:
            lines.append(line.rstrip())
            line = ""
        line += piece
    lines.append(line)
    return head + ("\n" + " " * indent).join(lines)


def kernel_name(rule, slot, bound):
    return f"{rule}_{slot[0].lower()}_{slot[1].lower()}_{bound}"


def _known_test(body, depth, known):
    """Lines that end in `if <kept>:` for a result (ln/ld, hn/hd) and its
    slot's known bound: an input name, or the flags giving [0, 0] and
    [1, 1] (else [0, 1]); kept means it raises the known lower bound or
    cuts the known upper one."""
    if isinstance(known, str):
        body.emit(depth, f"if ln * {known}1d > {known}1n * ld "
                         f"or hn * {known}2d < {known}2n * hd:")
        return
    zero, one = known
    body.emit(depth, f"if {zero}:")
    body.emit(depth + 1, "keep = ln > 0 or hn < 0")
    if one is not None:
        body.emit(depth, f"elif {one}:")
        body.emit(depth + 1, "keep = ln > ld or hn < hd")
    body.emit(depth, "else:")
    body.emit(depth + 1, "keep = ln > 0 or hn < hd")
    body.emit(depth, "if keep:")


def _mirror_param(name):
    """The chain's parameter that a mirrored row passes in the place of
    `name`: the terms of a bound follow its letter (u1n reads y1n)."""
    if name[1:2] in ("1", "2"):
        return _mirrored(name[0]) + name[1:]
    return _mirrored(name)


def runner_rows():
    """The runner's rows, in order, as (rule, slot, product-false flag or
    None, kernel names, the kernels' arguments): the rows of `RULE_SLOTS`
    on the chain's parameters, then, for each row whose slot is not its
    own mirror, the same kernels on the parameters of the mirrored names,
    reporting the mirrored slot under the mirrored flag.  A self-mirrored
    row would recompute its own result."""
    direct = [(rule, slot, false_premise,
               (kernel_name(rule, slot, "lower"),
                kernel_name(rule, slot, "upper")), PARAMS)
              for rule, slot, _, _, false_premise in RULE_SLOTS]
    mirrored_args = tuple(map(_mirror_param, PARAMS))
    return direct + [
        (rule, _swap_slot(slot), _mirrored(false_premise), pair,
         mirrored_args)
        for rule, slot, false_premise, pair, _ in direct
        if _swap_slot(slot) != slot]


def runner(name, rows):
    """The source of the runner over `rows` (as `runner_rows` lists them),
    which reports each row's result under its slot, a literal."""
    body = _Body()
    body.emit(1, "out = []")
    for rule, slot, false_premise, (lower, upper), args in rows:
        depth = 1
        body.emit(depth, f"# ({slot[0]}|{slot[1]})")
        if false_premise is not None:
            body.emit(depth, f"if not {false_premise}:")
            depth += 1
        pad = "    " * depth
        body.lines.append(_wrapped(f"{pad}ln, ld, lt = {lower}(", args, ")"))
        body.lines.append(_wrapped(f"{pad}hn, hd, ht = {upper}(", args, ")"))
        _known_test(body, depth, KNOWN_BOUND[slot])
        body.lines.append(_wrapped(
            f"{pad}    out.append(record(",
            (repr(slot), repr(rule), "ln", "ld", "lt", "hn", "hd", "ht"),
            "))"))
    body.emit(1, "return out")
    return "\n".join([_wrapped(f"def {name}(", KERNEL_PARAMS + ("record",),
                               "):")] + body.lines) + "\n"


def render():
    """The text of `_kernels.py` for the current `CONDITIONS`,
    `RULE_SLOTS` and `KNOWN_BOUND`."""
    parts = [HEADER, "\n" + conditions_kernel("fired_conditions", CONDITIONS)]
    for rule, slot, lower, upper, _ in RULE_SLOTS:
        parts.append("\n" + kernel(kernel_name(rule, slot, "lower"), lower,
                                   True))
        parts.append("\n" + kernel(kernel_name(rule, slot, "upper"), upper,
                                   False))
    parts.append("\n" + runner("run_rows", runner_rows()))
    return "\n".join(parts)


if __name__ == "__main__":
    TARGET.write_text(render(), encoding="utf-8", newline="\n")
