"""Command-line entry points.

    taxprob check <kb>
        Coherence report plus the pool chains that fail the consistency
        conditions (with the forced-false events).  A chain can fail only
        when it reads an asserted bound tighter than the taxonomy forces,
        and when neither its (B|A), (A|B) half nor its (C|B), (B|C) half
        is [0, 1] on both conditionals, so only those chains are checked,
        each distinct set of bounds, guards and flags once; findings are
        listed in role order.

    taxprob query <kb> --goal "( F | E )" [--method local|oracle|both]
        Interval bounds for a goal, via the local rule engine, the exact LP
        oracle, or both (the default, which also shows the gap between them).
        The local path answers (1, 0) only when the taxonomy forces the
        premise false; where only the asserted bounds force it to zero, it
        answers a sound interval or exits 3 with a conflict.

        Every method that saturates stops once the goal is proved tight: as
        soon as a rule stores the oracle's exact answer on the goal pair,
        no later store can change that answer or its trace.
        `--method both` solves the oracle's LP first and hands its answer
        to the local path.  `--method local` asks the oracle only when
        some rule first improves the goal, and only within `STOP_ATOM_CAP`
        atoms or elimination-table entries (2^10); past that, or on any
        atom-cap error, it saturates to the fixpoint as without the stop.
        Where a later sweep would have met a conflict on another pair, the
        stopped query answers instead of exiting 3.  A local answer that
        does not contain the oracle's is printed as a soundness violation.

The oracle solves LPs over the taxonomy-consistent atoms projected onto the
basics that the probabilistic formulas and the goal mention.  It enumerates
at most 128 of them and prices more by variable elimination.  The
TAXPROB_ATOM_CAP environment variable (default 2^22) bounds the projected
atoms; past 128, a query over more still answers when its largest
elimination table has at most that many entries.  Otherwise it exits 1 with
an "atom space too large" error, which past 128 also names the table.

Exit codes: 0 ok, 1 input error, 2 incoherent knowledge base (override with
--force), 3 probabilistic conflict (including conflicting duplicate
assertions for one conditional).  Output to a pipe that its reader has
closed (`taxprob query ... | head`) ends the command with exit 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from .engine import POOL_POLICIES, EngineConfig, local_query, survey_chains
from .errors import (AtomSpaceError, CoherenceError,
                     ProbabilisticConflictError, TaxprobError)
from .intervals import fmt_decimal
from .kb import QueryAnswer, validate_coherence
from .kbformat import KbFormatError, parse_goal, parse_kb
from .oracle import tight_answer
from .rules import ALL_RULES, RULE_NAMES

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCOHERENT = 2
EXIT_CONFLICT = 3

# rendered bounds have at most this many decimal places
MAX_PRECISION = 1000

# `--method local` stops saturating at the goal's exact answer only when the
# oracle finds it within this many atoms or elimination-table entries; every
# benchmark query needs at most 2^8, and a refused attempt costs a few ms
STOP_ATOM_CAP = 2 ** 10

# exit code per error type; every other TaxprobError is an input error
_ERROR_CODE = {CoherenceError: EXIT_INCOHERENT,
               ProbabilisticConflictError: EXIT_CONFLICT}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, not argparse's 2, which this
    CLI reserves for an incoherent knowledge base."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves it
    unchanged, and help text reads the terminal width when it is printed."""
    parser = _ArgumentParser(
        prog="taxprob",
        description="Deduction over taxonomic-probabilistic knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = EngineConfig()

    check = sub.add_parser("check", help="coherence and chain-consistency report")
    check.add_argument("kb", help="knowledge-base file")
    check.add_argument("--json", action="store_true", dest="as_json")

    query = sub.add_parser("query", help="answer a probabilistic query")
    query.add_argument("kb", help="knowledge-base file")
    query.add_argument("--goal", action="append", default=None,
                       help="goal '( F | E )'; may be repeated; defaults to "
                            "the file's query: lines")
    query.add_argument("--method", choices=("local", "oracle", "both"),
                       default="both")
    query.add_argument("--rules", default=None,
                       help="comma-separated subset of "
                            "sharpening,chaining,fusion,combination")
    query.add_argument("--trace", action="store_true")
    query.add_argument("--json", action="store_true", dest="as_json")
    query.add_argument("--force", action="store_true",
                       help="query even when the KB is incoherent")
    query.add_argument("--max-sweeps", type=int,
                       default=defaults.max_sweeps)
    query.add_argument("--pool", choices=POOL_POLICIES,
                       default=defaults.pool_policy)
    query.add_argument("--precision", type=int, default=4,
                       help="decimal places in rendered bounds "
                            f"(0 to {MAX_PRECISION})")
    return parser


def _parse_rules(text: Optional[str]) -> frozenset:
    """The rule names listed in `text`; all rules when it is None."""
    if text is None:
        return ALL_RULES
    return frozenset(text.replace(",", " ").split())


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_kb(text)
    except KbFormatError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag}", file=sys.stderr)
        return None


def _bounded_exact(kb, goal) -> Optional[QueryAnswer]:
    """The goal's tight answer within `STOP_ATOM_CAP`, or None when the
    oracle refuses it (or the atom cap setting is malformed)."""
    try:
        return tight_answer(kb, goal, cap=STOP_ATOM_CAP)
    except AtomSpaceError:
        return None


def _report_json(goal: str, local: Optional[QueryAnswer],
                 oracle_ans: Optional[QueryAnswer], args) -> dict:
    places = args.precision
    report = {"goal": goal, "method": args.method}
    if local is not None:
        report["local"] = {
            "lower": fmt_decimal(local.lower, places),
            "upper": fmt_decimal(local.upper, places),
            "exact_lower": str(local.lower),
            "exact_upper": str(local.upper),
            "trace": [str(step) for step in local.trace] if args.trace else [],
        }
    if oracle_ans is not None:
        report["oracle"] = {
            "lower": fmt_decimal(oracle_ans.lower, places),
            "upper": fmt_decimal(oracle_ans.upper, places),
            "exact_lower": str(oracle_ans.lower),
            "exact_upper": str(oracle_ans.upper),
            "empty": oracle_ans.empty,
        }
    report["status"] = "ok"
    return report


def _print_answer(label: str, answer: QueryAnswer, places: int):
    if answer.empty:
        print(f"  {label}: {answer}")
        return
    lo, hi = answer.lower, answer.upper
    print(f"  {label}: [{fmt_decimal(lo, places)}, {fmt_decimal(hi, places)}]"
          f"  (exact [{lo}, {hi}])")


def cmd_check(args) -> int:
    parsed = _load(args.kb)
    if parsed is None:
        return EXIT_INPUT
    kb = parsed.kb
    violations = validate_coherence(kb)
    code = EXIT_INCOHERENT if violations else EXIT_OK
    findings = [] if violations else survey_chains(kb)

    if args.as_json:
        report = {
            "status": "incoherent" if violations else "ok",
            "warnings": parsed.warnings,
            "coherence_violations": [str(v) for v in violations],
            "inconsistent_chains": [
                {
                    "a": str(d.a), "b": str(d.b), "c": str(d.c),
                    "conditions": sorted(d.verdict.fired_conditions),
                    "forced_false": sorted(d.verdict.forced_false),
                }
                for d in findings
            ],
        }
        print(json.dumps(report, indent=2))
        return code

    for warning in parsed.warnings:
        print(f"warning: {warning}")
    if violations:
        print(f"{args.kb}: incoherent ({len(violations)} violation(s))")
        for v in violations:
            print(f"  {v}")
        return code
    print(f"{args.kb}: coherent")
    if findings:
        print(f"{len(findings)} inconsistent chain(s):")
        for d in findings:
            print(f"  {d}")
    else:
        print("all pool chains consistent")
    return code


def cmd_query(args) -> int:
    parsed = _load(args.kb)
    if parsed is None:
        return EXIT_INPUT
    kb = parsed.kb
    rules = _parse_rules(args.rules)
    if not rules or rules - ALL_RULES:
        return _input_error(f"--rules {args.rules!r} names no rule or an "
                            f"unknown one; choose from {', '.join(RULE_NAMES)}")
    if args.max_sweeps < 1:
        return _input_error(f"--max-sweeps must be at least 1, "
                            f"got {args.max_sweeps}")
    if not 0 <= args.precision <= MAX_PRECISION:
        return _input_error(f"--precision must be between 0 and "
                            f"{MAX_PRECISION}, got {args.precision}")

    if args.goal:
        try:
            goals = [parse_goal(g, kb.universe) for g in args.goal]
        except KbFormatError as exc:
            for diag in exc.diagnostics:
                print(f"goal:{diag}", file=sys.stderr)
            return EXIT_INPUT
    else:
        goals = parsed.queries
    if not goals:
        return _input_error("no goal given (use --goal or query: lines)")

    violations = validate_coherence(kb)
    if violations and not args.force:
        print(f"{args.kb}: incoherent ({len(violations)} violation(s)); "
              "use --force to query anyway", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_INCOHERENT

    config = EngineConfig(enabled_rules=rules,
                          pool_policy=args.pool,
                          max_sweeps=args.max_sweeps)
    places = args.precision
    reports = []  # (goal label, local answer, oracle answer)
    for goal in goals:
        local = oracle_ans = None
        if args.method == "local":
            local = local_query(
                kb, goal, config, check_coherence=False,
                exact=functools.partial(_bounded_exact, kb, goal))
        elif args.method == "oracle":
            oracle_ans = tight_answer(kb, goal)
        else:
            try:
                oracle_ans = tight_answer(kb, goal)
            except TaxprobError:
                # a local conflict exits 3 before an oracle error exits 1
                local_query(kb, goal, config, check_coherence=False)
                raise
            local = local_query(kb, goal, config, check_coherence=False,
                                exact=lambda answer=oracle_ans: answer)
        reports.append((f"({goal[0]} | {goal[1]})", local, oracle_ans))

    if args.as_json:
        payload = [_report_json(*report, args) for report in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
        return EXIT_OK

    for warning in parsed.warnings:
        print(f"warning: {warning}")
    for goal, local, oracle_ans in reports:
        print(f"{goal}:")
        if local is not None:
            _print_answer("local ", local, places)
            if args.trace:
                if local.trace:
                    print("  trace:")
                    for step in local.trace:
                        print(f"    {step}")
                else:
                    print("  trace: (no rule application needed)")
        if oracle_ans is not None:
            _print_answer("oracle", oracle_ans, places)
        if local is not None and oracle_ans is not None:
            if local.empty or oracle_ans.empty:
                if local.empty != oracle_ans.empty:
                    print("  gap: local did not detect the empty premise")
            elif (local.lower > oracle_ans.lower
                  or local.upper < oracle_ans.upper):
                print("  soundness violation: the local answer does not "
                      "contain the oracle's")
            else:
                gap_lo = oracle_ans.lower - local.lower
                gap_hi = local.upper - oracle_ans.upper
                print(f"  gap:    lower {fmt_decimal(gap_lo, places)}, "
                      f"upper {fmt_decimal(gap_hi, places)} "
                      "(local minus oracle tightness)")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = cmd_check if args.command == "check" else cmd_query
        code = command(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except TaxprobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _ERROR_CODE.get(type(exc), EXIT_INPUT)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
