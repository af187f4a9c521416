"""Closed-loop benchmark of taxprob's two answer paths.

    python3 perfbench/run.py --workload chain-both --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --record

One simulated user runs one command at a time and waits for its answer; the
machine this was tuned on has two cores, so nothing runs in parallel.  Each
run is a fresh interpreter that imports `taxprob.cli` from `src/` and calls
`taxprob.cli.main` in-process for `check`, `query --method local` and
`query --method oracle`, all with `--json`.  A workload is a round of such
commands, repeated until `--seconds` have passed (whole rounds only).

`--trace 0` prints the end-to-end metrics.  Times are wall times scaled to a
reference machine speed (see MachineSpeed); the summary on stderr shows the
unscaled wall times beside them.  `--trace 1` runs each round once untraced
and once under `tracer.Tracer`, and prints the per-layer metrics plus the
tracing overhead, all unscaled; spans, counters and the memory high-water
mark after every command go to `perfbench/out/trace-<workload>-s<seed>.json`.

Every command's exit code and exact answers are compared with
`expected.json`, and every goal answered by both paths is checked for
soundness (the local interval contains the oracle's) and for agreement on the
(1, 0) empty answer.  `--record` rewrites `expected.json` from the current
program; use it only when a change of answer is intended.

The seed orders the formula lines of every KB file (the parser canonicalises
formula order, so the work is the same) and, in random-batch, the order in
which the small KBs are visited.  The KBs themselves are fixed, so the
recorded answers apply to every seed and run-to-run spread measures the
program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import kbgen  # noqa: E402

SETUP_SAMPLES = 7
DOCUMENTED_EXITS = (0, 1, 2, 3)
BATCH_SIZE = 150
# A 3-basic draw that saturates for all 100 sweeps without reaching a
# fixpoint, in about 2 s.  Such draws are about 1 in 1000, too rare for a
# batch of this size to hold one by chance, so it is added by name.
SWEEPS_DRAW = {"seed": 1, "count": 912, "max_basics": 3, "stream": "sweeps"}

WORKLOADS = ("medical-local", "chain-both", "wide-oracle", "random-batch")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


# -- machine speed ------------------------------------------------------------------

# Seconds the calibration loop takes at the reference speed (its median on a
# quiet two-core x86-64 VM running Python 3.11).
REFERENCE_S = 0.00028
PROBE_EVERY_S = 0.05
PROBE_MARGIN_S = 0.25


def calibration_loop():
    """Fixed pure-Python work of the kinds taxprob does: tuple-keyed dict
    updates and exact rational arithmetic."""
    table = {}
    total = Fraction(0)
    for i in range(75):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 5 + 2)
    return total, len(table)


class MachineSpeed:
    """How much slower than the reference this machine runs, over time.

    The speed of a shared virtual CPU drifts by 20-30% within minutes, as
    much as the regressions the benchmark must catch.  While running, a timer
    signal times the calibration loop every PROBE_EVERY_S seconds, in between
    the program's own bytecodes.  Each reported time is the measured wall
    time divided by the median slowdown sampled during it, so it reads as
    seconds at the reference speed.
    """

    def __init__(self):
        self.samples = []  # (perf_counter, seconds the loop took)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: float, end: float) -> float:
        times = [d for t, d in self.samples
                 if start - PROBE_MARGIN_S <= t <= end + PROBE_MARGIN_S]
        if not times:
            return 1.0
        return statistics.median(times) / REFERENCE_S


class Entry(NamedTuple):
    kind: str
    key: str
    outcome: dict
    seconds: float     # wall time
    maxrss_mb: float   # memory high-water mark after the command
    start: float       # perf_counter when it started


# -- workloads --------------------------------------------------------------------

def workload_kbs(name: str) -> dict:
    """KB key -> KB text, before the seed reorders lines."""
    if name == "medical-local":
        return {key: (HERE / "kbs" / f"{key}.kb").read_text(encoding="utf-8")
                for key in ("medical", "medical_reduced")}
    if name == "chain-both":
        return {"chain10": kbgen.chain_kb(0, 10)}
    if name == "wide-oracle":
        return {"wide": kbgen.wide_kb(0)}
    if name == "random-batch":
        kbs = {f"batch{i:03d}": text
               for i, text in enumerate(kbgen.random_batch(0, BATCH_SIZE))}
        kbs["sweeps"] = kbgen.random_batch(**SWEEPS_DRAW)[-1]
        return kbs
    fail(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def workload_round(name: str, keys, seed: int):
    """One round: a list of (kind, kb key, extra argv).  Commands that take
    milliseconds are repeated within a round so that their medians rest on
    tens of samples, not on one per round."""
    if name == "medical-local":
        # the oracle takes about a minute on medical.kb; medical_reduced.kb
        # drops only formulas that cannot affect the goal, so its tight
        # answer is medical's and the local answer must contain it
        return [("local", "medical", [])] + 10 * [
            ("check", "medical", []), ("oracle", "medical_reduced", [])]
    if name == "chain-both":
        return [("local", "chain10", []), ("oracle", "chain10", [])] \
            + 10 * [("check", "chain10", [])]
    if name == "wide-oracle":
        # kb-events keeps the local query short, so the oracle dominates
        return [("oracle", "wide", [])] + 3 * [
            ("check", "wide", []), ("local", "wide", ["--pool", "kb-events"])]
    # the 100-sweep KB goes last: the memory it leaves in the program's
    # process-wide tables slows every later command, so a seeded position
    # would make the seed, not the program, set the batch's speed.  A round
    # is two passes, which outlasts a run: every run then holds the same
    # commands, and the tail falls on the two samples of one KB
    order = sorted(key for key in keys if key != "sweeps")
    random.Random(f"order-{seed}").shuffle(order)
    return 2 * [(kind, key, []) for key in order + ["sweeps"]
                for kind in ("check", "local", "oracle")]


# the local answer on `key` is compared with the oracle answer on GOAL_TWIN[key]
GOAL_TWIN = {"medical": "medical_reduced"}


def write_kbs(name: str, kbs: dict, seed: int) -> dict:
    folder = OUT / "kb" / f"{name}-s{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, text in kbs.items():
        path = folder / f"{key}.kb"
        path.write_text(kbgen.shuffle_lines(text, f"{seed}-{key}"), encoding="utf-8")
        paths[key] = str(path)
    return paths


# -- running one command --------------------------------------------------------------

def run_op(cli, kind, path, extra):
    """Call taxprob.cli.main once; return the outcome and its wall time."""
    if kind == "check":
        argv = ["check", path, "--json"]
    else:
        argv = ["query", path, "--method", kind, "--json"] + extra
    answers = []
    name = "local_query" if kind == "local" else "tight_answer"
    inner = getattr(cli, name)

    def capture(*args, **kwargs):
        answer = inner(*args, **kwargs)
        answers.append((answer.lower, answer.upper, answer.empty))
        return answer

    if kind != "check":
        setattr(cli, name, capture)
    out, err = io.StringIO(), io.StringIO()
    error = None
    # every command starts from a collected heap, as a fresh `taxprob`
    # process would; otherwise collector timing from earlier commands makes
    # repeated runs of one command alternate between two speeds
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                error = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - t0
    finally:
        if kind != "check":
            setattr(cli, name, inner)
    outcome = {"rc": rc}
    if error:
        outcome["error"] = error
    elif rc == 0 and kind == "check":
        try:
            report = json.loads(out.getvalue())
            found = report["inconsistent_chains"]
            status = report["status"]
        except (ValueError, KeyError) as exc:
            outcome["error"] = f"unreadable check report: {exc!r}"
            return outcome, seconds, t0
        chains = json.dumps(found, sort_keys=True)
        outcome.update(status=status, inconsistent=len(found),
                       digest=hashlib.sha256(chains.encode()).hexdigest()[:16])
    elif rc == 0 and answers:
        lower, upper, empty = answers[-1]
        outcome.update(lower=str(lower), upper=str(upper), empty=bool(empty))
    return outcome, seconds, t0


def run_round(cli, ops, paths, log, tracer=None):
    """Run one round, appending an Entry per command to `log`; return the
    wall time spent in commands."""
    busy = 0.0
    for kind, key, extra in ops:
        if tracer is not None:
            tracer.op = len(log)
        outcome, seconds, start = run_op(cli, kind, paths[key], extra)
        busy += seconds
        log.append(Entry(kind, key, outcome, seconds, maxrss_mb(), start))
    return busy


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the answer gate ----------------------------------------------------------------------

def gate(log, rounds_ops, expected):
    """Failure reason per logged command (None when it passed)."""
    reasons = []
    for kind, key, outcome, *_ in log:
        want = expected.get(key, {}).get(kind)
        rc = outcome["rc"]
        if "error" in outcome:
            reasons.append("error: " + outcome["error"].strip().splitlines()[-1])
        elif rc not in DOCUMENTED_EXITS:
            reasons.append(f"undocumented exit code {rc!r}")
        elif want is None:
            reasons.append("no recorded answer")
        elif outcome != want:
            reasons.append(f"mismatch: got {outcome}, expected {want}")
        else:
            reasons.append(None)
    # soundness and empty-answer agreement, per round
    start = 0
    for size in rounds_ops:
        chunk = range(start, start + size)
        oracle_at = {log[i].key: i for i in chunk if log[i].kind == "oracle"}
        for i in chunk:
            kind, key, outcome, *_ = log[i]
            j = oracle_at.get(GOAL_TWIN.get(key, key))
            if kind != "local" or j is None:
                continue
            miss = soundness_miss(outcome, log[j].outcome)
            if miss and reasons[i] is None:
                reasons[i] = miss
        start += size
    return reasons


def soundness_miss(local, oracle):
    if local["rc"] != 0 or oracle["rc"] != 0 or "lower" not in local \
            or "lower" not in oracle:
        return None
    if local["empty"] != oracle["empty"]:
        return (f"empty-answer disagreement: local empty={local['empty']}, "
                f"oracle empty={oracle['empty']}")
    if local["empty"]:
        return None
    if Fraction(local["lower"]) > Fraction(oracle["lower"]) \
            or Fraction(local["upper"]) < Fraction(oracle["upper"]):
        return (f"soundness: local [{local['lower']}, {local['upper']}] does "
                f"not contain oracle [{oracle['lower']}, {oracle['upper']}]")
    return None


# -- metrics ---------------------------------------------------------------------------------

def tail(values):
    """The highest nearest-rank percentile with at least ten samples above
    it, but never less than the median; the maximum when there are no more
    than ten samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1]
    return max(ordered[-11], statistics.median(ordered))


def measure_setup(speed):
    """Median seconds from starting a fresh interpreter until `import
    taxprob.cli` returns, over several interpreters, at reference speed."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import taxprob.cli; print(time.monotonic_ns())")
    samples = []
    start = time.perf_counter()
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail("cannot import taxprob.cli:\n" + proc.stderr)
        if i:  # the first start may compile bytecode; it is not timed
            samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(samples), speed.slowdown(start, time.perf_counter())


def end_to_end(log, setup, speed, scaled=True):
    """End-to-end metrics; `scaled` divides times by the machine slowdown."""
    by_kind = {"local": [], "oracle": [], "check": []}
    for entry in log:
        factor = speed.slowdown(entry.start, entry.start + entry.seconds) \
            if scaled else 1.0
        by_kind[entry.kind].append(entry.seconds / factor)
    setup_s, setup_factor = setup
    metrics = {"setup_s": (setup_s / setup_factor if scaled else setup_s, "s")}
    for kind, values in by_kind.items():
        metrics[f"{kind}_s"] = (statistics.median(values), "s")
        metrics[f"{kind}_s_tail"] = (tail(values), "s")
    # the user waits for each command, so throughput is commands over the
    # time spent in them; collector, calibration and gate time are left out
    busy = sum(sum(values) for values in by_kind.values())
    metrics["ops_per_s"] = (len(log) / busy, "1/s")
    metrics["peak_rss_mb"] = (maxrss_mb(), "MB")
    return metrics


def per_layer(tracer, rounds, overhead, log, rss_before):
    t = tracer

    def per_round(x):
        return x / rounds

    def mean(name):
        values = t.facts.get(name, [])
        return statistics.fmean(values) if values else 0.0

    calls, secs = t.calls, t.seconds
    built_sat = t.total(calls, "chains.built", "engine.saturate")
    checks_sat = t.total(calls, "chains.check_consistency", "engine.saturate")
    m = {
        "kbformat.parse_kb_s": (per_round(t.span_seconds("kbformat.parse_kb")), "s"),
        "kb.validate_coherence_s": (per_round(t.span_seconds("kb.validate_coherence")), "s"),
        "kb.canonical_interval_calls": (per_round(t.total(calls, "kb.canonical_interval")), "count"),
        "kb.canonical_interval_s": (per_round(t.total(secs, "kb.canonical_interval")), "s"),
        "taxonomy.guard_flags_calls": (per_round(t.total(calls, "taxonomy.guard_flags")), "count"),
        "taxonomy.guard_flags_s": (per_round(t.total(secs, "taxonomy.guard_flags")), "s"),
        "taxonomy.entails_calls": (per_round(t.total(calls, "taxonomy.entails")), "count"),
        "taxonomy.forces_false_calls": (per_round(t.total(calls, "taxonomy.forces_false")), "count"),
        "events.conjoin_calls": (per_round(t.total(calls, "events.conjoin")), "count"),
        "events.conjoin_s": (per_round(t.total(secs, "events.conjoin")), "s"),
        "events.enumerate_atom_masks_s": (per_round(t.span_seconds("events.enumerate_atom_masks")), "s"),
        "engine.seed_state_s": (per_round(t.span_seconds("engine.seed_state")), "s"),
        "engine.pool_events": (mean("pool_events"), "count"),
        "engine.role_events": (mean("role_events"), "count"),
        "engine.saturate_s": (per_round(t.span_seconds("engine.saturate")), "s"),
        "engine.sweeps": (per_round(sum(t.facts["sweeps"])), "count"),
        "engine.improvements": (per_round(sum(t.facts["improvements"])), "count"),
        "engine.max_sweeps_stops": (per_round(sum(t.facts["max_sweeps_stops"])), "count"),
        "engine.trace_slice_s": (per_round(t.span_seconds("engine.trace_slice")), "s"),
        "engine.sig_cache_hit_ratio": (1 - checks_sat / built_sat if built_sat else 0.0, "ratio"),
        "chains.built": (per_round(t.total(calls, "chains.built")), "count"),
        "chains.built_saturate": (per_round(built_sat), "count"),
        "chains.built_survey": (per_round(t.total(calls, "chains.built", "engine.survey_chains")), "count"),
        "chains.check_consistency_calls": (per_round(t.total(calls, "chains.check_consistency")), "count"),
        "chains.check_consistency_s": (per_round(t.total(secs, "chains.check_consistency")), "s"),
        "chains.inconsistent": (per_round(t.total(calls, "chains.inconsistent")), "count"),
        "rules.evaluate_slots_calls": (per_round(t.total(calls, "rules.evaluate_slots")), "count"),
        "rules.evaluate_slots_s": (per_round(t.total(secs, "rules.evaluate_slots")), "s"),
        "oracle.build_atom_system_s": (per_round(t.span_seconds("oracle.build_atom_system")), "s"),
        "oracle.atoms": (mean("atoms"), "count"),
        "oracle.active_rows": (mean("active_rows"), "count"),
        "oracle.tight_answer_s": (per_round(t.span_seconds("oracle.tight_answer")), "s"),
        "lp.solve_lp_calls": (per_round(t.span_count("lp.solve_lp")), "count"),
        "lp.solve_lp_s": (per_round(t.span_seconds("lp.solve_lp")), "s"),
        "lp.columns": (mean("columns"), "count"),
        "trace_overhead_s": (overhead, "s"),
    }
    growth = [(log[i].maxrss_mb - (log[i - 1].maxrss_mb if i else rss_before), i)
              for i in range(len(log))]
    step, at = max(growth)
    m["mem.max_op_growth_mb"] = (step, "MB")
    return m, at


# -- main -----------------------------------------------------------------------------------

def load_program():
    if not (SRC / "taxprob" / "cli.py").is_file():
        fail(f"no taxprob sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from taxprob import cli
    return cli


def run(args):
    cli = load_program()
    kbs = workload_kbs(args.workload)
    paths = write_kbs(args.workload, kbs, args.seed)
    ops = workload_round(args.workload, kbs, args.seed)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload, {})

    log, sizes = [], []
    if not args.trace:
        speed = MachineSpeed()
        with speed.running():
            setup = measure_setup(speed)
            start = time.perf_counter()
            while not sizes or time.perf_counter() - start < args.seconds:
                run_round(cli, ops, paths, log)
                sizes.append(len(ops))
        metrics = end_to_end(log, setup, speed)
        wall = end_to_end(log, setup, speed, scaled=False)
    else:
        from tracer import Tracer
        tracer, overheads = Tracer(), []
        rss_before = maxrss_mb()
        start = time.perf_counter()
        while not sizes or time.perf_counter() - start < args.seconds:
            plain = run_round(cli, ops, paths, log)
            tracer.install()
            try:
                traced = run_round(cli, ops, paths, log, tracer)
            finally:
                tracer.uninstall()
            sizes += [len(ops), len(ops)]
            overheads.append(traced - plain)
        metrics, peak_at = per_layer(tracer, len(overheads),
                                     statistics.fmean(overheads), log, rss_before)
        wall = {}
        write_trace(args, tracer, log, peak_at)

    reasons = gate(log, sizes, expected)
    failed = sum(r is not None for r in reasons)
    report(args, log, reasons, metrics, wall, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def write_trace(args, tracer, log, peak_at):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    kind, key = log[peak_at].kind, log[peak_at].key
    labels = tracer.facts["stop_labels"]
    payload = {
        "workload": args.workload, "seed": args.seed,
        "largest_rss_step": {"op": peak_at, "kind": kind, "kb": key},
        # saturate keeps the "max-sweeps" label when its links run out early
        "saturate_stops": {
            "labelled_max_sweeps": labels.count("max-sweeps"),
            "used_all_sweeps": sum(tracer.facts["max_sweeps_stops"]),
            "labelled_fixpoint": labels.count("fixpoint")},
        "ops": [{"op": i, "kind": e.kind, "kb": e.key, "rc": e.outcome["rc"],
                 "start": e.start, "seconds": e.seconds, "maxrss_mb": e.maxrss_mb}
                for i, e in enumerate(log)],
        "spans": [{"id": i, "parent": p, "name": n, "op": op,
                   "start": s, "end": e} for i, p, n, op, s, e in tracer.spans],
        "calls": [{"name": n, "parent": p, "calls": c,
                   "seconds": tracer.seconds[(n, p)]}
                  for (n, p), c in sorted(tracer.calls.items())],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}; largest memory step: "
          f"op {peak_at} ({kind} {key})", file=sys.stderr)


def report(args, log, reasons, metrics, wall, failed):
    """Human-readable summary on stderr; stdout ends with the JSON line."""
    counts = {}
    for kind, *_ in log:
        counts[kind] = counts.get(kind, 0) + 1
    print(f"{args.workload} seed={args.seed}: "
          + ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
          + f"; failed_frac {failed / len(log):.4f} ({failed}/{len(log)})",
          file=sys.stderr)
    if wall:
        print(f"  {'metric':34s} {'at reference':>14s} {'wall clock':>14s}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        raw = f"{wall[name][0]:14.6f}" if name in wall else ""
        print(f"  {name:34s} {value:14.6f} {raw} {unit}", file=sys.stderr)
    for (kind, key, *_), reason in zip(log, reasons):
        if reason:
            print(f"  FAILED {kind} {key}: {reason}", file=sys.stderr)


def record():
    """Rewrite expected.json from one round of every workload."""
    cli = load_program()
    expected = {}
    for name in WORKLOADS:
        kbs = workload_kbs(name)
        paths = write_kbs(name, kbs, 0)
        log = []
        run_round(cli, workload_round(name, kbs, 0), paths, log)
        table = expected.setdefault(name, {})
        for kind, key, outcome, *_ in log:
            table.setdefault(key, {})[kind] = outcome
        print(f"{name}: {len(log)} commands recorded", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current program")
    args = parser.parse_args(argv)
    if args.record:
        record()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
