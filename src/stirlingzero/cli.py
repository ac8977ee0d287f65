"""Campaign runner: configure, execute, persist, and report verification runs.

Subcommands
-----------
``part1``   configuration-sum instances (numeric, seeded-random, or symbolic)
``part2``   log-expansion vanishing checks at a configured budget
``bridge``  one paired instance: u-monomial coefficient vs configuration sum
``sweep``   the full default band (g <= 6 all w; g = 7 w <= 3) plus
            exploratory g = 7, w in {4, 5} instances, at fixed sample counts
``report``  human-readable summary of a ledger file

Every run appends exact, reproducible records to a JSON-lines ledger (path
from ``--ledger``, else ``$STIRLINGZERO_LEDGER_DIR/ledger.jsonl``, else
``./ledger.jsonl``).  Exit status: 0 if every *asserted* verdict is zero, else
1 (exploratory and not-attempted records never count); 2 if bad input, the
ledger, an engine error, a lost pool worker or any other exception stops the
run, keeping the records already written.  That other exception is a bug,
so its traceback is printed first.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from .algebra import EngineError
from .bridge import bridge_check, bridge_params
from .config_sums import ConfigSumInstance, SweepEntry, random_entries, run_plan, sweep_plan
from .ledger import (
    LedgerRecord,
    default_ledger_path,
    read_records,
    render_report,
    value_str,
    write_record,
)
from .partitions import GroundSet
from .series_vanishing import ExpansionConfig, vanishing_report

__all__ = ["main", "build_parser"]


def _list_of(kind, plural: str):
    # an argparse type: a comma-separated list of ``kind``, empty items skipped
    def parse(text: str):
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip()]
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {plural}, got {text!r}: {exc}")
    return parse


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of seconds, got {text!r}") from None
    if not 0 <= value < math.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _ledger_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingzero",
        description="Exact-arithmetic verifier for vanishing configuration sums "
                    "and log-expansion coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("part1", help="configuration-sum instances")
    p1.add_argument("--g", type=int, required=True, help="ground-set size (>= 2)")
    group_w = p1.add_mutually_exclusive_group(required=True)
    group_w.add_argument("--w", type=int, help="single weight budget")
    group_w.add_argument("--all-w", action="store_true", help="every w in 0..g-2")
    group_c = p1.add_mutually_exclusive_group(required=True)
    group_c.add_argument("--c", type=_list_of(Fraction, "rationals"),
                         help="explicit ground values, e.g. 2,3,4 or 5/2,-1,7; "
                              "write --c=-2,-1,0 when the list starts with -")
    group_c.add_argument("--random", type=_positive_int, metavar="COUNT",
                         help="COUNT seeded random rational ground sets")
    group_c.add_argument("--symbolic", action="store_true",
                         help="fully symbolic ground set (proves every ground set)")
    p1.add_argument("--seed", type=int, default=0, help="seed for --random grounds")

    p2 = sub.add_parser("part2", help="log-expansion vanishing checks")
    p2.add_argument("--H", type=int, default=4, dest="h_max",
                    help="deepest 1/n order checked; the budget is "
                         "ExpansionConfig's for depth H")

    pb = sub.add_parser("bridge", help="paired check of one bridge instance")
    pb.add_argument("--c", type=_list_of(int, "integers"), required=True,
                    help="distinct integers >= 2, e.g. 2,3,4")
    pb.add_argument("--w", type=int, required=True)

    ps = sub.add_parser("sweep", help="default verification band up to --g-max")
    ps.add_argument("--g-max", type=int, default=7)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--symbolic-g-max", type=int, default=5)
    ps.add_argument("--budget-seconds", type=_budget_seconds,
                    help="wall-clock budget; leftover instances are marked, not dropped")

    pr = sub.add_parser("report", help="summarize a ledger file")

    for p in (p1, p2, pb, ps, pr):
        p.add_argument("--ledger", type=_ledger_path, help="ledger file path (JSON lines)")
    for p in (p1, ps):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes, at most one per usable CPU: instances run "
                            "side by side, one worker each, and a lone instance is split "
                            "across them (default 1, the serial reference path)")

    return parser


def _confirmation_extra(conf) -> dict:
    # a nonzero total's double check, as ledger fields; none for a zero total
    if conf is None:
        return {}
    extra = {"oracle_total": value_str(conf.oracle_total)}
    if conf.second_ground is not None:  # numeric grounds only
        extra.update(second_ground=conf.second_ground.describe(),
                     second_total=value_str(conf.second_total))
    return extra


def _entry_record(command, entry) -> LedgerRecord:
    inst = entry.instance
    params = {"g": inst.g, "w": inst.w, "mode": inst.mode,
              "ground": inst.ground.describe()}
    if entry.seed is not None:
        params["seed"] = entry.seed
    if entry.result is None:
        return LedgerRecord(command=command, params=params, status="not_attempted",
                            verdict=None, value=None)
    return LedgerRecord(
        command=command, params=params, status=entry.status,
        verdict=entry.result.verdict,
        value=value_str(entry.result.total),
        visited=entry.result.configurations_visited,
        elapsed=entry.result.elapsed,
        extra=_confirmation_extra(entry.confirmation))


def _part1(args):
    g, seed = args.g, args.seed
    if g < 2:  # --all-w at g = 1 plans nothing
        raise ValueError("need --g >= 2")
    ws = list(range(g - 1)) if args.all_w else [args.w]
    # ConfigSumInstance rejects a w outside 0..g-2 and a ground of the wrong size
    if args.random is not None:
        plan = (e for w in ws for e in random_entries(g, w, "asserted", args.random, seed))
    else:
        ground = GroundSet.symbolic(g) if args.symbolic else GroundSet.numeric(args.c)
        plan = [SweepEntry(ConfigSumInstance(g, w, ground), "asserted") for w in ws]
    return (_entry_record("part1", e) for e in run_plan(plan, seed=seed, jobs=args.jobs))


def _part2(args):
    cfg = ExpansionConfig(h_max=args.h_max)
    return [LedgerRecord(
        command="part2",
        params={"h": check.h, "k": check.k, "H": cfg.h_max,
                "s_max": cfg.s_max, "j_samples": ",".join(map(str, cfg.j_samples))},
        status="asserted",
        verdict="zero" if check.vanished else "nonzero",
        value=value_str(check.value),
        extra={"j_degree_at_order": check.j_degree_at_order})
        for check in vanishing_report(cfg)]


def _bridge(args):
    inst = bridge_params(args.c, args.w)
    start = time.perf_counter()
    report = bridge_check(inst)
    elapsed = time.perf_counter() - start  # both verifiers and the confirmation
    zero = report.coefficient_zero and report.config_sum_zero
    return [LedgerRecord(
        command="bridge",
        params={"c": ",".join(map(str, inst.c)), "w": inst.w,
                "k": inst.k, "h": inst.h},
        status="asserted", verdict="zero" if zero else "nonzero",
        value=value_str(report.config_sum.total),
        visited=report.config_sum.configurations_visited,
        elapsed=elapsed,
        extra={"bridge_coefficient": value_str(report.coefficient),
               "config_sum": value_str(report.config_sum.total),
               "consistent": report.consistent,
               **_confirmation_extra(report.confirmation)})]


def _sweep(args):
    if args.g_max < 2:
        raise ValueError("need --g-max >= 2")
    deadline = None if args.budget_seconds is None else time.monotonic() + args.budget_seconds
    plan = sweep_plan(args.g_max, symbolic_g_max=args.symbolic_g_max, seed=args.seed)
    entries = run_plan(plan, seed=args.seed, jobs=args.jobs, deadline=deadline)
    return (_entry_record("sweep", e) for e in entries)


def _report(args):
    print(render_report(*read_records(args.ledger)))  # a missing file reads as empty
    return ()


_RUNNERS = {"part1": _part1, "part2": _part2, "bridge": _bridge, "sweep": _sweep,
            "report": _report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.ledger = default_ledger_path(args.ledger)
    failures = not_attempted = 0
    try:
        for record in _RUNNERS[args.command](args):
            write_record(args.ledger, record)
            detail = f" value={record.value}" if record.verdict == "nonzero" else ""
            print(f"[{record.status}] {record.command} "
                  f"{' '.join(f'{k}={v}' for k, v in sorted(record.params.items()))}"
                  f" -> {record.verdict}{detail}")
            failures += record.status == "asserted" and record.verdict != "zero"
            not_attempted += record.status == "not_attempted"
    except (ValueError, EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: exit 1 would read as a counterexample
        import traceback

        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not_attempted:
        print(f"warning: {not_attempted} instances not attempted "
              "(budget exhausted); see ledger", file=sys.stderr)
    return 1 if failures else 0
