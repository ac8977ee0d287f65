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
``./ledger.jsonl``).  Exit status is 0 iff every *asserted* verdict is
zero/consistent; exploratory and not-attempted records never affect it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

from .algebra import EngineError
from .bridge import bridge_check, bridge_params
from .config_sums import (ConfigSumInstance, SweepEntry, random_entries, run_plan,
                          sweep_plan)
from .ledger import (
    LedgerRecord,
    default_ledger_path,
    read_records,
    render_report,
    value_str,
    write_record,
)
from .partitions import GroundSet
from .series_vanishing import ExpansionConfig, all_vanished, vanishing_report

__all__ = ["main", "build_parser"]


def _parse_rational_list(text: str):
    try:
        return [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of rationals, got {text!r}: {exc}")


def _parse_int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}: {exc}")


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
    group_c.add_argument("--c", type=_parse_rational_list,
                         help="explicit ground values, e.g. 2,3,4 or 5/2,-1,7")
    group_c.add_argument("--random", type=_positive_int, metavar="COUNT",
                         help="COUNT seeded random rational ground sets")
    group_c.add_argument("--symbolic", action="store_true",
                         help="fully symbolic ground set (proves every ground set)")
    p1.add_argument("--seed", type=int, default=0, help="seed for --random grounds")

    p2 = sub.add_parser("part2", help="log-expansion vanishing checks")
    p2.add_argument("--H", type=int, default=4, dest="h_max",
                    help="deepest 1/n order checked; u indices up to max(6, H+1) "
                         "stay symbolic and the oracle samples j = H+1 .. 3H+4")

    pb = sub.add_parser("bridge", help="paired check of one bridge instance")
    pb.add_argument("--c", type=_parse_int_list, required=True,
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
        p.add_argument("--ledger", help="ledger file path (JSON lines)")
    for p in (p1, ps):
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes per instance (default 1, the serial "
                            "reference path)")

    return parser


def _emit(path, record):
    write_record(path, record)
    detail = f" value={record.value}" if record.verdict == "nonzero" else ""
    print(f"[{record.status}] {record.command} "
          f"{' '.join(f'{k}={v}' for k, v in sorted(record.params.items()))}"
          f" -> {record.verdict}{detail}")


def _confirmation_extra(conf):
    if conf is None:
        return {}
    extra = {
        "ordered_total": value_str(conf.ordered_total),
    }
    if conf.second_ground is not None:
        extra["second_ground"] = conf.second_ground.describe()
        extra["second_total"] = value_str(conf.second_total)
    return extra


def _run_part1(args, ledger_path) -> int:
    if args.g < 2:
        print("error: need --g >= 2", file=sys.stderr)
        return 2
    g, seed = args.g, args.seed
    ws = list(range(g - 1)) if args.all_w else [args.w]
    try:  # ConfigSumInstance rejects a w outside 0..g-2 and a ground of the wrong size
        if args.random is not None:
            plan = [e for w in ws for e in random_entries(g, w, "asserted", args.random, seed)]
        else:
            ground = GroundSet.symbolic(g) if args.symbolic else GroundSet.numeric(args.c)
            plan = [SweepEntry(ConfigSumInstance(g, w, ground), "asserted") for w in ws]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_entries("part1", run_plan(plan, seed=seed, jobs=args.jobs),
                         ledger_path)


def _emit_entries(command, entries, ledger_path) -> int:
    """Write one record per configuration-sum entry as it arrives.

    Returns 1 if an asserted verdict is nonzero, else 0.
    """
    failures = not_attempted = 0
    for entry in entries:
        inst = entry.instance
        params = {"g": inst.g, "w": inst.w, "mode": inst.mode,
                  "ground": inst.ground.describe()}
        if entry.seed is not None:
            params["seed"] = entry.seed
        if entry.result is None:
            not_attempted += 1
            _emit(ledger_path, LedgerRecord(
                command=command, params=params, status="not_attempted",
                verdict=None, value=None))
            continue
        if entry.result.verdict == "nonzero" and entry.status == "asserted":
            failures += 1
        _emit(ledger_path, LedgerRecord(
            command=command, params=params, status=entry.status,
            verdict=entry.result.verdict,
            value=value_str(entry.result.total),
            visited=entry.result.configurations_visited,
            elapsed=entry.result.elapsed,
            extra=_confirmation_extra(entry.confirmation)))
    if not_attempted:
        print(f"warning: {not_attempted} instances not attempted "
              "(budget exhausted); see ledger", file=sys.stderr)
    return 1 if failures else 0


def _run_part2(args, ledger_path) -> int:
    h_max = args.h_max
    try:
        cfg = ExpansionConfig(h_max=h_max, s_max=max(6, h_max + 1),
                              j_samples=tuple(range(h_max + 1, 3 * h_max + 5)))
        checks = vanishing_report(cfg)
    except (ValueError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in checks:
        params = {"h": check.h, "k": check.k, "H": cfg.h_max,
                  "s_max": cfg.s_max, "j_samples": ",".join(map(str, cfg.j_samples))}
        _emit(ledger_path, LedgerRecord(
            command="part2", params=params, status="asserted",
            verdict="zero" if check.vanished else "nonzero",
            value=value_str(check.value),
            extra={"j_degree_at_order": check.j_degree_at_order}))
    return 0 if all_vanished(checks) else 1


def _run_bridge(args, ledger_path) -> int:
    try:
        inst = bridge_params(args.c, args.w)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = bridge_check(inst)
    verdict = "zero" if (report.coefficient_zero and report.config_sum_zero) \
        else "nonzero"
    _emit(ledger_path, LedgerRecord(
        command="bridge",
        params={"c": ",".join(map(str, inst.c)), "w": inst.w,
                "k": inst.k, "h": inst.h},
        status="asserted", verdict=verdict,
        value=value_str(report.config_sum.total),
        visited=report.config_sum.configurations_visited,
        elapsed=report.config_sum.elapsed,
        extra={"bridge_coefficient": value_str(report.coefficient),
               "config_sum": value_str(report.config_sum.total),
               "consistent": report.consistent}))
    return 0 if verdict == "zero" else 1


def _run_sweep(args, ledger_path) -> int:
    if args.g_max < 2:
        print("error: need --g-max >= 2", file=sys.stderr)
        return 2
    deadline = None if args.budget_seconds is None else time.monotonic() + args.budget_seconds
    plan = sweep_plan(args.g_max, symbolic_g_max=args.symbolic_g_max, seed=args.seed)
    entries = run_plan(plan, seed=args.seed, jobs=args.jobs, deadline=deadline)
    return _emit_entries("sweep", entries, ledger_path)


def _run_report(args) -> int:
    try:
        records, warnings = read_records(default_ledger_path(args.ledger))
    except OSError as exc:  # e.g. a directory; a missing file reads as empty
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(records, warnings))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return _run_report(args)
    ledger_path = default_ledger_path(args.ledger)
    if args.command == "part1":
        return _run_part1(args, ledger_path)
    if args.command == "part2":
        return _run_part2(args, ledger_path)
    if args.command == "bridge":
        return _run_bridge(args, ledger_path)
    if args.command == "sweep":
        return _run_sweep(args, ledger_path)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
