"""Append-only JSON-lines ledger of verification outcomes, plus reporting.

One record per line; exact values are serialized as integer-ratio strings
(``"num/den"``) or canonical sorted term lists for symbolic totals -- never
floating point -- so ledgers are greppable, diffable, and append-safe under
interruption.  Re-running an instance appends; nothing is ever rewritten.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import MultiPoly
from .config_sums import BASELINE_RANGE
from .version import ENGINE_VERSION

__all__ = [
    "LedgerRecord",
    "value_str",
    "default_ledger_path",
    "write_record",
    "read_records",
    "render_report",
    "LEDGER_DIR_ENV",
]

LEDGER_DIR_ENV = "STIRLINGZERO_LEDGER_DIR"
DEFAULT_LEDGER_NAME = "ledger.jsonl"


def value_str(value) -> str:
    """Exact text form: integer-ratio for scalars, sorted terms for polynomials."""
    if isinstance(value, MultiPoly):
        return value.canonical_str()
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(Fraction(value))
    raise TypeError(f"cannot serialize {type(value).__name__} exactly")


class LedgerRecord(NamedTuple):
    command: str
    params: dict
    status: str                      # asserted | exploratory | not_attempted
    verdict: Optional[str]           # zero | nonzero, or null when not attempted
    value: Optional[str]             # exact serialized value
    visited: Optional[int] = None
    elapsed: Optional[float] = None
    extra: Optional[dict] = None     # written as {}

    def to_json(self) -> str:
        payload = {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "command": self.command,
            "params": self.params,
            "status": self.status,
            "verdict": self.verdict,
            "value": self.value,
            "visited": self.visited,
            "elapsed_s": self.elapsed,
            "extra": {} if self.extra is None else self.extra,
            "engine": ENGINE_VERSION,
        }
        return json.dumps(payload, sort_keys=True)


def default_ledger_path(explicit: Optional[str] = None) -> str:
    if explicit:
        return explicit
    directory = os.environ.get(LEDGER_DIR_ENV, ".")
    return os.path.join(directory, DEFAULT_LEDGER_NAME)


def write_record(path: str, record: LedgerRecord) -> None:
    """Append one record; line-level writes keep the file valid under interruption."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
        fh.flush()


def _check_record(obj) -> None:
    # the fields render_report reads, in the types it reads them as
    if not isinstance(obj, dict) or not isinstance(obj.get("command"), str):
        raise ValueError("not a ledger record")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params is not an object")
    for key in ("g", "w"):
        if key in params and type(params[key]) is not int:
            raise ValueError(f"params.{key} is not an integer")
    for key in ("status", "verdict", "value"):
        if not isinstance(obj.get(key), (str, type(None))):
            raise ValueError(f"{key} is neither a string nor null")
    if obj.get("visited") is not None and type(obj["visited"]) is not int:
        raise ValueError("visited is neither an integer nor null")
    elapsed = obj.get("elapsed_s")
    if elapsed is not None and not (type(elapsed) in (int, float) and math.isfinite(elapsed)):
        raise ValueError("elapsed_s is neither a finite number nor null")


def read_records(path: str):
    """Parse a ledger; corrupt lines (not UTF-8 JSON) and malformed records
    are skipped and reported, never fatal.  A missing file reads as empty."""
    records = []
    warnings = []
    if not os.path.exists(path):
        return records, warnings
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                obj = json.loads(line.decode("utf-8"))
                _check_record(obj)
                records.append(obj)
            except ValueError as exc:
                warnings.append(f"line {lineno}: skipped corrupt record ({exc})")
    return records, warnings


def _fmt_params(params: dict) -> str:
    return " ".join(f"{k}={params[k]}" for k in sorted(params))


def _clip(text: Optional[str], width: int = 48) -> str:
    if text is None:
        return "-"
    return text if len(text) <= width else text[: width - 3] + "..."


def render_report(records, warnings=()) -> str:
    """Human-readable summary: verdicts, findings, coverage, slowest runs."""
    lines = []
    lines.append(f"ledger records: {len(records)}")
    for w in warnings:
        lines.append(f"warning: {w}")

    by_verdict = {}
    for rec in records:
        key = rec.get("verdict") or rec.get("status") or "unknown"
        by_verdict[key] = by_verdict.get(key, 0) + 1
    if by_verdict:
        lines.append("verdicts: " + ", ".join(
            f"{k}={v}" for k, v in sorted(by_verdict.items())))

    nonzero = [r for r in records if r.get("verdict") == "nonzero"]
    if nonzero:
        lines.append("")
        lines.append("!! NONZERO VERDICTS (counterexample candidates)")
        for rec in nonzero:
            lines.append(
                f"  {rec.get('command')} {_fmt_params(rec.get('params', {}))} "
                f"status={rec.get('status')} value={_clip(rec.get('value'))}")

    if records:
        lines.append("")
        lines.append("instances:")
        for rec in records:
            lines.append(
                f"  {rec.get('command'):6s} {_fmt_params(rec.get('params', {})):40s} "
                f"{str(rec.get('status')):13s} {str(rec.get('verdict')):13s} "
                f"value={_clip(rec.get('value'), 32)}")

    # coverage of the default asserted band of configuration-sum instances
    covered = set()
    for rec in records:
        if rec.get("command") not in ("part1", "sweep"):
            continue
        if rec.get("status") != "asserted" or rec.get("verdict") != "zero":
            continue
        params = rec.get("params", {})
        if "g" in params and "w" in params:
            covered.add((int(params["g"]), int(params["w"])))
    lines.append("")
    lines.append("baseline-range coverage (asserted zero verdicts):")
    for g, w_max in BASELINE_RANGE:
        have = [w for w in range(w_max + 1) if (g, w) in covered]
        missing = [w for w in range(w_max + 1) if (g, w) not in covered]
        status = "complete" if not missing else f"missing w={missing}"
        lines.append(f"  g={g}: covered w={have} ({status})")

    timed = [r for r in records if isinstance(r.get("elapsed_s"), (int, float))]
    if timed:
        timed.sort(key=lambda r: r["elapsed_s"], reverse=True)
        lines.append("")
        lines.append("slowest instances:")
        for rec in timed[:5]:
            lines.append(
                f"  {rec['elapsed_s']:8.3f}s  {rec.get('command')} "
                f"{_fmt_params(rec.get('params', {}))}")

    exploratory = [r for r in records if r.get("status") == "exploratory"]
    if exploratory:
        lines.append("")
        lines.append(f"exploratory records: {len(exploratory)} "
                     "(outside the asserted band; never affect exit status)")
    not_attempted = [r for r in records if r.get("status") == "not_attempted"]
    if not_attempted:
        lines.append(f"not attempted (budget exhausted): {len(not_attempted)}")
    return "\n".join(lines)
