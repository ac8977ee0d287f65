"""Benchmark of the stirlingzero verifier: one workload per invocation.

    python3 perfbench/run.py --workload {sweep,numeric,symbolic,expansion} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
Every pass runs in a fresh interpreter, so no ``lru_cache`` or block-value
cache carries over between passes.  Before the timed passes come two smoke
passes that are not timed: a warm-up (compiles the ``.pyc`` files, must pass
the gate) and a control with faults injected through the trace wrappers
(offset-1 Stirling values plus one, and ``j + j^3`` added to the log
expansion's ``n^-1`` coefficient; the gate must report it failed).

``--trace 0`` runs a fixed number of untraced passes, ``passes(workload,
seconds)``: ``--seconds`` divided by the workload's pass time at the seed
commit, so a run measures about ``--seconds`` there and every commit takes
the same number of samples.  Pass ``i`` of a run gets index ``i``, from which
(with the seed) its inputs are drawn.  Each untraced pass samples the
machine's speed while it runs (``calibrate.py``): the host's speed wanders by
up to 2x, so times are reported in reference seconds, the measured seconds
rescaled to a fixed speed of a fixed kernel.  The result line carries the
run's medians of ``wall_ref_s`` (first call to last verdict), ``cpu_ref_s``
(user + system of the pass and its pool workers over the same interval),
``setup_s`` (interpreter start to the end of ``import stirlingzero``, also
sampled by import-only interpreters between passes) and ``peak_rss_mb``
(pass process or largest pool worker).  The human lines add the measured
``wall_s``, ``cpu_s`` and ``setup_measured_s``, and give each metric's
lowest sample, highest percentile with ten samples beyond it, and count.
``--trace 1`` runs half as many rounds, each an untraced and a traced pass in
alternating order, and reports the per-layer metrics of
``spans.LAYER_METRICS`` (lower medians over the traced passes), plus
``ledger.bytes`` and ``trace.overhead_s`` (the median over rounds of traced
minus untraced measured ``wall_s``).

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the full record (environment, instance list, every sample) is
written to ``perfbench/.work/results/``.  Exit status is 0 only when every
timed pass passed the gate, the warm-up passed and the control failed every
kind of check its workload names (``workloads.Pass.must_flag``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = ("sweep", "numeric", "symbolic", "expansion")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SETUP_PROBES = 2     # import-only interpreters before each timed round
# Wall seconds of a typical pass at the seed commit on a 2-vCPU VM (median
# of a run's passes).  Fixed, so a faster commit does not get more samples.
PASS_S = {"sweep": 3.4, "numeric": 2.9, "symbolic": 2.6, "expansion": 2.5}
MIN_PASSES = 3
BOOT = ("import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; import stirlingzero; "
        "t = time.monotonic(); import one_pass; one_pass.main(t)")
# The result line's end-to-end metrics, each the median of the run's samples.
# Times are in reference seconds: a pass's wall, CPU and set-up seconds times
# the calibration scale measured in the same process (calibrate.py).
END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed and kept in the result file beside them: the times as measured
MEASURED = (("wall_s", "s"), ("cpu_s", "s"), ("setup_measured_s", "s"))
# Every per-layer metric is printed and kept in the result file; the result
# line has the counts and these times.  A layer a workload never enters reads
# exactly 0.0 s on every run, which the result line must not carry as a time,
# and config_sums is the only timed layer every workload enters.
# trace.overhead_s stays off it: over a few pairs of 2-3 s passes the
# machine's noise (+-0.3 s a pass) is larger than the overhead itself.
LINE_LAYER_TIMES = ("config_sums.self_s",)


class PassError(RuntimeError):
    """A pass process failed to produce its record."""


def spawn_pass(deadline: float, *flags: str) -> dict:
    """Run ``one_pass`` in a fresh interpreter and return its JSON record."""
    cmd = [sys.executable, "-c", BOOT.format(src=str(SRC), bench=str(BENCH))]
    # bytecode is cached as on a user's machine, so the warm-up pass compiles it once
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    started = time.monotonic()
    proc = subprocess.Popen(cmd + ["--started", repr(started), *flags], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it forked
        proc.communicate()
        raise PassError(f"pass {' '.join(flags)} overran the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {' '.join(flags)} exited {proc.returncode}:\n{err[-2000:]}")
    record = json.loads(lines[-1])
    if Path(record["stirlingzero"]) != SRC / "stirlingzero":
        raise PassError(f"imported stirlingzero from {record['stirlingzero']}, not {SRC}")
    return record


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no repository to ask
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def passes(workload: str, seconds: int) -> int:
    """Timed untraced passes of a ``--trace 0`` run: about ``seconds`` at the seed commit."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Warm-up, control and timed passes of one run; returns the full record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    warm = spawn_pass(deadline, *base, "--smoke")
    control = spawn_pass(deadline, *base, "--smoke", "--perturb")
    WORK.mkdir(exist_ok=True)
    spans_out = WORK / f"spans-{workload}-{seed}.json"
    plain, traced, setups = [], [], []
    n = passes(workload, seconds)
    rounds = max(2, n // 2) if trace else n
    for r in range(rounds):
        for _ in range(SETUP_PROBES):
            setups.append(spawn_pass(deadline, "--setup-only"))
        kinds = [False, True] if trace else [False]
        for is_traced in (kinds if r % 2 == 0 else kinds[::-1]):
            flags = base + ["--index", str(r)]
            flags += ["--trace", "--spans-out", str(spans_out)] if is_traced else []
            (traced if is_traced else plain).append(spawn_pass(deadline, *flags))
    timed = plain + traced
    setups += plain
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**timed[0]["env"], "seed": seed, "commit": git_commit()},
        "instances": list(dict.fromkeys(i for p in timed for i in p["instances"])),
        "warmup": {k: warm[k] for k in ("attempted", "failed", "failures")},
        "control": {k: control[k] for k in ("attempted", "failed", "unflagged")},
        "samples": {"wall_ref_s": [p["wall_ref_s"] for p in plain],
                    "cpu_ref_s": [p["cpu_ref_s"] for p in plain],
                    "setup_s": [p["setup_s"] * p["setup_scale"] for p in setups],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
                    "wall_s": [p["wall_s"] for p in plain],
                    "cpu_s": [p["cpu_s"] for p in plain],
                    "setup_measured_s": [p["setup_s"] for p in setups],
                    "speed_samples": [p["speed_samples"] for p in plain]},
        "attempted": sum(p["attempted"] for p in timed),
        "failed": sum(p["failed"] for p in timed),
        "failures": sorted({f for p in timed for f in p["failures"]})[:10],
    }
    record["correct"] = (record["failed"] == 0 and warm["failed"] == 0
                         and control["failed"] > 0 and not control["unflagged"])
    if trace:
        # the lower median is a sample, so a count stays a whole number
        layers = {name: statistics.median_low([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = stats.paired_difference(
            [p["wall_s"] for p in traced], [p["wall_s"] for p in plain])
        record["metrics"] = layers
        record["spans_file"] = str(spans_out.relative_to(ROOT))
    else:
        record["summary"] = {name: stats.summary(record["samples"][name])
                             for name, _ in END_TO_END + MEASURED}
        record["metrics"] = {name: record["summary"][name]["median"] for name, _ in END_TO_END}
    return record


def units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END + MEASURED)
    out = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    out.update({"ledger.bytes": "bytes", "trace.overhead_s": "s"})
    return out


def line_metrics(trace: bool) -> list:
    """Names of the metrics on the result line, in order."""
    if not trace:
        return [name for name, _ in END_TO_END]
    return [name for name, unit in units(trace).items()
            if unit != "s" or name in LINE_LAYER_TIMES]


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} env={json.dumps(record['env'])}")
    print(f"instances ({len(record['instances'])}): " + "; ".join(record["instances"][:6])
          + (" ..." if len(record["instances"]) > 6 else ""))
    ctl = record["control"]
    missed = ctl["unflagged"] + ([] if ctl["failed"] else ["any check"])
    print(f"control (perturbed through the wrappers): gate failed {ctl['failed']}/"
          f"{ctl['attempted']} -> "
          + (f"NOT DETECTED: {', '.join(map(repr, missed))}" if missed else "detected"))
    if record["trace"] and record["workload"] == "sweep":
        print("note: pool workers keep their own spans and lose them; layers below "
              "the pool count parent-side work only")
    unit = units(record["trace"])
    shown = record.get("summary", record["metrics"])
    for name in shown:
        value = record["summary"][name]["median"] if "summary" in record else shown[name]
        line = f"  {name:32s} {value:>14.6g} {unit[name]}"
        if "summary" in record:
            sm = record["summary"][name]
            line += (f"  median of n={sm['n']}: lowest={sm['lowest']:.6g}, "
                     + (f"p{sm['tail'][0]}={sm['tail'][1]:.6g}" if sm["tail"]
                        else "no percentile with 10 beyond"))
        print(line)
    print(f"  {'failed_frac':32s} "
          f"{stats.failed_frac(record['failed'], record['attempted']):>14.6g} 1"
          f"  ({record['failed']} of {record['attempted']} checks)")
    for what in record["failures"]:
        print(f"  FAILED: {what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "stirlingzero" / "__init__.py").is_file():
        print(f"perfbench: no stirlingzero sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    unit = units(record["trace"])
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": unit[k]}
                    for k in line_metrics(record["trace"])},
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
