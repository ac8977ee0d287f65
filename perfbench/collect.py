"""Run the benchmark over several seeds and every workload; summarise the spread.

    python3 perfbench/collect.py [--runs 10] [--workloads a,b]
        [--out perfbench/trajectory/<label>.json]

Repetition ``i`` (seed ``i``, from 1) runs every workload of
``BENCHMARK.json`` (or those named with ``--workloads``) once, each through
``run.py`` in its own process with ``BENCHMARK.json``'s ``run_seconds``,
alternating the workload order between repetitions.  For each end-to-end
metric and workload it prints the median, the quartiles and their distance
as a share of the median, next to the metric's bound in ``BENCHMARK.json``,
and ``failed_frac``.  It then makes two traced runs per workload at seed 1
and checks that their counts repeat exactly.  ``--out`` writes everything as
one trajectory point.  Exits 1 if any run failed or any traced count did not
repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import stats

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
TRACE_RUNS = 2
TRACE_SEED = 1


def bench(workload: str, seed: int, trace: int):
    """One ``run.py`` invocation; returns (exit status, result line, full record)."""
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    path = run.WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text()) if result and path.exists() else None
    return done.returncode, result, record


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": stats.quartile_spread(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    bad = [n for n in names if n not in run.WORKLOADS]
    if bad or args.runs < 2:
        parser.error(f"unknown workloads {bad}" if bad else "need --runs >= 2")

    ok = True
    results = {n: [] for n in names}
    started = time.time()
    for i in range(args.runs):
        seed = i + 1
        for name in (names if i % 2 == 0 else names[::-1]):
            code, result, record = bench(name, seed, 0)
            ok &= code == 0 and result is not None and result["correct"]
            if result is None:
                continue
            results[name].append({
                "seed": seed, "exit": code, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "passes": len(record["samples"]["wall_s"]) if record else None,
                "env": record["env"] if record else None})
            print(f"[{time.time() - started:7.1f}s] {name:9s} seed={seed:<3d} exit={code} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    unit = run.units(False)
    summary = {}
    print(f"\n{'workload':9s} {'metric':12s} {'unit':4s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        runs = results[name]
        if len(runs) < 2:
            continue
        summary[name] = {}
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric] for r in runs])
            summary[name][metric] = s
            flag = "" if s["spread"] < bound / 3 else "  above a third of the bound"
            print(f"{name:9s} {metric:12s} {unit[metric]:4s} {s['median']:10.4g} {s['q1']:10.4g} "
                  f"{s['q3']:10.4g} {s['spread']:7.3f} {bound:6.2f}{flag}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary[name]["failed_frac"] = stats.failed_frac(failed, attempted)
        print(f"{name:9s} {'failed_frac':12s} {'1':4s} {summary[name]['failed_frac']:10.4g}"
              f"  ({failed} of {attempted} checks over {len(runs)} runs)")

    traces = {}
    for name in names:
        layers = []
        for _ in range(TRACE_RUNS):
            code, result, record = bench(name, TRACE_SEED, 1)
            ok &= code == 0 and result is not None and result["correct"]
            if record:
                layers.append(record["metrics"])
        if not layers:
            continue
        units = run.units(True)
        counts = [k for k in layers[0] if units[k] == "count"]
        repeat = all({k: l[k] for k in counts} == {k: layers[0][k] for k in counts}
                     for l in layers)
        ok &= repeat
        traces[name] = {"seed": TRACE_SEED, "counts_repeat": repeat, "runs": layers}
        print(f"\ntrace {name} (seed {TRACE_SEED}, {len(layers)} runs, counts "
              f"{'repeat exactly' if repeat else 'DIFFER'}):")
        for k, v in layers[0].items():
            print(f"  {k:32s} {v:>14.6g} {units[k]}")

    if args.out:
        env = next((r["env"] for rs in results.values() for r in rs if r["env"]), None)
        point = {"env": env, "settings": {"runs": args.runs, "seconds": SECONDS,
                                          "trace_runs": TRACE_RUNS, "trace_seed": TRACE_SEED},
                 "summary": summary, "runs": results, "trace": traces}
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
