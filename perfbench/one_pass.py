"""One benchmark pass, run in a fresh interpreter by ``run.py``.

``run.py`` starts this with ``python3 -c`` after putting ``src`` and this
directory on ``sys.path``: the bootstrap notes the clock right after
``import stirlingzero`` and calls :func:`main` with it, so set-up time runs
from the parent's spawn to the end of that import.  The pass prints one JSON
object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import stirlingzero
from stirlingzero import series_vanishing
from stirlingzero.algebra import MultiPoly, Series

import calibrate
import spans
import workloads

WORK = Path(__file__).resolve().parent / ".work"


def perturb_p1(args, value):
    """The control's fault: the offset-1 Stirling polynomial comes back plus one."""
    return value + 1 if args[0] == 1 else value


def perturb_log(args, series):
    """The control's series fault: the n^-1 coefficient of the log expansion gains j + j^3.

    ``[j n^-1]`` is a reference component and ``[j^3 n^-1]`` one that must
    vanish, so both kinds of expansion check see it.
    """
    j = MultiPoly.variable(series_vanishing.J)
    coeffs = list(series.coeffs)
    coeffs[1] = coeffs[1] + j + j * j * j
    return Series(series.var, series.order, coeffs)


PERTURB = {"stirling.eval_P": perturb_p1, "stirling.eval_P_symbolic": perturb_p1,
           "series_vanishing.log_expansion": perturb_log}


def _usage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0  # KiB -> MiB


def run_pass(workload: str, seed: int, index: int = 0, smoke: bool = False,
             trace: bool = False, perturb: bool = False, spans_out=None) -> dict:
    """Prepare, time and check one pass in this process; returns its record."""
    tracer = None
    if trace or perturb:
        tracer = spans.Tracer(PERTURB if perturb else None)
        tracer.install()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        p = workloads.WORKLOADS[workload](seed, index, smoke, workdir)
        # untraced passes sample the machine's speed; traced ones are not timed for the gate
        sampler = contextlib.nullcontext() if tracer else calibrate.SpeedSampler()
        cpu0, _ = _usage()
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            with sampler:
                outcome = p.run()
            error = None
        except Exception:  # a crashed pass is a failed pass, with its traceback
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if tracer:
            tracer.active = False
        cpu1, peak_rss = _usage()
        cpu = cpu1 - cpu0
        if error is None:
            checks = p.check(outcome)
        else:
            print(error, file=sys.stderr)
            checks = [(f"pass raised {error.strip().splitlines()[-1]}", False)]
        record = {
            "workload": workload, "seed": seed, "index": index, "smoke": smoke, "jobs": p.jobs,
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss,
            "attempted": len(checks), "failed": sum(1 for _, ok in checks if not ok),
            "failures": [what for what, ok in checks if not ok],
            "instances": [what for what, _ in checks],
        }
        if not tracer:
            # the kernel's own runs are taken out; the rest is rescaled by the speed around it
            wall, cpu = sampler.wall_s, cpu - sampler.kernel_cpu_s
            ref = sampler.reference_s()
            record.update(wall_s=wall, cpu_s=cpu, wall_ref_s=ref, cpu_ref_s=cpu * ref / wall,
                          speed_samples=len(sampler.samples))
        if perturb:
            record["unflagged"] = [kind for kind in p.must_flag
                                   if not any(f.startswith(kind) for f in record["failures"])]
        if trace:
            written = p.ledger.stat().st_size if p.ledger and p.ledger.exists() else 0
            record["layers"] = {**tracer.layer_metrics(), "ledger.bytes": written}
            if spans_out:
                tracer.dump(spans_out, {k: record[k] for k in ("workload", "seed", "smoke", "jobs")})
        return record
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def environment(jobs) -> dict:
    return {"engine": stirlingzero.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "jobs": jobs}


def main(imported_at: float) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0, help="the pass's place in its run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    record = {"setup_s": imported_at - args.started,
              "setup_scale": calibrate.probe(),
              "stirlingzero": str(Path(stirlingzero.__file__).resolve().parent)}
    if not args.setup_only:
        record.update(run_pass(args.workload, args.seed, args.index, args.smoke, args.trace,
                               args.perturb, args.spans_out))
        record["env"] = environment(record["jobs"])
    print(json.dumps(record))
