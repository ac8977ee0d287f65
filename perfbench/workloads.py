"""The four workloads: inputs from the seed, one timed pass, and the gate.

A pass's inputs come from the run's seed and the pass's index in the run.

Each workload is one closed-loop client running one full pass per fresh
interpreter (a batch verifier has no arrival process).  A workload function
returns a :class:`Pass`; only ``Pass.run`` is timed, and ``Pass.check``
compares its outputs with the expected ones, one ``(instance, ok)`` item per
verdict or exact value compared; ``Pass.must_flag`` names the kinds of check
(prefixes of their names) the perturbed control must each fail at least
once.  ``smoke=True`` runs the same code path on
tiny inputs: the discarded warm-up pass, the perturbed control pass and the
benchmark's own tests use it.

The program is always called through its module attributes, so the trace
wrappers installed before a pass see the calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from stirlingzero import bridge, cli, config_sums, ledger, series_vanishing
from stirlingzero.partitions import GroundSet

REFERENCE = Path(__file__).resolve().parent / "expansion_reference.json"

# sweep sizes: (--g-max, --symbolic-g-max, instances in the plan).  Full:
# symbolic g = 2..5 (1+2+3+4), numeric g = 6 (5 w x 10 grounds), numeric
# g = 7 (4 asserted w x 5 grounds + exploratory w = 4, 5 x 1 ground) = 82.
# Smoke: symbolic g = 2..4 (6), numeric g = 5 (4 w x 3 grounds) = 18.
SWEEP = {False: (7, 5, 82), True: (5, 4, 18)}
SWEEP_JOBS = 2  # explicit, so a change of the --jobs default leaves the workload alone
# A pass takes 2-3.5 s so that a 25 s run holds eight to ten (see run.py):
# numeric takes g=8 w=6 at two grounds rather than g=9 w=7 (8-14 s), symbolic
# stops at w=3 (w=4 alone takes 5.5-6 s), and the expansion bridge is
# (2,3,7), h=9, rather than (2,3,4,6), h=11 (4-5 s for w=0..2).
NUMERIC = {False: ((8, 6),) * 2, True: ((5, 3), (6, 4))}
SYMBOLIC = {False: (6, 3), True: (4, 2)}  # (g, largest w)
EXPANSION = {
    False: (dict(h_max=8, s_max=9, j_samples=tuple(range(9, 28))),
            [((2, 3, 7), w) for w in range(2)]),
    True: (dict(h_max=3, s_max=4, j_samples=tuple(range(4, 13))),
           [((2, 3, 4), w) for w in range(2)]),
}


@dataclass
class Pass:
    jobs: int
    run: Callable[[], object]
    check: Callable[[object], list]
    ledger: Optional[Path] = None  # the ledger the pass writes, if any
    must_flag: tuple = ()


def bell(n: int) -> int:
    """Number of set partitions of an n-set (Bell triangle), the expected visit count."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def draw_ground(g: int, rng: random.Random) -> GroundSet:
    """g distinct rationals: integers in [-12, 12] or k/d with d in 2..9, half each.

    The benchmark's own copy of the ``random_ground`` distribution, so a change
    to the program's generator cannot change the workload.
    """
    values = []
    while len(values) < g:
        if rng.random() < 0.5:
            q = Fraction(rng.randint(-12, 12))
        else:
            q = Fraction(rng.randint(-12, 12), rng.randint(2, 9))
        if q not in values:
            values.append(q)
    return GroundSet.numeric(values)


def _sum_checks(results) -> list:
    return [(f"{r.instance.mode} g={r.instance.g} w={r.instance.w} "
             f"ground={r.instance.ground.describe()}",
             r.verdict == "zero" and r.total == 0
             and r.configurations_visited == bell(r.instance.g))
            for r in results]


def sweep(seed: int, index: int, smoke: bool, workdir: Path) -> Pass:
    g_max, symbolic_g_max, planned = SWEEP[smoke]
    path = workdir / "ledger.jsonl"
    argv = ["sweep", "--g-max", str(g_max), "--symbolic-g-max", str(symbolic_g_max),
            "--seed", str(seed), "--jobs", str(SWEEP_JOBS), "--ledger", str(path)]

    def check(code) -> list:
        records, warnings = ledger.read_records(str(path))
        out = []
        for rec in records:
            p = rec["params"]
            ok = (rec["verdict"] == "zero" and rec["value"] == "0"
                  if rec["status"] == "asserted" else rec["verdict"] is not None)
            out.append((f"{p['mode']} g={p['g']} w={p['w']} {rec['status']} "
                        f"seed={p.get('seed', '-')} ground={p.get('ground', '-')}", ok))
        out += [(f"planned instance {k} missing from the ledger", False)
                for k in range(len(records), planned)]
        out += [(f"ledger: {w}", False) for w in warnings]
        out.append(("cli.main exit status 0", code == 0))
        return out

    return Pass(SWEEP_JOBS, lambda: cli.main(argv), check, path)


def numeric(seed: int, index: int, smoke: bool, workdir: Path) -> Pass:
    # each pass of a run draws its own grounds, so a run's median covers many
    rng = random.Random(f"perfbench/numeric/{seed}/{index}")
    instances = [config_sums.ConfigSumInstance.make(g, w, draw_ground(g, rng))
                 for g, w in NUMERIC[smoke]]
    return Pass(1, lambda: [config_sums.sum_collapsed(inst, jobs=1) for inst in instances],
                _sum_checks)


def symbolic(seed: int, index: int, smoke: bool, workdir: Path) -> Pass:
    g, w_max = SYMBOLIC[smoke]
    instances = [config_sums.ConfigSumInstance.make(g, w, GroundSet.symbolic(g))
                 for w in range(w_max + 1)]
    return Pass(1, lambda: [config_sums.sum_collapsed(inst, jobs=1) for inst in instances],
                _sum_checks)


def log_components(series, h_max: int) -> dict:
    """``"h,k" -> canonical_str`` of the ``[j^k n^-h]`` components that do not vanish (k <= h+1)."""
    out = {}
    for h in range(1, h_max + 1):
        coeff = series.coefficient(h).with_vars([series_vanishing.J])
        for k in range(h + 2):
            out[f"{h},{k}"] = coeff.coefficient_in(series_vanishing.J, k).canonical_str()
    return out


def compare_reference(components: dict, reference: dict) -> list:
    return [(f"reference [j^{key.split(',')[1]} n^-{key.split(',')[0]}] = {reference.get(key)}",
             reference.get(key) == value)
            for key, value in components.items()]


def expansion(seed: int, index: int, smoke: bool, workdir: Path) -> Pass:
    kwargs, pairs = EXPANSION[smoke]
    cfg = series_vanishing.ExpansionConfig(**kwargs)
    # keep the series vanishing_report expands, for the components it does not return
    expanded = []
    log_expansion = series_vanishing.log_expansion

    def keep(*args, **kw):
        expanded.append(log_expansion(*args, **kw))
        return expanded[-1]

    def run():
        series_vanishing.log_expansion = keep
        try:
            checks = series_vanishing.vanishing_report(cfg)
        finally:
            series_vanishing.log_expansion = log_expansion
        reports = [bridge.bridge_check(bridge.bridge_params(c, w)) for c, w in pairs]
        return checks, reports

    def check(outcome) -> list:
        checks, reports = outcome
        out = [(f"vanishing [j^{c.k} n^-{c.h}]", c.vanished) for c in checks]
        out += [(f"bridge c={','.join(map(str, r.instance.c))} w={r.instance.w} "
                 f"(k={r.instance.k}, h={r.instance.h}) pair vanishes",
                 r.coefficient_zero and r.config_sum_zero and r.consistent)
                for r in reports]
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["components"]
        out += compare_reference(log_components(expanded[0], cfg.h_max), reference)
        return out

    return Pass(1, run, check, must_flag=("vanishing ", "bridge ", "reference "))


WORKLOADS = {"sweep": sweep, "numeric": numeric, "symbolic": symbolic,
             "expansion": expansion}
