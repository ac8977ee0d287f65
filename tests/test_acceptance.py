"""Acceptance suite: the nine exit criteria, each printing one PASS/FAIL line.

Every assertion is exact (rational arithmetic); there are no numeric
tolerances anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import functools
import json
import random
import time
from fractions import Fraction
from math import factorial


from stirlingzero import config_sums
from stirlingzero.algebra import MultiPoly, interpolate_in_var
from stirlingzero.bridge import bridge_check, bridge_params
from stirlingzero.cli import main
from stirlingzero.config_sums import (
    ConfigSumInstance,
    ConfigSumResult,
    NonzeroConfirmation,
    random_ground,
    run_plan,
    seeded_rng,
    sum_collapsed,
    sum_pointed,
    sweep_plan,
)
from stirlingzero.ledger import read_records
from stirlingzero.partitions import GroundSet
from stirlingzero.series_vanishing import (
    ExpansionConfig,
    log_expansion,
    symbolic_expansion_coefficient,
    vanishing_report,
)
from stirlingzero.stirling import eval_P, stirling_poly, stirling_row

from generating_reference import expansion_coefficients, generating_coefficient
from ordered_reference import count_weighted_configs, iter_ordered_partitions, sum_ordered

FUBINI = {2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {title}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number}: PASS - {title} ({elapsed:.1f}s)")
        return wrapper
    return decorate


@criterion(1, "symbolic configuration sums vanish for g=2..5, every w")
def test_criterion_1_symbolic_band():
    start = time.perf_counter()
    for g in range(2, 6):
        for w in range(g - 1):
            inst = ConfigSumInstance.make(g, w, GroundSet.symbolic(g))
            result = sum_collapsed(inst)
            assert result.total.is_zero(), f"nonzero symbolic sum at g={g} w={w}"
            assert result.verdict == "zero"
    assert time.perf_counter() - start < 60.0


@criterion(2, "numeric sums exactly zero: g=6 all w x10 seeds, g=7 w<=3 x5 seeds")
def test_criterion_2_numeric_band():
    for g, w_top, samples, seed in ((6, 4, 10, 20), (7, 3, 5, 21)):
        for w in range(w_top + 1):
            for i in range(samples):
                ground = random_ground(g, seeded_rng(seed, g, w, i)[1])
                result = sum_collapsed(ConfigSumInstance.make(g, w, ground))
                assert result.total == 0, f"nonzero at g={g} w={w} sample {i}"


@criterion(3, "collapsed == pointed == ordered on g<=5; enumeration totals exact")
def test_criterion_3_oracle_equivalence():
    rng = random.Random(77)
    for g in range(2, 6):
        for w in range(g - 1):
            for ground in (GroundSet.symbolic(g), random_ground(g, rng)):
                inst = ConfigSumInstance.make(g, w, ground)
                ordered = sum_ordered(inst)
                collapsed = sum_collapsed(inst)
                assert collapsed.total == sum_pointed(inst) == ordered.total
                assert ordered.configurations_visited == count_weighted_configs(g, w)
    for g, expected in FUBINI.items():
        assert sum(1 for _ in iter_ordered_partitions(g)) == expected


@criterion(4, "Stirling layer: diagonals, difference identity, row sums")
def test_criterion_4_stirling_layer():
    for w in range(9):
        for n in range(w, 3 * w + 9):
            assert eval_P(w, n) == stirling_row(n)[n - w]
    for w in range(1, 9):
        cur = stirling_poly(w)
        prev = stirling_poly(w - 1)
        # coefficient-wise: P_w(x+1) - P_w(x) == x * P_{w-1}(x)
        assert _sub(_shift_by_one(cur), cur) == _mul_x(prev)
    for n in range(13):
        assert sum(stirling_row(n)) == factorial(n)


def _shift_by_one(coeffs):
    out = ()
    for c in reversed(coeffs):
        nxt = [Fraction(0)] * (len(out) + 1)
        for d, v in enumerate(out):
            nxt[d + 1] += v
            nxt[d] += v
        nxt[0] += c
        out = tuple(nxt)
    return _trim(out)


def _sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return _trim(tuple(out))


def _mul_x(coeffs):
    return _trim((Fraction(0),) + tuple(coeffs))


def _trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


@criterion(5, "log-expansion components j^k, k>=h+2 vanish for h<=3 (symbolic)")
def test_criterion_5_vanishing():
    cfg = ExpansionConfig(h_max=3, s_max=6)
    checks = vanishing_report(cfg)
    assert all(c.vanished for c in checks)
    assert {(c.h, c.k) for c in checks} == {(1, 3), (2, 4), (3, 5), (3, 6)}
    # the order-2 check is nontrivial: both contributions carry j^4
    a1 = symbolic_expansion_coefficient(1, cfg)
    a2 = symbolic_expansion_coefficient(2, cfg)
    assert not a2.coefficient_in("j", 4).is_zero()
    assert not (a1 * a1 * Fraction(1, 2)).coefficient_in("j", 4).is_zero()
    assert log_expansion(cfg).coefficient(2).coefficient_in("j", 4).is_zero()


@criterion(6, "dual-route coefficients agree (2 surplus points); readback reassembles")
def test_criterion_6_dual_route():
    cfg = ExpansionConfig()
    for h in (1, 2, 3):
        samples = []
        for j in cfg.j_samples[: 2 * h + 3]:  # 2h+1 nodes + 2 surplus witnesses
            coeffs = expansion_coefficients(j, generating_coefficient(j, cfg))
            samples.append((j, coeffs[h]))
        oracle = interpolate_in_var(samples, "j", 2 * h)
        assert oracle == symbolic_expansion_coefficient(h, cfg)
    n, r = MultiPoly.variable("n"), MultiPoly.variable("r")
    for j in range(1, 11):
        gj = generating_coefficient(j, cfg)
        rebuilt = MultiPoly.zero()
        for h, c in enumerate(expansion_coefficients(j, gj)):
            rebuilt = rebuilt + c * r ** j * n ** (j - h)
        assert rebuilt * Fraction(1, factorial(j)) == gj


@criterion(7, "bridge instances: coefficient and configuration sum both vanish")
def test_criterion_7_bridge():
    for c, w in (((2, 3), 0), ((2, 4), 0), ((2, 3, 4), 0), ((2, 3, 4), 1)):
        inst = bridge_params(c, w)
        assert inst.k - inst.h == inst.g - inst.w >= 2
        report = bridge_check(inst)
        assert report.coefficient_zero, f"bridge coefficient nonzero for c={c} w={w}"
        assert report.config_sum_zero, f"configuration sum nonzero for c={c} w={w}"
        assert report.consistent


@criterion(8, "jobs=1 and jobs=8 ledgers byte-identical up to timing fields")
def test_criterion_8_determinism(tmp_path):
    def run(jobs, name):
        path = tmp_path / name
        code = main([
            "sweep", "--g-max", "7", "--seed", "20",
            "--jobs", str(jobs), "--ledger", str(path)])
        assert code == 0
        records, warnings = read_records(str(path))
        assert not warnings
        stable = []
        for rec in records:
            rec = dict(rec)
            rec.pop("ts")
            rec.pop("elapsed_s")
            stable.append(json.dumps(rec, sort_keys=True))
        return stable

    serial = run(1, "serial.jsonl")
    parallel = run(8, "parallel.jsonl")
    assert serial == parallel
    assert any('"verdict": "zero"' in line for line in serial)


@criterion(9, "exploratory g=7 w in {4,5} complete in budget; nonzero triggers protocol")
def test_criterion_9_exploratory(monkeypatch):
    budget = 300.0
    start = time.monotonic()
    for w in (4, 5):
        ground = random_ground(7, seeded_rng(31, 7, w, 0)[1])
        result = sum_collapsed(ConfigSumInstance.make(7, w, ground))
        assert result.verdict in ("zero", "nonzero")  # recorded, not asserted
    assert time.monotonic() - start < budget

    # a nonzero verdict must route through the double-verification protocol
    # before being reported; simulate one, since none exists in range
    calls = []

    def fake_result(inst, total, visited, elapsed):
        if (inst.g, inst.w) == (7, 4):
            total = Fraction(1, 3)
        return ConfigSumResult(inst, total, visited, elapsed)

    sentinel = NonzeroConfirmation(Fraction(1, 3), None, None)

    def fake_check(inst, total, rng=None):
        calls.append((inst.g, inst.w, total))
        return sentinel

    # each walk's result is built in this process once the walk is done
    monkeypatch.setattr(config_sums, "ConfigSumResult", fake_result)
    monkeypatch.setattr("stirlingzero.config_sums.double_check_nonzero", fake_check)
    plan = [e for e in sweep_plan(7, seed=31) if e.instance.g == 7]
    entries = list(run_plan(plan, seed=31, jobs=1))
    assert len(entries) == 4 * 5 + 2  # asserted w <= 3, exploratory w = 4, 5
    flagged = [e for e in entries if e.result and e.result.verdict == "nonzero"]
    assert flagged and all(e.confirmation is sentinel for e in flagged)
    assert calls and all(g == 7 and w == 4 for g, w, _ in calls)
