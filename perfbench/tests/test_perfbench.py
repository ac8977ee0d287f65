"""Tests of the benchmark itself: summary rules, spans, gate and each workload's code path.

Run with ``python3 -m pytest perfbench/tests -q`` from the root of a checkout.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import one_pass
import run
import spans
import stats
import workloads
from stirlingzero import config_sums, series_vanishing, stirling
from stirlingzero.algebra import MultiPoly
from stirlingzero.partitions import GroundSet

ROOT = Path(run.ROOT)


# ------------------------------------------------------------ summary rules

def test_summary_gives_lowest_median_tail_and_count():
    assert stats.summary([3.0, 1.0, 2.0]) == {"lowest": 1.0, "median": 2.0,
                                             "tail": None, "n": 3}
    assert stats.summary([4.0, 1.0, 2.0, 3.0])["median"] == 2.5
    many = stats.summary([float(v) for v in range(20, 0, -1)])
    assert (many["lowest"], many["median"], many["tail"], many["n"]) == (1.0, 10.5, (50, 10.0), 20)


@pytest.mark.parametrize("n", [11, 15, 20, 37, 100, 101, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    p, value = stats.tail_percentile(values)
    assert sum(1 for v in values if v > value) >= 10
    # the next whole percentile would leave fewer than ten beyond it
    assert 100 * (n - 10) // n == p
    assert sum(1 for v in values if v > value + 1) < 10


def test_tail_percentile_examples():
    assert stats.tail_percentile(list(range(1, 21))) == (50, 10)
    assert stats.tail_percentile(list(range(1, 101))) == (90, 90)
    assert stats.tail_percentile(list(range(1, 12))) == (9, 1)


def test_tail_percentile_needs_eleven_samples():
    assert stats.tail_percentile([1.0] * 10) is None
    assert stats.tail_percentile([]) is None


def test_failed_frac_arithmetic():
    assert stats.failed_frac(0, 84) == 0.0
    assert stats.failed_frac(1, 4) == 0.25
    assert stats.failed_frac(18, 18) == 1.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(5, 4)
    with pytest.raises(ValueError):
        stats.failed_frac(-1, 4)


def test_paired_difference_is_the_median_of_pairwise_differences():
    # a slow spell (the third pair) moves both of its samples, not the difference
    assert stats.paired_difference([1.5, 1.6, 3.1, 1.4], [1.0, 1.0, 2.5, 1.0]) == pytest.approx(0.55)
    assert stats.paired_difference([2.0], [2.5]) == -0.5
    with pytest.raises(ValueError):
        stats.paired_difference([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        stats.paired_difference([], [])


def test_pass_count_depends_on_seconds_only():
    for workload, pass_s in run.PASS_S.items():
        assert run.passes(workload, 60) == round(60 / pass_s)
        assert run.passes(workload, 1) == run.MIN_PASSES
    assert set(run.PASS_S) == set(run.WORKLOADS)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)


# ------------------------------------------------------------ speed sampling

def _sampler(kernel_cpu_s):
    """A finished sampler over [0, 3.1] s with one 10 ms sample every 100 ms."""
    sampler = calibrate.SpeedSampler()
    sampler.start, sampler.stop = 0.0, 3.1
    sampler.samples = [(0.1 * (i + 1), 0.1 * (i + 1) + 0.01, 2 * cpu, cpu)
                       for i, cpu in enumerate(kernel_cpu_s)]
    return sampler


def test_kernel_result_is_exact():
    assert calibrate.kernel() == calibrate.RESULT
    _, _, both, second = calibrate.timed_kernel()
    assert both > second > 0


def test_reference_seconds_at_constant_speed():
    ref = calibrate.REF_KERNEL_S
    at_ref = _sampler([ref] * 30)
    assert at_ref.wall_s == pytest.approx(3.1 - 30 * 0.01)
    assert at_ref.reference_s() == pytest.approx(at_ref.wall_s)
    assert at_ref.kernel_cpu_s == pytest.approx(60 * ref)
    # a machine at half the speed: its seconds count half
    assert _sampler([2 * ref] * 30).reference_s() == pytest.approx(at_ref.wall_s / 2)


def test_reference_seconds_follow_a_change_of_speed_at_the_sample():
    ref = calibrate.REF_KERNEL_S
    sampler = _sampler([2 * ref] * 15 + [ref] * 15)
    # segments before samples 0..14 ran at half speed, the rest at the reference speed
    assert sampler.reference_s() == pytest.approx((0.1 + 14 * 0.09) / 2 + 16 * 0.09)


def test_short_block_is_topped_up_with_samples_after_it():
    with calibrate.SpeedSampler() as sampler:
        pass
    assert sampler.samples == []
    assert sampler.reference_s() > 0


def test_sampler_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    assert len(sampler.samples) >= 5
    assert 0 < sampler.wall_s < sampler.stop - sampler.start
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert calibrate.probe() > 0


# ------------------------------------------------------------------- spans

# root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9] -> b1 [6, 8] -> b2 [6.5, 7]
STARTS = [0.0, 1.0, 2.0, 5.0, 6.0, 6.5]
ENDS = [10.0, 4.0, 3.0, 9.0, 8.0, 7.0]
PARENTS = [-1, 0, 1, 0, 3, 4]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(STARTS, ENDS, PARENTS)
    assert own == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 2, 2 - 0.5, 0.5])
    assert sum(own) == pytest.approx(ENDS[0] - STARTS[0])


def test_inclusive_time_counts_nested_spans_of_a_group_once():
    # b, b1 and b2 in one group: b2 and b1 lie inside b
    assert spans.inclusive_time([3, 4, 5], STARTS, ENDS) == pytest.approx(4.0)
    # a1 and b1: disjoint, both count
    assert spans.inclusive_time([2, 4], STARTS, ENDS) == pytest.approx(3.0)
    assert spans.inclusive_time([], STARTS, ENDS) == 0.0


def test_layer_metrics_from_recorded_spans():
    tracer = spans.Tracer()
    tracer.names = ["config_sums.sum_collapsed", "partitions.iter_unordered_partitions.next",
                    "stirling.eval_P", "stirling.eval_P"]
    tracer.starts = [0.0, 1.0, 2.0, 2.5]
    tracer.ends = [10.0, 2.0, 2.25, 3.0]
    tracer.parents = [-1, 0, 0, 0]
    tracer.counts["partitions.iter_unordered_partitions.next"] = 1
    m = tracer.layer_metrics()
    assert m["config_sums.instances"] == 1
    assert m["config_sums.self_s"] == pytest.approx(10 - 1 - 0.25 - 0.5)
    assert m["partitions.yielded"] == 1
    assert m["partitions.s"] == pytest.approx(1.0)
    assert m["stirling.eval.calls"] == 2
    assert m["stirling.eval.s"] == pytest.approx(0.75)
    assert m["algebra.mul.calls"] == 0


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    t.active = True
    yield t
    t.active = False
    t.uninstall()


def test_wrappers_fire_where_config_sums_calls(tracer):
    numeric = config_sums.ConfigSumInstance.make(4, 2, GroundSet.numeric([2, 3, 5, 7]))
    symbolic = config_sums.ConfigSumInstance.make(3, 1, GroundSet.symbolic(3))
    config_sums.sum_collapsed(numeric, jobs=2)  # through the imported process pool
    config_sums.sum_collapsed(symbolic, jobs=1)  # eval_P_symbolic, partitions in-process
    config_sums.sum_collapsed(numeric, jobs=1)  # eval_P in-process
    names = set(tracer.names)
    for name in ("config_sums.sum_collapsed", "stirling.eval_P", "stirling.eval_P_symbolic",
                 "partitions.iter_unordered_partitions.next", "pool.submit", "pool.result",
                 "pool.shutdown", "algebra.MultiPoly.__mul__", "algebra.MultiPoly.__add__"):
        assert name in names, name
    m = tracer.layer_metrics()
    assert m["config_sums.pool.spawns"] == 1
    assert m["config_sums.instances"] == 3
    assert m["config_sums.visited"] == 15 + 5 + 15  # Bell(4), Bell(3), Bell(4)
    assert m["partitions.yielded"] == 15 + 5  # the pool's partitions are enumerated in workers


def test_block_values_bind_the_wrapped_evaluators(tracer):
    values = config_sums._BlockValues(GroundSet.numeric([1, 2]), 1)
    assert values._eval is config_sums.eval_P
    assert values._eval.__wrapped__ is stirling.eval_P.__wrapped__
    values.vector(0b11)
    assert tracer.names.count("stirling.eval_P") == 2


def test_wrappers_fire_on_imported_interpolation_and_reflected_operators(tracer):
    cfg = series_vanishing.ExpansionConfig(h_max=2, s_max=3, j_samples=tuple(range(3, 10)))
    series_vanishing.symbolic_expansion_coefficient(2, cfg)
    x = MultiPoly.variable("x")
    2 * x
    1 + x
    names = set(tracer.names)
    for name in ("algebra.interpolate_in_var", "series_vanishing.symbolic_expansion_coefficient",
                 "algebra.MultiPoly.__rmul__", "algebra.MultiPoly.__radd__"):
        assert name in names, name
    assert tracer.layer_metrics()["algebra.interp.samples"] == 7


def test_inactive_tracer_records_nothing_and_uninstall_restores():
    original = config_sums.eval_P
    t = spans.Tracer()
    t.install()
    try:
        assert config_sums.eval_P is not original
        config_sums.sum_collapsed(
            config_sums.ConfigSumInstance.make(3, 1, GroundSet.numeric([2, 3, 5])))
        assert t.names == []
    finally:
        t.uninstall()
    assert config_sums.eval_P is original
    assert config_sums.ProcessPoolExecutor.__name__ == "ProcessPoolExecutor"
    assert "__wrapped__" not in vars(MultiPoly.__mul__)


def test_mul_term_pairs_count_poly_by_poly_only(tracer):
    a = MultiPoly.variable("x") + 1     # 2 terms
    b = MultiPoly.variable("y") + MultiPoly.variable("x") + 3  # 3 terms
    a * b
    a * Fraction(1, 2)
    assert tracer.layer_metrics()["algebra.mul.term_pairs"] == 6


# ------------------------------------------------------------ gate and workloads

def test_bell_numbers():
    assert [workloads.bell(n) for n in range(1, 10)] == [1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def test_draw_ground_is_seeded_and_distinct():
    import random
    a = workloads.draw_ground(9, random.Random("s"))
    b = workloads.draw_ground(9, random.Random("s"))
    assert a == b and len(set(a.values)) == 9
    assert all(-12 <= v <= 12 and v.denominator <= 9 for v in a.values)


def test_reference_compare_flags_a_changed_component():
    reference = json.loads(workloads.REFERENCE.read_text())["components"]
    assert reference["1,2"] == "-1/2*r^-2*u2"
    good = dict(reference)
    assert all(ok for _, ok in workloads.compare_reference(good, reference))
    bad = dict(reference, **{"1,2": "-1/2*r^-2*u2 + 1"})
    results = workloads.compare_reference(bad, reference)
    assert [what for what, ok in results if not ok] == ["reference [j^2 n^-1] = -1/2*r^-2*u2"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_passes_the_gate(workload):
    record = one_pass.run_pass(workload, seed=3, smoke=True)
    assert record["attempted"] >= 2
    assert record["failed"] == 0, record["failures"]
    assert record["wall_s"] > 0 and record["cpu_s"] > 0 and record["peak_rss_mb"] > 0
    assert record["wall_ref_s"] > 0 and record["cpu_ref_s"] > 0


def test_numeric_inputs_come_from_seed_and_pass_index():
    def grounds(seed, index):
        return one_pass.run_pass("numeric", seed=seed, index=index, smoke=True)["instances"]
    assert grounds(3, 0) == grounds(3, 0)
    assert grounds(3, 0) != grounds(3, 1)
    assert grounds(3, 1) != grounds(4, 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_perturbed_control_fails_the_gate(workload):
    record = one_pass.run_pass(workload, seed=3, smoke=True, perturb=True)
    assert record["failed"] > 0
    assert stats.failed_frac(record["failed"], record["attempted"]) > 0
    assert record["unflagged"] == []


def test_perturbed_expansion_fails_every_kind_of_check():
    failures = one_pass.run_pass("expansion", seed=3, smoke=True, perturb=True)["failures"]
    # j + j^3 added at order 1: one vanishing component and one reference component
    assert [f for f in failures if f.startswith("vanishing ")] == ["vanishing [j^3 n^-1]"]
    assert [f.split(" = ")[0] for f in failures if f.startswith("reference ")] == [
        "reference [j^1 n^-1]"]
    assert any(f.startswith("bridge ") for f in failures)  # the P_1 + 1 fault


def _traced_smoke(workload):
    return run.spawn_pass(time.monotonic() + 120, "--workload", workload, "--seed", "5",
                          "--smoke", "--trace")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_in_fresh_interpreters(workload):
    first, second = _traced_smoke(workload), _traced_smoke(workload)
    counts = [name for name, unit in run.units(True).items() if unit == "count"]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    layers = first["layers"]
    if workload == "sweep":
        assert layers["config_sums.pool.spawns"] == workloads.SWEEP[True][2]
        assert layers["ledger.records"] == workloads.SWEEP[True][2]
        assert layers["ledger.bytes"] > 0
    else:
        assert layers["config_sums.pool.spawns"] == 0
        assert layers["ledger.records"] == 0
    if workload == "numeric":
        assert layers["algebra.mul.calls"] == 0
    if workload == "symbolic":
        assert layers["algebra.mul.calls"] > 0 and layers["algebra.mul.term_pairs"] > 0
    if workload == "expansion":
        assert layers["algebra.exp.calls"] > 0 and layers["algebra.interp.calls"] > 0
        assert layers["bridge.instances"] == 2
        assert layers["series_vanishing.checks"] == 4


# ------------------------------------------------------------------ contract

def test_benchmark_json_lists_what_the_result_line_carries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.line_metrics(False)
    assert [m["name"] for m in spec["per_layer"]] == run.line_metrics(True)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    units = {**run.units(False), **run.units(True)}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "numeric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
