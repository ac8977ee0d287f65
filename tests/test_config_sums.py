"""Configuration-sum verifier: both summation routes, the integer kernel, sweeps."""

import os
import random
import time
from concurrent.futures import Future
from fractions import Fraction
from math import factorial, prod
from types import SimpleNamespace

import pytest

from stirlingzero import config_sums
from stirlingzero.algebra import ConsistencyError
from stirlingzero.config_sums import (
    ConfigSumInstance,
    double_check_nonzero,
    random_ground,
    run_plan,
    sum_collapsed,
    sum_pointed,
    sweep_plan,
)
from stirlingzero.partitions import GroundSet, iter_unordered_partitions, unordered_partition_count

import ordered_reference
from forking import assert_no_child_left, needs_fork
from ordered_reference import count_weighted_configs, sum_ordered


def numeric_instance(g, w, values):
    return ConfigSumInstance.make(g, w, GroundSet.numeric(values))


def symbolic_instance(g, w):
    return ConfigSumInstance.make(g, w, GroundSet.symbolic(g))


class TestInstanceValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            numeric_instance(1, 0, [3])
        with pytest.raises(ValueError):
            numeric_instance(3, 2, [1, 2, 3])  # w > g-2
        with pytest.raises(ValueError):
            numeric_instance(3, -1, [1, 2, 3])

    def test_ground_size_must_match(self):
        with pytest.raises(ValueError):
            ConfigSumInstance.make(3, 0, GroundSet.numeric([1, 2]))

    def test_non_integral_g_and_w_are_rejected_not_carried(self):
        ground = GroundSet.numeric([1, 2, 3, 5])
        for g, w in [(4, Fraction(1, 2)), (4.0, 1), (4, 1.0), (4, "1"), (4, True)]:
            with pytest.raises(ValueError, match="is not an integer"):
                ConfigSumInstance(g, w, ground)
        inst = ConfigSumInstance(Fraction(4), Fraction(2), ground)
        assert (inst.g, inst.w) == (4, 2)
        assert type(inst.g) is type(inst.w) is int
        assert sum_collapsed(inst).total == 0


class TestOrderedSum:
    def test_g2_symbolic_by_hand(self):
        # -P_0(c1+c2) + 1/2 + 1/2 = 0
        res = sum_ordered(symbolic_instance(2, 0))
        assert res.verdict == "zero"
        assert res.configurations_visited == 3

    def test_g3_numeric_by_hand(self):
        res = sum_ordered(numeric_instance(3, 0, [2, 3, 4]))
        assert res.total == 0
        assert res.configurations_visited == 13

    def test_g4_w2_random_integers(self):
        res = sum_ordered(numeric_instance(4, 2, [3, 7, -2, 11]))
        assert res.total == 0

    def test_visited_matches_closed_form(self):
        for g, w in [(2, 0), (3, 1), (4, 2), (5, 3)]:
            res = sum_ordered(numeric_instance(g, w, list(range(2, 2 + g))))
            assert res.configurations_visited == count_weighted_configs(g, w)

    def test_visit_count_mismatch_is_caught(self, monkeypatch):
        # positive control: the closed-form count one above the walk
        real = ordered_reference.count_weighted_configs
        monkeypatch.setattr(ordered_reference, "count_weighted_configs",
                            lambda g, w: real(g, w) + 1)
        with pytest.raises(ConsistencyError,
                           match="visited 13 weighted configurations, expected 14"):
            sum_ordered(numeric_instance(3, 0, [2, 3, 4]))


class TestCollapsedSum:
    def test_g3_visits_only_partitions(self):
        res = sum_collapsed(numeric_instance(3, 0, [2, 3, 4]))
        assert res.total == 0
        assert res.configurations_visited == 5

    def test_g2_collapse_factors(self):
        # -1 * P_0 + 1 * (P_0 * P_0) = 0 via (-1)^1 0! and (+1)^2 1!
        res = sum_collapsed(numeric_instance(2, 0, [4, 9]))
        assert res.total == 0
        assert res.configurations_visited == 2

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_equals_ordered_numeric(self, g):
        rng = random.Random(100 + g)
        for w in range(g - 1):
            ground = random_ground(g, rng)
            inst = ConfigSumInstance.make(g, w, ground)
            assert sum_collapsed(inst).total == sum_pointed(inst) == sum_ordered(inst).total

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_equals_ordered_symbolic(self, g):
        for w in range(g - 1):
            inst = symbolic_instance(g, w)
            assert sum_collapsed(inst).total == sum_pointed(inst) == sum_ordered(inst).total

    def test_parallel_equals_serial(self):
        inst = numeric_instance(6, 3, [2, 3, 5, 7, 11, 13])
        serial = sum_collapsed(inst, jobs=1)
        parallel = sum_collapsed(inst, jobs=4)
        assert serial.total == parallel.total
        assert serial.configurations_visited == parallel.configurations_visited
        assert parallel.configurations_visited == unordered_partition_count(6)
        assert_no_child_left()  # every worker reaped

    def test_parallel_symbolic(self):
        inst = symbolic_instance(4, 1)
        assert sum_collapsed(inst, jobs=3).total == sum_collapsed(inst).total

    @pytest.mark.parametrize("g, jobs", [(2, 3), (3, 5)])
    def test_more_jobs_than_first_blocks(self, monkeypatch, g, jobs):
        # 2^(g-1) first blocks, so at most that many shards run, and at most
        # one per usable CPU, each in its own worker
        shards = []
        real_pool = config_sums.ProcessPoolExecutor

        class RecordedPool(real_pool):
            def submit(self, fn, *args):
                shards.append(args[-2:])  # (part, parts)
                return super().submit(fn, *args)

        monkeypatch.setattr(config_sums, "ProcessPoolExecutor", RecordedPool)
        inst = numeric_instance(g, g - 2, MIXED[:g])
        serial = sum_collapsed(inst)
        parallel = sum_collapsed(inst, jobs=jobs)
        parts = min(1 << (g - 1), config_sums._usable_cpus())
        assert shards == [(part, parts) for part in range(parts)]
        assert parallel.total == serial.total
        assert parallel.configurations_visited == unordered_partition_count(g)
        assert_no_child_left()

    @needs_fork
    def test_shards_inherit_the_block_table(self, monkeypatch):
        # the parent evaluates every (v, mask) once before it forks; a shard
        # that evaluated a block value itself would raise here
        parent = os.getpid()
        calls = []
        real = config_sums.eval_P

        def parent_only(v, t):
            if os.getpid() != parent:
                raise AssertionError("a shard evaluated a block value")
            calls.append((v, t))
            return real(v, t)

        g, w = 6, 4
        inst = numeric_instance(g, w, MIXED[:g])
        serial = sum_collapsed(inst).total
        monkeypatch.setattr(config_sums, "eval_P", parent_only)
        assert sum_collapsed(inst, jobs=2).total == serial
        assert len(calls) == ((1 << g) - 1) * (w + 1)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, jobs, workers, parts", [
        (3, 2, 2, 2), (3, 5000, 3, 3), (1, 4, 1, 1)])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, jobs, workers, parts):
        # one pool per call, and one worker per shard: min(jobs, usable CPUs,
        # 2^(g-1)) of each.  The stub pool runs each shard inline.
        pools, shards = [], []

        class InlinePool:
            def __init__(self):
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                shards.append(args[-2:])  # (part, parts)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(config_sums, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(config_sums, "_usable_cpus", lambda: cpus)
        inst = numeric_instance(5, 3, MIXED[:5])
        result = sum_collapsed(inst, jobs=jobs)
        assert len(pools) == 1
        assert len(shards) == workers
        assert shards == [(part, parts) for part in range(parts)]
        assert result.total == sum_collapsed(inst).total
        assert result.configurations_visited == unordered_partition_count(5)

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        # the CPU count stands in, and a platform that reports none gets one
        monkeypatch.delattr(config_sums.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(config_sums.os, "cpu_count", lambda: 3)
        assert config_sums._usable_cpus() == 3
        monkeypatch.setattr(config_sums.os, "cpu_count", lambda: None)
        assert config_sums._usable_cpus() == 1

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_dropped_partition_is_caught(self, monkeypatch, jobs):
        real = config_sums.iter_unordered_partitions

        def lossy(g, part=0, parts=1):
            # everything but the one-block partition
            return (blocks for blocks in real(g, part, parts) if len(blocks) != 1)

        monkeypatch.setattr(config_sums, "iter_unordered_partitions", lossy)
        with pytest.raises(ConsistencyError, match="partitions"):
            sum_collapsed(numeric_instance(5, 2, [2, 3, 5, 7, 11]), jobs=jobs)
        assert_no_child_left()  # no worker outlives the raise


def _shift_offset_one(monkeypatch, shift=1):
    real = config_sums.eval_P
    monkeypatch.setattr(config_sums, "eval_P",
                        lambda w, t: real(w, t) + shift if w == 1 else real(w, t))


MIXED = [Fraction(5, 2), Fraction(-7, 3), Fraction(4), Fraction(11, 9),
         Fraction(-3, 4), Fraction(6, 5)]

# the largest g at which a fault control also runs the literal walk; past it
# the collapsed route is compared with the pointed oracle alone
LITERAL_G_MAX = 5


class TestIntegerKernel:
    @pytest.mark.parametrize("g, w", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3),
                                      (6, 1), (6, 2)])
    def test_positive_control_matches_fraction_oracle(self, monkeypatch, g, w):
        # offset-1 block values plus one: the identity breaks, and the
        # integer kernel must still reproduce the Fraction routes exactly
        _shift_offset_one(monkeypatch)
        inst = numeric_instance(g, w, MIXED[:g])
        collapsed = sum_collapsed(inst).total
        assert collapsed == sum_pointed(inst)
        if g <= LITERAL_G_MAX:
            assert collapsed == sum_ordered(inst).total
        assert collapsed != 0

    @needs_fork
    def test_parallel_positive_control(self, monkeypatch):
        _shift_offset_one(monkeypatch)
        inst = numeric_instance(6, 3, MIXED)
        serial = sum_collapsed(inst, jobs=1).total
        assert serial != 0
        assert sum_collapsed(inst, jobs=2).total == serial

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_offset_zero_value_must_be_one(self, monkeypatch, symbolic):
        # the convolutions skip the products with the constant term, so a
        # block whose P_0 is not exactly 1 must stop the run
        for name in ("eval_P", "eval_P_symbolic"):
            real = getattr(config_sums, name)
            monkeypatch.setattr(config_sums, name,
                                lambda w, t, real=real: real(w, t) * 2 if w == 0 else real(w, t))
        inst = symbolic_instance(4, 1) if symbolic else numeric_instance(4, 1, [2, 3, 5, 7])
        with pytest.raises(ConsistencyError, match="offset-0 block value"):
            sum_collapsed(inst)

    def test_uncleared_block_value_is_an_engine_bug(self, monkeypatch):
        # 1/3 survives scaling by K * D^2 = 2 for integer grounds at w = 1
        _shift_offset_one(monkeypatch, Fraction(1, 3))
        with pytest.raises(ConsistencyError, match="not an integer"):
            sum_collapsed(numeric_instance(3, 1, [2, 3, 4]))


def _bump_one_block(monkeypatch, target=0b0110):
    # only the block {1, 2} sees its sum moved, so the total depends on which
    # blocks a partition's truncated product was built from
    real = GroundSet.block_sum
    monkeypatch.setattr(GroundSet, "block_sum",
                        lambda self, mask: real(self, mask) + 1 if mask == target
                        else real(self, mask))


class TestPrefixReuse:
    @pytest.mark.parametrize("g, w", [(5, 3), (6, 2), (6, 4)])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_mask_dependent_control_numeric(self, monkeypatch, g, w, jobs):
        _bump_one_block(monkeypatch)
        inst = numeric_instance(g, w, MIXED[:g])
        collapsed = sum_collapsed(inst, jobs=jobs).total
        assert collapsed == sum_pointed(inst)
        if g <= LITERAL_G_MAX:
            assert collapsed == sum_ordered(inst).total
        assert collapsed != 0

    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_mask_dependent_control_symbolic(self, monkeypatch, w, jobs):
        # at jobs = 2 the shards return unscaled MultiPoly partials, each
        # signed per block count, and their merge must still be exact
        _bump_one_block(monkeypatch)
        inst = symbolic_instance(4, w)
        collapsed = sum_collapsed(inst, jobs=jobs).total
        assert collapsed == sum_pointed(inst) == sum_ordered(inst).total
        assert collapsed != 0

    @pytest.mark.parametrize("g, convolutions", [(6, 129), (7, 506), (8, 2018)])
    def test_one_convolution_per_distinct_head_and_tail(self, monkeypatch, g, convolutions):
        # a partition of r blocks is split after its first k = ceil(r/2), and
        # a half's product is built from the half without its last block: the
        # heads blocks[:i] for 2 <= i <= k and the tails blocks[k:k+i] for
        # 2 <= i <= r-k are each convolved once, not once per partition
        heads, tails = set(), set()
        for blocks in iter_unordered_partitions(g):
            r, k = len(blocks), (len(blocks) + 1) // 2
            heads.update(blocks[:i] for i in range(2, k + 1))
            tails.update(blocks[k:k + i] for i in range(2, r - k + 1))
        calls = []
        real = config_sums._conv_truncated

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(config_sums, "_conv_truncated", counted)
        res = sum_collapsed(numeric_instance(g, g - 2, [2, 3, 5, 7, 11, 13, 17, 19][:g]))
        assert res.total == 0
        assert len(calls) == len(heads) + len(tails) == convolutions


def reference_collapsed(inst):
    """The collapsed sum over prefix products only, each partition's last
    block dotted with the product of all the others, every convolution
    summed in full from zero: a second route to :func:`sum_collapsed`'s
    totals at sizes the literal sum cannot reach."""
    w = inst.w
    scale = config_sums._common_scale(inst)
    values = config_sums._BlockValues(inst.ground, w, scale)

    def conv(acc, vec):
        out = [0] * (w + 1)
        for i, a in enumerate(acc):
            for j in range(w + 1 - i):
                out[i + j] += a * vec[j]
        return out

    total = 0
    prefix, held = [], ()
    for blocks in iter_unordered_partitions(inst.g):
        r = len(blocks)
        keep, limit = 0, min(len(prefix), r - 1)
        while keep < limit and blocks[keep] == held[keep]:
            keep += 1
        del prefix[keep:]
        for k in range(keep, r - 1):
            vec = values.vector(blocks[k])
            prefix.append(conv(prefix[-1], vec) if k else vec)
        held = blocks
        last = values.vector(blocks[-1])
        top = sum(a * b for a, b in zip(prefix[-1], reversed(last))) if prefix else last[w]
        total += top * (-1) ** r * factorial(r - 1)
    return Fraction(total, scale ** w)


MIXED8 = MIXED + [Fraction(-9, 2), Fraction(13, 7)]


class TestAgainstReference:
    @pytest.mark.parametrize("fault", [_bump_one_block, _shift_offset_one])
    @pytest.mark.parametrize("g", [7, 8])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_faulted_totals_agree(self, monkeypatch, fault, g, jobs):
        # shards build their own products: each must still give the exact
        # total of the prefix-only route, which is nonzero here, and so must
        # the pointed oracle, which does not shard
        fault(monkeypatch)
        inst = numeric_instance(g, g - 2, MIXED8[:g])
        expected = reference_collapsed(inst)
        assert expected != 0
        assert sum_collapsed(inst, jobs=jobs).total == expected
        if jobs == 1:
            assert sum_pointed(inst) == expected
            # the shards summed in this process, no pool needed: a shard skips
            # first blocks, and no head may outlive its own first block; the
            # unscaled partials are merged, then scaled once
            values = config_sums._block_table(inst)
            for parts in (3, 5):
                shards = [config_sums._collapsed_partial(inst, values, part, parts)
                          for part in range(parts)]
                total = sum(partial for partial, _ in shards)
                assert Fraction(total, values.scale ** inst.w) == expected
                assert sum(visited for _, visited in shards) == unordered_partition_count(g)


class TestPointedOracle:
    @pytest.mark.parametrize("g", range(2, 9))
    def test_one_block_value_per_pointed_pair(self, monkeypatch, g):
        # the sets S that hold element 0 and, for each, a(S) and one a(S - T)
        # per proper T holding 0: sum over S of 2^(|S|-1) = 3^(g-1) lookups,
        # so 3^(g-1) - 2^(g-1) truncated products
        calls = []
        real = config_sums._BlockValues.vector

        def counted(self, mask):
            calls.append(mask)
            return real(self, mask)

        monkeypatch.setattr(config_sums._BlockValues, "vector", counted)
        assert sum_pointed(numeric_instance(g, g - 2, list(range(2, 2 + g)))) == 0
        assert len(calls) == 3 ** (g - 1)


class TestIdentityProperties:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_symbolic_sums_vanish(self, g):
        for w in range(g - 1):
            res = sum_collapsed(symbolic_instance(g, w))
            assert res.verdict == "zero", f"g={g} w={w}"

    def test_substitution_homomorphism(self):
        # symbolic total specialized at numbers equals the numeric total
        values = [Fraction(5, 3), Fraction(-2), Fraction(7), Fraction(1, 4)]
        for w in range(3):
            sym = sum_collapsed(symbolic_instance(4, w)).total
            num = sum_collapsed(numeric_instance(4, w, values)).total
            names = GroundSet.symbolic(4).names()
            assert sym.substitute(dict(zip(names, values))) == num

    def test_relabeling_invariance(self):
        rng = random.Random(42)
        base = random_ground(5, rng)
        shuffled = list(base.values)
        rng.shuffle(shuffled)
        for w in (0, 2, 3):
            a = sum_collapsed(ConfigSumInstance.make(5, w, base)).total
            b = sum_collapsed(
                ConfigSumInstance.make(5, w, GroundSet.numeric(shuffled))).total
            assert a == b == 0

    def test_noninteger_negative_grounds(self):
        values = [Fraction(-7, 2), Fraction(1, 3), Fraction(11, 5),
                  Fraction(-4), Fraction(9, 7)]
        for w in range(4):
            assert sum_collapsed(numeric_instance(5, w, values)).total == 0


class TestControlLayer:
    """At ``w = g-1`` the sum is ``-(prod c)(t-1)(t-2)...(t-g+2)``, ``t = sum c``.

    Both summation routes must come out exactly there, nonzero wherever the
    closed form is.  ``ConfigSumInstance`` refuses ``w = g-1`` (the claim is
    for ``w <= g-2``), so the routes are handed a namespace with the three
    fields they read.
    """

    @pytest.mark.parametrize("g", range(2, 8))
    def test_closed_form(self, g):
        nonzero = 0
        for seed in range(3):
            ground = random_ground(g, random.Random(seed))
            inst = SimpleNamespace(g=g, w=g - 1, ground=ground)
            t = sum(ground.values)
            expected = -prod(ground.values) * prod(t - i for i in range(1, g - 1))
            assert sum_pointed(inst) == expected
            if g <= 5:
                assert sum_ordered(inst).total == expected
            nonzero += expected != 0
        assert nonzero >= 2  # the control can come out nonzero


class TestRandomGround:
    def test_limit_is_the_size_of_the_support(self):
        # every value random_ground can draw: the integers -12..12 and k/d, 2 <= d <= 9
        support = {Fraction(k, d) for k in range(-12, 13) for d in range(1, 10)}
        assert config_sums.RANDOM_G_MAX == len(support) == 143
        assert set(random_ground(143, random.Random(7)).values) == support

    def test_past_the_limit_is_refused_before_drawing(self):
        # the rejection loop could never find a 144th distinct value
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match="at most 143 distinct values, got g=144"):
            random_ground(144, rng)
        assert rng.getstate() == state

    def test_sweep_plan_is_refused_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(config_sums, "random_ground", lambda g, rng: drawn.append(g))
        with pytest.raises(ValueError, match="at most 143 distinct values, got g=144"):
            sweep_plan(144)
        assert drawn == []


class TestDoubleCheckProtocol:
    def test_nonzero_is_reverified_through_pointed_oracle(self, monkeypatch):
        inst = numeric_instance(3, 1, [2, 3, 4])
        real = sum_pointed(inst)
        calls = []

        def fake_pointed(instance):
            calls.append(instance)
            return real

        monkeypatch.setattr(config_sums, "sum_pointed", fake_pointed)
        conf = double_check_nonzero(inst, real, random.Random(1))
        assert calls == [inst]
        assert conf.oracle_total == real
        assert conf.second_ground is not None
        assert conf.second_total == 0  # identity holds at the fresh ground set

    def test_oracle_disagreement_on_a_real_nonzero_is_caught(self, monkeypatch):
        # positive control: the faulted total is nonzero on both routes, and
        # an oracle that is off by one must stop the confirmation
        _shift_offset_one(monkeypatch)
        inst = numeric_instance(4, 2, [2, 3, 5, 7])
        total = sum_collapsed(inst).total
        assert total != 0
        assert double_check_nonzero(inst, total, random.Random(1)).oracle_total == total
        monkeypatch.setattr(config_sums, "sum_pointed", lambda instance: total + 1)
        with pytest.raises(ConsistencyError, match="disagree"):
            double_check_nonzero(inst, total, random.Random(1))

    def test_route_disagreement_is_an_engine_bug(self):
        inst = numeric_instance(3, 0, [2, 3, 4])
        with pytest.raises(ConsistencyError):
            double_check_nonzero(inst, Fraction(1, 7), random.Random(1))

    def test_symbolic_skips_second_ground(self):
        inst = symbolic_instance(2, 0)
        conf = double_check_nonzero(inst, sum_pointed(inst), random.Random(1))
        assert conf.second_ground is None
        assert conf.second_total is None


def run_sweep_plan(g_max, seed, deadline=None, **plan_args):
    plan = sweep_plan(g_max, seed=seed, **plan_args)
    return list(run_plan(plan, seed=seed, jobs=1, deadline=deadline))


class TestSweepPlan:
    def test_default_plan(self):
        symbolic = [(g, w, "asserted", None) for g in range(2, 6) for w in range(g - 1)]
        g6 = [(6, w, "asserted", f"0/6/{w}/{i}") for w in range(5) for i in range(10)]
        g7 = [(7, w, "asserted", f"0/7/{w}/{i}") for w in range(4) for i in range(5)]
        g7 += [(7, w, "exploratory", f"0/7/{w}/0") for w in (4, 5)]
        plan = sweep_plan(7)
        assert len(plan) == 82
        assert [(e.instance.g, e.instance.w, e.status, e.seed) for e in plan] == \
            symbolic + g6 + g7

    def test_smoke_plan(self):
        symbolic = [(g, w, "asserted", None) for g in range(2, 5) for w in range(g - 1)]
        g5 = [(5, w, "asserted", f"2/5/{w}/{i}") for w in range(4) for i in range(3)]
        plan = sweep_plan(5, symbolic_g_max=4, seed=2)
        assert len(plan) == 18
        assert [(e.instance.g, e.instance.w, e.status, e.seed) for e in plan] == \
            symbolic + g5
        assert [e.instance.mode for e in plan] == ["symbolic"] * 6 + ["numeric"] * 12


class TestVerifyRange:
    """The sweep's plan run end to end through :func:`run_plan`."""

    def test_small_sweep_all_zero(self):
        entries = run_sweep_plan(4, seed=3)
        assert len(entries) == 6  # (2,0) (3,0) (3,1) (4,0) (4,1) (4,2)
        assert all(e.status == "asserted" for e in entries)
        assert all(e.result.verdict == "zero" for e in entries)

    def test_numeric_band_has_seeds_recorded(self):
        entries = run_sweep_plan(5, seed=11, symbolic_g_max=4)
        numeric = [e for e in entries if e.instance.mode == "numeric"]
        assert numeric and all(e.seed is not None for e in numeric)
        assert all(e.result.verdict == "zero" for e in numeric)

    def test_budget_exhaustion_marks_not_attempted(self):
        entries = run_sweep_plan(5, seed=0, deadline=time.monotonic() - 1)
        assert entries
        assert all(e.status == "not_attempted" for e in entries)
        assert all(e.result is None for e in entries)

    def test_reproducible_with_same_seed(self):
        a = run_sweep_plan(5, seed=5, symbolic_g_max=4)
        b = run_sweep_plan(5, seed=5, symbolic_g_max=4)
        grounds_a = [e.result.instance.ground for e in a if e.instance.mode == "numeric"]
        grounds_b = [e.result.instance.ground for e in b if e.instance.mode == "numeric"]
        assert grounds_a == grounds_b
