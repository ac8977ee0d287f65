"""Configuration-sum verifier: both summation routes, the integer kernel, sweeps."""

import multiprocessing
import random
import time
from fractions import Fraction

import pytest

from stirlingzero import config_sums
from stirlingzero.algebra import ConsistencyError
from stirlingzero.config_sums import (
    ConfigSumInstance,
    double_check_nonzero,
    random_ground,
    run_plan,
    sum_collapsed,
    sum_ordered,
    sweep_plan,
)
from stirlingzero.partitions import (
    GroundSet,
    count_weighted_configs,
    iter_unordered_partitions,
    unordered_partition_count,
)


# a monkeypatch reaches pool workers only when they are forked
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="pool workers are not forked")


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
            assert sum_collapsed(inst).total == sum_ordered(inst).total

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_equals_ordered_symbolic(self, g):
        for w in range(g - 1):
            inst = symbolic_instance(g, w)
            assert sum_collapsed(inst).total == sum_ordered(inst).total

    def test_parallel_equals_serial(self):
        inst = numeric_instance(6, 3, [2, 3, 5, 7, 11, 13])
        serial = sum_collapsed(inst, jobs=1)
        parallel = sum_collapsed(inst, jobs=4)
        assert serial.total == parallel.total
        assert serial.configurations_visited == parallel.configurations_visited
        assert parallel.configurations_visited == unordered_partition_count(6)

    def test_parallel_symbolic(self):
        inst = symbolic_instance(4, 1)
        assert sum_collapsed(inst, jobs=3).total == sum_collapsed(inst).total

    @pytest.mark.parametrize("g, jobs", [(2, 3), (3, 5)])
    def test_more_jobs_than_first_blocks(self, monkeypatch, g, jobs):
        # 2^(g-1) first blocks, so only that many shards run
        pools = []
        real_pool = config_sums.ProcessPoolExecutor

        def recorded(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(config_sums, "ProcessPoolExecutor", recorded)
        inst = numeric_instance(g, g - 2, MIXED[:g])
        serial = sum_collapsed(inst)
        parallel = sum_collapsed(inst, jobs=jobs)
        assert pools == [1 << (g - 1)]
        assert parallel.total == serial.total
        assert parallel.configurations_visited == unordered_partition_count(g)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_dropped_partition_is_caught(self, monkeypatch, jobs):
        real = config_sums.iter_unordered_partitions

        def lossy(g, part=0, parts=1):
            # everything but the one-block partition
            return (blocks for blocks in real(g, part, parts) if len(blocks) != 1)

        monkeypatch.setattr(config_sums, "iter_unordered_partitions", lossy)
        with pytest.raises(ConsistencyError, match="partitions"):
            sum_collapsed(numeric_instance(5, 2, [2, 3, 5, 7, 11]), jobs=jobs)


def _shift_offset_one(monkeypatch, shift=1):
    real = config_sums.eval_P
    monkeypatch.setattr(config_sums, "eval_P",
                        lambda w, t: real(w, t) + shift if w == 1 else real(w, t))


MIXED = [Fraction(5, 2), Fraction(-7, 3), Fraction(4), Fraction(11, 9),
         Fraction(-3, 4), Fraction(6, 5)]


class TestIntegerKernel:
    @pytest.mark.parametrize("g, w", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3),
                                      (6, 1), (6, 2)])
    def test_positive_control_matches_fraction_oracle(self, monkeypatch, g, w):
        # offset-1 block values plus one: the identity breaks, and the
        # integer kernel must still reproduce the Fraction route exactly
        _shift_offset_one(monkeypatch)
        inst = numeric_instance(g, w, MIXED[:g])
        collapsed = sum_collapsed(inst).total
        assert collapsed == sum_ordered(inst).total
        assert collapsed != 0

    @needs_fork
    def test_parallel_positive_control(self, monkeypatch):
        _shift_offset_one(monkeypatch)
        inst = numeric_instance(6, 3, MIXED)
        serial = sum_collapsed(inst, jobs=1).total
        assert serial != 0
        assert sum_collapsed(inst, jobs=2).total == serial

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
        assert collapsed == sum_ordered(inst).total
        assert collapsed != 0

    @pytest.mark.parametrize("w", [1, 2])
    def test_mask_dependent_control_symbolic(self, monkeypatch, w):
        _bump_one_block(monkeypatch)
        inst = symbolic_instance(4, w)
        collapsed = sum_collapsed(inst).total
        assert collapsed == sum_ordered(inst).total
        assert collapsed != 0

    def test_one_convolution_per_shared_prefix(self, monkeypatch):
        # blocks[:k] with 2 <= k <= r-1 is the product the last block is dotted with
        # or a step towards it; each is built once, not once per partition
        prefixes = {blocks[:k] for blocks in iter_unordered_partitions(8)
                    for k in range(2, len(blocks))}
        calls = []
        real = config_sums._conv_truncated

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(config_sums, "_conv_truncated", counted)
        res = sum_collapsed(numeric_instance(8, 6, [2, 3, 5, 7, 11, 13, 17, 19]))
        assert res.total == 0
        assert len(calls) == len(prefixes) == 4012


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


class TestDoubleCheckProtocol:
    def test_nonzero_is_reverified_through_ordered_route(self, monkeypatch):
        inst = numeric_instance(3, 1, [2, 3, 4])
        real = sum_ordered(inst)
        calls = []

        def fake_ordered(instance):
            calls.append(instance)
            return real

        monkeypatch.setattr("stirlingzero.config_sums.sum_ordered", fake_ordered)
        conf = double_check_nonzero(inst, real.total, random.Random(1))
        assert calls == [inst]
        assert conf.ordered_total == real.total
        assert conf.second_ground is not None
        assert conf.second_total == 0  # identity holds at the fresh ground set

    def test_route_disagreement_is_an_engine_bug(self):
        inst = numeric_instance(3, 0, [2, 3, 4])
        with pytest.raises(ConsistencyError):
            double_check_nonzero(inst, Fraction(1, 7), random.Random(1))

    def test_symbolic_skips_second_ground(self):
        inst = symbolic_instance(2, 0)
        conf = double_check_nonzero(inst, sum_ordered(inst).total)
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
