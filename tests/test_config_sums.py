"""Configuration-sum verifier: both summation routes, the integer kernel, sweeps."""

import gc
import os
import random
import time
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import factorial, prod
from types import SimpleNamespace

import pytest

from stirlingzero import cli, config_sums, stirling
from stirlingzero.algebra import ConsistencyError, MultiPoly, PolynomialityError
from stirlingzero.config_sums import (
    ConfigSumInstance,
    SweepEntry,
    double_check_nonzero,
    random_entries,
    random_ground,
    run_plan,
    sum_collapsed,
    sum_pointed,
    sweep_plan,
)
from stirlingzero.ledger import value_str
from stirlingzero.partitions import GroundSet, iter_unordered_partitions, unordered_partition_count
from stirlingzero.stirling import eval_P_symbolic, stirling_poly

import ordered_reference
from forking import assert_no_child_left, needs_fork
from ordered_reference import count_weighted_configs, sum_ordered
from poly_reference import substitute


def numeric_instance(g, w, values):
    return ConfigSumInstance.make(g, w, GroundSet.numeric(values))


def symbolic_instance(g, w):
    return ConfigSumInstance.make(g, w, GroundSet.symbolic(g))


class TestInstanceValidation:
    def test_parameter_ranges(self):
        # an instance is any w >= 0: the band w <= g-2 is checked where a zero
        # is claimed (part1, sweep_plan, bridge_params), not by the type
        with pytest.raises(ValueError, match="need g >= 2"):
            numeric_instance(1, 0, [3])
        with pytest.raises(ValueError, match="w >= 0, got g=3, w=-1"):
            numeric_instance(3, -1, [1, 2, 3])
        for w in (2, 5):
            assert numeric_instance(3, w, [1, 2, 3]).w == w
        # w = g-1 is the closed form -(prod c)(t-1), t = 6
        assert sum_collapsed(numeric_instance(3, 2, [1, 2, 3])).total == -30

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
    def test_each_shard_builds_its_own_block_table(self, monkeypatch, tmp_path):
        # the parent evaluates no block value; each shard samples eval_P at
        # 2w+3 points per offset and reads every block sum off its own fits
        parent, log = os.getpid(), tmp_path / "calls"
        real = config_sums.eval_P

        def logged(v, t):
            if os.getpid() == parent:
                raise AssertionError("the parent evaluated a block value")
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(v, t)

        g, w = 6, 4
        inst = numeric_instance(g, w, MIXED[:g])
        serial = sum_collapsed(inst).total
        monkeypatch.setattr(config_sums, "eval_P", logged)
        assert sum_collapsed(inst, jobs=2).total == serial
        per_shard = Counter(log.read_text().split())
        assert len(per_shard) == min(2, config_sums._usable_cpus())
        assert set(per_shard.values()) == {(2 * w + 3) * (w + 1)}
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
    # on both evaluators, so a symbolic ground's fits see the shift too
    for name in ("eval_P", "eval_P_symbolic"):
        real = getattr(config_sums, name)
        monkeypatch.setattr(config_sums, name, lambda w, t, real=real:
                            real(w, t) + shift if w == 1 else real(w, t))


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

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_uncleared_block_value_is_an_engine_bug(self, monkeypatch, symbolic):
        # 1/3 survives the scale lam = K' * D^2 = 2 at w = 1, K' = 2 clearing
        # P_1 = x(x-1)/2 and D = 1 on an integer or symbolic ground: the
        # offset-1 fit's constant term is 2/3
        _shift_offset_one(monkeypatch, Fraction(1, 3))
        inst = symbolic_instance(3, 1) if symbolic else numeric_instance(3, 1, [2, 3, 4])
        assert config_sums._common_scale(inst) == 2
        with pytest.raises(ConsistencyError, match="not an integer"):
            sum_collapsed(inst)

    def test_scale_is_the_least_that_clears_every_offset(self):
        # on an integer ground (D = 1) the scale is K'(w): its v-th power clears
        # every coefficient of P_v, v <= w, and one prime fewer leaves one uncleared
        def clears(k, w):
            return all((c * k ** v).denominator == 1
                       for v in range(1, w + 1) for c in stirling_poly(v))

        for w in range(13):
            scale = config_sums._common_scale(numeric_instance(w + 2, w, range(w + 2)))
            assert scale == config_sums._coeff_scale(w)
            assert clears(scale, w)
            primes = [p for p in range(2, scale + 1)
                      if scale % p == 0 and all(p % q for q in range(2, p))]
            for p in primes:
                assert not clears(scale // p, w), (w, p)
            if w <= 6:
                assert scale == [1, 2, 12, 12, 60, 60, 420][w]

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_scale_one_prime_short_is_refused(self, monkeypatch, symbolic):
        # K'(4) / 2 = 30: 30^2 misses a factor 2 of P_2's denominators, so the
        # table's integer check, not the scale's derivation, refuses the walk
        real = config_sums._coeff_scale
        monkeypatch.setattr(config_sums, "_coeff_scale", lambda w: real(w) // 2 if w == 4 else real(w))
        inst = symbolic_instance(6, 4) if symbolic else numeric_instance(6, 4, [2, 3, 5, 7, 11, 13])
        assert config_sums._common_scale(inst) == 30
        with pytest.raises(ConsistencyError, match="not an integer"):
            sum_collapsed(inst)


def _bump_one_block(monkeypatch, target=0b0110):
    # only the block {1, 2} sees its sum moved, so the total depends on which
    # blocks a partition's truncated product was built from.  Every ground's
    # block sums, numeric or symbolic, come from its one table, which the
    # block table, the pointed oracle and every reference read alike
    real_scaled = GroundSet.scaled_sums.func

    def scaled_sums(self):
        den, sums = real_scaled(self)
        return den, sums[:target] + (sums[target] + den,) + sums[target + 1:]

    monkeypatch.setattr(GroundSet.scaled_sums, "func", scaled_sums)


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


def naive_truncated(a, b, w):
    """``[y^0..y^w]`` of ``a(y) * b(y)``, every product of the two written out."""
    out = []
    for n in range(w + 1):
        c = 0
        for i in range(n + 1):
            c = c + a[i] * b[n - i]
        out.append(c)
    return out


def _nonzero(x):
    # an int as it is, a packed _IntPoly without the zeros it keeps
    return x if isinstance(x, int) else {key: c for key, c in x.items() if c}


def _int_series(rng, w):
    return (1,) + tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(w))


@lru_cache(maxsize=None)
def _packed_values():
    # the packed 1 and every nonconstant entry of a symbolic g = 4 block table;
    # each has degree at most 4 in a slot, so products of up to 31 of them
    # stay inside the one-byte slots of the table's packer
    table, _ = config_sums._block_table(symbolic_instance(4, 2))
    return table[1][0], [vec[v] for vec in table[1:] for v in (1, 2)]


def _packed_series(rng, w):
    one, values = _packed_values()
    return (one,) + tuple(rng.choice(values) for _ in range(w))


class TestTruncatedProducts:
    @pytest.mark.parametrize("series", [_int_series, _packed_series], ids=["ints", "packed"])
    @pytest.mark.parametrize("w", range(10))
    def test_convolution_is_the_naive_product(self, series, w):
        rng = random.Random(f"conv/{w}")
        for _ in range(5):
            acc, vec = series(rng, w), series(rng, w)
            got = config_sums._conv_truncated(list(acc), vec, w)
            assert list(map(_nonzero, got)) == list(map(_nonzero, naive_truncated(acc, vec, w)))

    @pytest.mark.parametrize("series, g", [(_int_series, 5), (_packed_series, 4)],
                             ids=["ints", "packed"])
    @pytest.mark.parametrize("w", range(10))
    def test_walk_is_the_naive_product_per_partition(self, series, g, w):
        # a random table on g elements, at any w: heads of up to three blocks
        # (two on the packed table, whose products grow fast), tails of up to
        # two, and each partition's dot product, against [y^w] of the naive
        # product of all its blocks
        rng = random.Random(f"walk/{w}")
        table = [None] + [series(rng, w) for _ in range(1, 1 << g)]
        expected = 0
        for blocks in iter_unordered_partitions(g):
            prod = table[blocks[0]]
            for mask in blocks[1:]:
                prod = naive_truncated(prod, table[mask], w)
            expected = expected + prod[w] * ((-1) ** len(blocks) * factorial(len(blocks) - 1))
        total, visited = config_sums._collapsed_partial(SimpleNamespace(g=g, w=w), table)
        assert visited == unordered_partition_count(g)
        assert _nonzero(total) == _nonzero(expected)

    def test_a_dropped_index_pair_fails_the_oracle(self, monkeypatch):
        # positive control: the top row without its last pair, (3, 1) at w = 4,
        # drops products from the convolutions and the dot products alike
        inst = numeric_instance(6, 4, MIXED)
        assert sum_collapsed(inst).total == sum_pointed(inst) == 0
        real = config_sums._pairs

        def short(w):
            *rows, (n, pairs) = real(w)
            return (*rows, (n, pairs[:-1]))

        monkeypatch.setattr(config_sums, "_pairs", short)
        assert short(4)[-1] == (4, ((1, 3), (2, 2)))
        assert sum_collapsed(inst).total != sum_pointed(inst)


def _scaled(vec, scale):
    # the ints scale^v * P_v(t), each checked to be exact
    out = tuple(value * scale ** v for v, value in enumerate(vec))
    assert all(value.denominator == 1 for value in out)
    return tuple(int(value) for value in out)


def reference_collapsed(inst):
    """The collapsed sum over prefix products only, each partition's last
    block dotted with the product of all the others, every convolution
    summed in full from zero, on each mask's own evaluation: a second route
    to :func:`sum_collapsed`'s totals at sizes the literal sum cannot reach."""
    w = inst.w
    scale = config_sums._common_scale(inst)
    values = config_sums._BlockValues(inst.ground, w)

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
            vec = _scaled(values.vector(blocks[k]), scale)
            prefix.append(conv(prefix[-1], vec) if k else vec)
        held = blocks
        last = _scaled(values.vector(blocks[-1]), scale)
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
            table, scale = config_sums._block_table(inst)
            for parts in (3, 5):
                shards = [config_sums._collapsed_partial(inst, table, part, parts)
                          for part in range(parts)]
                total = sum(partial for partial, _ in shards)
                assert Fraction(total, scale ** inst.w) == expected
                assert sum(visited for _, visited in shards) == unordered_partition_count(g)


def _fault_at_one_sum(monkeypatch, t):
    # offset 1 plus one at the point t alone: no longer a polynomial in t
    real = config_sums.eval_P
    monkeypatch.setattr(config_sums, "eval_P",
                        lambda v, s: real(v, s) + 1 if v == 1 and s == t else real(v, s))


def _stray_term_at_offset_one(monkeypatch):
    # a stray variable in the offset-1 value at every rational point, on both
    # evaluators: a fit read back only at the pure powers of T would drop it
    z = MultiPoly.variable("z")
    for name in ("eval_P", "eval_P_symbolic"):
        real = getattr(config_sums, name)
        monkeypatch.setattr(config_sums, name, lambda v, t, real=real: real(v, t) + z
                            if v == 1 and not isinstance(t, MultiPoly) else real(v, t))


class TestBlockTableFit:
    @pytest.mark.parametrize("symbolic", [False, True])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_a_stray_term_in_a_sample_is_refused(self, monkeypatch, symbolic, jobs):
        # positive control: a sample that is not a rational raises, where
        # dropping its stray term read offset 1 as zero and the verdict as zero
        _stray_term_at_offset_one(monkeypatch)
        inst = symbolic_instance(4, 1) if symbolic else numeric_instance(4, 1, [2, 3, 5, 7])
        with pytest.raises(TypeError, match="expected an exact rational, got MultiPoly"):
            sum_collapsed(inst, jobs=jobs)
        assert_no_child_left()

    def test_numeric_route_builds_no_multipoly(self, monkeypatch):
        # numbers are fitted as numbers: with the Stirling fits made afresh,
        # a numeric table, both summation routes and stirling_poly itself
        # construct no MultiPoly, by either constructor
        inst = numeric_instance(6, 4, MIXED)
        made = []
        real_init, real_raw = MultiPoly.__init__, MultiPoly.__dict__["_raw"].__func__

        def counted_init(self, *args, **kwargs):
            made.append("__init__")
            real_init(self, *args, **kwargs)

        def counted_raw(cls, *args):
            made.append("_raw")
            return real_raw(cls, *args)

        monkeypatch.setattr(MultiPoly, "__init__", counted_init)
        monkeypatch.setattr(MultiPoly, "_raw", classmethod(counted_raw))
        stirling_poly.cache_clear()
        stirling._integer_coeffs.cache_clear()
        assert stirling_poly(3)[-1] == Fraction(1, 48)  # the leading coefficient 1/(2^w w!)
        config_sums._block_table(inst)
        assert sum_collapsed(inst, jobs=1).total == 0
        assert sum_pointed(inst) == 0
        assert made == []

    @pytest.mark.parametrize("g", range(2, 10))
    def test_table_equals_one_evaluation_per_mask(self, g):
        # the fits give every mask exactly the vector that its own eval_P
        # calls give
        for w in range(g - 1):
            for i in range(2):
                inst = ConfigSumInstance(g, w, random_ground(g, random.Random(f"table/{g}/{w}/{i}")))
                table, scale = config_sums._block_table(inst)
                direct = config_sums._BlockValues(inst.ground, w)
                assert scale == config_sums._common_scale(inst)
                for mask in range(1, 1 << g):
                    assert table[mask] == _scaled(direct.vector(mask), scale), (w, i, mask)

    @pytest.mark.parametrize("role", ["node", "witness"])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_fault_at_one_sampled_sum_is_caught(self, monkeypatch, role, jobs):
        # with w = 2 each offset is sampled at T = 0..6: offset 1's fit runs
        # through T = 0..2 and is checked on T = 3..6
        g, w = 6, 2
        inst = numeric_instance(g, w, MIXED[:g])
        den, _ = inst.ground.scaled_sums
        index = 1 if role == "node" else 2 * w + 2
        _fault_at_one_sum(monkeypatch, Fraction(index, den))
        with pytest.raises(PolynomialityError, match="deviates from the degree-2 interpolant"):
            sum_collapsed(inst, jobs=jobs)
        assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_offset_above_its_own_degree_is_caught(self, monkeypatch, jobs):
        # P_1 + t^4 lies on a polynomial of degree 4 <= 2w at w = 2, but
        # offset 1 is fitted with degree 2, so its witnesses deviate
        real = config_sums.eval_P
        monkeypatch.setattr(config_sums, "eval_P",
                            lambda v, t: real(v, t) + t ** 4 if v == 1 else real(v, t))
        with pytest.raises(PolynomialityError, match="deviates from the degree-2 interpolant"):
            sum_collapsed(numeric_instance(6, 2, [2, 3, 5, 7, 11, 13]), jobs=jobs)
        assert_no_child_left()

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_fit_with_fractional_coefficients_is_an_engine_bug(self, monkeypatch, symbolic):
        # P_1 = t(t-1)/2 and lam = 2 at w = 1, on an integer ground and on a
        # symbolic one alike; adding t(t-1)/4 keeps every scaled value an
        # integer and every witness on the fit, but the fit's coefficients
        # become 3/2 and -3/2
        for name in ("eval_P", "eval_P_symbolic"):
            real = getattr(config_sums, name)
            monkeypatch.setattr(config_sums, name, lambda v, t, real=real:
                                real(v, t) + t * (t - 1) / 4 if v == 1 else real(v, t))
        inst = symbolic_instance(4, 1) if symbolic else numeric_instance(4, 1, [2, 3, 5, 7])
        with pytest.raises(ConsistencyError, match="coefficients are not integers"):
            sum_collapsed(inst)

    @pytest.mark.parametrize("values, w", [([-2, -1, 0, 1, 2], 3), ([-1, 0, 1], 1)])
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_few_distinct_sums_still_sum_exactly(self, monkeypatch, values, w, jobs):
        # 7 and 3 distinct block sums, fewer than the 2w+3 samples of each
        # offset: the fit reads every one, and the totals are exact
        inst = numeric_instance(len(values), w, values)
        assert len(set(inst.ground.scaled_sums[1][1:])) < 2 * w + 3
        table, scale = config_sums._block_table(inst)
        direct = config_sums._BlockValues(inst.ground, w)
        assert table[1:] == [_scaled(direct.vector(m), scale) for m in range(1, 1 << inst.g)]
        assert sum_collapsed(inst, jobs=jobs).total == 0
        assert sum_pointed(inst) == 0
        _shift_offset_one(monkeypatch)  # and a control that comes out nonzero
        collapsed = sum_collapsed(inst, jobs=jobs).total
        assert collapsed != 0
        assert collapsed == sum_pointed(inst) == sum_ordered(inst).total
        assert_no_child_left()

    @pytest.mark.parametrize("values, extra", [([0, 1, 2, 3], 0), ([0, 1, 2, 4], 1)])
    def test_sample_count_boundary(self, monkeypatch, values, extra):
        # at w = 2 each offset takes 2w+3 = 7 samples: 7 distinct sums (0..6)
        # and 8 (0..7) cost the same 7 evaluations and one fit per offset,
        # and Horner reads every sum. P_1 + 2 makes the totals nonzero
        # (P_1 + 1 leaves both at 0 here)
        w = 2
        _shift_offset_one(monkeypatch, shift=2)
        calls, fits = [], []
        real = config_sums.eval_P
        monkeypatch.setattr(config_sums, "eval_P",
                            lambda v, t: calls.append((v, t)) or real(v, t))
        real_fit = config_sums._fit
        monkeypatch.setattr(config_sums, "_fit",
                            lambda *args: fits.append(args[2]) or real_fit(*args))
        inst = numeric_instance(4, w, values)
        assert len(set(inst.ground.scaled_sums[1][1:])) == 2 * w + 3 + extra
        table, scale = config_sums._block_table(inst)
        assert len(calls) == (2 * w + 3) * (w + 1)
        assert fits == [2 * v for v in range(w + 1)]
        direct = config_sums._BlockValues(inst.ground, w)
        assert table[1:] == [_scaled(direct.vector(m), scale) for m in range(1, 16)]
        total = sum_collapsed(inst).total
        assert total != 0
        assert total == sum_pointed(inst)

    @pytest.mark.parametrize("inst", [
        symbolic_instance(5, 3),
        numeric_instance(5, 3, [-2, -1, 0, 1, 2]),
        ConfigSumInstance(7, 5, random_ground(7, random.Random("calls/7"))),
    ], ids=["symbolic", "few-sums", "random-g7"])
    def test_one_fit_per_offset_from_2w_plus_3_evaluations(self, monkeypatch, inst):
        # every ground, however many distinct block sums it has, samples
        # each offset at the same 2w+3 points, and fits each once
        calls, fits = [], []
        for name in ("eval_P", "eval_P_symbolic"):
            real = getattr(config_sums, name)
            monkeypatch.setattr(config_sums, name,
                                lambda v, t, real=real: calls.append((v, t)) or real(v, t))
        real_fit = config_sums._fit
        monkeypatch.setattr(config_sums, "_fit",
                            lambda *args: fits.append(args[2]) or real_fit(*args))
        config_sums._block_table(inst)
        w = inst.w
        assert len(calls) == (2 * w + 3) * (w + 1)
        assert fits == [2 * v for v in range(w + 1)]

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_walk_reads_only_the_table(self, monkeypatch, symbolic):
        # once the table is built, no block value is evaluated again: the
        # walk's total is the serial total with the evaluators disabled.
        # Offset 1 plus one makes that total nonzero on both kinds of ground
        for name in ("eval_P", "eval_P_symbolic"):
            real = getattr(config_sums, name)
            monkeypatch.setattr(config_sums, name,
                                lambda v, t, real=real: real(v, t) + 1 if v == 1 else real(v, t))
        inst = symbolic_instance(4, 2) if symbolic else numeric_instance(6, 4, MIXED)
        serial = sum_collapsed(inst).total
        assert serial != 0
        table, scale = config_sums._block_table(inst)
        assert scale == config_sums._common_scale(inst)

        def no_evaluation(*args):
            raise AssertionError("the walk evaluated a block value")

        for name in ("eval_P", "eval_P_symbolic"):
            monkeypatch.setattr(config_sums, name, no_evaluation)
        monkeypatch.setattr(config_sums._BlockValues, "vector", no_evaluation)
        total, visited = config_sums._collapsed_partial(inst, table)
        if symbolic:  # the packed partial, read back onto the ring
            total = total.unpacked(*config_sums._ring(inst))
        assert total * Fraction(1, scale ** inst.w) == serial
        assert visited == unordered_partition_count(inst.g)


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

    @pytest.mark.parametrize("ground", [GroundSet.numeric([2, 3, 5, 7]), GroundSet.symbolic(4)],
                             ids=["numeric", "symbolic"])
    def test_an_offset_0_value_other_than_1_is_refused(self, monkeypatch, ground):
        # positive control of the guard: every block series must start at 1
        def two_at_offset_0(real):
            return lambda v, t: 2 if v == 0 else real(v, t)

        monkeypatch.setattr(config_sums, "eval_P", two_at_offset_0(config_sums.eval_P))
        monkeypatch.setattr(config_sums, "eval_P_symbolic",
                            two_at_offset_0(config_sums.eval_P_symbolic))
        with pytest.raises(ConsistencyError, match="offset-0 block value 2 is not 1"):
            sum_pointed(ConfigSumInstance.make(4, 2, ground))


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
            names = GroundSet.symbolic(4).values[0].vars
            assert substitute(sym, dict(zip(names, values))) == num

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


class TestSymbolicRing:
    """A symbolic ground computes in ``Q[c1..cg]``, on the ring's one registry."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_block_table_is_on_the_ring(self, g):
        # the scale is the numeric ground's K * D^2 with D = 1, and every entry,
        # offset 0 included, unpacks onto the ring's one registry
        names = tuple(f"c{i + 1}" for i in range(g))
        for w in range(g - 1):
            inst = symbolic_instance(g, w)
            table, scale = config_sums._block_table(inst)
            assert scale == config_sums._common_scale(inst)
            assert inst.ground.scaled_sums[0] == 1
            ring_names, packer = config_sums._ring(inst)
            assert ring_names == names
            unpacked = [[value.unpacked(names, packer) for value in vec] for vec in table[1:]]
            assert all(value.vars == names for vec in unpacked for value in vec)
            assert all(vec[0] == 1 for vec in unpacked)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_block_table_is_the_per_mask_evaluation(self, g):
        # the fits through rational samples, read at each symbolic block sum,
        # equal eval_P_symbolic there, so a symbolic total still covers every ground
        for w in range(g - 1):
            inst = symbolic_instance(g, w)
            table, scale = config_sums._block_table(inst)
            direct = config_sums._BlockValues(inst.ground, w)
            names, packer = config_sums._ring(inst)
            for mask in range(1, 1 << g):
                expected = tuple(scale ** v * value
                                 for v, value in enumerate(direct.vector(mask)))
                assert tuple(value.unpacked(names, packer) for value in table[mask]) == expected, \
                    (w, mask)

    def test_no_two_registries_merge(self, monkeypatch):
        # a constant on the empty registry may still meet a ring element, but
        # no sum or product takes the union of two nonempty registries
        real = MultiPoly._aligned
        merges = []

        def counted(self, other):
            if self.vars and other.vars and self.vars != other.vars:
                merges.append((self.vars, other.vars))
            return real(self, other)

        monkeypatch.setattr(MultiPoly, "_aligned", counted)
        inst = symbolic_instance(4, 2)
        assert sum_collapsed(inst).total == sum_pointed(inst) == 0
        assert merges == []

    def test_block_sums_and_values_merge_no_registry(self, monkeypatch):
        # a scalar is added into a ring element's constant term, and Horner
        # starts at the top coefficient, so the block-sum table and every
        # P_v value at its sums stay on the ring's registry: no operand on
        # another registry, the empty one included, is ever merged
        real = MultiPoly._aligned
        merges = []

        def counted(self, other):
            if self.vars != other.vars:
                merges.append((self.vars, other.vars))
            return real(self, other)

        monkeypatch.setattr(MultiPoly, "_aligned", counted)
        ground = GroundSet.symbolic(6)
        _, sums = ground.scaled_sums
        values = [eval_P_symbolic(v, t) for t in sums[1:] for v in range(1, 5)]
        assert merges == []
        assert {value.vars for value in values} == {ground.values[0].vars}
        assert sums[0b101] == ground.values[0] + ground.values[2]


def closed_form(ground):
    # -(prod c)(t-1)(t-2)...(t-g+2), t = sum c: the sum at w = g-1
    t = sum(ground.values)
    return -prod(ground.values) * prod(t - i for i in range(1, ground.g - 1))


@lru_cache(maxsize=None)
def pointed_at_top(ground):
    # the pointed oracle at w = g-1, computed once per ground for every jobs value
    return sum_pointed(ConfigSumInstance(ground.g, ground.g - 1, ground))


class TestControlLayer:
    """At ``w = g-1`` the sum is ``-(prod c)(t-1)(t-2)...(t-g+2)``, ``t = sum c``.

    Both summation routes must come out exactly there, nonzero wherever the
    closed form is.  The claim is for ``w <= g-2``, but an instance takes any
    ``w >= 0``, so both routes sum this layer on real instances.
    """

    @pytest.mark.parametrize("g", range(2, 8))
    def test_closed_form(self, g):
        nonzero = 0
        for seed in range(3):
            ground = random_ground(g, random.Random(seed))
            inst = ConfigSumInstance(g, g - 1, ground)
            expected = closed_form(ground)
            assert sum_pointed(inst) == expected
            if g <= 5:
                assert sum_ordered(inst).total == expected
            nonzero += expected != 0
        assert nonzero >= 2  # the control can come out nonzero

    @pytest.mark.parametrize("g", range(2, 7))
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_collapsed_closed_form(self, g, jobs):
        # the production route, packed on a symbolic ground, against the closed
        # form and the pointed oracle, on the first two seeded random grounds
        # where the closed form is nonzero, and on the symbolic one
        rng, grounds = random.Random(f"control/{g}"), []
        while len(grounds) < 2:
            ground = random_ground(g, rng)
            if closed_form(ground):
                grounds.append(ground)
        for ground in grounds + [GroundSet.symbolic(g)]:
            inst = ConfigSumInstance(g, g - 1, ground)
            expected = closed_form(ground)
            total = sum_collapsed(inst, jobs=jobs).total
            assert total == expected == pointed_at_top(ground)
            assert total != 0
        assert_no_child_left()


@lru_cache(maxsize=None)
def hypertrees(g):
    """Every hypertree on {0..g-1}, each a tuple of edge masks, by brute force.

    A set of edges of two or more vertices is a hypertree when it is
    connected and its vertex-edge incidence graph is a tree, that is when
    ``sum(|T| - 1) = g - 1``: edge sets with that budget are enumerated and the
    connected ones kept.
    """
    full = (1 << g) - 1
    edges = [m for m in range(1, full + 1) if m.bit_count() >= 2]

    def connected(chosen):
        reach, grown = chosen[0], True
        while grown:
            grown = False
            for e in chosen:
                if e & reach and e | reach != reach:
                    reach, grown = reach | e, True
        return reach == full

    def extend(start, budget, chosen):
        if budget == 0:
            if connected(chosen):
                yield tuple(chosen)
            return
        for i in range(start, len(edges)):
            cost = edges[i].bit_count() - 1
            if cost <= budget:
                chosen.append(edges[i])
                yield from extend(i + 1, budget - cost, chosen)
                chosen.pop()

    return tuple(extend(0, g - 1, []))


def weighted_hypertree_sum(g, c, phi):
    # sum over the hypertrees H of prod_{T in H} phi(|T|) prod_{i in T} c_i
    return sum(prod(phi[edge.bit_count()] * prod(c[i] for i in range(g) if edge >> i & 1)
                    for edge in tree)
               for tree in hypertrees(g))


def exponential_side(g, c, phi):
    # (prod c) (g-1)! [z^{g-1}] e^{t Lambda(z)}, Lambda(z) = sum_{m>=1} phi(m+1) z^m / m!,
    # the exponential by its recurrence n e_n = sum_{k=1}^n k a_k e_{n-k}, a = t Lambda
    a = [0] + [sum(c) * Fraction(phi[m + 1], factorial(m)) for m in range(1, g)]
    e = [Fraction(1)]
    for n in range(1, g):
        e.append(sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n)
    return prod(c) * factorial(g - 1) * e[g - 1]


class TestHypertreeOracle:
    """The ``w = g-1`` closed form against a sum over hypertrees.

    ``-sum_H prod_{T in H} (-1)^|T| (|T|-2)! prod_{i in T} c_i`` over the
    hypertrees ``H`` on the ground's elements is a third route to
    ``-(prod c)(t-1)...(t-g+2)``, one that neither walks partitions nor
    evaluates a Stirling polynomial.
    """

    def test_counts(self):
        # OEIS A030019: hypertrees on 2..6 labeled vertices
        assert [len(hypertrees(g)) for g in range(2, 7)] == [1, 4, 29, 311, 4447]

    @pytest.mark.parametrize("g", range(2, 7))
    def test_sum_over_hypertrees_is_the_closed_form(self, g):
        trees = hypertrees(g)
        for seed in range(3):
            ground = random_ground(g, random.Random(f"hypertree/{g}/{seed}"))
            c = ground.values
            weight = {}  # (-1)^|T| (|T|-2)! prod_{i in T} c_i of each edge T
            for edge in {edge for tree in trees for edge in tree}:
                size = edge.bit_count()
                weight[edge] = ((-1) ** size * factorial(size - 2)
                                * prod(c[i] for i in range(g) if edge >> i & 1))
            total = sum(prod(weight[edge] for edge in tree) for tree in trees)
            t = sum(c)
            expected = -prod(c) * prod(t - i for i in range(1, g - 1))
            assert -total == expected
            assert sum_pointed(ConfigSumInstance(g, g - 1, ground)) == expected

    @pytest.mark.parametrize("g", range(2, 7))
    def test_any_edge_weights_count_as_the_exponential(self, g):
        # t * sum_H prod_T phi(|T|) prod_{i in T} c_i = (prod c) (g-1)! [z^{g-1}]
        # e^{t Lambda(z)} for any weights phi(2..g): multiplied by t, not divided,
        # so t = 0 needs no case.  Cayley's formula is phi(2) = 1 alone, and the
        # first kind's phi above gives Lambda = log(1 + z), so (1 + z)^t
        rng, live, caught = random.Random(f"hypertree-weights/{g}"), 0, 0
        for _ in range(3):
            phi = {size: rng.randint(-5, 5) for size in range(2, g + 1)}
            c = random_ground(g, rng).values
            expected = exponential_side(g, c, phi)
            assert sum(c) * weighted_hypertree_sum(g, c, phi) == expected
            # positive control: phi(3) changed on the hypertree side alone, on
            # each ground where it can show (g >= 3, and neither t nor a c_i is 0)
            if g >= 3 and sum(c) * prod(c):
                live += 1
                shifted = {**phi, 3: phi[3] + 1}
                caught += sum(c) * weighted_hypertree_sum(g, c, shifted) != expected
        assert caught == live and (live > 0 or g == 2)


def integer_partitions(n, largest):
    """Every partition of n into parts of at most ``largest``, in decreasing order."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


# every (g, w, c) with w+2 <= g <= min(2w, 7) and c = 1 + beta, beta a partition
# of some n <= 2w-g padded with zeros to g parts (it has at most g-4 parts)
CERTIFICATE_POINTS = [(g, w, tuple(sorted(1 + b for b in beta + (0,) * (g - len(beta)))))
                      for w in range(2, 6) for g in range(w + 2, min(2 * w, 7) + 1)
                      for n in range(2 * w - g + 1) for beta in integer_partitions(n, n)]
CERTIFICATE_GROUNDS = sorted({c for _, _, c in CERTIFICATE_POINTS}, key=lambda c: (len(c), c))
# every w <= g-1 of each certificate ground, in order of g: the band, then the top
CERTIFICATE_SCAN = [(len(c), w, c) for c in CERTIFICATE_GROUNDS for w in range(len(c))]


def certificate_instance(c, w):
    return ConfigSumInstance(len(c), w, GroundSet.numeric(c))


class TestCertificatePoints:
    """Both routes at every point of the weight-by-weight certificate with ``g <= 7``.

    ``S(c, w)`` is symmetric in ``c``, of degree at most ``2w``, and divisible
    by ``prod c`` (the zero lemma), so ``S = (prod c) q`` with ``q`` symmetric
    of degree at most ``2w - g``: zero outright for ``g > 2w``.  For
    ``w+2 <= g <= 2w``, ``q`` vanishing at ``c = 1 + beta`` for every partition
    ``beta`` of every ``n <= 2w - g`` makes it vanish on the simplex lattice
    ``{x in N^g : sum x <= 2w - g}``, which is unisolvent for that degree
    (Chung and Yao, SIAM J. Numer. Anal. 14, 1977), so ``q = 0``.  These
    points repeat values; each is summed as the multiset ground it is, at
    every ``w <= g-2`` of its ground (all zero) and at ``w = g-1``, where the
    sum is the closed form ``-(prod c)(t-1)...(t-g+2)``.
    """

    EXPECTED = [(g, w, c, 0 if w < g - 1 else closed_form(GroundSet.numeric(c)))
                for g, w, c in CERTIFICATE_SCAN]

    def test_the_points(self):
        assert len(CERTIFICATE_POINTS) == 17
        assert sorted({(g, w) for g, w, _ in CERTIFICATE_POINTS}) == \
            [(4, 2), (5, 3), (6, 3), (6, 4), (7, 4), (7, 5)]
        assert len(CERTIFICATE_GROUNDS) == 14
        assert sum(w < g - 1 for g, w, _ in CERTIFICATE_SCAN) == 73
        assert all(total for g, w, _, total in self.EXPECTED if w == g - 1)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_collapsed(self, jobs):
        assert [(g, w, c, sum_collapsed(certificate_instance(c, w), jobs=jobs).total)
                for g, w, c in CERTIFICATE_SCAN] == self.EXPECTED
        assert_no_child_left()

    def test_pointed(self):
        assert [(g, w, c, sum_pointed(certificate_instance(c, w)))
                for g, w, c in CERTIFICATE_SCAN] == self.EXPECTED

    def test_p1_plus_t_breaks_the_band_first_at_5_3(self, monkeypatch):
        # positive control: P_1 + t keeps P_1(0) = 0 and P_1's denominators.
        # At g = 4 the band still reads 0 and only the top catches it
        real = config_sums.eval_P
        monkeypatch.setattr(config_sums, "eval_P",
                            lambda v, t: real(v, t) + t if v == 1 else real(v, t))
        top = certificate_instance((1, 1, 1, 1), 3)
        assert sum_collapsed(top).total == sum_pointed(top) == -10
        assert closed_form(top.ground) == -6
        for g, w, c in CERTIFICATE_SCAN:
            if w < g - 1:
                inst = certificate_instance(c, w)
                totals = sum_collapsed(inst).total, sum_pointed(inst)
                if any(totals):
                    break
        assert (g, w, c, totals) == (5, 3, (1, 1, 1, 1, 1), (-15, -15))


def top_layer_plan():
    # w = g-1 entries: three seeded random grounds for each g = 2..7, then
    # every certificate ground (sample index 0)
    seeded = (e for g in range(2, 8) for e in random_entries(g, g - 1, "asserted", 3, seed=0))
    return chain(seeded, (SweepEntry(certificate_instance(c, len(c) - 1), "asserted")
                          for c in CERTIFICATE_GROUNDS))


class TestNonzeroPath:
    """``run_plan`` confirms true nonzero totals: at ``w = g-1`` every total is
    the closed form, and each nonzero one meets the pointed oracle and a fresh
    seeded ground, as a counterexample would, and reaches its ledger record."""

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_every_nonzero_total_is_confirmed(self, jobs):
        verdicts = Counter()
        for entry in run_plan(top_layer_plan(), seed=0, jobs=jobs):
            inst, total, conf = entry.instance, entry.result.total, entry.confirmation
            expected = closed_form(inst.ground)
            assert total == expected
            verdicts[entry.seed is not None, entry.result.verdict] += 1
            if not expected:  # a ground that holds 0, or t in 1..g-2
                assert entry.result.verdict == "zero" and conf is None
                continue
            assert entry.result.verdict == "nonzero"
            _, rng = config_sums.seeded_rng(0, inst.g, inst.w, entry.sample_index,
                                            confirming=True)
            second = random_ground(inst.g, rng)
            assert conf == (total, second, closed_form(second))
            assert cli._entry_record("part1", entry).extra == {
                "oracle_total": value_str(total), "second_ground": second.describe(),
                "second_total": value_str(closed_form(second))}
        assert verdicts == {(True, "nonzero"): 15, (True, "zero"): 3,
                            (False, "nonzero"): len(CERTIFICATE_GROUNDS)}
        assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_a_shifted_walk_is_caught(self, monkeypatch, jobs):
        # positive control: the collapsed walk's scaled total plus one, in
        # every process that walks, must not be confirmed by the oracle
        real = config_sums._collapsed_partial

        def shifted(inst, table, part=0, parts=1):
            total, visited = real(inst, table, part, parts)
            return total + 1, visited

        monkeypatch.setattr(config_sums, "_collapsed_partial", shifted)
        with pytest.raises(ConsistencyError, match="pointed oracle disagree"):
            list(run_plan(top_layer_plan(), seed=0, jobs=jobs))
        assert_no_child_left()


class TestRandomGround:
    def test_limit_is_the_size_of_the_support(self):
        # every value random_ground can draw: the integers -12..12 and k/d, 2 <= d <= 9
        support = {Fraction(k, d) for k in range(-12, 13) for d in range(1, 10)}
        assert config_sums.RANDOM_G_MAX == len(support) == 143
        assert set(random_ground(143, random.Random(7)).values) == support

    def test_draws_match_a_plain_fraction_reference(self):
        # random_ground keys its seen-set by int pairs; the reference keys it
        # by Fraction.  The values, their order and the rng's state afterwards
        # must agree on every label, up to the full support at g = 143
        def reference(g, rng):
            values, seen = [], set()
            while len(values) < g:
                if rng.random() < 0.5:
                    q = Fraction(rng.randint(-12, 12))
                else:
                    q = Fraction(rng.randint(-12, 12), rng.randint(2, 9))
                if q not in seen:
                    seen.add(q)
                    values.append(q)
            return tuple(values)

        for g in (2, 3, 6, 7, 20, 80, 143):
            for i in range(40):
                label, rng = config_sums.seeded_rng(0, g, g - 2, i)
                _, ref_rng = config_sums.seeded_rng(0, g, g - 2, i)
                assert random_ground(g, rng).values == reference(g, ref_rng), label
                assert rng.getstate() == ref_rng.getstate(), label

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
        plan = list(sweep_plan(7))
        assert len(plan) == 82
        assert [(e.instance.g, e.instance.w, e.status, e.seed) for e in plan] == \
            symbolic + g6 + g7

    def test_smoke_plan(self):
        symbolic = [(g, w, "asserted", None) for g in range(2, 5) for w in range(g - 1)]
        g5 = [(5, w, "asserted", f"2/5/{w}/{i}") for w in range(4) for i in range(3)]
        plan = list(sweep_plan(5, symbolic_g_max=4, seed=2))
        assert len(plan) == 18
        assert [(e.instance.g, e.instance.w, e.status, e.seed) for e in plan] == \
            symbolic + g5
        assert [e.instance.mode for e in plan] == ["symbolic"] * 6 + ["numeric"] * 12

    def test_each_ground_is_drawn_when_its_entry_is_reached(self, monkeypatch):
        # sweep_plan(80) plans 3221 entries; its ten symbolic ones come first
        # and draw nothing, and the first numeric one costs exactly one draw
        drawn = []
        real = config_sums.random_ground
        monkeypatch.setattr(config_sums, "random_ground",
                            lambda g, rng: drawn.append(g) or real(g, rng))
        plan = sweep_plan(80)
        assert all(e.instance.mode == "symbolic" for e in islice(plan, 10)) and drawn == []
        first = next(plan)
        assert drawn == [6] and first.seed == "0/6/0/0"
        assert first.instance.ground == real(6, config_sums.seeded_rng(0, 6, 0, 0)[1])


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

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_a_run_holds_only_the_entries_in_flight(self, jobs):
        # sweep_plan(6) is 60 entries; each ground is drawn when its entry
        # starts and let go once the entry is handed back, so the live
        # GroundSets never outnumber the entries in flight
        def live():
            return sum(isinstance(o, GroundSet) for o in gc.get_objects())

        before, most, done = live(), 0, 0
        for entry in run_plan(sweep_plan(6), seed=0, jobs=jobs):
            assert entry.result.verdict == "zero"
            most, done = max(most, live() - before), done + 1
        assert done == 60 and most <= 5
        assert_no_child_left()

    def test_a_serial_record_times_only_its_own_walk(self):
        # at jobs=1 the next entry is started before a finished one is handed
        # back, but walked only when it is finished, so the time the caller
        # spends between records is not charged to the next one
        inst = numeric_instance(4, 2, [2, 3, 5, 7])
        entries = run_plan([SweepEntry(inst, "asserted")] * 2, seed=0, jobs=1)
        next(entries)
        time.sleep(0.3)
        second = next(entries)
        assert second.result.total == 0 and second.result.elapsed < 0.3

    def test_reproducible_with_same_seed(self):
        a = run_sweep_plan(5, seed=5, symbolic_g_max=4)
        b = run_sweep_plan(5, seed=5, symbolic_g_max=4)
        grounds_a = [e.result.instance.ground for e in a if e.instance.mode == "numeric"]
        grounds_b = [e.result.instance.ground for e in b if e.instance.mode == "numeric"]
        assert grounds_a == grounds_b
