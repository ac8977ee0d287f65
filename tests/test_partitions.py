"""Enumeration layer: ordered/unordered partitions, weights, ground sets."""

from fractions import Fraction
from math import comb, factorial

import pytest

from stirlingzero.algebra import MultiPoly
from stirlingzero.partitions import GroundSet, iter_unordered_partitions, unordered_partition_count

import partition_reference
from ordered_reference import count_weighted_configs, iter_ordered_partitions, weight_compositions

def brute_force_partitions(g):
    """Every set partition of {0..g-1} by inserting elements one at a time, canonical form."""
    parts = [[]]
    for e in range(g):
        grown = []
        for blocks in parts:
            for i in range(len(blocks)):
                grown.append(blocks[:i] + [blocks[i] | 1 << e] + blocks[i + 1:])
            grown.append(blocks + [1 << e])
        parts = grown
    return {tuple(sorted(blocks, key=lambda m: m & -m)) for blocks in parts}


def is_set_partition(blocks, g):
    """Disjoint nonempty blocks inside {0..g-1} that cover it."""
    full = (1 << g) - 1
    seen = 0
    for mask in blocks:
        if mask == 0 or mask & ~full or mask & seen:
            return False
        seen |= mask
    return seen == full


FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683}
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975}


class TestOrderedPartitions:
    def test_two_elements_by_hand(self):
        got = list(iter_ordered_partitions(2))
        expected = {
            (0b11,),
            (0b01, 0b10),
            (0b10, 0b01),
        }
        assert set(got) == expected
        assert len(got) == 3

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_counts_match_fubini(self, g):
        assert sum(1 for _ in iter_ordered_partitions(g)) == FUBINI[g]

    def test_no_duplicates(self):
        seen = set()
        for blocks in iter_ordered_partitions(4):
            assert blocks not in seen
            seen.add(blocks)

    def test_every_yield_is_valid(self):
        for blocks in iter_ordered_partitions(5):
            assert is_set_partition(blocks, 5)

    def test_deterministic_order(self):
        assert list(iter_ordered_partitions(4)) == list(iter_ordered_partitions(4))


class TestUnorderedPartitions:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7])
    def test_counts_match_bell(self, g):
        assert sum(1 for _ in iter_unordered_partitions(g)) == BELL[g]
        assert unordered_partition_count(g) == BELL[g]

    def test_three_elements_block_count_profile(self):
        by_r = {}
        for blocks in iter_unordered_partitions(3):
            by_r[len(blocks)] = by_r.get(len(blocks), 0) + 1
        assert by_r == {1: 1, 2: 3, 3: 1}

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_factorial_weighted_sum_is_fubini(self, g):
        assert sum(factorial(len(b)) for b in iter_unordered_partitions(g)) == FUBINI[g]

    def test_canonical_block_order(self):
        # blocks sorted by smallest element
        for blocks in iter_unordered_partitions(5):
            mins = [mask & -mask for mask in blocks]
            assert mins == sorted(mins)

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_stream_is_the_brute_force_set(self, g):
        stream = list(iter_unordered_partitions(g))
        assert len(stream) == len(set(stream)) == BELL[g]
        assert set(stream) == brute_force_partitions(g)

    @pytest.mark.parametrize("g", [4, 5, 6, 7])
    def test_shared_first_blocks_come_out_consecutively(self, g):
        stream = list(iter_unordered_partitions(g))
        for k in range(1, g + 1):
            runs = [key for i, key in enumerate(b[:k] for b in stream)
                    if i == 0 or key != stream[i - 1][:k]]
            assert len(runs) == len(set(runs)), f"a run of first {k} blocks is split"

    def test_first_block_fixes_the_first_level(self):
        # with one shard per first block, shard m is the run of first block (m << 1) | 1
        parts = 1 << 5
        whole = list(iter_unordered_partitions(6))
        for part in range(parts):
            run = [b for b in whole if b[0] == (part << 1) | 1]
            assert list(iter_unordered_partitions(6, part, parts)) == run

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
    def test_shards_tile_the_stream(self, g):
        whole = list(iter_unordered_partitions(g))
        firsts = list(dict.fromkeys(b[0] for b in whole))
        for parts in (1, 2, 3, 4):  # past 2^(g-1) first blocks for g <= 2
            shards = [list(iter_unordered_partitions(g, part, parts)) for part in range(parts)]
            assert sum(shards, []) == whole
            for shard in shards:
                # one run of consecutive first blocks of the whole stream
                mine = list(dict.fromkeys(b[0] for b in shard))
                if mine:
                    start = firsts.index(mine[0])
                    assert mine == firsts[start:start + len(mine)]

    @pytest.mark.parametrize("g", range(5, 11))
    def test_two_shards_split_the_partitions_evenly(self, g):
        sizes = [sum(1 for _ in iter_unordered_partitions(g, part, 2)) for part in range(2)]
        assert sum(sizes) == BELL[g]
        assert max(sizes) <= 0.55 * BELL[g]

    @pytest.mark.parametrize("g", range(2, 10))
    def test_no_shard_is_empty(self, g):
        for parts in range(1, min(8, 1 << (g - 1)) + 1):
            for part in range(parts):
                assert next(iter_unordered_partitions(g, part, parts), None) is not None, (part, parts)

    @pytest.mark.parametrize("g", range(1, 10))
    def test_stream_is_the_recursive_reference(self, g):
        # the stack walk yields the recursion's tuples in the recursion's order
        assert list(iter_unordered_partitions(g)) == list(partition_reference.unordered_partitions(g))

    @pytest.mark.parametrize("g", range(1, 10))
    def test_every_shard_is_the_recursive_reference(self, g):
        for parts in sorted({1, 2, 3, 5, (1 << (g - 1)) + 1}):
            for part in range(parts):
                assert (list(iter_unordered_partitions(g, part, parts))
                        == list(partition_reference.unordered_partitions(g, part, parts))), (part, parts)

    def test_needs_an_element(self):
        with pytest.raises(ValueError, match="at least one element"):
            next(iter_unordered_partitions(0))

    def test_shard_validation(self):
        for part, parts in [(-1, 2), (2, 2), (3, 2), (0, 0), (0, -1)]:
            with pytest.raises(ValueError, match="part"):
                next(iter_unordered_partitions(3, part, parts))


class TestWeightCompositions:
    def test_zero_weight(self):
        assert list(weight_compositions(0, 3)) == [(0, 0, 0)]

    def test_two_into_two(self):
        assert list(weight_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_one_into_three(self):
        got = list(weight_compositions(1, 3))
        assert len(got) == 3
        assert all(sum(v) == 1 for v in got)

    @pytest.mark.parametrize("w,r", [(0, 1), (3, 2), (4, 3), (5, 4)])
    def test_counts_are_binomials(self, w, r):
        got = list(weight_compositions(w, r))
        assert len(got) == comb(w + r - 1, r - 1)
        assert len(set(got)) == len(got)
        assert all(sum(v) == w and len(v) == r for v in got)


class TestBlockSums:
    def test_numeric(self):
        ground = GroundSet.numeric([2, 3, 4])
        assert ground.block_sum(0b001) == Fraction(2)
        assert ground.block_sum(0b110) == Fraction(7)

    def test_single_block(self):
        ground = GroundSet.numeric([Fraction(1, 2), 5, -3])
        assert ground.block_sum(0b111) == Fraction(5, 2)

    def test_symbolic(self):
        ground = GroundSet.symbolic(2)
        c1, c2 = MultiPoly.variable("c1"), MultiPoly.variable("c2")
        assert ground.block_sum(0b11) == c1 + c2
        with pytest.raises(ValueError, match="not an integer"):
            GroundSet.symbolic(True)

    def test_scaled_sums_over_the_common_denominator(self):
        # every mask's entry is D times the sum of its values, one table per ground
        values = [Fraction(-7, 6), Fraction(3, 4), Fraction(5), Fraction(-2, 9)]
        ground = GroundSet.numeric(values)
        den, sums = ground.scaled_sums
        assert den == 36
        assert len(sums) == 16 and sums[0] == 0
        for mask in range(16):
            total = sum(v for i, v in enumerate(values) if mask >> i & 1)
            assert sums[mask] == total * den
            assert ground.block_sum(mask) == total
        assert ground.scaled_sums is ground.scaled_sums
        assert GroundSet.symbolic(2).scaled_sums[0] == 1  # symbolic sums need no denominator

    def test_symbolic_table_holds_the_element_order_sums(self):
        ground = GroundSet.symbolic(4)
        den, sums = ground.scaled_sums
        assert den == 1
        assert len(sums) == 16
        for mask in range(1, 16):
            members = [v for i, v in enumerate(ground.values) if mask >> i & 1]
            total = members[0]
            for v in members[1:]:
                total = total + v
            assert sums[mask] == total
            assert ground.block_sum(mask) is sums[mask]
        assert ground.scaled_sums is ground.scaled_sums

    def test_empty_block_sums_to_zero(self):
        assert GroundSet.numeric([Fraction(1, 2), 3]).block_sum(0) == 0
        assert GroundSet.symbolic(2).block_sum(0) == 0

    def test_total_is_ground_total(self):
        ground = GroundSet.numeric([1, 4, 9, 16])
        for blocks in iter_ordered_partitions(4):
            assert sum(ground.block_sum(mask) for mask in blocks) == 30


class TestCountWeightedConfigs:
    def test_examples(self):
        assert count_weighted_configs(3, 0) == 13
        assert count_weighted_configs(3, 1) == 31
        assert count_weighted_configs(2, 0) == 3

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("w", [0, 1, 2, 3, 4])
    def test_matches_enumerators(self, g, w):
        total = 0
        for blocks in iter_ordered_partitions(g):
            total += sum(1 for _ in weight_compositions(w, len(blocks)))
        assert total == count_weighted_configs(g, w)


class TestGroundSet:
    def test_numeric_values_may_repeat(self):
        # a repeated value is one more point of a polynomial identity: the two
        # equal values keep their own bit positions and block sums
        ground = GroundSet.numeric([1, 2, Fraction(2)])
        assert ground.values == (Fraction(1), Fraction(2), Fraction(2))
        assert ground.g == 3 and ground.describe() == "1,2,2"
        assert ground.block_sum(0b010) == ground.block_sum(0b100) == 2
        assert ground.block_sum(0b011) == ground.block_sum(0b101) == 3
        assert ground.block_sum(0b111) == 5

    def test_numeric_takes_exact_rationals_only(self):
        for bad in (0.1, 2.0, "1/2", True):
            with pytest.raises(TypeError, match="exact rational"):
                GroundSet.numeric([bad, 2])
        assert GroundSet.numeric([Fraction(1, 10), 2]).values == (Fraction(1, 10), Fraction(2))

    @pytest.mark.parametrize("values", [(True, 2, 3), (1.5, 2.0, 3.0), ("1/2", 2)],
                             ids=["bool", "float", "text"])
    def test_constructor_takes_exact_rationals_only(self, values):
        # every way of building a ground checks it, not only GroundSet.numeric
        with pytest.raises(TypeError, match="exact rational"):
            GroundSet(values)
        with pytest.raises(TypeError, match="exact rational"):
            GroundSet.numeric([1, 2])._replace(values=values)
        with pytest.raises(TypeError, match="exact rational"):
            GroundSet._make([values])

    def test_constructor_stores_fractions_repeats_included(self):
        ground = GroundSet((1, Fraction(1, 2)))
        assert ground == GroundSet.numeric([1, Fraction(1, 2)])
        assert all(type(v) is Fraction for v in ground.values)
        repeated = GroundSet((1, Fraction(2, 2)))
        assert repeated == GroundSet.numeric([1, 1])
        assert all(type(v) is Fraction for v in repeated.values)

    def test_symbolic_values_must_be_the_coordinates(self):
        c = GroundSet.symbolic(3).values
        assert GroundSet(c) == GroundSet.symbolic(3)
        assert GroundSet((MultiPoly.variable("c1"),)) == GroundSet.symbolic(1)
        for bad in (c[::-1], (c[0], c[1], c[0]), (c[0] + c[1], c[1], c[2]), (c[0] * 2, c[1], c[2]),
                    tuple(v.with_vars(("c1", "c2", "c3", "c4")) for v in c),
                    (MultiPoly.variable("c1"), MultiPoly.variable("c2"))):
            with pytest.raises(ValueError, match="coordinates"):
                GroundSet(bad)
        with pytest.raises(TypeError, match="exact rational"):
            GroundSet.numeric(c)

    def test_symbolic_names(self):
        g = GroundSet.symbolic(3)
        assert all(v.vars == ("c1", "c2", "c3") for v in g.values)
        assert g.describe() == "c1,c2,c3"
        assert g.is_symbolic

    def test_values_are_the_only_field(self):
        # the kind and the names of a ground are read off its values
        assert GroundSet._fields == ("values",)
        assert not hasattr(GroundSet, "names")
        with pytest.raises(TypeError):
            GroundSet((Fraction(1), Fraction(2)), True)

    @pytest.mark.parametrize("ground, symbolic", [
        (GroundSet.symbolic(3), True),
        (GroundSet.numeric([]), False),
        (GroundSet.numeric([1, 2]), False),
    ], ids=["symbolic", "empty", "numeric"])
    def test_is_symbolic_reads_the_values(self, ground, symbolic):
        assert ground.is_symbolic is symbolic

    @pytest.mark.parametrize("g", [1, 2, 4, 10])
    def test_symbolic_ground_is_one_ring(self, g):
        # every coordinate and every nonempty block sum on one registry, in
        # numeric order (c10 after c9)
        ground = GroundSet.symbolic(g)
        names = tuple(f"c{i + 1}" for i in range(g))
        assert all(v.vars == names for v in ground.values)
        assert [v.used_vars() for v in ground.values] == [{name} for name in names]
        _, sums = ground.scaled_sums
        assert all(sums[mask].vars == names for mask in range(1, 1 << g))

    def test_symbolic_needs_an_element(self):
        with pytest.raises(ValueError, match="at least one element"):
            GroundSet.symbolic(0)

    def test_describe(self):
        assert GroundSet.numeric([Fraction(1, 2), 3]).describe() == "1/2,3"
