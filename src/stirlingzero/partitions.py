"""Set partitions, weight compositions, and ground sets.

Elements of the g-element ground set are bit positions 0..g-1; blocks are
machine-word bitmasks, so canonical forms are trivially hashable and cheap to
compare, and :meth:`GroundSet.block_sum` maps a block to the sum of its
ground values.  Enumeration is streaming and deterministic: identical input
always yields identical order.  Unordered partitions are walked block by
block (the block holding the lowest remaining element, then the rest), so
partitions sharing their first k blocks come out consecutively, which lets
a consumer reuse work done on a common prefix of blocks.

A stream over unordered partitions can be split into independent sub-streams
by fixing the block containing element 0 (``first_block``); the sub-streams
partition the full stream exactly, which is what the parallel sweep code
relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Sequence

from .algebra import MultiPoly

__all__ = [
    "Configuration",
    "GroundSet",
    "iter_ordered_partitions",
    "iter_unordered_partitions",
    "split_handles",
    "weight_compositions",
    "count_weighted_configs",
    "ordered_partition_count",
    "unordered_partition_count",
]


@dataclass(frozen=True)
class Configuration:
    """An ordered sequence of disjoint nonempty blocks covering {0..g-1}."""

    g: int
    blocks: tuple

    def is_valid(self) -> bool:
        full = (1 << self.g) - 1
        seen = 0
        for mask in self.blocks:
            if mask == 0 or mask & ~full or mask & seen:
                return False
            seen |= mask
        return seen == full

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class GroundSet:
    """g distinct values: all exact rationals, or all named indeterminates."""

    values: tuple
    is_symbolic: bool

    @classmethod
    def numeric(cls, values: Sequence) -> "GroundSet":
        vals = tuple(Fraction(v) for v in values)
        if len(set(vals)) != len(vals):
            raise ValueError("ground values must be pairwise distinct")
        return cls(vals, False)

    @classmethod
    def symbolic(cls, g: int) -> "GroundSet":
        if g < 1:
            raise ValueError("need at least one element")
        vals = tuple(MultiPoly.variable(f"c{i + 1}") for i in range(g))
        return cls(vals, True)

    @property
    def g(self) -> int:
        return len(self.values)

    def names(self) -> tuple:
        if not self.is_symbolic:
            raise ValueError("numeric ground set has no variable names")
        return tuple(v.vars[0] for v in self.values)

    def block_sum(self, mask: int):
        """Sum of the values at the set bits of ``mask``, in element order."""
        vals = self.values
        total = None
        while mask:
            low = mask & -mask
            v = vals[low.bit_length() - 1]
            total = v if total is None else total + v
            mask ^= low
        return total

    def describe(self) -> str:
        if self.is_symbolic:
            return ",".join(self.names())
        return ",".join(str(v) for v in self.values)


def _block_walk(rest: int, blocks: list) -> Iterator[tuple]:
    """Partitions of the elements of ``rest``, appended to ``blocks``, one block per level.

    The next block is the lowest element of ``rest`` together with each subset
    of the others in turn, so the partitions sharing their first k blocks
    come out one after another.
    """
    if not rest:
        yield tuple(blocks)
        return
    low = rest & -rest
    others = rest ^ low
    sub = 0
    while True:
        blocks.append(low | sub)
        yield from _block_walk(others ^ sub, blocks)
        blocks.pop()
        if sub == others:
            return
        sub = (sub - others) & others  # next subset of ``others`` in increasing order


def iter_unordered_partitions(g: int, first_block: int | None = None):
    """Yield ``(configuration, block_count)`` per unordered partition of {0..g-1}.

    Blocks come sorted by smallest element (the canonical form), and the
    stream walks them block by block: partitions that share their first k
    blocks are yielded consecutively.  With ``first_block`` set, the walk's
    first level is fixed to that mask (the block containing element 0); over
    all masks from :func:`split_handles` this tiles the full stream exactly
    once.
    """
    if g < 1:
        raise ValueError("need at least one element")
    full = (1 << g) - 1
    if first_block is None:
        walk = _block_walk(full, [])
    elif not first_block & 1 or first_block & ~full:
        raise ValueError("first_block must contain element 0 and fit the ground set")
    else:
        walk = _block_walk(full ^ first_block, [first_block])
    for blocks in walk:
        cfg = Configuration(g, blocks)
        assert cfg.is_valid()
        yield cfg, len(blocks)


def split_handles(g: int) -> list:
    """Masks (each containing element 0) indexing independent sub-streams."""
    return [(m << 1) | 1 for m in range(1 << (g - 1))]


def iter_ordered_partitions(g: int) -> Iterator[Configuration]:
    """Every ordered set partition of {0..g-1}, exactly once, deterministically."""
    for cfg, r in iter_unordered_partitions(g):
        for perm in itertools.permutations(range(r)):
            out = Configuration(g, tuple(cfg.blocks[i] for i in perm))
            assert out.is_valid()
            yield out


def weight_compositions(w: int, r: int) -> Iterator[tuple]:
    """All weak compositions of w into r ordered parts, lexicographically."""
    if w < 0 or r < 1:
        raise ValueError("need w >= 0 and r >= 1")
    if r == 1:
        yield (w,)
        return
    for first in range(w + 1):
        for rest in weight_compositions(w - first, r - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    # second kind; test scaffolding for enumeration counts only
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def unordered_partition_count(g: int) -> int:
    return sum(_stirling2(g, r) for r in range(1, g + 1)) if g else 1


def ordered_partition_count(g: int) -> int:
    """Fubini number: ordered set partitions of a g-set."""
    return sum(factorial(r) * _stirling2(g, r) for r in range(1, g + 1)) if g else 1


def count_weighted_configs(g: int, w: int) -> int:
    """Closed-form total the enumerators must reproduce exactly."""
    if g < 1 or w < 0:
        raise ValueError("need g >= 1 and w >= 0")
    return sum(
        factorial(r) * _stirling2(g, r) * comb(w + r - 1, r - 1)
        for r in range(1, g + 1))
