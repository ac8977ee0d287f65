"""Unordered set partitions and ground sets.

Elements of the g-element ground set are bit positions 0..g-1; blocks are
machine-word bitmasks, and a partition is a plain tuple of block masks, so
canonical forms are trivially hashable and cheap to compare, and
:meth:`GroundSet.block_sum` maps a block to the sum of its ground values,
read off the ground's one block-sum table, :attr:`GroundSet.scaled_sums`
(ints over a common denominator on a numeric ground; on a symbolic one,
``MultiPoly`` in ``Q[c1..cg]``, whose coordinates share one registry).
Enumeration is streaming and deterministic: identical input always yields
identical order.  Unordered partitions are walked block by block (the block
holding the lowest remaining element, then the rest), so partitions sharing
their first k blocks come out consecutively; the collapsed configuration
sum relies only on k = 1, each first block's partitions coming out together.

The unordered stream is sharded by partition count: shard ``part`` of
``parts`` is one run of consecutive choices of the block containing element
0, cut so that the shards hold near-equal numbers of partitions.  The shards
tile the stream exactly, in order, which is how one configuration-sum
instance is split across worker processes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from .algebra import MultiPoly, _as_fraction, _as_int

__all__ = [
    "GroundSet",
    "iter_unordered_partitions",
    "unordered_partition_count",
]


class GroundSet(NamedTuple("_GroundSet", [("values", tuple)])):
    """g distinct values: all exact rationals, or the coordinates of ``Q[c1..cg]``,
    each on the ring's one registry ``("c1", ..., "cg")``; the values say which,
    and are checked however the ground is built (rationals stored as Fractions)."""

    # no __slots__: cached_property keeps scaled_sums in the instance __dict__,
    # writing it directly, so every assignment can be refused
    def __setattr__(self, name, value):
        raise AttributeError(f"GroundSet is immutable: cannot set {name!r}")

    def __new__(cls, values: Sequence):
        values = tuple(values)
        if values and all(isinstance(v, MultiPoly) for v in values):
            if any(v.vars != c.vars or v.terms != c.terms
                   for v, c in zip(values, _coordinates(len(values)))):
                raise ValueError("symbolic ground values must be the coordinates c1..cg")
        else:
            values = tuple(_as_fraction(v) for v in values)
            if len(set(values)) != len(values):
                raise ValueError("ground values must be pairwise distinct")
        return super().__new__(cls, values)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @classmethod
    def numeric(cls, values: Sequence) -> "GroundSet":
        return cls(_as_fraction(v) for v in values)

    @classmethod
    def symbolic(cls, g: int) -> "GroundSet":
        g = _as_int(g, "ground size")
        if g < 1:
            raise ValueError("need at least one element")
        return cls(_coordinates(g))

    @property
    def g(self) -> int:
        return len(self.values)

    @property
    def is_symbolic(self) -> bool:  # a nonempty tuple of MultiPoly
        return bool(self.values) and all(isinstance(v, MultiPoly) for v in self.values)

    @cached_property
    def scaled_sums(self) -> tuple:
        """``(D, sums)``, the ground's one block-sum table, built once on first use.

        ``sums[mask]`` is ``D`` times the block sum of ``mask``, for every mask
        below ``2^g``: each is one addition, the lowest element plus the mask
        without it.  On a numeric ground ``D`` is the lcm of the values'
        denominators and the sums are ints; on a symbolic ground ``D = 1``
        and the sums are ``MultiPoly`` on the ring's one registry.
        :meth:`block_sum` reads it, so every route that sums blocks of this
        ground sees the same sums.
        """
        if self.is_symbolic:
            den, scaled = 1, self.values
        else:
            den = lcm(*(v.denominator for v in self.values))
            scaled = [v.numerator * (den // v.denominator) for v in self.values]
        sums = [0] * (1 << self.g)
        for mask in range(1, 1 << self.g):
            low = mask & -mask
            sums[mask] = scaled[low.bit_length() - 1] + sums[mask ^ low]
        return den, tuple(sums)

    def block_sum(self, mask: int):
        """Sum of the values at the set bits of ``mask``, ``sums[mask] / D``
        from :attr:`scaled_sums`: a ``Fraction`` on a numeric ground, the
        ``MultiPoly`` itself on a symbolic one, and 0 for the empty mask."""
        den, sums = self.scaled_sums
        return sums[mask] if self.is_symbolic else Fraction(sums[mask], den)

    def describe(self) -> str:
        if self.is_symbolic:
            return ",".join(self.values[0].vars)
        return ",".join(str(v) for v in self.values)


def _coordinates(g: int) -> tuple:
    # c1..cg as MultiPoly, each on the one registry ("c1", ..., "cg")
    names = tuple(f"c{i + 1}" for i in range(g))
    return tuple(MultiPoly(names, {tuple(int(j == i) for j in range(g)): 1})
                 for i in range(g))


def _block_walk(rest: int, blocks: list) -> Iterator[tuple]:
    """Partitions of the elements of ``rest``, appended to ``blocks``, one block per level.

    The next block is the lowest element of ``rest`` together with each subset
    of the others in turn, so the partitions sharing their first k blocks
    come out one after another.  Every yield is a set partition: each block
    is nonempty, is drawn from the elements still in ``rest`` and is removed
    from them before the next level, and a tuple is yielded only once
    ``rest`` is empty.  One loop runs the levels off an explicit stack of
    ``(lowest element, others, current subset)``, in the order a recursion
    level by level would take them.
    """
    stack = []
    while True:
        while rest:  # open each level at its first block, the lowest element alone
            low = rest & -rest
            rest ^= low
            stack.append((low, rest, 0))
            blocks.append(low)
        yield tuple(blocks)
        while stack:  # the deepest level with a subset left takes its next one
            low, others, sub = stack.pop()
            blocks.pop()
            if sub != others:
                sub = (sub - others) & others  # next subset of ``others`` in increasing order
                stack.append((low, others, sub))
                blocks.append(low | sub)
                rest = others ^ sub
                break
        else:
            return


def _first_block_run(g: int, part: int, parts: int) -> range:
    """The ``m`` of shard ``part``'s first blocks ``(m << 1) | 1``, cut by partition count.

    First block ``m`` heads ``Bell(g - 1 - popcount(m))`` partitions.  It
    starts the next shard once the midpoint of its partitions reaches that
    shard's share of ``Bell(g)``, or once no more first blocks are left than
    shards to start, so only shards past the ``2^(g-1)``-th are empty.
    """
    n = 1 << (g - 1)
    parts = min(parts, n)
    if part >= parts:
        return range(0)
    bell = [unordered_partition_count(k) for k in range(g + 1)]
    starts, below = [], 0
    for m in range(n):
        size = bell[g - 1 - m.bit_count()]
        if len(starts) <= max(parts * (2 * below + size) // (2 * bell[g]), parts - (n - m)):
            starts.append(m)
        below += size
    starts.append(n)
    return range(starts[part], starts[part + 1])


def iter_unordered_partitions(g: int, part: int = 0, parts: int = 1) -> Iterator[tuple]:
    """Yield each unordered partition of {0..g-1} as a tuple of block masks.

    Blocks come sorted by smallest element (the canonical form), and the
    stream walks them block by block: partitions that share their first k
    blocks are yielded consecutively (the collapsed sum needs only k = 1).
    Shard ``part`` of ``parts`` is one run of consecutive first blocks, cut
    by partition count (:func:`_first_block_run`); the shards
    ``0..parts-1``, concatenated, are the stream.
    """
    if g < 1:
        raise ValueError("need at least one element")
    if not 0 <= part < parts:
        raise ValueError(f"need 0 <= part < parts, got part={part}, parts={parts}")
    full = (1 << g) - 1
    for m in _first_block_run(g, part, parts):
        first = (m << 1) | 1
        yield from _block_walk(full ^ first, [first])


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    # second kind; feeds the Bell count the collapsed route checks its
    # visits against
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def unordered_partition_count(g: int) -> int:
    return sum(_stirling2(g, r) for r in range(1, g + 1)) if g else 1
