"""Signed configuration-sum verifier.

For parameters ``g >= 2`` and ``0 <= w <= g-2`` and a ground set of g
distinct values, every weighted configuration (ordered set partition with
per-block weights summing to w) is assigned the evaluation

    (-1)^r * (1/r) * prod_i P_{w_i}(t_i)

where ``r`` is the block count, ``t_i`` the block sum, and ``P`` the
offset-diagonal Stirling polynomial.  The conjecture under test is that the
sum of evaluations over all distinct weighted configurations is exactly zero.

Two independent summation routes are provided:

* :func:`sum_ordered` -- the literal definition, enumerating every ordered
  configuration and weight composition.  Retained as the oracle.
* :func:`sum_collapsed` -- the production path.  The evaluation does not
  depend on block order, so an unordered partition with r blocks stands for
  r! identical ordered terms and carries the factor ``(-1)^r (r-1)!``; the
  inner sum over weight compositions is the degree-w coefficient of the
  truncated product ``prod_i (sum_v P_v(t_i) y^v)``, an exact regrouping.
  Partitions come block by block, so consecutive ones share their first
  blocks: the truncated products of those are kept, only the blocks after
  them are convolved, and ``[y^w]`` is a dot product with the last block.

On numeric grounds the collapsed route runs in Python ints.  With ``D`` the
lcm of the ground's denominators and ``K`` the lcm of the coefficient
denominators of ``P_1..P_w``, set ``lam = K * D^2``: then ``lam^v P_v(t)`` is an
integer for every block sum ``t`` and ``v <= w``.  The substitution
``y -> y / lam`` is a ring automorphism, so each partition's ``[y^w]`` is
scaled by exactly ``lam^w`` and the total is ``N / lam^w`` for the integer sum
``N``.  A block value that the scaling does not clear raises
:class:`ConsistencyError`.  Every partition is still visited, and the visit
count is checked against the Bell number.  :func:`sum_ordered` stays in
``Fraction`` arithmetic, so the two routes share no summation kernel.

Any nonzero total is treated as a potential counterexample and re-verified
through the independent route (plus a fresh ground set in numeric mode)
before being reported.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Iterator, Optional, Union

from .algebra import ConsistencyError, MultiPoly, _as_int
from .partitions import (
    GroundSet,
    count_weighted_configs,
    iter_ordered_partitions,
    iter_unordered_partitions,
    unordered_partition_count,
    weight_compositions,
)
from .stirling import eval_P, eval_P_symbolic, stirling_poly

__all__ = [
    "ConfigSumInstance",
    "ConfigSumResult",
    "NonzeroConfirmation",
    "SweepEntry",
    "sum_ordered",
    "sum_collapsed",
    "random_ground",
    "double_check_nonzero",
    "random_entries",
    "sweep_plan",
    "run_plan",
    "instance_rng",
    "BASELINE_RANGE",
]

SumValue = Union[Fraction, MultiPoly]

# (g, max asserted w) pairs this engine verifies by default in a sweep
BASELINE_RANGE = tuple([(g, g - 2) for g in range(2, 7)] + [(7, 3)])

# seeded grounds a sweep draws per numeric (g, w): asserted ones by g (3 for a
# g not listed), exploratory ones 1; part1 --random draws more with the same seeds
SWEEP_SAMPLES = {6: 10, 7: 5}


@dataclass(frozen=True)
class ConfigSumInstance:
    g: int
    w: int
    ground: GroundSet

    def __post_init__(self):
        g, w = _as_int(self.g, "g"), _as_int(self.w, "w")
        if g < 2:
            raise ValueError("need g >= 2")
        if not 0 <= w <= g - 2:
            raise ValueError(f"need 0 <= w <= g-2, got w={w} for g={g}")
        if self.ground.g != g:
            raise ValueError("ground set size does not match g")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "w", w)

    @classmethod
    def make(cls, g: int, w: int, ground: GroundSet) -> "ConfigSumInstance":
        return cls(g, w, ground)

    @property
    def mode(self) -> str:
        return "symbolic" if self.ground.is_symbolic else "numeric"


@dataclass(frozen=True)
class ConfigSumResult:
    instance: ConfigSumInstance
    total: SumValue
    configurations_visited: int
    elapsed: float

    @property
    def verdict(self) -> str:
        return "zero" if self.total == 0 else "nonzero"


class _BlockValues:
    """Per-run cache of P_v(block sum) vectors keyed by block mask.

    With ``scale`` set (numeric grounds), each vector is stored as the ints
    ``scale^v * P_v(t)``; a value the scaling does not clear is an engine bug.
    """

    def __init__(self, ground: GroundSet, w_max: int, scale: Optional[int] = None):
        self.ground = ground
        self.w_max = w_max
        self._cache = {}
        self._eval = eval_P_symbolic if ground.is_symbolic else eval_P
        self._powers = None if scale is None else [scale ** v for v in range(w_max + 1)]

    def vector(self, mask: int) -> tuple:
        vec = self._cache.get(mask)
        if vec is None:
            t = self.ground.block_sum(mask)
            vec = tuple(self._eval(v, t) for v in range(self.w_max + 1))
            if self._powers is not None:
                vec = _scaled_to_int(vec, self._powers)
            self._cache[mask] = vec
        return vec


def _scaled_to_int(vec: tuple, powers: list) -> tuple:
    out = []
    for power, value in zip(powers, vec):
        scaled = power * value
        if scaled.denominator != 1:
            raise ConsistencyError(
                f"block value {value} times scale {power} is not an integer")
        out.append(scaled.numerator)
    return tuple(out)


def _zero(ground: GroundSet) -> SumValue:
    return MultiPoly.zero() if ground.is_symbolic else Fraction(0)


def sum_ordered(inst: ConfigSumInstance) -> ConfigSumResult:
    """Literal sum over every (ordered configuration, weight composition) pair."""
    start = time.perf_counter()
    ground = inst.ground
    values = _BlockValues(ground, inst.w)
    total = _zero(ground)
    visited = 0
    for blocks in iter_ordered_partitions(inst.g):
        r = len(blocks)
        factor = Fraction((-1) ** r, r)
        vectors = [values.vector(mask) for mask in blocks]
        for weights in weight_compositions(inst.w, r):
            prod = vectors[0][weights[0]]
            for i in range(1, r):
                prod = prod * vectors[i][weights[i]]
            total = total + prod * factor
            visited += 1
    expected = count_weighted_configs(inst.g, inst.w)
    if visited != expected:
        raise ConsistencyError(
            f"visited {visited} weighted configurations, expected {expected}")
    return ConfigSumResult(inst, total, visited, time.perf_counter() - start)


def _conv_truncated(acc, vec: tuple, w: int, zero) -> list:
    """Coefficients of ``y^0..y^w`` in ``acc(y) * vec(y)``, summed from the ring's zero."""
    out = [zero] * (w + 1)
    for i, a in enumerate(acc):
        if a == 0:
            continue
        for j in range(w + 1 - i):
            out[i + j] = out[i + j] + a * vec[j]
    return out


def _common_scale(inst: ConfigSumInstance) -> int:
    """``K * D^2``: scaled by its v-th power, every ``P_v(block sum)`` is an integer.

    ``D`` is the lcm of the ground's denominators (it clears every block sum)
    and ``K`` the lcm of the coefficient denominators of ``P_1..P_w``; a term
    of degree ``k <= 2v`` in ``P_v`` then picks up ``K^v D^(2v-k)`` times an
    integer.
    """
    d = lcm(*(v.denominator for v in inst.ground.values))
    k = lcm(*(c.denominator for v in range(1, inst.w + 1)
              for c in stirling_poly(v)))
    return k * d * d


def _collapsed_partial(inst: ConfigSumInstance, part: int = 0, parts: int = 1):
    """Sum of collapsed contributions over shard ``part`` of ``parts`` of the partition stream.

    Symbolic grounds multiply ``MultiPoly`` block series; numeric grounds
    multiply ints, scaled by :func:`_common_scale` (see the module docstring).
    ``prefix[k]`` holds the truncated product of blocks ``0..k`` of the last
    partition seen; the next partition keeps the entries of the blocks it
    shares with that one and convolves only the blocks after them.
    """
    w = inst.w
    if inst.ground.is_symbolic:
        zero, scale = MultiPoly.zero(), None
    else:
        zero, scale = 0, _common_scale(inst)
    values = _BlockValues(inst.ground, w, scale)
    signs = [0] + [(-1) ** r * factorial(r - 1) for r in range(1, inst.g + 1)]
    total = zero
    visited = 0
    prefix, held = [], ()
    for blocks in iter_unordered_partitions(inst.g, part, parts):
        r = len(blocks)
        keep, limit = 0, min(len(prefix), r - 1)
        while keep < limit and blocks[keep] == held[keep]:
            keep += 1
        del prefix[keep:]
        for k in range(keep, r - 1):
            vec = values.vector(blocks[k])
            prefix.append(_conv_truncated(prefix[-1], vec, w, zero) if k else vec)
        held = blocks
        last = values.vector(blocks[-1])
        if prefix:
            acc = prefix[-1]
            top = zero
            for i in range(w + 1):
                top = top + acc[i] * last[w - i]
        else:
            top = last[w]
        total = total + top * signs[r]
        visited += 1
    if scale is not None:
        total = Fraction(total, scale ** w)
    return total, visited


def sum_collapsed(inst: ConfigSumInstance, jobs: int = 1) -> ConfigSumResult:
    """Order-collapsed sum; exactly equals :func:`sum_ordered` by construction.

    With ``jobs > 1`` the unordered-partition stream is sharded by the block
    containing element 0 into ``min(jobs, 2^(g-1))`` shards, which run in
    worker processes; exact addition makes the merged total independent of
    scheduling.  Either way the number of partitions visited must be the
    Bell number of ``g``.
    """
    start = time.perf_counter()
    if jobs <= 1:
        total, visited = _collapsed_partial(inst)
    else:
        parts = min(jobs, 1 << (inst.g - 1))
        total = _zero(inst.ground)
        visited = 0
        with ProcessPoolExecutor(max_workers=parts) as pool:
            futures = [pool.submit(_collapsed_partial, inst, part, parts)
                       for part in range(parts)]
            for fut in futures:  # merge in submission order: deterministic
                partial, count = fut.result()
                total = total + partial
                visited += count
    expected = unordered_partition_count(inst.g)
    if visited != expected:
        raise ConsistencyError(f"visited {visited} partitions, expected {expected}")
    return ConfigSumResult(inst, total, visited, time.perf_counter() - start)


def random_ground(g: int, rng: random.Random) -> GroundSet:
    """g distinct seeded rationals: integers and proper fractions, signs mixed."""
    values = []
    seen = set()
    while len(values) < g:
        if rng.random() < 0.5:
            q = Fraction(rng.randint(-12, 12))
        else:
            q = Fraction(rng.randint(-12, 12), rng.randint(2, 9))
        if q not in seen:
            seen.add(q)
            values.append(q)
    return GroundSet.numeric(values)


@dataclass(frozen=True)
class NonzeroConfirmation:
    """Outcome of the double-verification protocol for a nonzero total."""

    ordered_total: SumValue
    second_ground: Optional[GroundSet]
    second_total: Optional[SumValue]


def double_check_nonzero(inst: ConfigSumInstance, total: SumValue,
                         rng: Optional[random.Random] = None) -> NonzeroConfirmation:
    """Re-verify a nonzero total before it is reported as a counterexample.

    The independent ordered route must reproduce the value exactly (a
    disagreement is an engine bug, raised as :class:`ConsistencyError`); in
    numeric mode the sum is additionally recomputed at a fresh ground set.
    """
    ordered = sum_ordered(inst)
    if ordered.total != total:
        raise ConsistencyError(
            "collapsed and ordered routes disagree on a nonzero total: "
            f"{total!r} vs {ordered.total!r}")
    second_ground = None
    second_total = None
    if not inst.ground.is_symbolic:
        rng = rng or random.Random(0)
        second_ground = random_ground(inst.g, rng)
        second = sum_collapsed(ConfigSumInstance.make(inst.g, inst.w, second_ground))
        second_total = second.total
    return NonzeroConfirmation(ordered.total, second_ground, second_total)


@dataclass(frozen=True)
class SweepEntry:
    """One planned configuration-sum instance; :func:`run_plan` fills in its outcome.

    ``seed`` names a random ground's ``instance_rng`` draw, ``"seed/g/w/i"``.
    """

    instance: ConfigSumInstance
    status: str  # asserted | exploratory | not_attempted
    sample_index: int = 0
    seed: Optional[str] = None  # None for symbolic and explicit grounds
    result: Optional[ConfigSumResult] = None
    confirmation: Optional[NonzeroConfirmation] = None


def instance_rng(seed: int, g: int, w: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{g}/{w}/{index}")


def random_entries(g: int, w: int, status: str, count: int, seed: int) -> list:
    """Entries ``0..count-1`` at ``(g, w)``, ground ``i`` from ``instance_rng(seed, g, w, i)``."""
    grounds = (random_ground(g, instance_rng(seed, g, w, i)) for i in range(count))
    return [SweepEntry(ConfigSumInstance(g, w, ground), status, i, f"{seed}/{g}/{w}/{i}")
            for i, ground in enumerate(grounds)]


def sweep_plan(g_max: int, *, symbolic_g_max: int = 5, seed: int = 0) -> list:
    """The default verification sweep up to ``g_max``, as unrun entries in run order.

    Ground-set policy: symbolic (proves the identity for every ground set)
    through ``symbolic_g_max``; seeded numeric sampling above that, with the
    counts of :data:`SWEEP_SAMPLES`.  Within the baseline range the instances
    are asserted; beyond it (g = 7 with w > 3, or g >= 8) they are exploratory.
    """
    asserted_w = dict(BASELINE_RANGE)
    plan = []
    for g in range(2, g_max + 1):
        for w in range(0, g - 1):
            asserted = g in asserted_w and w <= asserted_w[g]
            status = "asserted" if asserted else "exploratory"
            if g <= symbolic_g_max:
                plan.append(SweepEntry(ConfigSumInstance(g, w, GroundSet.symbolic(g)), status))
            else:
                count = SWEEP_SAMPLES.get(g, 3) if asserted else 1
                plan += random_entries(g, w, status, count, seed)
    return plan


def run_plan(plan: Iterable[SweepEntry], *, seed: int, jobs: int,
             deadline: Optional[float] = None) -> Iterator[SweepEntry]:
    """Run planned entries in order, yielding each with its ``result`` as soon as it is done.

    A nonzero total also gets the ``confirmation`` of :func:`double_check_nonzero`,
    whose fresh ground is drawn from ``instance_rng(seed + 1, g, w, sample_index)``.
    Once ``time.monotonic()`` passes ``deadline`` the remaining entries are
    yielded unrun as ``not_attempted``, never dropped.
    """
    for entry in plan:
        if deadline is not None and time.monotonic() > deadline:
            yield replace(entry, status="not_attempted")
            continue
        inst = entry.instance
        result = sum_collapsed(inst, jobs=jobs)
        confirmation = None
        if result.verdict == "nonzero":
            confirmation = double_check_nonzero(
                inst, result.total, instance_rng(seed + 1, inst.g, inst.w, entry.sample_index))
        yield replace(entry, result=result, confirmation=confirmation)
