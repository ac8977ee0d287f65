"""Signed configuration-sum verifier.

For parameters ``g >= 2`` and ``0 <= w <= g-2`` and a ground set of g
distinct values, every weighted configuration (ordered set partition with
per-block weights summing to w) is assigned the evaluation

    (-1)^r * (1/r) * prod_i P_{w_i}(t_i)

where ``r`` is the block count, ``t_i`` the block sum, and ``P`` the
offset-diagonal Stirling polynomial.  The conjecture under test is that the
sum of evaluations over all distinct weighted configurations is exactly zero.

Write ``a(S) = sum_v P_v(t_S) y^v``, truncated at ``y^w``, for the block
series of a set ``S`` of elements.  Two independent summation routes are
provided:

* :func:`sum_collapsed` -- the production path.  The evaluation does not
  depend on block order, so an unordered partition with r blocks stands for
  r! identical ordered terms and carries the factor ``(-1)^r (r-1)!``; the
  inner sum over weight compositions is the degree-w coefficient of the
  truncated product ``prod_i a(B_i)``, an exact regrouping.  It is met in
  the middle: a partition of r blocks is split after its first
  ``ceil(r/2)``, and each half's truncated product is memoized by its block
  tuple, built from the tuple without its last block; the first halves are
  dropped when the first block changes.  Each product is convolved once, and
  a partition's ``[y^w]`` is one dot product of its two halves, added to
  the sum of its block count ``r``, which is signed once.  Every block
  series has constant term ``P_0 = 1`` (a block value that breaks this
  raises :class:`ConsistencyError`), so the convolutions and dot products
  skip the products with ``y^0``; both read the index pairs of the rest off
  one table per ``w``, :func:`_pairs`.  The series of every nonempty mask is
  in the instance's block table, plain data indexed by mask, built by the
  process that walks, before its walk: here at ``jobs = 1``, else in each
  forked worker, one per shard or per entry run side by side.
* :func:`sum_pointed` -- the oracle, with no partition walk.  The signed
  sum over partitions is ``-[y^w]`` of the set-function log ``l`` of ``a``
  at the full set (the joint cumulant over the partition lattice; T. P.
  Speed, *Cumulants and partition lattices*, 1983).  Grouping the
  partitions of ``S`` by the block ``T`` that holds element 0 gives
  ``a(S) = sum_{0 in T subset S} l(T) a(S - T)`` with ``a(empty) = 1``, so
  ``l`` is computed on the sets that hold element 0, in increasing mask
  order, from ``3^(g-1) - 2^(g-1)`` truncated products.

The collapsed route runs in integers.  With ``D`` the lcm of the ground's
denominators (1 on a symbolic ground) and ``K`` the lcm of the coefficient
denominators of ``P_1..P_w``, ``lam = K * D^2`` makes each ``lam^v P_v(t)``,
``v <= w``, an integer or an integer polynomial in ``c1..cg``.  ``y -> y / lam``
is a ring automorphism, so each ``[y^w]`` is scaled by exactly ``lam^w``, and
the merged total (ints, or packed ``_IntPoly`` unpacked into ``MultiPoly``) is
divided by it once.  :func:`sum_pointed` stays in ``Fraction`` arithmetic on
the unscaled block values, so the two routes share no summation kernel.

Every block table comes from one exact fit per offset (:func:`_block_table`)
through the ground's evaluator at fixed points, not from ``stirling_poly``'s
coefficients: a fault that keeps the evaluator a polynomial of degree at
most ``2v`` reaches every mask as a per-mask evaluation would carry it, and
any other fault at a sampled point fails a witness
(:class:`~stirlingzero.algebra.PolynomialityError`).  The pointed oracle
evaluates every mask, so a nonzero total is checked against values the fit
did not make.

Any nonzero total is treated as a potential counterexample and re-verified
through the oracle (plus a fresh ground set in numeric mode) before being
reported.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from ._pool import ProcessPoolExecutor
from .algebra import ConsistencyError, MultiPoly, _as_int, _fit, _horner, _IntPoly, _Packer
from .partitions import GroundSet, iter_unordered_partitions, unordered_partition_count
from .stirling import eval_P, eval_P_symbolic, stirling_poly

__all__ = [
    "ConfigSumInstance",
    "ConfigSumResult",
    "NonzeroConfirmation",
    "SweepEntry",
    "sum_collapsed",
    "sum_pointed",
    "random_ground",
    "double_check_nonzero",
    "random_entries",
    "sweep_plan",
    "run_plan",
    "seeded_rng",
    "BASELINE_RANGE",
]

SumValue = Union[Fraction, MultiPoly]

# (g, max asserted w) pairs this engine verifies by default in a sweep
BASELINE_RANGE = tuple([(g, g - 2) for g in range(2, 7)] + [(7, 3)])

# seeded grounds a sweep draws per numeric (g, w): asserted ones by g (3 for a
# g not listed), exploratory ones 1; part1 --random draws more with the same seeds
SWEEP_SAMPLES = {6: 10, 7: 5}

RANDOM_G_MAX = 143  # random_ground's values: the integers -12..12 and k/d, 2 <= d <= 9


class ConfigSumInstance(NamedTuple("_ConfigSumInstance",
                                   [("g", int), ("w", int), ("ground", GroundSet)])):
    __slots__ = ()

    def __new__(cls, g: int, w: int, ground: GroundSet):
        g, w = _as_int(g, "g"), _as_int(w, "w")
        if g < 2:
            raise ValueError("need g >= 2")
        if not 0 <= w <= g - 2:
            raise ValueError(f"need 0 <= w <= g-2, got w={w} for g={g}")
        if ground.g != g:
            raise ValueError("ground set size does not match g")
        return super().__new__(cls, g, w, ground)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @classmethod
    def make(cls, g: int, w: int, ground: GroundSet) -> "ConfigSumInstance":
        return cls(g, w, ground)

    @property
    def mode(self) -> str:
        return "symbolic" if self.ground.is_symbolic else "numeric"


class ConfigSumResult(NamedTuple):
    instance: ConfigSumInstance
    total: SumValue
    configurations_visited: int
    elapsed: float

    @property
    def verdict(self) -> str:
        return "zero" if self.total == 0 else "nonzero"


class _BlockValues:
    """An instance's unscaled P_v(block sum) vectors keyed by block mask, each
    evaluated on first use: :func:`sum_pointed`'s per-mask evaluator, sharing
    none of :func:`_block_table`'s fits.  An offset-0 value other than 1, which
    the collapsed route's products take for granted, is an engine bug."""

    def __init__(self, ground: GroundSet, w_max: int):
        self.ground = ground
        self.w_max = w_max
        self._cache = {}
        self._eval = eval_P_symbolic if ground.is_symbolic else eval_P

    def vector(self, mask: int) -> tuple:
        vec = self._cache.get(mask)
        if vec is None:
            t = self.ground.block_sum(mask)
            vec = tuple(self._eval(v, t) for v in range(self.w_max + 1))
            if vec[0] != 1:
                raise ConsistencyError(f"offset-0 block value {vec[0]!r} is not 1")
            self._cache[mask] = vec
        return vec


@lru_cache(maxsize=None)
def _pairs(w: int) -> tuple:
    """``(n, ((i, n-i) for 1 <= i < n))`` for ``n = 1..w``: the index pairs of ``[y^n]``'s
    products of two nonconstant coefficients, built once per ``w``."""
    return tuple((n, tuple((i, n - i) for i in range(1, n))) for n in range(1, w + 1))


def _conv_truncated(acc, vec: tuple, w: int) -> list:
    """Coefficients of ``y^0..y^w`` in ``acc(y) * vec(y)``, both with constant term 1.

    The products with a constant term are additions, so ``[y^n]`` is
    ``acc[n] + vec[n]`` plus the products of the coefficients of ``y^1..y^(n-1)``,
    read off row ``n`` of the index-pair table :func:`_pairs`.
    """
    out = [acc[0]]
    for n, pairs in _pairs(w):
        c = acc[n] + vec[n]
        for i, j in pairs:
            c += acc[i] * vec[j]
        out.append(c)
    return out


def _common_scale(inst: ConfigSumInstance) -> int:
    """``K * D^2``: scaled by its v-th power, every ``P_v(block sum)`` is an integer.

    ``D`` is the lcm of the ground's denominators, read off its
    ``scaled_sums`` (it clears every block sum), and ``K`` the lcm of the
    coefficient denominators of ``P_1..P_w``; a term of degree ``k <= 2v`` in
    ``P_v`` then picks up ``K^v D^(2v-k)`` times an integer.
    """
    d, _ = inst.ground.scaled_sums
    k = lcm(*(c.denominator for v in range(1, inst.w + 1)
              for c in stirling_poly(v)))
    return k * d * d


def _ring(inst: ConfigSumInstance) -> tuple:
    """``(registry, packer)`` of a symbolic table: each ``[y^n]`` has degree at most ``2w``."""
    return inst.ground.values[0].vars, _Packer(inst.g, 2 * inst.w)


def _block_table(inst: ConfigSumInstance) -> tuple:
    """``(table, scale)``: every nonempty mask's block values, times ``scale^v``
    at offset ``v``, shared by the masks with one block sum (index 0 is no block).

    ``scale`` is :func:`_common_scale`, so every fit must have integer coefficients.
    Offset ``v`` is one ``algebra._fit`` of degree ``2v`` through the ground's
    evaluator at ``T/D``, ``T = 0 .. 2w+2``, times ``scale^v``: its last
    ``2(w-v)+2`` samples are witnesses, and a sample that is not an int or a
    ``Fraction`` raises ``TypeError``.  The offset-0 fit must be the constant 1.
    Horner reads every fit at each distinct scaled block sum; a symbolic ground's
    ``MultiPoly`` values are each packed as made (:func:`_ring`), so none is kept.
    """
    den, sums = inst.ground.scaled_sums
    evaluate, scale = (eval_P_symbolic if inst.ground.is_symbolic else eval_P), _common_scale(inst)
    points = range(2 * inst.w + 3)
    coeffs = []
    for v in range(inst.w + 1):
        nums, fit_den = _fit(points, [evaluate(v, Fraction(t, den)) * scale ** v for t in points],
                             2 * v, "T")
        fractional = [Fraction(c, fit_den) for c in nums if c % fit_den]
        if fractional:
            raise ConsistencyError(
                f"offset-{v} block values fit a polynomial in the scaled block sum "
                f"whose coefficients are not integers ({fractional[0]} is not an integer)")
        coeffs.append([c // fit_den for c in nums])
    if coeffs[0] != [1]:
        raise ConsistencyError(f"offset-0 block values fit {coeffs[0]}, not the constant 1")
    ring = _ring(inst) if inst.ground.is_symbolic else None
    by_sum = {t: tuple([_horner(cs, t) if ring is None else _IntPoly.packed(_horner(cs, t), *ring)
                        for cs in coeffs]) for t in set(sums[1:])}
    return [None] + [by_sum[t] for t in sums[1:]], scale


def _collapsed_partial(inst: ConfigSumInstance, table: list,
                       part: int = 0, parts: int = 1):
    """Unscaled collapsed sum over shard ``part`` of ``parts`` of the partition stream.

    ``table`` is the instance's block table from :func:`_block_table`, built
    in the walking process; the walk reads ``table[mask]`` and evaluates
    nothing.  It multiplies what the table holds, ints or packed ``_IntPoly``,
    and returns ``scale^w`` times the shard's share of the total, of that
    type.  A one-block partition's ``[y^w]`` is read straight off the table.
    Any other partition of ``r`` blocks is split after its first
    ``k = ceil(r/2)``; each half is looked up in its memo by its block tuple,
    and ``product`` builds a missing one from the tuple without its last
    block.  Every head starts with the first block, so ``heads`` is cleared
    when that changes; ``tails`` lasts the shard.  ``[y^w]`` is one dot
    product of the two halves over the last row of :func:`_pairs`, added to
    the sum of its block count ``r``, and each of those sums is multiplied by
    ``(-1)^r (r-1)!`` once at the end.
    """
    w = inst.w
    last = _pairs(w)[-1][1] if w else ()

    def product(memo: dict, blocks: tuple):  # a half its memo lacks
        prod = table[blocks[-1]]
        if len(blocks) > 1:
            prefix = blocks[:-1]
            prod = _conv_truncated(memo.get(prefix) or product(memo, prefix), prod, w)
        memo[blocks] = prod
        return prod

    by_count = [0] * (inst.g + 1)
    visited = 0
    heads, tails, first = {}, {}, None
    for blocks in iter_unordered_partitions(inst.g, part, parts):
        visited += 1
        r = len(blocks)
        if r == 1:
            by_count[1] += table[blocks[0]][w]
            continue
        if blocks[0] != first:
            heads.clear()
            first = blocks[0]
        k = (r + 1) // 2
        head, tail = blocks[:k], blocks[k:]
        head = heads.get(head) or product(heads, head)
        tail = tails.get(tail) or product(tails, tail)
        top = head[w] + tail[w] if w else head[0]
        for i, j in last:
            top += head[i] * tail[j]
        by_count[r] += top
    total = sum(by_count[r] * ((-1) ** r * factorial(r - 1)) for r in range(1, inst.g + 1))
    return total, visited


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _walk(inst: ConfigSumInstance, part: int = 0, parts: int = 1):
    """Build ``inst``'s block table in this process, then walk shard ``part`` of ``parts``."""
    return _collapsed_partial(inst, _block_table(inst)[0], part, parts)


def _shards(inst: ConfigSumInstance, jobs: int) -> int:
    """The workers :func:`sum_collapsed` forks: ``min(jobs, usable CPUs, 2^(g-1))``, none at 1."""
    return min(jobs, _usable_cpus(), 1 << (inst.g - 1)) if jobs > 1 else 0


def _walking(inst: ConfigSumInstance, parts: int) -> Iterator[Optional[ConfigSumResult]]:
    """``inst``'s partition walk from fork to result, in two ``next`` steps.

    The first computes the :func:`_common_scale` this process divides by, before
    any fork, which leaves ``stirling_poly(1..w)`` cached for the workers, and
    forks ``parts`` workers, one per shard, or at ``parts = 0`` none.  The second
    walks here, timing only that, or collects the shards; it merges them in shard
    order (deterministic), checks the Bell count, divides by ``scale^w`` and
    yields the :class:`ConfigSumResult`.  Every walk runs :func:`_walk`.  Leaving
    the ``with`` block, on an error or on ``close()``, kills and reaps the workers.
    """
    start = time.perf_counter()
    scale = _common_scale(inst)
    if parts:
        with ProcessPoolExecutor() as pool:
            shards = [pool.submit(_walk, inst, part, parts) for part in range(parts)]
            yield
            partials = [fut.result() for fut in shards]
    else:
        yield
        start = time.perf_counter()
        partials = [_walk(inst)]
    total, visited = partials[0]
    for partial, count in partials[1:]:
        total = total + partial
        visited += count
    expected = unordered_partition_count(inst.g)
    if visited != expected:
        raise ConsistencyError(f"visited {visited} partitions, expected {expected}")
    den = scale ** inst.w
    total = total.unpacked(*_ring(inst), den) if inst.ground.is_symbolic else Fraction(total, den)
    yield ConfigSumResult(inst, total, visited, time.perf_counter() - start)


def sum_collapsed(inst: ConfigSumInstance, jobs: int = 1) -> ConfigSumResult:
    """Order-collapsed sum, an exact regrouping of the literal configuration sum.

    With ``jobs = 1`` the instance is walked here.  With ``jobs > 1`` the
    unordered-partition stream is cut by partition count into
    ``min(jobs, usable CPUs, 2^(g-1))`` near-equal shards, each in its own
    worker process that builds the instance's block table and walks its
    shard; exact addition makes the merged total independent of the cut.
    The unscaled partials are merged and divided by ``scale^w`` once, on
    every ground, and the number of partitions visited must be the Bell
    number of ``g``.  This runs :func:`_walking` through at once, the
    generator :func:`run_plan` starts and finishes apart.
    """
    walk = _walking(inst, _shards(inst, jobs))
    next(walk)
    return next(walk)


def sum_pointed(inst: ConfigSumInstance) -> SumValue:
    """``-[y^w] l(full)``, ``l`` the set-function log of the block series ``a``.

    ``l(S) = a(S) - sum_{0 in T, T proper subset of S} l(T) a(S - T)``, over
    the masks ``S`` that hold element 0 in increasing order, so every
    ``l(T)`` is ready when it is needed.  Each series is truncated at
    ``y^w``; the arithmetic is ``Fraction`` or ``MultiPoly`` on unscaled
    block values.
    """
    w, full = inst.w, (1 << inst.g) - 1
    values = _BlockValues(inst.ground, w)
    logs = {}
    for mask in range(1, full + 1, 2):
        series = list(values.vector(mask))
        rest = mask ^ 1
        sub = 0
        while sub != rest:  # T = sub | 1 over the proper subsets sub of rest
            head, tail = logs[sub | 1], values.vector(rest ^ sub)
            for n in range(w + 1):
                for i in range(n + 1):
                    series[n] = series[n] - head[i] * tail[n - i]
            sub = (sub - rest) & rest  # next subset of ``rest`` in increasing order
        logs[mask] = series
    return -logs[full][w]


def _check_random_g(g: int) -> None:
    if g > RANDOM_G_MAX:
        raise ValueError(f"a random ground has at most {RANDOM_G_MAX} distinct values, got g={g}")


def random_ground(g: int, rng: random.Random) -> GroundSet:
    """g distinct seeded rationals: integers and proper fractions, signs mixed."""
    _check_random_g(g)
    values = []
    seen = set()  # lowest-terms (numerator, denominator) pairs, cheaper to hash than a Fraction
    while len(values) < g:
        if rng.random() < 0.5:
            key = (rng.randint(-12, 12), 1)
        else:
            n, d = rng.randint(-12, 12), rng.randint(2, 9)
            key = (n // gcd(n, d), d // gcd(n, d))
        if key not in seen:
            seen.add(key)
            values.append(Fraction(*key))
    return GroundSet.numeric(values)


class NonzeroConfirmation(NamedTuple):
    """Outcome of the double-verification protocol for a nonzero total."""

    oracle_total: SumValue
    second_ground: Optional[GroundSet]
    second_total: Optional[SumValue]


def double_check_nonzero(inst: ConfigSumInstance, total: SumValue,
                         rng: random.Random) -> NonzeroConfirmation:
    """Re-verify a nonzero total before it is reported as a counterexample.

    The oracle :func:`sum_pointed` must reproduce the value exactly (a
    disagreement is an engine bug, raised as :class:`ConsistencyError`); in
    numeric mode the sum is additionally recomputed at a fresh ground set
    drawn from ``rng``.
    """
    oracle_total = sum_pointed(inst)
    if oracle_total != total:
        raise ConsistencyError(
            "collapsed route and pointed oracle disagree on a nonzero total: "
            f"{total!r} vs {oracle_total!r}")
    second_ground = None
    second_total = None
    if not inst.ground.is_symbolic:
        second_ground = random_ground(inst.g, rng)
        second = sum_collapsed(ConfigSumInstance.make(inst.g, inst.w, second_ground))
        second_total = second.total
    return NonzeroConfirmation(oracle_total, second_ground, second_total)


class SweepEntry(NamedTuple):
    """One planned configuration-sum instance; :func:`run_plan` fills in its outcome.

    ``seed`` is a random ground's :func:`seeded_rng` label, ``"seed/g/w/i"``.
    """

    instance: ConfigSumInstance
    status: str  # asserted | exploratory | not_attempted
    sample_index: int = 0
    seed: Optional[str] = None  # None for symbolic and explicit grounds
    result: Optional[ConfigSumResult] = None
    confirmation: Optional[NonzeroConfirmation] = None


def seeded_rng(seed: int, g: int, w: int, index: int, *, confirming: bool = False):
    """``(label, rng)``: a run at ``seed`` draws ground ``index`` at ``(g, w)`` from an rng
    seeded with ``"seed/g/w/index"``, and the one confirming its nonzero total at ``seed + 1``."""
    label = f"{seed + confirming}/{g}/{w}/{index}"
    return label, random.Random(label)


def random_entries(g: int, w: int, status: str, count: int, seed: int) -> Iterator[SweepEntry]:
    """Entries ``0..count-1`` at ``(g, w)``, ground ``i`` drawn by ``seeded_rng(seed, g, w, i)``
    when entry ``i`` is reached."""
    draws = (seeded_rng(seed, g, w, i) for i in range(count))
    return (SweepEntry(ConfigSumInstance(g, w, random_ground(g, rng)), status, i, label)
            for i, (label, rng) in enumerate(draws))


def sweep_plan(g_max: int, *, symbolic_g_max: int = 5, seed: int = 0) -> Iterator[SweepEntry]:
    """The default verification sweep up to ``g_max``: an iterator of unrun entries
    in run order, each ground made when its entry is reached.

    Ground-set policy: symbolic (proves the identity for every ground set)
    through ``symbolic_g_max``; seeded numeric sampling above that, with the
    counts of :data:`SWEEP_SAMPLES`.  Within the baseline range the instances
    are asserted; beyond it (g = 7 with w > 3, or g >= 8) they are exploratory.
    A ``g_max`` past :data:`RANDOM_G_MAX` is refused here, before any ground is drawn.
    """
    if g_max > symbolic_g_max:
        _check_random_g(g_max)
    asserted_w = dict(BASELINE_RANGE)

    def entries(g: int, w: int):
        asserted = g in asserted_w and w <= asserted_w[g]
        status = "asserted" if asserted else "exploratory"
        if g <= symbolic_g_max:
            return [SweepEntry(ConfigSumInstance(g, w, GroundSet.symbolic(g)), status)]
        return random_entries(g, w, status, SWEEP_SAMPLES.get(g, 3) if asserted else 1, seed)
    return (entry for g in range(2, g_max + 1) for w in range(g - 1) for entry in entries(g, w))


def run_plan(plan: Iterable[SweepEntry], *, seed: int, jobs: int,
             deadline: Optional[float] = None) -> Iterator[SweepEntry]:
    """Run planned entries, yielding each in plan order with its ``result`` as soon as it is done.

    A nonzero total also gets the ``confirmation`` of :func:`double_check_nonzero`,
    whose fresh ground is drawn by ``seeded_rng(seed, g, w, sample_index, confirming=True)``.
    ``plan`` is read as entries start, at most two ahead to tell a lone entry
    from a plan, and no entry is kept once it is yielded.  Entries start in
    slots, each a :func:`_walking` advanced to its fork and later to its
    result; the one a finished entry frees starts the next entry before the
    finished one is confirmed and handed back.  At ``jobs = 1`` one slot
    starts each entry lazily, to be walked here when it is finished.  At
    ``jobs > 1`` a lone entry is sharded as :func:`sum_collapsed` shards it,
    and a plan runs up to ``min(jobs, usable CPUs)`` entries side by side,
    each walked whole by the one worker of its own pool.  ``deadline`` is
    read when an entry would start: once ``time.monotonic()`` passes it, the
    entries already started finish and the rest are yielded unrun as
    ``not_attempted``, never dropped.  Leaving the generator, on an error or
    on close, closes the walks still running, which kills and reaps their
    workers.
    """
    plan = iter(plan)
    head = deque(islice(plan, 2))
    side_by_side = jobs > 1 and len(head) > 1
    todo = chain((head.popleft() for _ in range(len(head))), plan)
    slots = min(jobs, _usable_cpus()) if side_by_side else 1
    running = deque()  # (entry, started _walking) in plan order

    def fill():
        while len(running) < slots and (deadline is None or time.monotonic() <= deadline):
            entry = next(todo, None)
            if entry is None:
                return
            walk = _walking(entry.instance, 1 if side_by_side else _shards(entry.instance, jobs))
            next(walk)
            running.append((entry, walk))

    try:
        fill()
        while running:
            done, walk = running.popleft()
            result = next(walk)
            fill()  # the freed slot starts the next entry while this one is handed back
            confirmation = None
            if result.verdict == "nonzero":
                inst = done.instance
                _, rng = seeded_rng(seed, inst.g, inst.w, done.sample_index, confirming=True)
                confirmation = double_check_nonzero(inst, result.total, rng)
            yield done._replace(result=result, confirmation=confirmation)
    finally:
        for _, walk in running:
            walk.close()
    for entry in todo:
        yield entry._replace(status="not_attempted")
