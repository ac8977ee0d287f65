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
  skip the products with ``y^0``.  The series of every nonempty mask is
  in the instance's block table, plain data indexed by mask, built once
  before the walk, and with ``jobs > 1`` before the shards fork, so each
  shard inherits it.
* :func:`sum_pointed` -- the oracle, with no partition walk.  The signed
  sum over partitions is ``-[y^w]`` of the set-function log ``l`` of ``a``
  at the full set (the joint cumulant over the partition lattice; T. P.
  Speed, *Cumulants and partition lattices*, 1983).  Grouping the
  partitions of ``S`` by the block ``T`` that holds element 0 gives
  ``a(S) = sum_{0 in T subset S} l(T) a(S - T)`` with ``a(empty) = 1``, so
  ``l`` is computed on the sets that hold element 0, in increasing mask
  order, from ``3^(g-1) - 2^(g-1)`` truncated products.

On numeric grounds the collapsed route runs in Python ints.  With ``D`` the
lcm of the ground's denominators and ``K`` the lcm of the coefficient
denominators of ``P_1..P_w``, set ``lam = K * D^2``: then ``lam^v P_v(t)`` is an
integer for every block sum ``t`` and ``v <= w``.  The substitution
``y -> y / lam`` is a ring automorphism, so each partition's ``[y^w]`` is
scaled by exactly ``lam^w`` and the total is ``N / lam^w`` for the integer sum
``N``, divided once after the shards' integer partials are merged.  A block
value that the scaling does not clear raises :class:`ConsistencyError`.
Every partition is still visited, and the visit count is checked against the
Bell number.  :func:`sum_pointed` stays in
``Fraction`` arithmetic on the unscaled block values, so the two routes
share no summation kernel.

A numeric block table is also built in ints, by an exact fit.  Each mask's
scaled block sum ``T = D t`` is read off the ground's one block-sum table
(:attr:`~stirlingzero.partitions.GroundSet.scaled_sums`), and for each
``v`` the value ``lam^v P_v(T/D)`` is a polynomial in ``T`` of degree ``2v``
with integer coefficients.  ``eval_P`` is sampled at the first ``2w+3``
distinct sums, through the same lazy evaluator as the oracle, and scaled to
ints; one :func:`~stirlingzero.algebra.interpolate_in_var` call fits the
sampled vectors, each written as ``sum_v vec[v] y^v``, in ``T``: its
``y^v`` part must have degree at most ``2v`` and integer coefficients, and
gives every other sum its offset-``v`` value by integer Horner.  So the
table makes ``(2w+3)(w+1)`` evaluator calls, not one per mask and offset.
A ground with fewer than ``2w+3`` distinct sums has each evaluated directly
instead.  The samples come from ``eval_P``, not from ``stirling_poly``'s
coefficients: a fault that keeps ``eval_P`` a polynomial of degree at most
``2v`` reaches every mask unchanged, just as a per-mask evaluation would
carry it, and any other fault at a sampled sum fails a witness
(:class:`~stirlingzero.algebra.PolynomialityError`) or the degree bound
(:class:`ConsistencyError`).  The pointed oracle still evaluates every mask,
so a nonzero total is checked against values the fit did not make.

Any nonzero total is treated as a potential counterexample and re-verified
through the oracle (plus a fresh ground set in numeric mode) before being
reported.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from itertools import islice
from math import factorial, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from ._pool import ProcessPoolExecutor
from .algebra import ConsistencyError, MultiPoly, _as_int, _horner, interpolate_in_var
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
    "instance_rng",
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
    evaluated on first use.

    :func:`sum_pointed` reads it, and so does :func:`_block_table` for the
    samples it scales and fits.  An offset-0 value other than 1, which the
    collapsed route's products take for granted, is an engine bug.
    """

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


def _scaled_to_int(vec: tuple, powers: list) -> tuple:
    out = []
    for power, value in zip(powers, vec):
        scaled, rest = divmod(value.numerator * power, value.denominator)
        if rest:
            raise ConsistencyError(
                f"block value {value} times scale {power} is not an integer")
        out.append(scaled)
    return tuple(out)


def _conv_truncated(acc, vec: tuple, w: int) -> list:
    """Coefficients of ``y^0..y^w`` in ``acc(y) * vec(y)``, both with constant term 1.

    The products with a constant term are additions, so ``[y^n]`` is
    ``acc[n] + vec[n]`` plus the products of the coefficients of ``y^1..y^(n-1)``.
    """
    out = [acc[0]]
    for n in range(1, w + 1):
        c = acc[n] + vec[n]
        for i in range(1, n):
            c = c + acc[i] * vec[n - i]
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


def _block_table(inst: ConfigSumInstance) -> tuple:
    """``(table, scale)``: the instance's block values at every nonempty mask,
    each a block of some partition, and the numeric scale.

    ``table[mask]`` is the mask's vector (index 0, the empty mask, is no
    block).  Symbolic grounds evaluate every mask, and ``scale`` is ``None``.
    Numeric grounds store ints scaled by ``scale``, :func:`_common_scale`,
    one vector per distinct block sum, shared by the masks that have it:
    ``eval_P`` is sampled, through :meth:`_BlockValues.vector`, at the first
    ``2w+3`` distinct sums in mask order, and each sample is scaled to ints.
    If there are more sums, the samples, each written as
    ``sum_v vec[v] y^v``, go through one :func:`interpolate_in_var` call of
    degree ``2w`` in the scaled sum ``T``.  Its ``y^v`` part must have degree
    at most ``2v`` in ``T`` and integer coefficients, and gives every other
    sum its offset-``v`` value by integer Horner.

    This accepts exactly the samples on which each offset ``v`` lies on one
    polynomial of degree at most ``2v``.  Such a polynomial has degree at
    most ``2w``, so it is the unique interpolant's ``y^v`` part through the
    first ``2w+1`` samples and matches the last two; conversely, an
    interpolant that matches all ``2w+3`` samples and whose ``y^v`` part has
    degree at most ``2v`` is such a polynomial.
    """
    ground, w, masks = inst.ground, inst.w, range(1, 1 << inst.g)
    values = _BlockValues(ground, w)
    if ground.is_symbolic:
        return [None] + [values.vector(mask) for mask in masks], None
    scale = _common_scale(inst)
    powers = [scale ** v for v in range(w + 1)]
    _, sums = ground.scaled_sums
    firsts = {}  # each distinct scaled block sum -> the first mask that has it
    for mask in masks:
        firsts.setdefault(sums[mask], mask)
    count = 2 * w + 3
    by_sum = {s: _scaled_to_int(values.vector(mask), powers)
              for s, mask in islice(firsts.items(), count)}
    rest = list(firsts)[count:]
    if rest:
        fit = interpolate_in_var(
            [(s, MultiPoly(("y",), {(v,): c for v, c in enumerate(vec)}))
             for s, vec in by_sum.items()],
            "T", 2 * w)
        t_slot, y_slot = fit.vars.index("T"), fit.vars.index("y")
        coeffs = [[0] * (2 * v + 1) for v in range(w + 1)]
        for exps, c in fit.terms.items():
            d, v = exps[t_slot], exps[y_slot]
            if d > 2 * v:
                raise ConsistencyError(
                    f"offset-{v} block values fit a polynomial of degree {d} "
                    f"in the scaled block sum, above {2 * v}")
            if c.denominator != 1:
                raise ConsistencyError(
                    f"offset-{v} block values fit a polynomial in the scaled block sum "
                    "whose coefficients are not integers")
            coeffs[v][d] = c.numerator
        by_sum.update((s, tuple(_horner(cs, s) for cs in coeffs)) for s in rest)
    return [None] + [by_sum[sums[mask]] for mask in masks], scale


def _collapsed_partial(inst: ConfigSumInstance, table: list,
                       part: int = 0, parts: int = 1):
    """Unscaled collapsed sum over shard ``part`` of ``parts`` of the partition stream.

    ``table`` is the instance's block table from :func:`_block_table`, which
    a forked shard inherits; the walk reads ``table[mask]`` and evaluates
    nothing.  Symbolic grounds multiply ``MultiPoly`` block series; numeric
    grounds multiply ints, so the partial is ``scale^w`` times the shard's
    share of the total (see the module docstring).  A
    partition of ``r`` blocks is split after its first ``k = ceil(r/2)``;
    ``product`` looks each half up by its block tuple and builds a missing one
    from the tuple without its last block.  Every head starts with the first
    block, so ``heads`` is cleared when that changes; ``tails`` lasts the
    shard.  ``[y^w]`` is one dot product of the two halves, added to the sum
    of its block count ``r``, and each of those sums is multiplied by
    ``(-1)^r (r-1)!`` once at the end.
    """
    w = inst.w

    def product(memo: dict, blocks: tuple):
        prod = memo.get(blocks)
        if prod is None:
            prod = table[blocks[-1]]
            if len(blocks) > 1:
                prod = _conv_truncated(product(memo, blocks[:-1]), prod, w)
            memo[blocks] = prod
        return prod

    by_count = [0] * (inst.g + 1)
    visited = 0
    heads, tails, first = {}, {}, None
    for blocks in iter_unordered_partitions(inst.g, part, parts):
        if blocks[0] != first:
            heads.clear()
            first = blocks[0]
        r = len(blocks)
        k = (r + 1) // 2
        head = product(heads, blocks[:k])
        if r == 1:
            top = head[w]
        else:
            tail = product(tails, blocks[k:])
            top = head[w] + tail[w] if w else head[0]
            for i in range(1, w):
                top = top + head[i] * tail[w - i]
        by_count[r] = by_count[r] + top
        visited += 1
    total = sum(by_count[r] * ((-1) ** r * factorial(r - 1)) for r in range(1, inst.g + 1))
    return total, visited


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def sum_collapsed(inst: ConfigSumInstance, jobs: int = 1) -> ConfigSumResult:
    """Order-collapsed sum, an exact regrouping of the literal configuration sum.

    The instance's block table is built once, before the walk or the fork.
    With ``jobs > 1`` the unordered-partition stream is cut by partition
    count into ``min(jobs, usable CPUs, 2^(g-1))`` near-equal shards, each in
    its own worker process that inherits the table; exact addition makes the
    merged total independent of the cut.  The unscaled partials are merged
    and, on a numeric ground, divided by the table's ``scale^w`` once.
    Either way the number of partitions visited must be the Bell number of
    ``g``.
    """
    start = time.perf_counter()
    table, scale = _block_table(inst)
    if jobs <= 1:
        total, visited = _collapsed_partial(inst, table)
    else:
        parts = min(jobs, _usable_cpus(), 1 << (inst.g - 1))
        total = 0
        visited = 0
        with ProcessPoolExecutor() as pool:
            futures = [pool.submit(_collapsed_partial, inst, table, part, parts)
                       for part in range(parts)]
            for fut in futures:  # merge in submission order: deterministic
                partial, count = fut.result()
                total = total + partial
                visited += count
    expected = unordered_partition_count(inst.g)
    if visited != expected:
        raise ConsistencyError(f"visited {visited} partitions, expected {expected}")
    if scale is not None:
        total = Fraction(total, scale ** inst.w)
    return ConfigSumResult(inst, total, visited, time.perf_counter() - start)


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
    A ``g_max`` past :data:`RANDOM_G_MAX` is refused before any ground is drawn.
    """
    if g_max > symbolic_g_max:
        _check_random_g(g_max)
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
            yield entry._replace(status="not_attempted")
            continue
        inst = entry.instance
        result = sum_collapsed(inst, jobs=jobs)
        confirmation = None
        if result.verdict == "nonzero":
            confirmation = double_check_nonzero(
                inst, result.total, instance_rng(seed + 1, inst.g, inst.w, entry.sample_index))
        yield entry._replace(result=result, confirmation=confirmation)
