"""The literal configuration sum, the reference for both summation routes.

Every ordered set partition is paired with every weight composition and
evaluated as written, ``(-1)^r / r * prod_i P_{w_i}(t_i)``, in ``Fraction``
or ``MultiPoly`` arithmetic; the visits are checked against their closed-form
count.  The walk grows as the Fubini numbers times binomials (8,764,603 visits
at ``g = 7, w = 5``), so it serves only at small ``g``.
"""

import itertools
import time
from fractions import Fraction
from math import comb, factorial

from stirlingzero.algebra import ConsistencyError
from stirlingzero.config_sums import ConfigSumResult, _BlockValues
from stirlingzero.partitions import _stirling2, iter_unordered_partitions


def iter_ordered_partitions(g):
    """Every ordered set partition of {0..g-1}, exactly once, deterministically."""
    for blocks in iter_unordered_partitions(g):
        yield from itertools.permutations(blocks)


def weight_compositions(w, r):
    """All weak compositions of w into r ordered parts, lexicographically."""
    if w < 0 or r < 1:
        raise ValueError("need w >= 0 and r >= 1")
    if r == 1:
        yield (w,)
        return
    for first in range(w + 1):
        for rest in weight_compositions(w - first, r - 1):
            yield (first,) + rest


def count_weighted_configs(g, w):
    """Closed-form total the enumerators must reproduce exactly."""
    if g < 1 or w < 0:
        raise ValueError("need g >= 1 and w >= 0")
    return sum(
        factorial(r) * _stirling2(g, r) * comb(w + r - 1, r - 1)
        for r in range(1, g + 1))


def sum_ordered(inst):
    """Literal sum over every (ordered configuration, weight composition) pair."""
    start = time.perf_counter()
    ground = inst.ground
    values = _BlockValues(ground, inst.w)
    total = 0
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
