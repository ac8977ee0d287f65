"""Unsigned Stirling numbers of the first kind and their polynomial extension.

The triangle entry ``[n, k]`` is the coefficient of ``x**k`` in the rising
factorial ``x (x+1) ... (x+n-1)``.  For a fixed offset ``w``, the diagonal
``[n, n-w]`` agrees with a polynomial in ``n`` of degree ``2w``; that
polynomial, evaluated anywhere, is what the identity checks consume.

The degree-2w polynomial is built by the engine's one interpolation routine,
:func:`~stirlingzero.algebra.interpolate_in_var`, through genuine triangle
entries at ``n = w .. 3w``.  Before anything is returned it is cross-validated
against the discrete difference identity ``P_w(x+1) - P_w(x) = x * P_{w-1}(x)``
(a direct consequence of the triangle recurrence), checked coefficient-wise
by binomial shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .algebra import ConsistencyError, MultiPoly, interpolate_in_var

__all__ = [
    "StirlingTriangle",
    "StirlingPoly",
    "triangle",
    "stirling_poly",
    "eval_P",
    "eval_P_symbolic",
]


class StirlingTriangle:
    """Rows 0..n_max of unsigned Stirling numbers of the first kind."""

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        rows = [(1,)]
        for n in range(n_max):
            prev = rows[-1]
            row = [0] * (n + 2)
            for k, v in enumerate(prev):
                row[k + 1] += v          # [n+1, k+1] += [n, k]
                row[k] += n * v          # [n+1, k]   += n * [n, k]
            rows.append(tuple(row))
        self.n_max = n_max
        self._rows = tuple(rows)

    def row(self, n: int) -> tuple:
        return self._rows[n]

    def entry(self, n: int, k: int) -> int:
        """``[n, k]``; zero outside ``0 <= k <= n`` by convention."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} not in triangle of height {self.n_max}")
        if k < 0 or k > n:
            return 0
        return self._rows[n][k]


@lru_cache(maxsize=None)
def triangle(n_max: int) -> StirlingTriangle:
    """Build (and cache) the triangle with rows 0..n_max."""
    return StirlingTriangle(n_max)


@dataclass(frozen=True)
class StirlingPoly:
    """Dense coefficients (low degree first) of the offset-w diagonal polynomial."""

    w: int
    coeffs: tuple


def _dense_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# --------------------------------------------------------------- public API

def _validate_chain(w: int, coeffs, prev_coeffs) -> None:
    """Checks pinning the offset-w polynomial uniquely given the offset-(w-1) one.

    The difference identity ``P_w(x+1) - P_w(x) = x * P_{w-1}(x)`` is checked
    coefficient-wise: by the binomial shift, the ``x**k`` coefficient of
    ``P(x+1) - P(x)`` is ``sum_{d>k} a_d * C(d, k)``.  The identity determines
    the polynomial up to an additive constant; the anchor value at x = w (a
    genuine triangle entry) fixes it.
    """
    if w == 0:
        if tuple(coeffs) != (Fraction(1),):
            raise ConsistencyError("offset-0 polynomial must be identically 1")
        return
    if len(coeffs) != 2 * w + 1 or coeffs[-1] <= 0:
        raise ConsistencyError(
            f"offset-{w} polynomial must have degree exactly {2 * w} "
            "with positive leading coefficient")
    delta = [sum(coeffs[d] * comb(d, k) for d in range(k + 1, 2 * w + 1))
             for k in range(2 * w)]
    if delta != [0, *prev_coeffs]:
        raise ConsistencyError(
            f"difference identity fails for offset {w}: arithmetic bug")
    anchor = triangle(w).entry(w, 0)
    if _dense_eval(coeffs, Fraction(w)) != anchor:
        raise ConsistencyError(
            f"offset-{w} polynomial does not anchor to the triangle at n={w}")


@lru_cache(maxsize=None)
def stirling_poly(w: int) -> StirlingPoly:
    """The degree-2w polynomial agreeing with ``[n, n-w]`` for integers n >= w.

    Interpolated by ``interpolate_in_var`` through triangle entries at
    ``n = w .. 3w`` and cross-validated against the difference identity
    before being cached.
    """
    if w < 0:
        raise ValueError("offset w must be nonnegative")
    if w == 0:
        return StirlingPoly(0, (Fraction(1),))
    tri = triangle(3 * w)
    fit = interpolate_in_var(
        [(n, tri.entry(n, n - w)) for n in range(w, 3 * w + 1)], "x", 2 * w)
    coeffs = tuple(fit.terms.get((d,), Fraction(0)) for d in range(2 * w + 1))
    _validate_chain(w, coeffs, stirling_poly(w - 1).coeffs)
    return StirlingPoly(w, coeffs)


@lru_cache(maxsize=None)
def _integer_coeffs(w: int) -> tuple:
    # (numerators over one common denominator, that denominator)
    coeffs = stirling_poly(w).coeffs
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


def eval_P(w: int, t) -> Fraction:
    """Exact evaluation of the offset-w polynomial at a rational point ``p/q``.

    Horner runs in integers on ``q^d * P_w(p/q) * den``, with ``d = 2w`` and
    ``den`` the common denominator of the coefficients; one Fraction is built
    at the end.
    """
    if not isinstance(t, Fraction):
        if isinstance(t, float):
            raise TypeError("expected an exact rational, got float")
        t = Fraction(t)
    nums, den = _integer_coeffs(w)
    p, q = t.numerator, t.denominator
    acc, scale = nums[-1], 1
    for c in reversed(nums[:-1]):
        scale *= q
        acc = acc * p + c * scale
    return Fraction(acc, den * scale)


def eval_P_symbolic(w: int, t) -> MultiPoly:
    """Polynomial composition: the offset-w polynomial evaluated at a MultiPoly."""
    if not isinstance(t, MultiPoly):
        return MultiPoly.constant(eval_P(w, t))
    acc = MultiPoly.zero()
    for c in reversed(stirling_poly(w).coeffs):
        acc = acc * t + c
    return acc

