"""Unsigned Stirling numbers of the first kind and their polynomial extension.

The triangle entry ``[n, k]`` is the coefficient of ``x**k`` in the rising
factorial ``x (x+1) ... (x+n-1)``.  For a fixed offset ``w``, the diagonal
``[n, n-w]`` agrees with a polynomial in ``n`` of degree ``2w``; that
polynomial, evaluated anywhere, is what the identity checks consume.

Construction of the degree-2w polynomial is interpolation through genuine
triangle entries at ``n = w .. 3w``, cross-validated against the discrete
difference identity ``P_w(x+1) - P_w(x) = x * P_{w-1}(x)`` (a direct
consequence of the triangle recurrence) before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import ConsistencyError, MultiPoly

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


# -------------------------- dense univariate helpers (Fraction, low->high) --

def _dense_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _dense_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return _dense_trim(tuple(out))


def _dense_shift_by_one(coeffs):
    # coefficients of p(x+1), via Horner in (x+1)
    out = ()
    for c in reversed(coeffs):
        shifted = [Fraction(0)] * (len(out) + 1)
        for d, v in enumerate(out):
            shifted[d + 1] += v
            shifted[d] += v
        shifted[0] += c
        out = tuple(shifted)
    return _dense_trim(out)


def _dense_mul_x(coeffs):
    return (Fraction(0),) + tuple(coeffs)


def _dense_interpolate(points):
    # Newton's divided differences; exact over Fraction
    xs = [Fraction(x) for x, _ in points]
    table = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    # expand sum_k table[k] * prod_{i<k} (x - xs[i])
    coeffs = (Fraction(0),)
    node = (Fraction(1),)
    for k in range(n):
        term = tuple(table[k] * c for c in node)
        coeffs = tuple(
            (coeffs[i] if i < len(coeffs) else 0)
            + (term[i] if i < len(term) else 0)
            for i in range(max(len(coeffs), len(term))))
        nxt = [Fraction(0)] * (len(node) + 1)
        for d, v in enumerate(node):
            nxt[d + 1] += v
            nxt[d] -= v * xs[k]
        node = tuple(nxt)
    return _dense_trim(coeffs)


def _dense_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# --------------------------------------------------------------- public API

def _validate_chain(w: int, coeffs, prev_coeffs) -> None:
    """Checks pinning the offset-w polynomial uniquely given the offset-(w-1) one.

    The difference identity determines the polynomial up to an additive
    constant; the anchor value at x = w (a genuine triangle entry) fixes it.
    """
    if w == 0:
        if tuple(coeffs) != (Fraction(1),):
            raise ConsistencyError("offset-0 polynomial must be identically 1")
        return
    if len(coeffs) != 2 * w + 1 or coeffs[-1] <= 0:
        raise ConsistencyError(
            f"offset-{w} polynomial must have degree exactly {2 * w} "
            "with positive leading coefficient")
    delta = _dense_sub(_dense_shift_by_one(coeffs), coeffs)
    if delta != _dense_mul_x(_dense_trim(tuple(prev_coeffs))):
        raise ConsistencyError(
            f"difference identity fails for offset {w}: arithmetic bug")
    anchor = triangle(w).entry(w, 0)
    if _dense_eval(coeffs, Fraction(w)) != anchor:
        raise ConsistencyError(
            f"offset-{w} polynomial does not anchor to the triangle at n={w}")


@lru_cache(maxsize=None)
def stirling_poly(w: int) -> StirlingPoly:
    """The degree-2w polynomial agreeing with ``[n, n-w]`` for integers n >= w.

    Interpolated through triangle entries at ``n = w .. 3w`` and
    cross-validated against the difference identity before being cached.
    """
    if w < 0:
        raise ValueError("offset w must be nonnegative")
    if w == 0:
        return StirlingPoly(0, (Fraction(1),))
    tri = triangle(3 * w)
    points = [(n, tri.entry(n, n - w)) for n in range(w, 3 * w + 1)]
    coeffs = _dense_interpolate(points)
    _validate_chain(w, coeffs, stirling_poly(w - 1).coeffs)
    return StirlingPoly(w, tuple(coeffs))


def eval_P(w: int, t) -> Fraction:
    """Exact Horner evaluation of the offset-w polynomial at a rational point."""
    t = Fraction(t)
    return _dense_eval(stirling_poly(w).coeffs, t)


def eval_P_symbolic(w: int, t) -> MultiPoly:
    """Polynomial composition: the offset-w polynomial evaluated at a MultiPoly."""
    if not isinstance(t, MultiPoly):
        return MultiPoly.constant(eval_P(w, t))
    acc = MultiPoly.zero()
    for c in reversed(stirling_poly(w).coeffs):
        acc = acc * t + c
    return acc

