"""Unsigned Stirling numbers of the first kind and their polynomial extension.

``[n, k]`` is the coefficient of ``x**k`` in the rising factorial
``x (x+1) ... (x+n-1)``, and :func:`stirling_row` reads row ``n`` straight
off that product, expanded by the engine's node-product routine.  (The
log-expansion closed form reads its falling factorials off the same
routine, over the nodes ``0 .. m-1``, so it needs no Stirling row.)  For a
fixed offset ``w``, the diagonal ``[n, n-w]`` agrees with a polynomial in
``n`` of degree ``2w``; that polynomial, evaluated anywhere, is what the
identity checks consume.

The degree-2w polynomial is built by the engine's one interpolation kernel,
the witnessed scalar fit ``algebra._fit``, through the integer row entries at
``n = w .. 3w``.  Before anything is returned it is cross-validated against
the discrete difference identity ``P_w(x+1) - P_w(x) = x * P_{w-1}(x)`` (a
direct consequence of the recurrence ``[n+1, k] = [n, k-1] + n [n, k]``),
checked coefficient-wise by binomial shift, and anchored on ``P_w(0) = 0``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .algebra import (
    ConsistencyError, MultiPoly, _as_fraction, _dense_from_nodes, _fit, _horner)

__all__ = [
    "stirling_row",
    "stirling_poly",
    "eval_P",
    "eval_P_symbolic",
]


@lru_cache(maxsize=None)
def stirling_row(n: int) -> tuple:
    """``([n, 0], ..., [n, n])``: the coefficients of ``x (x+1) ... (x+n-1)``."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    return tuple(_dense_from_nodes(range(0, -n, -1)))


def _over_lcm(coeffs) -> tuple:
    """``(nums, den)``: rationals as integer numerators over their lcm denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


# --------------------------------------------------------------- public API

def _validate_chain(w: int, coeffs, prev_coeffs) -> None:
    """Checks pinning the offset-w polynomial uniquely given the offset-(w-1) one.

    The difference identity ``P_w(x+1) - P_w(x) = x * P_{w-1}(x)`` is checked
    coefficient-wise: by the binomial shift, the ``x**k`` coefficient of
    ``P(x+1) - P(x)`` is ``sum_{d>k} a_d * C(d, k)``.  The identity determines
    the polynomial up to an additive constant; the zero lemma ``P_w(0) = 0``,
    off the fit's nodes ``w .. 3w``, fixes it (``P_w`` vanishes at ``x = 0 .. w``
    for ``w >= 1``: Graham, Knuth and Patashnik, *Concrete Mathematics*, eq. (6.44)).
    Both run on each polynomial's integer numerators over its lcm denominator.
    """
    if len(coeffs) != 2 * w + 1 or coeffs[-1] <= 0:
        raise ConsistencyError(
            f"offset-{w} polynomial must have degree exactly {2 * w} "
            "with positive leading coefficient")
    (nums, den), (prev, prev_den) = _over_lcm(coeffs), _over_lcm(prev_coeffs)
    delta = [prev_den * sum(nums[d] * comb(d, k) for d in range(k + 1, 2 * w + 1))
             for k in range(2 * w)]
    if delta != [0, *(den * c for c in prev)]:
        raise ConsistencyError(
            f"difference identity fails for offset {w}: arithmetic bug")
    if nums[0] != 0:
        raise ConsistencyError(
            f"offset-{w} polynomial does not anchor to P_{w}(0) = 0")


@lru_cache(maxsize=None)
def stirling_poly(w: int) -> tuple:
    """Coefficients (low degree first) of the degree-2w polynomial agreeing
    with ``[n, n-w]`` for integers n >= w.

    Fitted by ``algebra._fit`` through the row entries at ``n = w .. 3w``,
    numbers fitted as numbers, and cross-validated against the difference
    identity before being cached.
    """
    if w < 0:
        raise ValueError("offset w must be nonnegative")
    if w == 0:
        return (Fraction(1),)
    points = range(w, 3 * w + 1)
    nums, den = _fit(points, [stirling_row(n)[n - w] for n in points], 2 * w, "x")
    coeffs = tuple(Fraction(c, den) for c in nums)
    _validate_chain(w, coeffs, stirling_poly(w - 1))
    return coeffs


@lru_cache(maxsize=None)
def _integer_coeffs(w: int) -> tuple:
    return _over_lcm(stirling_poly(w))


def eval_P(w: int, t) -> Fraction:
    """Exact evaluation of the offset-w polynomial at a rational point ``p/q``.

    ``t`` must be an int or a Fraction (anything else raises ``TypeError``).
    Horner runs in integers on ``q^d * P_w(p/q) * den``, with ``d = 2w`` and
    ``den`` the common denominator of the coefficients; one Fraction is built
    at the end.
    """
    t = _as_fraction(t)
    nums, den = _integer_coeffs(w)
    p, q = t.numerator, t.denominator
    acc, scale = nums[-1], 1
    for c in reversed(nums[:-1]):
        scale *= q
        acc = acc * p + c * scale
    return Fraction(acc, den * scale)


def eval_P_symbolic(w: int, t) -> MultiPoly | Fraction:
    """Polynomial composition: the offset-w polynomial evaluated at a MultiPoly by the
    engine's Horner loop; a rational ``t`` gives :func:`eval_P`'s ``Fraction``."""
    if not isinstance(t, MultiPoly):
        return eval_P(w, t)
    return MultiPoly._coerce(_horner(stirling_poly(w), t))  # w = 0: the constant 1
