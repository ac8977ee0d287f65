"""Log-expansion vanishing verifier for the exponential generating series.

The object under study is the x^j coefficient of

    exp( n*r*x - sum_{s>=2} (n*u_s/s) * (-x)^s )

with n, r, j and the u_s kept fully symbolic (r as a Laurent variable, since
it gets divided out).  Factoring out ``n^j r^j / j!`` turns that coefficient
into ``sum_{h=0}^{j-1} a_h(r, j) / n^h``; the claim under test is that every
``j^k n^{-h}`` coefficient of ``log(1 + sum_{s>=1} a_s/n^s)`` vanishes
whenever ``k >= h + 2``.

Two independent routes produce the ``a_h``:

* a closed form summing over multisets ``{s_1..s_p}`` with
  ``sum (s_i - 1) = h``: each contributes
  ``prod_i(-(-1)^{s_i} u_{s_i}/s_i) * j(j-1)...(j-m+1) / (r^m * aut)``
  with ``m = sum s_i`` and ``aut`` the multiset automorphism count; this is
  the production route, and
* the oracle: readback from the series exponential at integer j, followed
  by exact interpolation in j with surplus witnesses; one exponential,
  truncated at the largest sample J, serves every sample, since ``x^s``
  with ``s > j`` cannot reach ``x^j``.

The comparison of the two is the one check on each ``a_h``, made once per
distinct input.  A term of the wrong u-weight, a stray variable or a
misfiled order on either side cannot pass it: in a node sample it moves the
fit off the witnesses or the closed form, in a witness sample it breaks
polynomiality, and in the closed form it differs from the fit.

Both routes run in a quotient ring that keeps every monomial the extracted
coefficients can see.  The readback exponential drops u-weight above h_max
(``u_s`` weighs ``s - 1``): weight is additive and nonnegative, so such a
monomial never feeds an ``a_h`` with ``h <= h_max``, and only those are read
back.  A caller that reads squarefree u-monomials only (the bridge) also
drops every ``u_s^2``, in the exponential, the closed form and the log.
Reduction modulo a monomial ideal is a ring homomorphism, so the closed form
and the oracle are still compared exactly, in that quotient.

Setting all u_s to zero except a chosen index set is supported directly:
callers pass ``u_indices`` and every route restricts to multisets drawn from
it, which is exact at every order (the discarded monomials vanish under the
zeroing, they are not truncated away).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    BudgetError,
    ConsistencyError,
    MultiPoly,
    Series,
    _as_int,
    _dense_from_nodes,
    interpolate_in_var,
)

__all__ = [
    "N",
    "R",
    "J",
    "X",
    "NINV",
    "u_name",
    "ExpansionConfig",
    "VanishingCheck",
    "expansion_coefficients",
    "symbolic_expansion_coefficient",
    "log_expansion",
    "vanishing_report",
]

N = "n"
R = "r"
J = "j"
X = "x"       # series expansion variable for the x^j readoff
NINV = "ninv"  # series expansion variable standing for 1/n


def u_name(s: int) -> str:
    return f"u{s}"


def _u_weight(s: int) -> int:
    return s - 1


class ExpansionConfig(NamedTuple("_ExpansionConfig",
                                 [("h_max", int), ("s_max", int), ("j_samples", tuple)])):
    """Budget for the vanishing checks, and the one place it is checked.

    ``h_max`` is the deepest 1/n order checked, ``s_max`` the largest u-index
    kept as an indeterminate, and ``j_samples`` the integer j values feeding
    the interpolation oracle.  Each value must be an int or a Fraction with
    denominator 1; anything else raises ``ValueError`` rather than being
    truncated.  A budget the routes cannot run exactly is refused here, with
    ``ValueError``, whenever it is built (``_replace`` too):

    * ``s_max >= h_max + 1``: ``u_s`` weighs ``s - 1``, so every u-index up
      to ``h_max + 1`` reaches an order ``<= h_max``; a smaller ``s_max``
      would silently drop genuine ``u_s`` terms from the deepest orders.
    * at least ``2*h_max + 1`` distinct samples, each ``j >= h_max + 1``:
      the oracle for order h fits j-degree ``2h`` through the first ``2h+1``
      samples, and the readback reaches order ``h_max`` at each of them.

    A field left out is derived from ``h_max``, so ``ExpansionConfig(h_max=H)``
    is the whole budget for depth H: ``s_max = max(6, h_max + 1)`` (the floor
    of 6 changes no value and keeps every shallower depth's recorded budget)
    and ``j_samples = h_max+1 .. 3*h_max+4``, the ``2h+1`` nodes at
    ``h = h_max`` plus three witnesses.
    """

    __slots__ = ()

    def __new__(cls, h_max: int = 4, s_max: Optional[int] = None,
                j_samples: Optional[Sequence[int]] = None):
        h_max = _as_int(h_max, "h_max")
        s_max = max(6, h_max + 1) if s_max is None else _as_int(s_max, "s_max")
        if h_max < 1:
            raise ValueError("need h_max >= 1")
        if s_max < h_max + 1:
            raise ValueError(
                f"s_max={s_max} would drop u_s terms from orders up to h_max={h_max}; "
                f"need s_max >= {h_max + 1}")
        samples = tuple(_as_int(j, "j sample") for j in (
            range(h_max + 1, 3 * h_max + 5) if j_samples is None else j_samples))
        if len(set(samples)) != len(samples):
            raise ValueError("j samples must be distinct")
        if any(j < h_max + 1 for j in samples):
            raise ValueError(f"every j sample must be >= h_max+1 = {h_max + 1}")
        if len(samples) < 2 * h_max + 1:
            raise ValueError(
                f"the oracle at order {h_max} needs {2 * h_max + 1} j samples, "
                f"got {len(samples)}")
        return super().__new__(cls, h_max, s_max, samples)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def u_indices(self, kept: Optional[Sequence[int]] = None) -> tuple:
        """The u-indices a route keeps: ``2..s_max``, or ``kept`` sorted without
        repeats and used as given, whatever ``s_max`` is (every other u_s is zero
        by assumption, exact at every order).  Each must be an integer >= 2."""
        if kept is None:
            return tuple(range(2, self.s_max + 1))
        indices = {_as_int(s, "u-index") for s in kept}
        if any(s < 2 for s in indices):
            raise ValueError(f"u-indices must be >= 2, got {sorted(indices)}")
        return tuple(sorted(indices))


def _quotient(u_indices: tuple, max_weight: Optional[int], squarefree: bool):
    """The ideal of u-weight > ``max_weight`` and, if ``squarefree``, every u_s^2.

    Returned as ``(weights, max_weight, squarefree)`` for the ``ideal``
    argument of :meth:`Series.exp` and :meth:`Series.log`; with no bound and
    no squares it is the empty ideal.  Weights are additive and nonnegative,
    and exponents only grow under multiplication, so both generate monomial
    ideals and reduction is a ring homomorphism onto the quotient.
    """
    weights = {u_name(s): _u_weight(s) for s in u_indices}
    return weights, max_weight, tuple(weights) if squarefree else ()


@lru_cache(maxsize=None)
def _generating_series(order: int, u_indices: tuple, max_weight: Optional[int] = None,
                       squarefree: bool = False) -> Series:
    # exact with the defaults; otherwise exact only modulo the _quotient ideal
    n = MultiPoly.variable(N)
    r = MultiPoly.variable(R, laurent=True)
    entries = {1: n * r}
    for s in u_indices:
        if 2 <= s <= order:
            # -(n u_s / s) (-x)^s contributes (-1)^(s+1) n u_s / s at x^s
            entries[s] = n * MultiPoly.variable(u_name(s)) * Fraction((-1) ** (s + 1), s)
    return Series.from_dict(X, order, entries).exp(
        ideal=_quotient(u_indices, max_weight, squarefree))


def expansion_coefficients(j: int, gj: MultiPoly, h_max: Optional[int] = None) -> list:
    """Read a_0 .. a_{j-1} off the x^j generating coefficient, or only a_0 .. a_{h_max}.

    ``a_h`` is the n^{j-h} coefficient of ``j! * gj`` divided by r^j, zero
    where that power is absent.  One pass over the terms of ``gj`` files each
    under its order ``h = j - deg_n``, on ``gj``'s registry without n.  ``gj``
    may carry only the powers n^{j-h} of the orders read, else ``ValueError``;
    with ``h_max`` it is the coefficient of a series cut above u-weight
    ``h_max``.  The values are not checked here: the interpolation oracle of
    :func:`symbolic_expansion_coefficient` compares them with the closed form.
    """
    orders = j if h_max is None else min(j, h_max + 1)
    n_at, r_at = gj._index_of(N), gj._index_of(R)
    scale = factorial(j)
    filed = [{} for _ in range(orders)]
    for exps, coeff in gj.terms.items():
        h = j - exps[n_at]
        if not 0 <= h < orders:
            raise ValueError(
                f"generating coefficient carries n^{exps[n_at]}, "
                f"outside {j - orders + 1}..{j}")
        key = list(exps)
        key[r_at] -= j
        del key[n_at]
        filed[h][tuple(key)] = coeff * scale
    names = gj.vars[:n_at] + gj.vars[n_at + 1:]
    flags = (gj.laurent - {N}) | {R}
    return [MultiPoly._raw(names, flags, terms) for terms in filed]


@lru_cache(maxsize=None)
def _readback_coefficients(j: int, order: int, u_indices: tuple, h_max: int,
                           squarefree: bool = False) -> tuple:
    # x^s with s > j cannot reach x^j, so the order-``order`` series holds the
    # order-j coefficient at x^j: one exponential serves every sample j.
    # That exponential drops u-weight > h_max, so its x^j coefficient holds
    # exactly the powers n^{j-h_max} .. n^j that a_0 .. a_{h_max} are read from.
    gj = _generating_series(order, u_indices, h_max, squarefree).coefficient(j)
    return tuple(expansion_coefficients(j, gj, h_max))


def _partitions(n: int, max_part: Optional[int] = None):
    # nonincreasing integer partitions of n, parts >= 1
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _closed_form(h: int, u_indices: tuple, squarefree: bool = False) -> MultiPoly:
    """a_h(r, j) as a term map on the registry ``(j, r, u_s for s in u_indices)``.

    Each multiset ``{s_1..s_p}`` drawn from ``u_indices`` with
    ``sum (s_i - 1) = h`` has ``m = h + p``, automorphism count
    ``aut = prod over distinct s of mult(s)!`` and the integer coefficients
    ``c_{m,k}`` of ``j(j-1)...(j-m+1) = sum_k c_{m,k} j^k``, read off the node
    product over ``0..m-1`` (they are the signed Stirling numbers
    ``(-1)^(m-k) [m, k]``).  It gives one term per power of j::

        prod_i((-1)^(s_i+1) / s_i) * c_{m,k} / aut * j^k * r^(-m) * u_{s_1}...u_{s_p}

    Distinct multisets give distinct u-monomials, so no two terms share an
    exponent vector.  With ``squarefree`` the multisets with a repeated
    index are skipped: their monomials lie in the ideal (u_s^2).
    """
    names = (J, R) + tuple(u_name(s) for s in u_indices)
    slot = {s: i for i, s in enumerate(u_indices, start=2)}
    terms = {}
    for parts in _partitions(h):
        mult = Counter(p + 1 for p in parts)
        if any(s not in slot for s in mult):
            continue
        if squarefree and any(count > 1 for count in mult.values()):
            continue
        m = h + len(parts)
        sign = (-1) ** sum((s + 1) * count for s, count in mult.items())
        den = prod(s ** count * factorial(count) for s, count in mult.items())  # prod s_i * aut
        exps = [0] * len(names)
        exps[1] = -m
        for s, count in mult.items():
            exps[slot[s]] = count
        for k, c in enumerate(_dense_from_nodes(range(m))):
            if c:
                exps[0] = k
                terms[tuple(exps)] = Fraction(sign * c, den)
    return MultiPoly(names, terms, laurent=(R,))


@lru_cache(maxsize=None)
def _checked_coefficient(h: int, cfg: ExpansionConfig, u_indices: tuple,
                         squarefree: bool) -> MultiPoly:
    # the closed form a_h, compared with its interpolation oracle once per
    # distinct input: a bridge's w values share one depth h and one u-index
    # set, so the second w refits nothing
    value = _closed_form(h, u_indices, squarefree)
    if h == 0:
        return value
    order = max(cfg.j_samples)
    samples = [(j, _readback_coefficients(j, order, u_indices, cfg.h_max, squarefree)[h])
               for j in cfg.j_samples]
    oracle = interpolate_in_var(samples, J, 2 * h)
    if oracle != value:
        raise ConsistencyError(
            f"closed form and interpolation oracle disagree at order {h}")
    return value


def symbolic_expansion_coefficient(h: int, cfg: ExpansionConfig,
                                   u_indices: Optional[Sequence[int]] = None,
                                   squarefree: bool = False) -> MultiPoly:
    """a_h(r, j) with j symbolic, via the multiset closed form.

    The interpolation oracle over every configured j sample is the one check
    on the value, and it is mandatory (``cfg`` holds at least 2h+1 samples,
    each reaching order h in the readback): the first 2h+1 samples define
    the interpolant, the rest are polynomiality witnesses
    (:class:`PolynomialityError`), and a fit that differs from the closed
    form aborts with :class:`ConsistencyError`.  At h = 0 the closed form,
    identically 1, is returned without an oracle.  The check is made once
    per distinct input ``(h, cfg, u-indices, squarefree)``, with the
    u-indices as ``cfg.u_indices`` normalizes them, and its value is kept.

    With ``squarefree`` the value is a_h modulo every u_s^2: its terms
    squarefree in u.  Both routes are then compared in that quotient ring,
    which is exact there because the reduction is a ring homomorphism.
    """
    if h < 0:
        raise ValueError("need h >= 0")
    if h > cfg.h_max:
        raise BudgetError(f"order {h} beyond configured h_max={cfg.h_max}")
    return _checked_coefficient(h, cfg, cfg.u_indices(u_indices), bool(squarefree))


def log_expansion(cfg: ExpansionConfig,
                  u_indices: Optional[Sequence[int]] = None,
                  squarefree: bool = False) -> Series:
    """log(1 + sum_{s>=1} a_s/n^s) truncated at 1/n order h_max.

    Orders beyond the truncation cannot feed back into the kept ones, so the
    fixed truncation is exact for every extracted order.  The u-indices kept
    are ``cfg.u_indices(u_indices)``.

    ``squarefree`` computes the series modulo every u_s^2, for a caller that
    reads only squarefree u-monomials: exponents only grow under
    multiplication, so a dropped term never feeds a kept one.  Every a_h is
    then reduced, and its closed form and interpolation oracle are compared
    in that quotient.
    """
    indices = cfg.u_indices(u_indices)
    coeffs = [MultiPoly.constant(1)]
    for h in range(1, cfg.h_max + 1):
        coeffs.append(symbolic_expansion_coefficient(h, cfg, indices, squarefree=squarefree))
    return Series(NINV, cfg.h_max, coeffs).log(ideal=_quotient(indices, None, squarefree))


class VanishingCheck(NamedTuple):
    """Verdict for one (h, k) component of the log expansion."""

    h: int
    k: int
    value: MultiPoly
    j_degree_at_order: int  # degree in j of the whole n^{-h} coefficient

    @property
    def vanished(self) -> bool:
        return self.value.is_zero()


def vanishing_report(cfg: ExpansionConfig) -> list:
    """Check every j^k component with k >= h+2 for h = 1..h_max, all u_2..u_{s_max} kept.

    The n^{-h} coefficient has j-degree at most 2h, so components from h+2 up
    to max(2h, h+2) decide the claim; a nonzero component is reported
    verbatim as a counterexample candidate, never summarized away.
    """
    series = log_expansion(cfg)
    checks = []
    for h in range(1, cfg.h_max + 1):
        coeff = series.coefficient(h).with_vars([J])
        degree = coeff.degree_in(J)
        for k in range(h + 2, max(2 * h, h + 2) + 1):
            checks.append(VanishingCheck(h, k, coeff.coefficient_in(J, k), degree))
    return checks
