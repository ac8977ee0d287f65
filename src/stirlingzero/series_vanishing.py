"""Log-expansion vanishing verifier for the exponential generating series.

The object under study is the x^j coefficient of

    exp( n*r*x - sum_{s>=2} (n*u_s/s) * (-x)^s )

with n, r, j and the u_s kept fully symbolic (r with negative powers, since
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
  with ``s > j`` cannot reach ``x^j``; it is taken as its exponential
  generating function, ``j! f_j`` at ``x^j``, so each sample is read off
  as it stands, with no ``j!`` divided out and multiplied back.

The comparison of the two is the one check on each ``a_h``.  A term of
the wrong u-weight, a stray variable or a misfiled order on either side
cannot pass it: in a node sample it moves the fit off the witnesses or the
closed form, in a witness sample it breaks polynomiality, and in the closed
form it differs from the fit.

Part-2 state is kept per budget, one :class:`ExpansionConfig` value that
carries the u-indices and the quotient too: the readback samples and the
log with every ``a_h`` checked, so production checks each ``a_h`` once per
budget.

Both routes run in a quotient ring that keeps every monomial the extracted
coefficients can see.  The readback exponential drops u-weight above h_max
(``u_s`` weighs ``s - 1``): weight is additive and nonnegative, so such a
monomial never feeds an ``a_h`` with ``h <= h_max``, and only those are read
back.  A caller that reads squarefree u-monomials only (the bridge) also
drops every ``u_s^2``, in the exponential, the closed form and the log.
Reduction modulo a monomial ideal is a ring homomorphism, so the closed form
and the oracle are still compared exactly, in that quotient.

Setting all u_s to zero except a chosen index set is supported directly:
the budget's ``u_indices`` restrict every route to multisets drawn from
them, which is exact at every order (the discarded monomials vanish under
the zeroing, they are not truncated away).
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
                                 [("h_max", int), ("s_max", int), ("j_samples", tuple),
                                  ("u_indices", tuple), ("squarefree", bool)])):
    """Budget for the vanishing checks, and the one place it is checked.

    ``h_max`` is the deepest 1/n order checked, ``s_max`` the largest u-index
    kept as an indeterminate, and ``j_samples`` the integer j values feeding
    the interpolation oracle.  ``u_indices`` are the u-indices every route
    keeps, sorted without repeats; every other u_s is zero by assumption,
    which is exact at every order, so given indices are used whatever
    ``s_max`` is.  ``squarefree`` (exactly ``True`` or ``False``) runs every
    route modulo each u_s^2, for a caller that reads squarefree u-monomials
    only.  Each number must be an int or a Fraction with denominator 1, and
    each u-index at least 2; anything else raises ``ValueError`` rather than
    being truncated.  A budget the routes cannot run exactly is refused here,
    with ``ValueError``, whenever it is built (``_replace`` too):

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
    ``h = h_max`` plus three witnesses; ``u_indices = 2..s_max``.  Derived
    u-indices follow a new ``s_max`` through ``_replace``; every other field,
    derived or given, is kept by it, and checked.
    """

    __slots__ = ()

    def __new__(cls, h_max: int = 4, s_max: Optional[int] = None,
                j_samples: Optional[Sequence[int]] = None,
                u_indices: Optional[Sequence[int]] = None, squarefree: bool = False):
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
        indices = _DerivedIndices(range(2, s_max + 1)) if u_indices is None else tuple(
            sorted({_as_int(s, "u-index") for s in u_indices}))
        if indices and indices[0] < 2:
            raise ValueError(f"u-indices must be >= 2, got {list(indices)}")
        if squarefree is not True and squarefree is not False:
            raise ValueError(f"squarefree {squarefree!r} is not True or False")
        return super().__new__(cls, h_max, s_max, samples, indices, squarefree)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def _replace(self, **changes):  # derived u-indices follow the new s_max
        if type(self.u_indices) is _DerivedIndices:
            changes.setdefault("u_indices", None)
        return super()._replace(**changes)


class _DerivedIndices(tuple):
    """Derived u-indices, equal to the plain tuple; only ``_replace`` derives them again."""


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
def _readback(cfg: ExpansionConfig) -> dict:
    """``{j: (a_0 .. a_{h_max})}`` at every sample j, read off one cut exponential.

    The exponential of the module docstring, truncated at the largest sample
    and cut modulo the :func:`_quotient` ideal of u-weight above ``h_max``, is
    taken once as its exponential generating function (``egf``), not kept:
    its x^j coefficient is ``j! f_j``, whose n^{j-h} coefficient over r^j is
    ``a_h``.  Each of its terms is filed under its order ``h = j - deg_n``
    without the n slot and with r's exponent lowered by j; an absent power
    reads zero, and a power of n outside the orders ``0..h_max`` raises
    ``ValueError``.  The values are checked only by the interpolation oracle
    of :func:`symbolic_expansion_coefficient`.
    """
    top = max(cfg.j_samples)
    n = MultiPoly.variable(N)
    entries = {1: n * MultiPoly.variable(R)}
    for s in cfg.u_indices:
        if s <= top:
            # -(n u_s / s) (-x)^s contributes (-1)^(s+1) n u_s / s at x^s
            entries[s] = n * MultiPoly.variable(u_name(s)) * Fraction((-1) ** (s + 1), s)
    series = Series.from_dict(X, top, entries).exp(
        _quotient(cfg.u_indices, cfg.h_max, cfg.squarefree), egf=True)
    samples = {}
    for j in cfg.j_samples:
        gj = series.coefficient(j)
        n_at, r_at = gj._index_of(N), gj._index_of(R)
        filed = [{} for _ in range(cfg.h_max + 1)]
        for exps, c in gj.terms.items():
            h = j - exps[n_at]
            if not 0 <= h <= cfg.h_max:
                raise ValueError(f"x^{j} coefficient carries n^{exps[n_at]}, "
                                 f"outside {j - cfg.h_max}..{j}")
            key = list(exps)
            key[r_at] -= j
            del key[n_at]
            filed[h][tuple(key)] = c
        kept = gj.vars[:n_at] + gj.vars[n_at + 1:]
        samples[j] = tuple(MultiPoly._raw(kept, terms) for terms in filed)
    return samples


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: Optional[int] = None) -> tuple:
    # nonincreasing integer partitions of n, parts >= 1, kept per (n, max_part)
    if n == 0:
        return ((),)
    top = n if max_part is None else min(n, max_part)
    return tuple((first,) + rest for first in range(top, 0, -1)
                 for rest in _partitions(n - first, first))


@lru_cache(maxsize=None)
def _falling(m: int) -> tuple:
    # c_{m,0} .. c_{m,m} of j(j-1)...(j-m+1), low degree first, kept per m
    return tuple(_dense_from_nodes(range(m)))


def _closed_form(h: int, u_indices: tuple, squarefree: bool = False) -> MultiPoly:
    """a_h(r, j) as a term map on the registry ``(j, r, u_s for s in u_indices)``.

    Each multiset ``{s_1..s_p}`` drawn from ``u_indices`` with
    ``sum (s_i - 1) = h`` has ``m = h + p``, automorphism count
    ``aut = prod over distinct s of mult(s)!`` and the integer coefficients
    ``c_{m,k}`` of ``j(j-1)...(j-m+1) = sum_k c_{m,k} j^k``, read off the node
    product over ``0..m-1`` once per ``m`` (they are the signed Stirling
    numbers ``(-1)^(m-k) [m, k]``).  It gives one term per power of j::

        prod_i((-1)^(s_i+1) / s_i) * c_{m,k} / aut * j^k * r^(-m) * u_{s_1}...u_{s_p}

    Distinct multisets give distinct u-monomials, so no two terms share an
    exponent vector; with int exponents and nonzero coefficients the map is
    canonical as built.  With ``squarefree`` the multisets with a repeated
    index are skipped: their monomials lie in the ideal (u_s^2).
    """
    names = (J, R) + tuple(u_name(s) for s in u_indices)
    slot = {s: i for i, s in enumerate(u_indices, start=2)}
    terms = {}
    for parts in _partitions(h):
        mult = Counter(p + 1 for p in parts)
        if any(s not in slot for s in mult) or (squarefree and len(mult) < len(parts)):
            continue
        m = h + len(parts)
        sign = (-1) ** sum((s + 1) * count for s, count in mult.items())
        den = prod(s ** count * factorial(count) for s, count in mult.items())  # prod s_i * aut
        exps = [0] * len(names)
        exps[1] = -m
        for s, count in mult.items():
            exps[slot[s]] = count
        for k, c in enumerate(_falling(m)):
            if c:
                exps[0] = k
                terms[tuple(exps)] = Fraction(sign * c, den)
    return MultiPoly._raw(names, terms)


def symbolic_expansion_coefficient(h: int, cfg: ExpansionConfig) -> MultiPoly:
    """a_h(r, j) with j symbolic, via the multiset closed form.

    The interpolation oracle over every configured j sample is the one check
    on the value, and it is mandatory (``cfg`` holds at least 2h+1 samples,
    each reaching order h in the readback): the first 2h+1 samples define
    the interpolant, the rest are polynomiality witnesses
    (:class:`PolynomialityError`), and a fit that differs from the closed
    form aborts with :class:`ConsistencyError`.  At h = 0 the closed form,
    identically 1, is returned without an oracle.  No value is kept: every
    call runs the oracle, on the readback samples kept per budget ``cfg``.

    With ``cfg.squarefree`` the value is a_h modulo every u_s^2: its terms
    squarefree in u.  Both routes are then compared in that quotient ring,
    which is exact there because the reduction is a ring homomorphism.
    """
    h = _as_int(h, "h")
    if h < 0:
        raise ValueError("need h >= 0")
    if h > cfg.h_max:
        raise BudgetError(f"order {h} beyond configured h_max={cfg.h_max}")
    value = _closed_form(h, cfg.u_indices, cfg.squarefree)
    if h == 0:
        return value
    samples = [(j, coeffs[h]) for j, coeffs in _readback(cfg).items()]
    if interpolate_in_var(samples, J, 2 * h) != value:
        raise ConsistencyError(
            f"closed form and interpolation oracle disagree at order {h}")
    return value


@lru_cache(maxsize=None)
def log_expansion(cfg: ExpansionConfig) -> Series:
    """log(1 + sum_{s>=1} a_s/n^s) truncated at 1/n order h_max, every a_h checked.

    Orders beyond the truncation cannot feed back into the kept ones, so the
    fixed truncation is exact for every extracted order.  The series is made
    once per budget ``cfg`` and shared, so callers must not mutate it.

    With ``cfg.squarefree`` the series is computed modulo every u_s^2:
    exponents only grow under multiplication, so a dropped term never feeds
    a kept one.  Every a_h is then reduced, and its closed form and
    interpolation oracle are compared in that quotient.
    """
    coeffs = [MultiPoly.constant(1)]
    for h in range(1, cfg.h_max + 1):
        coeffs.append(symbolic_expansion_coefficient(h, cfg))
    return Series(NINV, cfg.h_max, coeffs).log(
        ideal=_quotient(cfg.u_indices, None, cfg.squarefree))


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
    """Check every j^k component with k >= h+2 for h = 1..h_max, on the budget ``cfg``.

    Components from h+2 up to max(2h, h+2), or to the coefficient's j-degree if
    higher (never, on true data: it is at most 2h), decide the claim; a nonzero
    component is reported verbatim as a counterexample candidate, never summarized away.
    """
    series = log_expansion(cfg)
    checks = []
    for h in range(1, cfg.h_max + 1):
        coeff = series.coefficient(h).with_vars([J])
        degree = coeff.degree_in(J)
        for k in range(h + 2, max(2 * h, h + 2, degree) + 1):
            checks.append(VanishingCheck(h, k, coeff.coefficient_in(J, k), degree))
    return checks
