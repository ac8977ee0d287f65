"""Exact scalar, polynomial, and truncated-series arithmetic kernel.

Every number in the engine is a :class:`fractions.Fraction`; there is no
floating point anywhere.  The heavy loops (polynomial products, the series
exponential and logarithm, the interpolation fit) run over Python ints:
numerators over one shared denominator, with one Fraction built per output
coefficient at the end.  On top of that sit two value types:

* :class:`MultiPoly` -- a sparse multivariate Laurent polynomial, stored as
  a map from integer exponent vectors to nonzero rational coefficients.  Any
  exponent may be negative (the variable that gets divided out of series
  coefficients carries negative powers).
* :class:`Series` -- a truncated power series in a single expansion variable
  whose coefficients are MultiPoly values.  The truncation order is explicit
  in the type and never inferred; asking for a coefficient beyond it raises
  :class:`PrecisionError` instead of silently returning zero.

Inside every product (:meth:`MultiPoly.__mul__`, :meth:`Series.exp` and
:meth:`Series.log`) a monomial is one int, not an exponent tuple: each slot
is a signed fixed-width digit of the key (:class:`_Packer`), wide enough for
every exponent the product can form, so multiplying two monomials is adding
two ints.  A tuple is built again only for each output term.

All values are immutable after construction and may be shared freely across
threads or pickled to worker processes.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import factorial, lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

# (weights, max_weight, squarefree): the monomial ideal generated by the monomials
# heavier than max_weight (None: no bound) and the squares of the squarefree variables
Ideal = tuple[Mapping[str, int], Optional[int], Iterable[str]]
_EMPTY_IDEAL: Ideal = (MappingProxyType({}), None, ())

__all__ = [
    "MultiPoly",
    "Series",
    "interpolate_in_var",
    "EngineError",
    "PrecisionError",
    "PolynomialityError",
    "ConsistencyError",
    "BudgetError",
]


class EngineError(Exception):
    """Base class for engine-level failures."""


class PrecisionError(EngineError):
    """A coefficient beyond the stored truncation order was requested."""


class PolynomialityError(EngineError):
    """A surplus interpolation sample disagrees with the fitted polynomial."""


class ConsistencyError(EngineError):
    """Two independent computation routes disagree (internal bug trap)."""


class BudgetError(EngineError):
    """The configured budget is too small for the requested computation."""


def _var_key(name: str):
    # the one, total variable order: "u2" before "u10", a bare name before numbered
    # ones, and the whole name last ("a01" before "a1"), so no set order leaks out
    head = name.rstrip("0123456789")
    digits = name[len(head):]
    return head, int(digits) if digits else -1, name


def _as_fraction(value) -> Fraction:
    # an int or a Fraction; bools, floats and strings are refused
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _as_int(value, what: str) -> int:
    # an int or a Fraction with denominator 1; bools, floats and strings are
    # refused rather than truncated
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} {value!r} is not an integer")


# ------------------------------------------------- integer-numerator kernel
# A term map {exponents: coefficient} is carried as integer numerators over a
# denominator kept beside it; ints and Fractions both expose
# numerator/denominator, so either may come in.

def _numerators(terms: Mapping, den: Optional[int] = None):
    """``(numerators, den)``: the integer numerators of ``terms`` over ``den``.

    ``den`` defaults to the lcm of the coefficients' denominators; a given
    one must be a multiple of each of them.
    """
    if den is None:
        den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _ideal_slots(names, exponents: Iterable[tuple], weights: Mapping[str, int],
                 squarefree: Iterable[str]):
    # (weight of each registry slot, slots of the squarefree variables), once
    # checked to define a monomial ideal on the exponent tuples it reduces:
    # multiplying two of their monomials must never lower a weight or cancel
    # a square, so no weight is negative, and no weighted or squarefree slot
    # holds a negative exponent
    weight_of = [weights.get(name, 0) for name in names]
    square = set(squarefree)
    lowest = [min(slot) for slot in zip(*exponents)] or [0] * len(names)
    for name, weight, low in zip(names, weight_of, lowest):
        if weight < 0 or (weight and low < 0):
            raise ValueError(f"weight {weight} on {name!r} (lowest exponent {low}) "
                             "does not define an ideal")
        if name in square and low < 0:
            raise ValueError(f"squarefree {name!r} (lowest exponent {low}) "
                             "does not define an ideal")
    return weight_of, [i for i, name in enumerate(names) if name in square]


class _Packer:
    """Exponent tuples of one registry packed into ints, and back.

    Slot ``i`` of a tuple ``e`` is the signed digit ``e_i * B**i`` of the key
    ``sum_i e_i * B**i``, with ``B = 256**size`` and ``size`` the fewest bytes
    (1, 2, 4, 8, 16, ...) whose half range ``H = B/2`` exceeds ``bound``.
    Packing is additive, ``pack(e) + pack(f) == pack(e + f)``, because it is
    linear in ``e``.  It is injective on the tuples whose every slot lies in
    ``-bound..bound``: adding ``O = sum_i H * B**i`` gives the base-``B``
    digits ``e_i + H``, each in ``1..2H-1``, which are unique, so
    :meth:`unpack` reads a sum back exactly as long as the summed slots stay
    within the bound.  Flipping the top bit of each such digit (``^ O``)
    leaves ``e_i`` in two's complement, so both directions are one ``bytes``
    object through ``struct``'s signed codes, in C.
    """

    __slots__ = ("bound", "_length", "_offset", "_encode", "_decode")

    def __init__(self, width: int, bound: int):
        self.bound = bound
        size = 1
        while 1 << (8 * size - 1) <= bound:
            size *= 2
        self._length = width * size
        self._offset = int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * width,
                                      "little")
        if size <= 8:
            digits = struct.Struct(f"<{width}{'bhiq'[size.bit_length() - 1]}")
            self._encode, self._decode = digits.pack, digits.unpack
        else:  # wider than struct's widest integer: one conversion per slot
            cuts = [slice(i, i + size) for i in range(0, self._length, size)]
            self._encode = lambda *e: b"".join(x.to_bytes(size, "little", signed=True) for x in e)
            self._decode = lambda data: tuple(
                int.from_bytes(data[c], "little", signed=True) for c in cuts)

    def pack(self, exps) -> int:
        return (int.from_bytes(self._encode(*exps), "little") ^ self._offset) - self._offset

    def unpack(self, key: int) -> tuple:
        return self._decode(((key + self._offset) ^ self._offset).to_bytes(self._length, "little"))


def _mul_packed(out: dict, ta: Mapping, tb: Mapping, scale: int) -> None:
    # out += scale * ta * tb, on integer coefficients by packed key (_Packer):
    # adding two keys multiplies the monomials
    for ea, a in ta.items():
        a *= scale
        for eb, b in tb.items():
            key = ea + eb
            acc = out.get(key)
            out[key] = a * b if acc is None else acc + a * b


class _IntPoly(dict):
    """Int coefficients by packed monomial key (:class:`_Packer`), zeros kept: it adds
    and multiplies with itself and with ints, and pickles as the dict it is; the
    registry and the packer that give its keys meaning stay with the caller."""

    __slots__ = ()

    @classmethod
    def packed(cls, x, names, packer: _Packer) -> "_IntPoly":  # x: int, or int coefficients
        return cls({packer.pack(e): _as_int(c, "coefficient")
                    for e, c in MultiPoly._coerce(x, names)._remap(names).items()})

    def unpacked(self, names, packer: _Packer, den: int = 1) -> "MultiPoly":
        # over den, on names; each exponent must lie in the packer's range, 0..bound
        top, out = packer.pack((packer.bound,) * len(names)), {}
        for key, c in self.items():
            exps = packer.unpack(key) if 0 <= key <= top else (-1,)  # else past every slot
            if min(exps) < 0 or max(exps) > packer.bound:
                raise ConsistencyError(f"key {key} packs an exponent outside 0..{packer.bound}")
            out[exps] = Fraction(c, den)
        return MultiPoly(names, out)  # which drops the zeros

    def __add__(self, other):
        big, small = sorted((self, {0: other} if isinstance(other, int) else other), key=len)[::-1]
        out = _IntPoly(big)  # copied in C; the loop runs over the smaller map
        for key, c in small.items():
            out[key] = out.get(key, 0) + c
        return out

    __radd__ = __add__

    def __mul__(self, other):
        out = _IntPoly()  # an int is the constant, key 0
        _mul_packed(out, self, {0: other} if isinstance(other, int) else other, 1)
        return out

    __rmul__ = __mul__


def _groups(nums: Mapping, weight_of, square_slots, max_weight: Optional[int], pack) -> dict:
    # the term map reduced modulo the ideal of _ideal_slots' slots and split by
    # (weight, bitmask of the squarefree slots it carries) in one pass, with
    # packed keys: {(weight, mask): {key: c}}; a kept squarefree exponent is 0 or 1
    groups = {}
    for e, c in nums.items():
        weight = sum(map(mul, e, weight_of))
        if (max_weight is None or weight <= max_weight) and all(e[i] < 2 for i in square_slots):
            mask = sum(e[i] << bit for bit, i in enumerate(square_slots))
            groups.setdefault((weight, mask), {})[pack(e)] = c
    return groups


def _mul_groups(out: dict, ga: dict, gb: dict, scale: int, max_weight: Optional[int]) -> None:
    # out += scale * a * b modulo the ideal, all three split as _groups: a
    # product lies in a monomial ideal exactly when its monomial does, and a
    # pair's monomial does when the weights overflow or the squarefree masks
    # meet.  Weights add and disjoint masks join, so each product's group is
    # known from its factors' and no key is read.
    for (wa, ma), ta in ga.items():
        for (wb, mb), tb in gb.items():
            if not ma & mb and (max_weight is None or wa + wb <= max_weight):
                _mul_packed(out.setdefault((wa + wb, ma | mb), {}), ta, tb, scale)


def _nonzero(groups: dict) -> dict:
    # the split term map without its zero coefficients and empty groups
    return {g: kept for g, terms in groups.items()
            if (kept := {e: c for e, c in terms.items() if c})}


def _registry(polys, extra: Iterable[str] = ()):
    # the union of the registries, sorted
    return tuple(sorted(set(extra).union(*(p.vars for p in polys)), key=_var_key))


class MultiPoly:
    """Sparse multivariate Laurent polynomial with exact rational coefficients.

    ``vars`` is the ordered registry of variable names and ``terms`` maps
    integer exponent tuples (one slot per registered variable, of either
    sign) to nonzero Fractions.  Binary operations union the registries of
    their operands automatically.  Equality and hashing are semantic:
    registries that differ only by unused variables compare equal.
    """

    __slots__ = ("vars", "terms", "_key")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping | None = None):
        names = tuple(vars)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in registry")
        clean = {}
        if terms:
            width = len(names)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if any(type(e) is not int for e in exps):  # plain ints skip a call each
                    exps = tuple(_as_int(e, "exponent") for e in exps)
                if len(exps) != width:
                    raise ValueError(
                        f"exponent vector {exps} does not match registry of {width} variables")
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[exps] = coeff
        self.vars = names
        self.terms = clean
        self._key = None

    @classmethod
    def _raw(cls, names, terms) -> "MultiPoly":
        # internal fast path: inputs already canonical (int exponents, no
        # zero coefficients)
        self = object.__new__(cls)
        self.vars = names
        self.terms = terms
        self._key = None
        return self

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw((), {})

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        return cls._coerce(_as_fraction(value))

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls._raw((name,), {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def used_vars(self) -> frozenset:
        return frozenset(
            name for i, name in enumerate(self.vars)
            if any(e[i] for e in self.terms))

    # ----------------------------------------------------------- arithmetic

    @classmethod
    def _coerce(cls, value, names=()):
        # a MultiPoly as it is, a rational as the constant on names, else None
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            value = _as_fraction(value)
            return cls._raw(names, {(0,) * len(names): value} if value else {})
        return None

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        names = _registry((self, other))
        return names, self._remap(names), other._remap(names)

    def _remap(self, names):
        if names == self.vars:
            return self.terms
        pos = {n: i for i, n in enumerate(names)}
        width = len(names)
        out = {}
        for exps, coeff in self.terms.items():
            vec = [0] * width
            for name, e in zip(self.vars, exps):
                vec[pos[name]] = e
            out[tuple(vec)] = coeff
        return out

    # a scalar operand is the constant on this registry, so every operation
    # takes its one general path and no registry is merged for it
    def __add__(self, other):
        other = self._coerce(other, self.vars)
        if other is None:
            return NotImplemented
        names, ta, tb = self._aligned(other)
        out = dict(ta)
        for exps, coeff in tb.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc == 0:
                    del out[exps]
                else:
                    out[exps] = acc
        return MultiPoly._raw(names, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other, self.vars)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other, self.vars)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        # integer numerators on packed keys: no slot of the product exceeds
        # twice the largest exponent of either factor, the packer's bound
        other = self._coerce(other, self.vars)
        if other is None:
            return NotImplemented
        names, ta, tb = self._aligned(other)
        packer = _Packer(len(names), 2 * max(map(abs, chain(*ta, *tb)), default=0))
        na, da = _numerators(ta)
        nb, db = _numerators(tb)
        out = {}
        _mul_packed(out, {packer.pack(e): c for e, c in na.items()},
                    {packer.pack(e): c for e, c in nb.items()}, 1)
        den = da * db
        return MultiPoly._raw(names, {packer.unpack(k): Fraction(c, den)
                                      for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        e = _as_int(exponent, "exponent")  # as the constructor reads exponents
        if e < 0:
            raise ValueError(
                "only nonnegative integer powers; multiply by a Laurent monomial instead")
        result = MultiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ---------------------------------------------------------- structure

    def _index_of(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r}") from None

    def with_vars(self, names: Iterable[str]) -> "MultiPoly":
        """Extend the registry with ``names`` (at exponent zero everywhere)."""
        merged, terms, _ = self._aligned(MultiPoly(names))
        return MultiPoly._raw(merged, terms)

    def degree_in(self, var: str) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_in(self, var: str, power: int) -> "MultiPoly":
        """Coefficient of ``var**power`` (a polynomial free of ``var``)."""
        i = self._index_of(var)
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] == power:
                out[exps[:i] + (0,) + exps[i + 1:]] = coeff
        return MultiPoly._raw(self.vars, out)

    # -------------------------------------------------------- canonical form

    def _canonical(self):
        if self._key is None:
            used = [i for i in range(len(self.vars))
                    if any(e[i] for e in self.terms)]
            used.sort(key=lambda i: _var_key(self.vars[i]))
            names = tuple(self.vars[i] for i in used)
            terms = tuple(sorted(
                (tuple(e[i] for i in used), c) for e, c in self.terms.items()))
            self._key = (names, terms)
        return self._key

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,) * len(self.vars): other} if other else {})
        if isinstance(other, MultiPoly):
            if self.vars == other.vars:
                # one registry: the exponent tuples line up slot for slot
                return self.terms == other.terms
            return self._canonical() == other._canonical()
        return NotImplemented

    def __hash__(self):
        names, terms = self._canonical()
        if not names:  # a constant equals its scalar, so it hashes as that scalar
            return hash(terms[0][1] if terms else 0)
        return hash((names, terms))

    def canonical_str(self) -> str:
        """Deterministic text form (sorted term list), fit for ledgers/diffs."""
        names, terms = self._canonical()
        if not terms:
            return "0"
        parts = []
        for exps, coeff in terms:
            factors = []
            for name, e in zip(names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            mag = -coeff if coeff < 0 else coeff
            body = f"{mag}*{mono}" if mono and mag != 1 else (mono or str(mag))
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.canonical_str()})"


class Series:
    """Truncated power series in one expansion variable.

    ``coeffs[k]`` is the MultiPoly coefficient of ``var**k``; the truncation
    order is ``order`` and coefficients beyond it are *unknown*, not zero.
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        lst = []
        for c in coeffs[:order + 1]:
            p = MultiPoly._coerce(c)
            if p is None:
                raise TypeError(f"bad series coefficient {c!r}")
            lst.append(p)
        while len(lst) < order + 1:
            lst.append(MultiPoly.zero())
        self.var = var
        self.order = order
        self.coeffs = tuple(lst)

    @classmethod
    def from_dict(cls, var: str, order: int, entries: Mapping[int, object]) -> "Series":
        coeffs = [MultiPoly.zero()] * (order + 1)
        for k, v in entries.items():
            if not 0 <= k <= order:
                raise ValueError(f"coefficient index {k} outside 0..{order}")
            coeffs[k] = v
        return cls(var, order, coeffs)

    def coefficient(self, k: int) -> MultiPoly:
        if k < 0:
            raise ValueError("negative coefficient index")
        if k > self.order:
            raise PrecisionError(
                f"coefficient {k} requested beyond truncation order {self.order}")
        return self.coeffs[k]

    def _over_lcm(self, ideal: Ideal):
        # every coefficient on one registry, as integer numerators over the
        # lcm L of all their denominators, reduced modulo ``ideal``, split by
        # group and packed in one pass (_groups): (names, L, packer, max_weight,
        # [N_0..N_T]).  The ideal is checked once, on every input term.  A
        # recurrence coefficient of index k <= T is a sum of products of at
        # most k input terms, so no slot of its keys exceeds T times the
        # largest exponent of any input term, reduced away or not: the bound.
        names = _registry(self.coeffs)
        weights, max_weight, squarefree = ideal
        terms = [c._remap(names) for c in self.coeffs]
        weight_of, square_slots = _ideal_slots(names, [e for t in terms for e in t],
                                               weights, squarefree)
        den = lcm(*(c.denominator for t in terms for c in t.values()))
        if max_weight is None:
            weight_of = ()  # unbounded: the weights tell no pair apart
        bound = self.order * max(map(abs, chain.from_iterable(chain(*terms))), default=0)
        packer = _Packer(len(names), bound)
        return (names, den, packer, max_weight,
                [_groups(_numerators(t, den)[0], weight_of, square_slots, max_weight,
                         packer.pack) for t in terms])

    def _from_scaled(self, names, scaled, L, unpack, egf=False) -> "Series":
        # coefficient k is the groups scaled[k] over k! L^k (over L^k alone
        # with egf, so k! f_k), a tuple rebuilt from each packed key
        dens = [(1 if egf else factorial(k)) * L ** k for k in range(len(scaled))]
        return Series(self.var, self.order, [MultiPoly._raw(names, {
            unpack(e): Fraction(c, den) for terms in groups.values() for e, c in terms.items()})
            for den, groups in zip(dens, scaled)])

    def exp(self, ideal: Ideal = _EMPTY_IDEAL, *, egf: bool = False) -> "Series":
        """Exponential of a series with zero constant term.

        The coefficients satisfy ``k*f_k = sum_{i=1..k} i * s_i * f_{k-i}``
        with ``f_0 = 1``.  The recurrence runs over integers: with ``L`` the
        lcm of the denominators of every ``s_i`` and ``N_i = L*s_i``, put
        ``F_k = k! L^k f_k``.  Multiplying the recurrence by ``(k-1)! L^k``
        gives::

            F_k = sum_{i=1..k} i * N_i * F_{k-i} * (k-1)!/(k-i)! * L^(i-1)

        whose every factor is an integer (``i >= 1``), so each ``F_k`` has
        integer coefficients by induction from ``F_0 = 1``; one division per
        output coefficient recovers ``f_k``.

        The recurrence runs in the quotient ring by ``ideal`` (default: none),
        the triple ``(weights, max_weight, squarefree)`` of the monomial ideal
        generated by every monomial whose weight, the sum of ``weights[name]
        * exponent``, exceeds ``max_weight`` (``None``: no bound), and by the
        square of each ``squarefree`` variable.  A triple that defines no
        ideal on the series' terms raises ``ValueError``: a negative weight,
        or a weight or square on a variable with a negative exponent.  Each
        ``N_i`` is reduced (its terms in the ideal dropped) once on entry,
        and every ``N_i`` and ``F_k`` is held split by weight and by the
        squarefree variables it carries, so only the term pairs whose product
        lies outside the ideal are formed.  Reduction is a ring homomorphism,
        so each coefficient is the true one reduced.  Monomials are packed
        ints (:class:`_Packer`) from entry to output.

        With ``egf`` coefficient k is ``k! f_k`` instead, the exponential
        read as an exponential generating function: ``F_k`` over ``L^k``
        alone, so the ``k!`` is never divided out to be multiplied back.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential requires a zero constant term")
        names, L, packer, max_weight, S = self._over_lcm(ideal)
        F = [{(0, 0): {0: 1}}]
        for k in range(1, self.order + 1):
            acc = {}
            for i in range(1, k + 1):
                if S[i] and F[k - i]:
                    scale = i * (factorial(k - 1) // factorial(k - i)) * L ** (i - 1)
                    _mul_groups(acc, S[i], F[k - i], scale, max_weight)
            F.append(_nonzero(acc))
        return self._from_scaled(names, F, L, packer.unpack, egf)

    def log(self, ideal: Ideal = _EMPTY_IDEAL) -> "Series":
        """Logarithm of a series with constant term one.

        The coefficients satisfy ``g_k = s_k - (1/k) sum_{i=1..k-1} i * g_i *
        s_{k-i}`` with ``g_0 = 0``.  With ``L`` and ``N_i = L*s_i`` as in
        :meth:`exp`, put ``G_k = k! L^k g_k``; multiplying by ``k! L^k``
        gives::

            G_k = N_k * k! * L^(k-1)
                  - sum_{i=1..k-1} i * G_i * N_{k-i} * (k-1)!/i! * L^(k-i-1)

        whose every factor is an integer (``i <= k-1``), so every ``G_k`` is
        integral.  It runs in the quotient ring by ``ideal``, on split and
        packed ``N_i`` and ``G_k``, as in :meth:`exp`.
        """
        if self.coeffs[0] != 1:
            raise ValueError("series logarithm requires constant term equal to 1")
        names, L, packer, max_weight, S = self._over_lcm(ideal)
        G = [{}]
        for k in range(1, self.order + 1):
            lead = factorial(k) * L ** (k - 1)
            acc = {g: {e: c * lead for e, c in terms.items()} for g, terms in S[k].items()}
            for i in range(1, k):
                if G[i] and S[k - i]:
                    scale = i * (factorial(k - 1) // factorial(i)) * L ** (k - i - 1)
                    _mul_groups(acc, S[k - i], G[i], -scale, max_weight)
            G.append(_nonzero(acc))
        return self._from_scaled(names, G, L, packer.unpack)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.var == other.var and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        inner = ", ".join(f"{self.var}^{k}: {c.canonical_str()}"
                          for k, c in enumerate(self.coeffs))
        return f"Series[{self.var}; T={self.order}]({inner})"


def _dense_from_nodes(nodes: Sequence[int]) -> list:
    # coefficients of prod (X - x) over the nodes, low degree first
    coeffs = [1]
    for x in nodes:
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= c * x
        coeffs = nxt
    return coeffs


def _horner(coeffs: Sequence, x):
    # sum of coeffs[d] * x^d, low degree first; x an int, Fraction or MultiPoly.
    # The accumulator starts at the top coefficient, so on a MultiPoly x every
    # step stays on x's registry (a scalar times x, plus a scalar)
    top_down = reversed(coeffs)
    acc = next(top_down, 0)
    for c in top_down:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=128)
def _lagrange_rows(nodes: tuple) -> tuple:
    # (by_degree, den), immutable and kept per node tuple: every block table
    # fits the nodes 0..2v.  by_degree[d][i] / den is the coefficient of X^d in
    # the i-th Lagrange basis polynomial, den the lcm of the basis
    # denominators; a fit's X^d coefficient is the dot product of
    # by_degree[d] with the node values, over den.  The i-th numerator is
    # the node product divided by (X - x_i), synthetically from the top
    # degree down, and its denominator is that quotient at x_i.
    top_down = _dense_from_nodes(nodes)[:0:-1]
    quotients = [list(accumulate(top_down, lambda q, c: q * x + c))[::-1]
                 for x in nodes]
    denoms = [_horner(q, x) for q, x in zip(quotients, nodes)]
    den = lcm(*denoms)
    rows = [[c * (den // denom) for c in q] for q, denom in zip(quotients, denoms)]
    return tuple(zip(*rows)), den


def _fit(points: Sequence[int], values: Sequence, degree: int, var: str) -> tuple:
    # (nums, den): nums[d] / den is the X^d coefficient of the polynomial through the
    # first degree + 1 distinct int points, one dot product of _lagrange_rows per
    # degree; every later point is a witness, checked by integer Horner.  A value
    # that is not an int or a Fraction raises TypeError (_as_fraction), not dropped
    values = [_as_fraction(v) for v in values]
    count = degree + 1
    by_degree, den = _lagrange_rows(tuple(points[:count]))
    scale = lcm(*(v.denominator for v in values[:count]))
    column = [v.numerator * (scale // v.denominator) for v in values[:count]]
    nums, den = [sum(map(mul, basis, column)) for basis in by_degree], den * scale
    for x, v in zip(points[count:], values[count:]):
        if _horner(nums, x) * v.denominator != v.numerator * den:
            raise PolynomialityError(
                f"surplus sample at {var}={x} deviates from the degree-{degree} interpolant")
    return nums, den


def interpolate_in_var(samples: Sequence, var: str, degree_bound: int) -> MultiPoly:
    """Exact Lagrange interpolation through polynomial-valued samples.

    ``samples`` is a sequence of ``(integer point, MultiPoly value)`` pairs;
    a point may be an int or a Fraction with denominator 1, anything else is
    rejected.  The first ``degree_bound + 1`` samples define the unique
    polynomial in ``var`` of degree at most ``degree_bound`` through them.
    Every remaining sample is then checked against the fit; a disagreement
    raises :class:`PolynomialityError` (never silently dropped).

    The fit runs coefficient by coefficient: every monomial that any sample
    carries, nodes and witnesses alike, gets one witnessed scalar fit
    (``_fit``, the kernel of every interpolation in the engine) of its
    coefficients over all the samples, so a witness that strays on a monomial
    no node has fails too.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(samples) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples, got {len(samples)}")
    points = [_as_int(x, "sample point") for x, _ in samples]
    if len(set(points)) != len(points):
        raise ValueError("sample points must be distinct")
    values = []
    for (_, v) in samples:
        p = MultiPoly._coerce(v)
        if p is None:
            raise TypeError(f"sample value {v!r} is not a polynomial")
        if var in p.vars:  # a registered slot must be unused
            i = p.vars.index(var)
            if any(e[i] for e in p.terms):
                raise ValueError(f"sample values must not involve {var!r}")
        values.append(p)

    # the fit runs on the samples' own registry, so no sample on it is remapped;
    # the degree goes into var's slot, 0 where a sample registers var, or in at it
    names = _registry(values)
    out_names = _registry((), extra=(*names, var))
    slot = out_names.index(var)
    rest = slot + (var in names)
    terms = [p._remap(names) for p in values]
    out = {}
    for mono in set().union(*terms):
        nums, den = _fit(points, [t.get(mono, 0) for t in terms], degree_bound, var)
        for d, c in enumerate(nums):
            if c:
                out[mono[:slot] + (d,) + mono[rest:]] = Fraction(c, den)
    return MultiPoly._raw(out_names, out)
