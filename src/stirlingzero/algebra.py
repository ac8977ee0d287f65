"""Exact scalar, polynomial, and truncated-series arithmetic kernel.

Every number in the engine is a :class:`fractions.Fraction`; there is no
floating point anywhere.  The heavy loops (polynomial products, the series
exponential and logarithm, the interpolation fit) run over Python ints:
numerators over one shared denominator, with one Fraction built per output
coefficient at the end.  On top of that sit two value types:

* :class:`MultiPoly` -- a sparse multivariate polynomial, stored as a map
  from exponent vectors to nonzero rational coefficients.  A variable may be
  flagged *Laurent*, which permits negative exponents (used for the variable
  that gets divided out of series coefficients); ordinary variables reject
  them.
* :class:`Series` -- a truncated power series in a single expansion variable
  whose coefficients are MultiPoly values.  The truncation order is explicit
  in the type and never inferred; asking for a coefficient beyond it raises
  :class:`PrecisionError` instead of silently returning zero.

Inside :meth:`Series.exp` and :meth:`Series.log` a monomial is one int, not
an exponent tuple: each slot is a signed fixed-width digit of the key
(:class:`_Packer`), wide enough for every exponent the recurrence can form,
so multiplying two monomials is adding two ints.  A tuple is built again only
for each output term.

All values are immutable after construction and may be shared freely across
threads or pickled to worker processes.
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

# (weights, max_weight, squarefree): the monomial ideal of MultiPoly.remainder
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


_VAR_RE = re.compile(r"^([A-Za-z_]+?)(\d*)$")


def _var_key(name: str):
    # "u10" sorts after "u2"; bare names sort before numbered ones
    m = _VAR_RE.match(name)
    if m is None:
        return (name, -1)
    head, digits = m.groups()
    return (head, int(digits) if digits else -1)


def _as_fraction(value) -> Fraction:
    # an int or a Fraction; bools, floats and strings are refused
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


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


def _mul_into(out: dict, ta: Mapping, tb: Mapping, scale: int) -> None:
    # out += scale * ta * tb, on integer coefficients of one registry
    for ea, a in ta.items():
        a *= scale
        for eb, b in tb.items():
            key = tuple(map(add, ea, eb))
            acc = out.get(key)
            out[key] = a * b if acc is None else acc + a * b


def _fractions(nums: Mapping, den: int) -> dict:
    # the stored form: one Fraction per nonzero numerator
    return {e: Fraction(c, den) for e, c in nums.items() if c}


def _ideal_slots(names, flags, weights: Mapping[str, int], squarefree: Iterable[str]):
    # (weight of each registry slot, slots of the squarefree variables), once
    # checked to define a monomial ideal: multiplying a monomial must never
    # lower its weight, and no exponent of a squared variable may be negative
    weight_of = [weights.get(name, 0) for name in names]
    square = set(squarefree)
    for name, weight in zip(names, weight_of):
        if weight < 0 or (weight and name in flags):
            raise ValueError(f"weight {weight} on {name!r} does not define an ideal")
        if name in square and name in flags:
            raise ValueError(f"squarefree Laurent {name!r} does not define an ideal")
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

    __slots__ = ("_length", "_offset", "_encode", "_decode")

    def __init__(self, width: int, bound: int):
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
    # _mul_into on packed keys (_Packer): adding two keys multiplies the monomials
    for ea, a in ta.items():
        a *= scale
        for eb, b in tb.items():
            key = ea + eb
            acc = out.get(key)
            out[key] = a * b if acc is None else acc + a * b


def _groups(nums: Mapping, weight_of, square_slots, pack) -> dict:
    # the term map split by (weight, bitmask of the squarefree slots it
    # carries), with packed keys: {(weight, mask): {key: c}}; the terms lie
    # outside the ideal, so each squarefree exponent is 0 or 1
    groups = {}
    for e, c in nums.items():
        mask = sum(e[i] << bit for bit, i in enumerate(square_slots))
        groups.setdefault((sum(map(mul, e, weight_of)), mask), {})[pack(e)] = c
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
    # the union of the registries (sorted) and of the Laurent flags
    names = tuple(sorted(set(extra).union(*(p.vars for p in polys)), key=_var_key))
    return names, frozenset().union(*(p.laurent for p in polys))


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``vars`` is the ordered registry of variable names, ``laurent`` the subset
    allowed negative exponents, and ``terms`` maps exponent tuples (one slot
    per registered variable) to nonzero Fractions.  Binary operations union
    the registries of their operands automatically.  Equality and hashing are
    semantic: registries that differ only by unused variables compare equal.
    """

    __slots__ = ("vars", "laurent", "terms", "_key")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping | None = None,
                 laurent: Iterable[str] = ()):
        names = tuple(vars)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in registry")
        flags = frozenset(laurent)
        if not flags <= set(names):
            raise ValueError("Laurent flags refer to unregistered variables")
        clean = {}
        if terms:
            width = len(names)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(
                        f"exponent vector {exps} does not match registry of {width} variables")
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                for name, e in zip(names, exps):
                    if e < 0 and name not in flags:
                        raise ValueError(
                            f"negative exponent on ordinary variable {name!r}")
                clean[exps] = coeff
        self.vars = names
        self.laurent = flags
        self.terms = clean
        self._key = None

    @classmethod
    def _raw(cls, names, flags, terms) -> "MultiPoly":
        # internal fast path: inputs already canonical (no zero coefficients)
        self = object.__new__(cls)
        self.vars = names
        self.laurent = flags
        self.terms = terms
        self._key = None
        return self

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw((), frozenset(), {})

    @classmethod
    def constant(cls, value) -> "MultiPoly":
        value = _as_fraction(value)
        if value == 0:
            return cls.zero()
        return cls._raw((), frozenset(), {(): value})

    @classmethod
    def variable(cls, name: str, laurent: bool = False) -> "MultiPoly":
        flags = frozenset({name}) if laurent else frozenset()
        return cls._raw((name,), flags, {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def used_vars(self) -> frozenset:
        return frozenset(
            name for i, name in enumerate(self.vars)
            if any(e[i] for e in self.terms))

    # ----------------------------------------------------------- arithmetic

    @classmethod
    def _coerce(cls, value):
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.constant(value)
        return None

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars and self.laurent == other.laurent:
            return self.vars, self.laurent, self.terms, other.terms
        names = tuple(sorted(set(self.vars) | set(other.vars), key=_var_key))
        flags = self.laurent | other.laurent
        return names, flags, self._remap(names), other._remap(names)

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar goes into the constant term, on this registry
            zero = (0,) * len(self.vars)
            out = dict(self.terms)
            acc = out.pop(zero, 0) + _as_fraction(other)
            if acc:
                out[zero] = acc
            return MultiPoly._raw(self.vars, self.laurent, out)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        names, flags, ta, tb = self._aligned(other)
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
        return MultiPoly._raw(names, flags, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(
            self.vars, self.laurent,
            {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:  # the zero polynomial on this registry
                return MultiPoly._raw(self.vars, self.laurent, {})
            return MultiPoly._raw(
                self.vars, self.laurent,
                {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        names, flags, ta, tb = self._aligned(other)
        na, da = _numerators(ta)
        nb, db = _numerators(tb)
        out = {}
        _mul_into(out, na, nb, 1)
        return MultiPoly._raw(names, flags, _fractions(out, da * db))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(
                "only nonnegative integer powers; multiply by a Laurent monomial instead")
        result = MultiPoly.constant(1)
        base = self
        e = exponent
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

    def with_vars(self, names: Iterable[str], laurent: Iterable[str] = ()) -> "MultiPoly":
        """Extend the registry with ``names`` (at exponent zero everywhere)."""
        extra = MultiPoly(tuple(n for n in names), None,
                          frozenset(laurent) & set(names))
        merged, flags, terms, _ = self._aligned(extra)
        return MultiPoly._raw(merged, flags, terms)

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
        return MultiPoly._raw(self.vars, self.laurent, out)

    def remainder(self, weights: Mapping[str, int], max_weight: Optional[int] = None,
                  squarefree: Iterable[str] = ()) -> "MultiPoly":
        """Remainder modulo a monomial ideal: the terms outside it, kept as they are.

        The ideal is generated by every monomial whose weight exceeds
        ``max_weight`` (``None``: no bound) and by the square of each
        ``squarefree`` variable.  A monomial's weight is the sum of
        ``weights[name] * exponent`` over its variables (unlisted ones weigh
        nothing).  Weights must be nonnegative and, like the ``squarefree``
        variables, sit on ordinary variables, so that multiplying a monomial
        never lowers its weight and never cancels a square; otherwise
        ``ValueError`` is raised.
        """
        weight_of, square_slots = _ideal_slots(self.vars, self.laurent, weights, squarefree)
        out = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] > 1 for i in square_slots):
                continue
            if max_weight is not None and sum(map(mul, exps, weight_of)) > max_weight:
                continue
            out[exps] = coeff
        return MultiPoly._raw(self.vars, self.laurent, out)

    def substitute(self, values: Mapping[str, object]) -> "MultiPoly":
        """Replace variables by rationals (ints or Fractions); others are kept.

        A value may be raised to a negative (Laurent) exponent.
        """
        scalars = [(i, _as_fraction(values[name])) for i, name in enumerate(self.vars)
                   if name in values]
        if not scalars:
            return self
        keep_idx = [i for i, n in enumerate(self.vars) if n not in values]
        kept = tuple(self.vars[i] for i in keep_idx)
        out = {}
        for exps, coeff in self.terms.items():
            for i, v in scalars:
                coeff = coeff * v ** exps[i]
            if coeff:
                key = tuple(exps[i] for i in keep_idx)
                out[key] = out.get(key, 0) + coeff
        return MultiPoly(kept, out, self.laurent & set(kept))

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
            if not self.terms:
                return other == 0
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, MultiPoly):
            if self.vars == other.vars:
                # one registry: the exponent tuples line up slot for slot
                return self.terms == other.terms
            return self._canonical() == other._canonical()
        return NotImplemented

    def __hash__(self):
        return hash(self._canonical())

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
        # group and packed (_groups): (names, flags, L, packer, max_weight,
        # [N_0..N_T]).  A recurrence coefficient of index k <= T is a sum of
        # products of at most k input terms, so no slot of its keys exceeds
        # T times the largest input exponent, the packer's bound.
        names, flags = _registry(self.coeffs)
        weights, max_weight, squarefree = ideal
        weight_of, square_slots = _ideal_slots(names, flags, weights, squarefree)
        if max_weight is None:
            weight_of = ()  # unbounded: the weights tell no pair apart
        terms = [c._remap(names) for c in self.coeffs]
        den = lcm(*(c.denominator for t in terms for c in t.values()))
        reduced = [MultiPoly._raw(names, flags, _numerators(t, den)[0]).remainder(*ideal).terms
                   for t in terms]
        bound = self.order * max((abs(x) for t in reduced for e in t for x in e), default=0)
        packer = _Packer(len(names), bound)
        return (names, flags, den, packer, max_weight,
                [_groups(t, weight_of, square_slots, packer.pack) for t in reduced])

    def _from_scaled(self, names, flags, scaled, L, unpack) -> "Series":
        # coefficient k is the groups scaled[k] over k! L^k, a tuple rebuilt
        # from each packed key
        dens = [factorial(k) * L ** k for k in range(len(scaled))]
        return Series(self.var, self.order, [MultiPoly._raw(names, flags, {
            unpack(e): Fraction(c, den) for terms in groups.values() for e, c in terms.items()})
            for den, groups in zip(dens, scaled)])

    def exp(self, ideal: Ideal = _EMPTY_IDEAL) -> "Series":
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

        The recurrence runs in the quotient ring by ``ideal``, the triple
        ``(weights, max_weight, squarefree)`` of :meth:`MultiPoly.remainder`
        (default: the empty ideal; a triple that defines no ideal on the
        series' registry raises ``ValueError``).  Each ``N_i`` is reduced once
        on entry, and every ``N_i`` and ``F_k`` is held split by weight and by
        the squarefree variables it carries, so only the term pairs whose
        product lies outside the ideal are formed.  Taking the remainder is a
        ring homomorphism, so each coefficient is the remainder of the true one.
        Monomials are packed ints (:class:`_Packer`) from entry to output.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential requires a zero constant term")
        names, flags, L, packer, max_weight, S = self._over_lcm(ideal)
        F = [{(0, 0): {0: 1}}]
        for k in range(1, self.order + 1):
            acc = {}
            for i in range(1, k + 1):
                if S[i] and F[k - i]:
                    scale = i * (factorial(k - 1) // factorial(k - i)) * L ** (i - 1)
                    _mul_groups(acc, S[i], F[k - i], scale, max_weight)
            F.append(_nonzero(acc))
        return self._from_scaled(names, flags, F, L, packer.unpack)

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
        names, flags, L, packer, max_weight, S = self._over_lcm(ideal)
        G = [{}]
        for k in range(1, self.order + 1):
            lead = factorial(k) * L ** (k - 1)
            acc = {g: {e: c * lead for e, c in terms.items()} for g, terms in S[k].items()}
            for i in range(1, k):
                if G[i] and S[k - i]:
                    scale = i * (factorial(k - 1) // factorial(i)) * L ** (k - i - 1)
                    _mul_groups(acc, S[k - i], G[i], -scale, max_weight)
            G.append(_nonzero(acc))
        return self._from_scaled(names, flags, G, L, packer.unpack)

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


def _lagrange_rows(nodes: Sequence[int]) -> tuple:
    # (by_degree, den): by_degree[d][i] / den is the coefficient of X^d in
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


def _as_int(value, what: str) -> int:
    # an int or a Fraction with denominator 1; bools, floats and strings are
    # refused rather than truncated
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} {value!r} is not an integer")


def interpolate_in_var(samples: Sequence, var: str, degree_bound: int) -> MultiPoly:
    """Exact Lagrange interpolation through polynomial-valued samples.

    ``samples`` is a sequence of ``(integer point, MultiPoly value)`` pairs;
    a point may be an int or a Fraction with denominator 1, anything else is
    rejected.  The first ``degree_bound + 1`` samples define the unique
    polynomial in ``var`` of degree at most ``degree_bound`` through them.
    Every remaining sample is then checked against the fit; a disagreement
    raises :class:`PolynomialityError` (never silently dropped).

    The fit runs coefficient by coefficient: each monomial of the node values
    gets its own univariate interpolant, one integer dot product per degree
    of the Lagrange numerators, built once per call, with the node values'
    numerators over their lcm.  A surplus sample is compared, by integer
    Horner evaluation of those numerators, on every monomial that the fit or
    the sample carries.
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
        if var in p.vars:
            if var in p.used_vars():
                raise ValueError(f"sample values must not involve {var!r}")
            p = p.substitute({var: 0})  # drop the unused slot
        values.append(p)

    # the fit runs on the samples' registry; var's slot goes in at the end
    out_names, flags = _registry(values, extra=(var,))
    slot = out_names.index(var)
    names = out_names[:slot] + out_names[slot + 1:]
    terms = [p._remap(names) for p in values]

    count = degree_bound + 1
    by_degree, den = _lagrange_rows(points[:count])
    fit = {}  # monomial -> (numerators of its X^0..X^degree_bound coefficients, denominator)
    for mono in set().union(*terms[:count]):
        column = [t.get(mono, 0) for t in terms[:count]]
        scale = lcm(*(v.denominator for v in column))
        column = [v.numerator * (scale // v.denominator) for v in column]
        fit[mono] = [sum(map(mul, basis, column)) for basis in by_degree], den * scale

    for x, witness in zip(points[count:], terms[count:]):
        for mono in fit.keys() | witness.keys():
            nums, scale = fit.get(mono, ((), 1))
            target = witness.get(mono, 0)
            if _horner(nums, x) * target.denominator != target.numerator * scale:
                raise PolynomialityError(
                    f"surplus sample at {var}={x} deviates from the degree-"
                    f"{degree_bound} interpolant")

    out = {}
    for mono, (nums, scale) in fit.items():
        for d, c in enumerate(nums):
            if c:
                out[mono[:slot] + (d,) + mono[slot:]] = Fraction(c, scale)
    return MultiPoly._raw(out_names, flags, out)
