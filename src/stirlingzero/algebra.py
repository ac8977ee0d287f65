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

All values are immutable after construction and may be shared freely across
threads or pickled to worker processes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add, mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]

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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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


def _reduced(nums: dict, names, flags, reduce: Optional[Callable]) -> dict:
    # drop zero numerators, then the terms ``reduce`` does not keep
    nums = {e: c for e, c in nums.items() if c}
    if reduce is None:
        return nums
    return reduce(MultiPoly._raw(names, flags, nums)).terms


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
            if other == 0:
                return MultiPoly.zero()
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
        nothing); weights must be nonnegative and sit on ordinary variables,
        so that multiplying a monomial never lowers its weight.
        """
        weight_of = [weights.get(name, 0) for name in self.vars]  # one per registry slot
        for name, weight in zip(self.vars, weight_of):
            if weight < 0 or (weight and name in self.laurent):
                raise ValueError(f"weight {weight} on {name!r} does not define an ideal")
        square = set(squarefree)
        square_slots = [i for i, name in enumerate(self.vars) if name in square]
        out = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] > 1 for i in square_slots):
                continue
            if max_weight is not None and sum(map(mul, exps, weight_of)) > max_weight:
                continue
            out[exps] = coeff
        return MultiPoly._raw(self.vars, self.laurent, out)

    def substitute(self, values: Mapping[str, object]) -> "MultiPoly":
        """Replace variables by rationals or polynomials; others are kept.

        Numeric values may be raised to negative (Laurent) exponents;
        polynomial values may not.
        """
        hit = [name for name in self.vars if name in values]
        if not hit:
            return self
        keep_idx = [i for i, n in enumerate(self.vars) if n not in values]
        kept = tuple(self.vars[i] for i in keep_idx)
        kept_flags = self.laurent & set(kept)
        result = MultiPoly._raw(kept, kept_flags, {})
        for exps, coeff in self.terms.items():
            scalar = coeff
            poly_factor = None
            for i, name in enumerate(self.vars):
                if name not in values:
                    continue
                e = exps[i]
                if e == 0:
                    continue
                v = values[name]
                if isinstance(v, MultiPoly):
                    if e < 0:
                        raise ValueError(
                            f"cannot raise polynomial value for {name!r} to negative power")
                    piece = v ** e
                    poly_factor = piece if poly_factor is None else poly_factor * piece
                else:
                    scalar = scalar * _as_fraction(v) ** e
            base = MultiPoly._raw(
                kept, kept_flags,
                {tuple(exps[i] for i in keep_idx): scalar} if scalar else {})
            result = result + (base if poly_factor is None else base * poly_factor)
        return result

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

    def _over_lcm(self):
        # every coefficient on one registry, as integer numerators over the
        # lcm L of all their denominators: (names, flags, [N_0..N_T], L)
        names, flags = _registry(self.coeffs)
        terms = [c._remap(names) for c in self.coeffs]
        den = lcm(*(c.denominator for t in terms for c in t.values()))
        return names, flags, [_numerators(t, den)[0] for t in terms], den

    def _from_scaled(self, names, flags, scaled, L) -> "Series":
        # coefficient k is scaled[k] / (k! L^k)
        return Series(self.var, self.order, [
            MultiPoly._raw(names, flags, _fractions(t, factorial(k) * L ** k))
            for k, t in enumerate(scaled)])

    def exp(self, reduce: Optional[Callable] = None) -> "Series":
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

        ``reduce``, if given, maps each ``F_k`` to its remainder modulo a
        monomial ideal (see :meth:`MultiPoly.remainder`) as soon as it is
        formed.  Taking that remainder is a ring homomorphism, so each
        coefficient of the result is the remainder of the true one.
        ``reduce`` must select terms by monomial only: it receives a
        MultiPoly whose coefficients are the integers above and must return
        the terms it keeps, unchanged, on the registry it was given.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("series exponential requires a zero constant term")
        names, flags, nums, L = self._over_lcm()
        F = [{(0,) * len(names): 1}]
        for k in range(1, self.order + 1):
            acc = {}
            for i in range(1, k + 1):
                if nums[i] and F[k - i]:
                    scale = i * (factorial(k - 1) // factorial(k - i)) * L ** (i - 1)
                    _mul_into(acc, nums[i], F[k - i], scale)
            F.append(_reduced(acc, names, flags, reduce))
        return self._from_scaled(names, flags, F, L)

    def log(self, reduce: Optional[Callable] = None) -> "Series":
        """Logarithm of a series with constant term one.

        The coefficients satisfy ``g_k = s_k - (1/k) sum_{i=1..k-1} i * g_i *
        s_{k-i}`` with ``g_0 = 0``.  With ``L`` and ``N_i = L*s_i`` as in
        :meth:`exp`, put ``G_k = k! L^k g_k``; multiplying by ``k! L^k``
        gives::

            G_k = N_k * k! * L^(k-1)
                  - sum_{i=1..k-1} i * G_i * N_{k-i} * (k-1)!/i! * L^(k-i-1)

        whose every factor is an integer (``i <= k-1``), so every ``G_k`` is
        integral.  ``reduce`` acts on each ``G_k`` as in :meth:`exp`.
        """
        if self.coeffs[0] != 1:
            raise ValueError("series logarithm requires constant term equal to 1")
        names, flags, nums, L = self._over_lcm()
        G = [{}]
        for k in range(1, self.order + 1):
            lead = factorial(k) * L ** (k - 1)
            acc = {e: c * lead for e, c in nums[k].items()}
            for i in range(1, k):
                if G[i] and nums[k - i]:
                    scale = i * (factorial(k - 1) // factorial(i)) * L ** (k - i - 1)
                    _mul_into(acc, nums[k - i], G[i], -scale)
            G.append(_reduced(acc, names, flags, reduce))
        return self._from_scaled(names, flags, G, L)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.var == other.var and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        inner = ", ".join(f"{self.var}^{k}: {c.canonical_str()}"
                          for k, c in enumerate(self.coeffs))
        return f"Series[{self.var}; T={self.order}]({inner})"


def _dense_from_nodes(nodes: Sequence[int], skip: Optional[int] = None) -> list:
    # coefficients of prod_{m != skip} (X - nodes[m]), low degree first
    coeffs = [1]
    for m, x in enumerate(nodes):
        if m == skip:
            continue
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= c * x
        coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def _lagrange_rows(nodes: tuple) -> tuple:
    # (by_degree, den): by_degree[d][i] / den is the coefficient of X^d in
    # the i-th Lagrange basis polynomial, den the lcm of the basis
    # denominators; a fit's X^d coefficient is the dot product of
    # by_degree[d] with the node values, over den
    denoms = []
    for i, x_i in enumerate(nodes):
        denom = 1
        for m, x_m in enumerate(nodes):
            if m != i:
                denom *= x_i - x_m
        denoms.append(denom)
    den = lcm(*denoms)
    rows = [[c * (den // denom) for c in _dense_from_nodes(nodes, i)]
            for i, denom in enumerate(denoms)]
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
    of the cached Lagrange numerators with the node values' numerators over
    their lcm.  A surplus sample is compared, by integer Horner evaluation
    of those numerators, on every monomial that the fit or the sample
    carries.
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
    by_degree, den = _lagrange_rows(tuple(points[:count]))
    fit = {}  # monomial -> (numerators of its X^0..X^degree_bound coefficients, denominator)
    for mono in set().union(*terms[:count]):
        column = [t.get(mono, 0) for t in terms[:count]]
        scale = lcm(*(v.denominator for v in column))
        column = [v.numerator * (scale // v.denominator) for v in column]
        fit[mono] = [sum(map(mul, basis, column)) for basis in by_degree], den * scale

    for x, witness in zip(points[count:], terms[count:]):
        for mono in fit.keys() | witness.keys():
            nums, scale = fit.get(mono, ((), 1))
            acc = 0
            for c in reversed(nums):
                acc = acc * x + c
            target = witness.get(mono, 0)
            if acc * target.denominator != target.numerator * scale:
                raise PolynomialityError(
                    f"surplus sample at {var}={x} deviates from the degree-"
                    f"{degree_bound} interpolant")

    out = {}
    for mono, (nums, scale) in fit.items():
        for d, c in enumerate(nums):
            if c:
                out[mono[:slot] + (d,) + mono[slot:]] = Fraction(c, scale)
    return MultiPoly._raw(out_names, flags, out)
