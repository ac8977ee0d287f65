"""Kernel tests: sparse polynomials, truncated series, interpolation."""

import json
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stirlingzero import algebra
from stirlingzero.algebra import (
    ConsistencyError,
    MultiPoly,
    PolynomialityError,
    PrecisionError,
    Series,
    interpolate_in_var,
)

from poly_reference import lagrange_coefficients, remainder, substitute

SRC = Path(__file__).resolve().parents[1] / "src"


def var(name):
    return MultiPoly.variable(name)


def r_to(power):
    # the monomial r**power, power of either sign
    return MultiPoly(("r",), {(power,): 1})


# ---------------------------------------------------------------- strategies

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6).filter(lambda q: q != 0)


@st.composite
def polys(draw, names=("a", "b", "c"), max_terms=4, max_exp=3, min_exp=0):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_exp, max_exp)) for _ in names)
        terms[exps] = draw(coefficients)
    return MultiPoly(names, terms)


# polynomials as above, or with exponents of either sign on every slot
signed_polys = polys() | polys(min_exp=-3)


@st.composite
def mixed_series(draw, order):
    # coefficients in a, b, c and r (of either sign) with denominators up to 12,
    # and one coefficient forced to zero somewhere in the middle
    gap = draw(st.integers(1, order))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    entries = {}
    for k in range(1, order + 1):
        if k == gap:
            continue
        r_term = MultiPoly(("r",), {(draw(st.integers(-2, 2)),): draw(rational)})
        entries[k] = draw(polys(max_terms=3, max_exp=2)) + r_term
    return Series.from_dict("x", order, entries)


# the parent recurrences over Fraction coefficients, kept as the reference
# for the integer-numerator kernel

def fraction_product(p, q):
    # term-pair product with Fraction arithmetic throughout
    pa = p.with_vars(q.vars)
    qa = q.with_vars(p.vars)
    out = {}
    for ea, ca in pa.terms.items():
        for eb, cb in qa.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return MultiPoly(pa.vars, out)


def reference_exp(s, ideal=None):
    # k*f_k = sum_{i=1..k} i * s_i * f_{k-i}, each product reduced modulo
    # ``ideal`` as a whole
    f = [MultiPoly.constant(1)]
    for k in range(1, s.order + 1):
        acc = MultiPoly.zero()
        for i in range(1, k + 1):
            if s.coeffs[i].is_zero():
                continue
            product = fraction_product(s.coeffs[i], f[k - i])
            if ideal is not None:
                product = remainder(product, *ideal)
            acc = acc + product * Fraction(i, k)
        f.append(acc)
    return tuple(f)


def reference_log(s, ideal=None):
    # g_k = s_k - (1/k) sum_{i=1..k-1} i * g_i * s_{k-i}, reduced as in
    # reference_exp
    g = [MultiPoly.zero()]
    for k in range(1, s.order + 1):
        acc = s.coeffs[k] if ideal is None else remainder(s.coeffs[k], *ideal)
        for i in range(1, k):
            product = fraction_product(g[i], s.coeffs[k - i])
            if ideal is not None:
                product = remainder(product, *ideal)
            acc = acc - product * Fraction(i, k)
        g.append(acc)
    return tuple(g)


def reference_fit(samples, var_name, degree_bound):
    # sum_i v_i * prod_{m != i} (X - x_m) / (x_i - x_m), in Fraction arithmetic
    x = var(var_name)
    nodes = samples[:degree_bound + 1]
    total = MultiPoly.zero()
    for i, (x_i, v_i) in enumerate(nodes):
        basis = MultiPoly.constant(1)
        for m, (x_m, _) in enumerate(nodes):
            if m != i:
                basis = fraction_product(basis, (x - x_m) * Fraction(1, x_i - x_m))
        total = total + fraction_product(basis, MultiPoly._coerce(v_i))
    return total


def reference_outside(nums, weight_of, square_slots, max_weight):
    # the parent's first pass over a Series input: the terms outside the
    # ideal, kept as they are
    return {e: c for e, c in nums.items()
            if not any(e[i] > 1 for i in square_slots)
            and (max_weight is None or sum(w * x for w, x in zip(weight_of, e)) <= max_weight)}


def reference_groups(nums, weight_of, square_slots, pack):
    # the parent's second pass: the reduced terms split by (weight, mask)
    groups = {}
    for e, c in nums.items():
        mask = sum(e[i] << bit for bit, i in enumerate(square_slots))
        weight = sum(w * x for w, x in zip(weight_of, e))
        groups.setdefault((weight, mask), {})[pack(e)] = c
    return groups


def reference_lagrange_rows(nodes):
    """``_lagrange_rows`` built one basis polynomial at a time.

    Each numerator ``prod_{m != i} (X - x_m)`` is multiplied out on its own
    and each denominator is ``prod_{m != i} (x_i - x_m)``; the rows are put
    over the lcm of the denominators and transposed to one row per degree.
    """
    numerators, denoms = [], []
    for i, x_i in enumerate(nodes):
        num, denom = [1], 1
        for m, x_m in enumerate(nodes):
            if m != i:
                num = [low - x_m * c for low, c in zip([0] + num, num + [0])]
                denom *= x_i - x_m
        numerators.append(num)
        denoms.append(denom)
    den = lcm(*denoms)
    rows = [[c * (den // denom) for c in num] for num, denom in zip(numerators, denoms)]
    return tuple(zip(*rows)), den


# ideals (weights, max_weight, squarefree) for Series.exp/log; mixed_series
# carries r, with exponents of either sign, beside them
REDUCTIONS = {
    "none": ({}, None, ()),
    "weight": ({"a": 1, "b": 2}, 3, ()),
    "squarefree": ({}, None, ("a", "b", "c")),
    "weight and squarefree": ({"a": 1, "b": 2, "c": 1}, 4, ("a", "c")),
}

# a weight and a square on a, whose exponents are all >= 0, beside an r that
# only ever carries r^-1 and r^-2
NEGATIVE_R = Series.from_dict("x", 4, {1: var("a") + r_to(-1), 2: var("a") * r_to(-2),
                                       3: var("a") * var("a")})


@st.composite
def unit_free_series(draw, order):
    entries = {}
    for k in range(1, order + 1):
        if draw(st.booleans()):
            entries[k] = draw(polys(max_terms=2, max_exp=2))
    return Series.from_dict("x", order, entries)


# ------------------------------------------------------------- polynomial ops

class TestMultiPoly:
    def test_difference_of_squares(self):
        u2, r = var("u2"), var("r")
        assert (u2 + r) * (u2 - r) == u2 ** 2 - r ** 2

    def test_zero_absorbs(self):
        p = var("a") + 3 * var("b")
        assert (p * MultiPoly.zero()).is_zero()
        assert p * 0 == 0

    def test_expand_product(self):
        j = var("j")
        assert j * (j - 1) == j ** 2 - j

    def test_registry_union_is_automatic(self):
        a, b = var("a"), var("b")
        assert (a + b) - b == a

    def test_zero_coefficients_pruned(self):
        a = var("a")
        p = a - a
        assert p.terms == {}
        assert p == 0

    def test_negative_exponents_on_any_variable(self):
        assert MultiPoly(("a",), {(-1,): 1}) * MultiPoly.variable("a") == 1
        q = MultiPoly(("r",), {(-2,): 1})
        assert q.degree_in("r") == -2
        assert q * r_to(2) == 1

    def test_a_polynomial_holds_only_its_registry_terms_and_key(self):
        assert MultiPoly.__slots__ == ("vars", "terms", "_key")

    def test_an_integral_fraction_exponent_reads_as_an_int(self):
        p = MultiPoly(("a",), {(Fraction(2),): 1})
        assert p == var("a") ** 2 == var("a") ** Fraction(4, 2)
        assert [type(e) for exps in p.terms for e in exps] == [int]
        assert var("a") ** Fraction(0) == 1

    @pytest.mark.parametrize("exponent", [True, False, 2.0, "2"],
                             ids=["true", "false", "float", "text"])
    def test_power_refuses_the_exponents_the_constructor_refuses(self, exponent):
        with pytest.raises(ValueError, match=f"exponent {exponent!r} is not an integer"):
            var("a") ** exponent
        with pytest.raises(ValueError, match=f"exponent {exponent!r} is not an integer"):
            MultiPoly(("a",), {(exponent,): 1})

    @pytest.mark.parametrize("value", [True, 0.5, "1"], ids=["bool", "float", "text"])
    def test_constant_takes_exact_rationals_only(self, value):
        with pytest.raises(TypeError, match="exact rational"):
            MultiPoly.constant(value)

    @pytest.mark.parametrize("args, message", [
        ((("a", "a"),), "duplicate variable names"),
        ((("a", "b"), {(1,): 1}), "does not match registry of 2 variables"),
        ((("a",), {(0.5,): 1}), "exponent 0.5 is not an integer"),
        ((("a",), {(True,): 1}), "exponent True is not an integer"),
        ((("a",), {("1",): 1}), "exponent '1' is not an integer"),
    ], ids=["duplicate-name", "short-exponents", "float-exponent", "bool-exponent",
            "text-exponent"])
    def test_constructor_rejects_an_inconsistent_registry(self, args, message):
        with pytest.raises(ValueError, match=message):
            MultiPoly(*args)

    def test_rational_minus_polynomial(self):
        a = var("a")
        assert 1 - a == MultiPoly(("a",), {(0,): 1, (1,): -1})
        assert Fraction(1, 2) - a + a == Fraction(1, 2)
        assert 1 - a != 1 and 1 - a != 0  # a scalar equals only a constant

    def test_degree_in(self):
        assert MultiPoly.zero().degree_in("a") == -1
        assert var("a").degree_in("b") == 0
        assert (var("a") ** 3 + var("b")).degree_in("a") == 3

    def test_semantic_equality_ignores_unused_vars(self):
        p = MultiPoly(("a", "b"), {(1, 0): 2})
        q = MultiPoly(("a",), {(1,): 2})
        assert p == q
        assert hash(p) == hash(q)

    def test_substitute_scalar_and_poly(self):
        a, b = var("a"), var("b")
        p = a ** 2 * b + 3 * a
        assert substitute(p, {"a": 2, "b": Fraction(1, 2)}) == 2 + 6
        assert substitute(p, {"b": 2}) == 2 * a ** 2 + 3 * a

    def test_substitute_laurent_scalar(self):
        p = r_to(-2)
        assert substitute(p, {"r": 2}) == Fraction(1, 4)

    @given(signed_polys, signed_polys)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_fraction_reference(self, p, q):
        p = p * Fraction(1, 3) + r_to(-2) * Fraction(5, 7)
        assert (p * q).terms == fraction_product(p, q).terms

    @given(signed_polys, signed_polys, signed_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, s):
        assert (p + q) + s == p + (q + s)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @given(signed_polys)
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()

    @given(signed_polys | polys(names=("b", "a"), min_exp=-3), coefficients | st.integers(-3, 3))
    @example(MultiPoly(("b", "a"), {(1, 0): 1, (0, -2): Fraction(1, 2)}), 2)
    @settings(max_examples=60, deadline=None)
    def test_scalar_sum_stays_on_the_registry(self, p, q):
        # a scalar q is the constant on p's own registry, unsorted or not, under
        # every operator: each result stays on p.vars and equals the same
        # operation with the constant q on the empty registry, which merges
        constant = MultiPoly.constant(q)
        for op in (operator.add, operator.sub, operator.mul):
            for value, merged in ((op(p, q), op(p, constant)), (op(q, p), op(constant, p))):
                assert value.vars == p.vars
                assert value == merged
                assert value.canonical_str() == merged.canonical_str()
        assert (p + q - q).terms == p.terms
        assert p + 0 == p

    @pytest.mark.parametrize("other", [True, 0.5, "1", None],
                             ids=["bool", "float", "text", "none"])
    @pytest.mark.parametrize("op", [
        lambda p, x: p + x, lambda p, x: x + p, lambda p, x: p - x,
        lambda p, x: x - p, lambda p, x: p * x, lambda p, x: x * p,
    ], ids=["p+x", "x+p", "p-x", "x-p", "p*x", "x*p"])
    def test_an_operand_that_is_not_exact_is_refused(self, op, other):
        with pytest.raises(TypeError):
            op(var("a") + 1, other)

    def test_a_negative_power_is_refused(self):
        with pytest.raises(ValueError, match="only nonnegative integer powers"):
            (var("a") + 1) ** -1

    @pytest.mark.parametrize("edge", [64, 100, 2 ** 14, 2 ** 30])
    def test_packed_product_slots_add_across_digit_edges(self, edge):
        # a slot of twice edge needs a wider digit than edge itself does (the
        # 1-, 2- and 4-byte edges), so these products form slots, of either
        # sign, past the widest digit any factor's own exponents need
        x = MultiPoly(("b", "r", "a"), {(0, -edge, edge): Fraction(1, 3), (0, 0, 1): 2,
                                        (edge, 0, -edge): Fraction(-5, 7)})
        y = MultiPoly(("r", "b"), {(edge, edge): 3, (-edge, 0): Fraction(1, 2), (0, 0): -1})
        empty = MultiPoly((), {(): Fraction(2, 9)})
        zero = MultiPoly(x.vars, {})
        for p, q in [(x, x), (x, y), (y, y), (x + y, x - y), (x, empty), (empty, empty),
                     (x, zero), (zero, y)]:
            assert (p * q).terms == fraction_product(p, q).terms
        # the cross terms x*y and -y*x cancel, and none is kept as a zero
        assert ((x + y) * (x - y)).terms == (fraction_product(x, x) - fraction_product(y, y)).terms
        assert x ** 3 == fraction_product(fraction_product(x, x), x)

    @given(st.lists(coefficients | st.integers(-3, 3), max_size=5), polys(max_terms=3, max_exp=2))
    @settings(max_examples=40, deadline=None)
    def test_horner_on_a_polynomial_stays_on_its_registry(self, coeffs, x):
        expected = MultiPoly.zero()
        for d, c in enumerate(coeffs):
            expected = expected + fraction_product(x ** d, MultiPoly.constant(c))
        value = algebra._horner(coeffs, x)
        assert value == expected
        if isinstance(value, MultiPoly) and len(coeffs) > 1 and coeffs[-1]:
            assert value.vars == x.vars

    def test_zero_product_stays_on_the_registry(self):
        # a zero scalar product is the zero polynomial on x's own registry, so
        # _horner with a zero top coefficient merges no registry either
        x = MultiPoly.variable("a") + MultiPoly.variable("r")
        for zero in (x * 0, 0 * x, x * Fraction(0), algebra._horner([0, 0], x),
                     algebra._horner([0, 0, 0], x)):
            assert zero == 0 and zero.is_zero()
            assert zero.vars == x.vars
        assert algebra._horner([3, 0], x).vars == x.vars


@st.composite
def equality_pairs(draw):
    # a polynomial and one that is often equal to it: the same terms (maybe
    # with one coefficient changed, one term added or one dropped), on the
    # same registry, a permutation of it, or one with unused variables added
    names = tuple(draw(st.permutations(("a", "b", "r"))))
    min_exp = draw(st.sampled_from((0, -3)))
    p = draw(polys(names=names, min_exp=min_exp))
    terms = dict(p.terms)
    edit = draw(st.sampled_from(("none", "change", "add", "drop")))
    if edit == "change" and terms:
        terms[draw(st.sampled_from(sorted(terms)))] += draw(coefficients)
    elif edit == "add":
        terms[tuple(draw(st.integers(min_exp, 3)) for _ in names)] = draw(coefficients)
    elif edit == "drop" and terms:
        del terms[draw(st.sampled_from(sorted(terms)))]
    q = MultiPoly(names, terms)
    registry = draw(st.sampled_from(("same", "permuted", "wider")))
    if registry == "permuted":
        order = draw(st.permutations(range(len(names))))
        q = MultiPoly(tuple(names[i] for i in order),
                      {tuple(e[i] for i in order): c for e, c in q.terms.items()})
    elif registry == "wider":
        q = q.with_vars(["c", "n"])
    return p, q


class TestEquality:
    """``==`` compares term maps on one registry and canonical forms otherwise."""

    BASE = MultiPoly(("a", "b", "r"),
                     {(1, 0, -1): Fraction(1, 2), (0, 2, 0): 3, (0, 0, 0): -1})

    def _on_base_registry(self, terms):
        other = MultiPoly(self.BASE.vars, terms)
        assert other.vars == self.BASE.vars
        return other

    def test_one_coefficient_changed_is_unequal(self):
        terms = dict(self.BASE.terms)
        terms[(0, 2, 0)] = Fraction(7, 2)
        other = self._on_base_registry(terms)
        assert other != self.BASE
        assert self.BASE != other

    def test_one_extra_term_is_unequal(self):
        terms = dict(self.BASE.terms)
        terms[(2, 0, 0)] = 1
        other = self._on_base_registry(terms)
        assert other != self.BASE
        assert self.BASE != other

    def test_same_terms_in_another_order_are_equal(self):
        other = self._on_base_registry(dict(reversed(self.BASE.terms.items())))
        assert other == self.BASE
        assert hash(other) == hash(self.BASE)

    def test_registries_differing_by_unused_variables_are_equal(self):
        wider = self.BASE.with_vars(["c", "n"])
        assert wider.vars != self.BASE.vars
        assert wider == self.BASE
        assert self.BASE == wider
        assert hash(wider) == hash(self.BASE)

    def test_permuted_registry_is_equal(self):
        order = (2, 0, 1)
        permuted = MultiPoly(tuple(self.BASE.vars[i] for i in order),
                             {tuple(e[i] for i in order): c
                              for e, c in self.BASE.terms.items()})
        assert permuted.vars != self.BASE.vars
        assert permuted == self.BASE
        assert hash(permuted) == hash(self.BASE)

    @pytest.mark.parametrize("other", [0.5, "1", None], ids=["float", "text", "none"])
    def test_an_unrelated_object_is_unequal(self, other):
        # a polynomial's and a series' == decline, so Python compares identities
        for value in (self.BASE, Series.from_dict("x", 2, {1: self.BASE})):
            assert value.__eq__(other) is NotImplemented
            assert not value == other and value != other

    @given(equality_pairs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_canonical_comparison(self, pair):
        p, q = pair
        assert (p == q) == (p._canonical() == q._canonical())
        assert (q == p) == (p == q)
        if p == q:
            assert hash(p) == hash(q)


class TestHashContract:
    """A polynomial equal to a scalar hashes as that scalar, under every hash seed."""

    def test_a_constant_hashes_as_its_scalar(self):
        x = var("x")
        pairs = [(MultiPoly.constant(2), 2),
                 (MultiPoly.constant(Fraction(-1, 3)), Fraction(-1, 3)),
                 (MultiPoly.zero(), 0), (x - x, 0), ((x + 2) - x, 2),
                 (x * MultiPoly(("x",), {(-1,): Fraction(3, 2)}), Fraction(3, 2))]
        for poly, scalar in pairs:
            assert poly == scalar and hash(poly) == hash(scalar)
        assert len({MultiPoly.constant(2), 2, Fraction(2)}) == 1
        assert len({x - x, 0}) == 1
        assert {Fraction(3, 2): "found"}[MultiPoly.constant(Fraction(3, 2))] == "found"

    @given(signed_polys, st.integers(-5, 5) | coefficients)
    @settings(max_examples=100, deadline=None)
    def test_equal_to_a_scalar_means_the_same_hash(self, p, c):
        shifted = p - p + c  # c on p's registry
        assert shifted == c and hash(shifted) == hash(c)
        if p == c:
            assert hash(p) == hash(c)


# a fresh interpreter's merged registry of a01 and a1, and its text form
ORDER_PROBE = ("import json; from stirlingzero.algebra import MultiPoly; "
               "p = MultiPoly.variable('a01') * MultiPoly.variable('a1'); "
               "print(json.dumps([p.vars, p.canonical_str()]))")


class TestVariableOrder:
    """Registries merge in one total order: name head, numeric index, whole name."""

    def test_names_with_one_index_stay_apart(self):
        # "a01" and "a1" share head and index; the whole name decides
        p = MultiPoly(("a01", "a1"), {(1, 2): 1})
        q = MultiPoly(("a1", "a01"), {(2, 1): 1})
        assert p == q and q == p
        assert hash(p) == hash(q)
        assert p.canonical_str() == q.canonical_str() == "a01*a1^2"
        assert (var("a1") * var("a01")).vars == ("a01", "a1")

    def test_numbered_names_sort_by_index(self):
        names = ["u10", "u2", "j", "r", "u", "a1", "a01", "a_1"]
        merged = sum(map(var, names), MultiPoly.zero())
        assert merged.vars == ("a01", "a1", "a_1", "j", "r", "u", "u2", "u10")

    def test_order_is_the_same_under_every_hash_seed(self):
        # set iteration order follows the hash seed; the registry must not
        seen = set()
        for seed in range(4):
            proc = subprocess.run(
                [sys.executable, "-c", ORDER_PROBE], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)})
            assert proc.returncode == 0, proc.stderr
            seen.add(proc.stdout)
        assert len(seen) == 1
        assert json.loads(seen.pop()) == [["a01", "a1"], "a01*a1"]


class TestExtraction:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            var("a").coefficient_in("zz", 0)

    def test_coefficient_of_monomial(self):
        u2, u3, r = var("u2"), var("u3"), var("r")
        p = 5 * u2 * u3 * r + 2 * u2 ** 2 * r + 7 * u2 * u3
        got = p.coefficient_in("u2", 1).coefficient_in("u3", 1)
        assert got == 5 * r + 7


    def test_remainder_drops_heavy_and_squared_terms(self):
        u2, u3, u4 = var("u2"), var("u3"), var("u4")
        light = 4 * u4 * r_to(-2)
        p = u2 ** 3 + u2 * u3 + light + u2 * u4 + 7 * u3 ** 2 + 1
        weights = {"u2": 1, "u3": 2, "u4": 3}
        assert remainder(p, weights, 3) == u2 ** 3 + u2 * u3 + light + 1
        assert remainder(p, weights, 3, ["u2"]) == u2 * u3 + light + 1
        assert remainder(p, {}, None, ["u3"]) == p - 7 * u3 ** 2
        assert remainder(p, weights) == p

    def test_remainder_weighs_each_registry_slot(self):
        # the weighted variables sit after unweighted ones in the registry
        j, n, u2, u3 = var("j"), var("n"), var("u2"), var("u3")
        over_r3 = r_to(-3)
        p = j ** 5 * u2 + n ** 3 * u3 + u2 * u3 * over_r3 + j * n * u2 ** 2 + u3 ** 2
        assert p.vars == ("j", "n", "r", "u2", "u3")
        weights = {"u2": 1, "u3": 2}
        assert remainder(p, weights, 2) == j ** 5 * u2 + n ** 3 * u3 + j * n * u2 ** 2
        assert remainder(p, weights, 1) == j ** 5 * u2

    def test_remainder_of_a_weighted_squarefree_variable(self):
        # u2 weighs 1 and is squarefree: u2^2 goes as a square though it is
        # light, u2 * u3^2 as too heavy, and u2 * u3 stays; the reduced
        # exponential agrees term for term
        u2, u3 = var("u2"), var("u3")
        p = u2 ** 2 + u2 * u3 + 2 * u2 * u3 ** 2 + u3 + 5
        ideal = ({"u2": 1, "u3": 1}, 2, ["u2"])
        assert remainder(p, *ideal) == u2 * u3 + u3 + 5
        s = Series.from_dict("x", 4, {1: u2 + u3, 2: u2 * u3 - u3 ** 2})
        assert s.exp(ideal=ideal).coeffs == tuple(remainder(c, *ideal) for c in s.exp().coeffs)


# ------------------------------------------------------------------- series

class TestSeries:
    def test_exp_of_zero(self):
        s = Series("x", 4)
        assert s.exp() == Series.from_dict("x", 4, {0: MultiPoly.constant(1)})

    def test_exp_linear_taylor(self):
        a = var("a")
        s = Series.from_dict("x", 2, {1: a})
        expected = Series.from_dict(
            "x", 2, {0: MultiPoly.constant(1), 1: a, 2: a ** 2 * Fraction(1, 2)})
        assert s.exp() == expected

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Series("x", -1), ValueError, "truncation order must be nonnegative"),
        (lambda: Series("x", 2, [1, 0.5]), TypeError, "bad series coefficient 0.5"),
        (lambda: Series.from_dict("x", 2, {3: 1}), ValueError, r"index 3 outside 0\.\.2"),
        (lambda: Series("x", 2).coefficient(-1), ValueError, "negative coefficient index"),
    ], ids=["negative-order", "float-coefficient", "index-past-order", "negative-index"])
    def test_bad_input_is_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_exp_rejects_unit(self):
        s = Series.from_dict("x", 2, {0: MultiPoly.constant(1)})
        with pytest.raises(ValueError):
            s.exp()

    def test_generating_argument_cubic_coefficient(self):
        # exp(n r x - (n u2/2) x^2 + (n u3/3) x^3) has x^3 coefficient
        # n^3 r^3/6 - n^2 r u2/2 + n u3/3  (hand expansion)
        n, u2, u3 = var("n"), var("u2"), var("u3")
        r = var("r")
        arg = Series.from_dict("x", 3, {
            1: n * r,
            2: n * u2 * Fraction(-1, 2),
            3: n * u3 * Fraction(1, 3),
        })
        got = arg.exp().coefficient(3)
        expected = (n ** 3 * r ** 3 * Fraction(1, 6)
                    - n ** 2 * r * u2 * Fraction(1, 2)
                    + n * u3 * Fraction(1, 3))
        assert got == expected

    def test_log_of_one(self):
        one = Series.from_dict("x", 3, {0: MultiPoly.constant(1)})
        assert all(c.is_zero() for c in one.log().coeffs)

    def test_log_mercator(self):
        a = var("a")
        s = Series.from_dict("x", 2, {0: MultiPoly.constant(1), 1: a})
        expected = Series.from_dict("x", 2, {1: a, 2: -(a ** 2) * Fraction(1, 2)})
        assert s.log() == expected

    def test_log_rejects_nonunit(self):
        with pytest.raises(ValueError):
            Series.from_dict("x", 2, {0: MultiPoly.constant(2)}).log()
        with pytest.raises(ValueError):
            Series("x", 2).log()

    def test_coefficient_examples(self):
        s = Series.from_dict("x", 2, {0: 1, 1: 2, 2: 3})
        assert s.coefficient(1) == 2
        with pytest.raises(PrecisionError):
            s.coefficient(3)

    def test_exponential_series_coefficients(self):
        n, r = var("n"), var("r")
        T = 6
        s = Series.from_dict("x", T, {1: n * r}).exp()
        for k in range(T + 1):
            assert s.coefficient(k) == (n * r) ** k * Fraction(1, factorial(k))

    @given(unit_free_series(order=6))
    @settings(max_examples=25, deadline=None)
    def test_log_of_exp_roundtrip(self, s):
        assert s.exp().log() == s

    @given(st.integers(1, 8).flatmap(lambda t: unit_free_series(order=t)))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_order(self, s):
        assert s.exp().log() == s

    @given(st.integers(1, 7).flatmap(mixed_series), st.sampled_from(sorted(REDUCTIONS)))
    @example(NEGATIVE_R, "weight and squarefree")
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_fraction_reference(self, s, reduction):
        ideal = REDUCTIONS[reduction]
        assert s.exp(ideal=ideal).coeffs == reference_exp(s, ideal)

    @given(st.integers(1, 7).flatmap(mixed_series), st.sampled_from(sorted(REDUCTIONS)))
    @example(NEGATIVE_R, "weight and squarefree")
    @settings(max_examples=60, deadline=None)
    def test_exp_as_egf_is_k_factorial_times_the_reference(self, s, reduction):
        ideal = REDUCTIONS[reduction]
        assert s.exp(ideal, egf=True).coeffs == tuple(
            c * factorial(k) for k, c in enumerate(reference_exp(s, ideal)))

    @given(st.integers(1, 7).flatmap(mixed_series), st.sampled_from(sorted(REDUCTIONS)))
    @example(NEGATIVE_R, "weight and squarefree")
    @settings(max_examples=60, deadline=None)
    def test_log_matches_fraction_reference(self, s, reduction):
        ideal = REDUCTIONS[reduction]
        unit = Series("x", s.order, (MultiPoly.constant(1),) + s.coeffs[1:])
        assert unit.log(ideal=ideal).coeffs == reference_log(unit, ideal)

    @given(st.integers(1, 7).flatmap(mixed_series))
    @settings(max_examples=40, deadline=None)
    def test_log_of_exp_of_mixed_series(self, s):
        assert s.exp().log() == s

    def test_coefficients_are_stored_as_fractions(self):
        s = Series.from_dict("x", 3, {1: var("a") * Fraction(2, 3), 3: 5})
        for series in (s.exp(), s.exp(egf=True), s.exp().log()):
            assert all(type(c) is Fraction
                       for p in series.coeffs for c in p.terms.values())

    IDEAL = ({"a": 1, "b": 2}, 4, ("c",))

    @given(unit_free_series(order=6))
    @settings(max_examples=25, deadline=None)
    def test_reduced_exp_is_the_remainder_of_exp(self, s):
        assert s.exp(ideal=self.IDEAL).coeffs == tuple(
            remainder(c, *self.IDEAL) for c in s.exp().coeffs)

    @given(unit_free_series(order=6))
    @settings(max_examples=25, deadline=None)
    def test_reduced_log_is_the_remainder_of_log(self, s):
        unit = s.exp()
        assert unit.log(ideal=self.IDEAL).coeffs == tuple(
            remainder(c, *self.IDEAL) for c in s.coeffs)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_packer_round_trip_and_additivity(self, data):
        # up to ``order`` exponent tuples, each slot within -top..top (the
        # negative ones as on a Laurent r), packed with bound order * top:
        # each key reads back, and a sum of keys is the key of the slot sums
        width = data.draw(st.integers(1, 5), label="width")
        order = data.draw(st.integers(1, 8), label="order")
        top = data.draw(st.sampled_from([1, 7, 200, 2 ** 15, 2 ** 15 + 3, 2 ** 62, 2 ** 70]))
        slot = st.integers(-top, top)
        terms = data.draw(st.lists(st.tuples(*[slot] * width), min_size=1, max_size=order))
        terms[0] = (data.draw(st.sampled_from([top, -top])),) + terms[0][1:]
        packer = algebra._Packer(width, order * top)
        keys = [packer.pack(e) for e in terms]
        assert [packer.unpack(k) for k in keys] == terms
        total = tuple(map(sum, zip(*terms)))
        assert packer.pack(total) == sum(keys)
        assert packer.unpack(sum(keys)) == total

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_groups_match_outside_then_groups(self, data):
        # _groups reduces and splits each input term in one pass; it must
        # give what the two passes of reference_outside and reference_groups
        # give, on exponents of either sign in every slot, with a weight bound
        # or without (the weights then dropped, as _over_lcm drops them)
        width = data.draw(st.integers(1, 5), label="width")
        exps = st.tuples(*[st.integers(-3, 3)] * width)
        nums = data.draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=12))
        weight_of = data.draw(st.lists(st.integers(0, 3), min_size=width, max_size=width))
        max_weight = data.draw(st.none() | st.integers(-2, 8), label="max_weight")
        square_slots = sorted(data.draw(st.sets(st.integers(0, width - 1)), label="squares"))
        split_by = [] if max_weight is None else weight_of
        pack = algebra._Packer(width, 3).pack
        want = reference_groups(reference_outside(nums, weight_of, square_slots, max_weight),
                                split_by, square_slots, pack)
        assert algebra._groups(nums, split_by, square_slots, max_weight, pack) == want

    @pytest.mark.parametrize("bound", [0, 127, 128, 2 ** 15 - 1, 2 ** 15, 2 ** 63 - 1, 2 ** 63])
    def test_packer_digit_grows_at_its_edge(self, bound):
        # the digit holds -bound..bound whatever the width; it never wraps
        packer = algebra._Packer(3, bound)
        for e in [(bound, -bound, 0), (-bound, 0, bound), (0, 0, 0)]:
            assert packer.unpack(packer.pack(e)) == e
        assert packer.pack((bound, -bound, 1)) + packer.pack((-bound, bound, -1)) == 0

    def test_exponents_beyond_a_byte_and_a_short(self):
        # a 2^15 exponent times the order needs 4-byte digits, and a Laurent
        # r^-1 a negative one; both recurrences agree with the references
        big = MultiPoly(("a", "r"), {(2 ** 15, -1): Fraction(1, 3), (1, 0): 2})
        s = Series.from_dict("x", 4, {1: big, 3: var("b") * r_to(-2)})
        assert s.exp().coeffs == reference_exp(s)
        unit = s.exp()
        assert unit.log().coeffs == reference_log(unit)
        assert unit.coefficient(4).degree_in("a") == 4 * 2 ** 15

    @pytest.mark.parametrize("reduction", ["weight", "squarefree", "weight and squarefree"])
    def test_reduced_kernel_never_forms_a_dropped_term(self, monkeypatch, reduction):
        # every key the product loop writes into an accumulator lies outside
        # the ideal, so no product term is formed only to be dropped; the
        # loop adds packed keys, decoded here by the packer of its call
        ideal = REDUCTIONS[reduction]
        a, b, c = var("a"), var("b"), var("c")
        s = Series.from_dict("x", 6, {1: a + b + c * r_to(-1), 2: a * c + b ** 2, 3: 2 * c})
        packers, keys = [], set()
        real_mul_packed = algebra._mul_packed

        class RecordedPacker(algebra._Packer):
            __slots__ = ()

            def __init__(self, width, bound):
                super().__init__(width, bound)
                packers.append(self)

        def spy(out, ta, tb, scale):
            keys.update(packers[-1].unpack(ea + eb) for ea in ta for eb in tb)
            real_mul_packed(out, ta, tb, scale)

        monkeypatch.setattr(algebra, "_Packer", RecordedPacker)
        monkeypatch.setattr(algebra, "_mul_packed", spy)
        unit = s.exp(ideal=ideal)
        unit.log(ideal=ideal)
        assert len(packers) == 2 and keys
        written = MultiPoly._raw(unit.coeffs[0].vars, dict.fromkeys(keys, 1))
        assert remainder(written, *ideal) == written

    @pytest.mark.parametrize("ideal", [
        ({"a": -1}, 3, ()),   # a negative weight
        ({"r": 1}, 3, ()),    # a weight on r, which carries r^-1
        ({}, None, ("r",)),   # r^2 * r^-1 = r
    ])
    def test_exp_and_log_need_an_ideal(self, ideal):
        s = Series.from_dict("x", 3, {1: var("a") + r_to(-1)})
        with pytest.raises(ValueError):
            s.exp(ideal=ideal)
        with pytest.raises(ValueError):
            Series("x", 3, (MultiPoly.constant(1),) + s.coeffs[1:]).log(ideal=ideal)


# -------------------------------------------------------------- interpolation

class TestIntPoly:
    """The packed integer polynomial: int coefficients on packed monomials."""

    NAMES = ("a", "b", "c")

    @given(polys(max_exp=2), polys(max_exp=2), st.integers(-4, 4))
    @settings(max_examples=50, deadline=None)
    def test_ring_operations_are_the_multipoly_ones(self, p, q, k):
        # integer coefficients (every denominator divides 60) and exponents up
        # to 2, so a product's stay within the packer's bound 4
        p, q = p * 60, q * 60
        packer = algebra._Packer(3, 4)
        a, b = (algebra._IntPoly.packed(x, self.NAMES, packer) for x in (p, q))
        for packed, expected in [(a + b, p + q), (a * b, p * q), (a * k, p * k), (k * a, p * k),
                                 (a + k, p + k), (k + a, p + k), (a, p)]:
            assert packed.unpacked(self.NAMES, packer) == expected
            assert packed.unpacked(self.NAMES, packer).vars == self.NAMES
        assert (a * b).unpacked(self.NAMES, packer, 7) == p * q * Fraction(1, 7)

    def test_pickles_as_its_dict(self):
        packer = algebra._Packer(3, 4)
        p = algebra._IntPoly.packed(var("a") * 3 - 2, self.NAMES, packer)
        copy = pickle.loads(pickle.dumps(p))
        assert type(copy) is algebra._IntPoly and copy == p
        assert copy.unpacked(self.NAMES, packer) == var("a") * 3 - 2

    def test_zero_coefficients_are_dropped_on_unpacking(self):
        packer = algebra._Packer(3, 4)
        p = algebra._IntPoly.packed(var("b") + 1, self.NAMES, packer)
        assert (p + p * -1).unpacked(self.NAMES, packer).terms == {}
        assert (p + p * -1) == {key: 0 for key in p}

    def test_packing_refuses_a_coefficient_that_is_not_an_integer(self):
        # read with int(), the 1/2 was truncated and its term dropped
        p = MultiPoly(("c1", "c2"), {(1, 0): Fraction(1, 2), (0, 1): 3})
        with pytest.raises(ValueError, match=r"coefficient Fraction\(1, 2\) is not an integer"):
            algebra._IntPoly.packed(p, ("c1", "c2"), algebra._Packer(2, 4))

    @pytest.mark.parametrize("key", [
        lambda pack: pack((5, 0, 0)),   # one past the bound
        lambda pack: pack((0, -1, 0)),  # below zero
        lambda pack: 200 << 16,         # a digit past the packer's slot range
        lambda pack: 1 << 40,           # past every slot
    ], ids=["above", "below", "wide-digit", "past-every-slot"])
    def test_unpacking_refuses_an_exponent_outside_the_bound(self, key):
        packer = algebra._Packer(3, 4)
        p = algebra._IntPoly({packer.pack((1, 0, 0)): 2, key(packer.pack): 1})
        with pytest.raises(ConsistencyError, match="outside 0..4"):
            p.unpacked(self.NAMES, packer)


class TestScalarFit:
    """``algebra._fit``, the one kernel of every interpolation, against a
    plain-``Fraction`` Lagrange reference."""

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_fit_matches_fraction_reference(self, degree, data):
        points = data.draw(st.lists(st.integers(-40, 40), min_size=degree + 1,
                                    max_size=degree + 4, unique=True))
        nodes = data.draw(st.lists(st.integers(-50, 50) | coefficients,
                                   min_size=degree + 1, max_size=degree + 1))
        truth = lagrange_coefficients(points, nodes, degree)
        values = nodes + [sum(c * x ** d for d, c in enumerate(truth))
                          for x in points[degree + 1:]]
        nums, den = algebra._fit(points, values, degree, "T")
        assert type(den) is int and den > 0 and all(type(c) is int for c in nums)
        assert [Fraction(c, den) for c in nums] == truth
        if len(points) > degree + 1:  # a witness off the polynomial names its point
            i = data.draw(st.integers(degree + 1, len(points) - 1))
            values[i] += data.draw(coefficients)
            with pytest.raises(PolynomialityError,
                               match=f"surplus sample at T={points[i]} deviates"):
                algebra._fit(points, values, degree, "T")

    @pytest.mark.parametrize("bad", [True, var("z"), MultiPoly.constant(3), 1.0],
                             ids=["bool", "variable", "constant-poly", "float"])
    @pytest.mark.parametrize("at", [0, 3], ids=["node", "witness"])
    def test_a_value_that_is_not_a_rational_is_refused(self, bad, at):
        values = [1, Fraction(1, 2), 7, 5]
        values[at] = bad
        with pytest.raises(TypeError, match="expected an exact rational"):
            algebra._fit(range(4), values, 2, "T")


class TestInterpolation:
    def test_constant_fit(self):
        one = MultiPoly.constant(1)
        samples = [(1, one), (2, one), (3, one)]
        assert interpolate_in_var(samples, "j", 0) == 1

    def test_binomial_fit(self):
        samples = [(j, MultiPoly.constant(Fraction(j * (j - 1), 2)))
                   for j in range(2, 6)]
        j = var("j")
        assert interpolate_in_var(samples, "j", 2) == (j ** 2 - j) * Fraction(1, 2)

    def test_polynomial_valued_samples(self):
        # samples of j*u at u symbolic: linear in j with coefficient u
        u = var("u")
        samples = [(j, u * j) for j in range(0, 5)]
        assert interpolate_in_var(samples, "j", 1) == u * var("j")

    def test_surplus_disagreement_raises(self):
        samples = [(j, MultiPoly.constant(2 ** j)) for j in range(1, 6)]
        with pytest.raises(PolynomialityError):
            interpolate_in_var(samples, "j", 2)

    def test_surplus_deviation_in_a_monomial_no_node_has(self):
        # the nodes fit u*j exactly; the witness adds a v term the fit lacks
        u, v = var("u"), var("v")
        samples = [(x, u * x) for x in range(4)] + [(4, u * 4 + v)]
        with pytest.raises(PolynomialityError):
            interpolate_in_var(samples, "j", 2)

    def test_surplus_deviation_in_one_monomial_among_many(self):
        names = ("a", "b", "c", "d", "e")

        def value(x, bump=0):
            total = var("c") * bump
            for k, name in enumerate(names):
                total = total + var(name) * (x ** k + k)
            return total

        samples = [(x, value(x)) for x in range(-3, 4)]
        fit = interpolate_in_var(samples, "j", 4)
        assert fit == value(var("j"))
        samples[-1] = (3, value(3, bump=Fraction(1, 7)))
        with pytest.raises(PolynomialityError):
            interpolate_in_var(samples, "j", 4)

    def test_samples_with_different_registries(self):
        # the x = 0 and x = 1 samples are constants, the rest carry u/r^2
        u_over_r2 = var("u") * r_to(-2)
        samples = [(x, u_over_r2 * (x * x - x) + x) for x in range(5)]
        j = var("j")
        assert interpolate_in_var(samples, "j", 2) == u_over_r2 * (j * j - j) + j

    def test_samples_registering_var_unused(self):
        # j sits in the samples' registry at exponent 0; the fit writes the
        # fitted degree into that slot
        u = var("u")
        samples = [(x, (u * x + 1).with_vars(["j"])) for x in range(4)]
        fit = interpolate_in_var(samples, "j", 2)
        assert fit == u * var("j") + 1
        assert fit.vars == ("j", "u")

    def test_samples_some_registering_var_unused(self):
        # the odd samples register j and the even ones do not: the fit's
        # registry has j's slot, at 0, and the even samples are remapped to it
        u = var("u")
        samples = [(x, (u * x + 1).with_vars(["j"]) if x % 2 else u * x + 1) for x in range(5)]
        fit = interpolate_in_var(samples, "j", 3)
        assert fit == u * var("j") + 1
        assert fit.vars == ("j", "u")

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            interpolate_in_var([(0, MultiPoly.constant(1))], "j", 2)

    @pytest.mark.parametrize("samples, degree, message", [
        ([(0, 1)], -1, "degree bound must be nonnegative"),
        ([(1, 5), (1, 5)], 1, "sample points must be distinct"),
    ], ids=["negative-degree", "repeated-point"])
    def test_bad_fit_request_is_rejected(self, samples, degree, message):
        samples = [(x, MultiPoly.constant(v)) for x, v in samples]
        with pytest.raises(ValueError, match=message):
            interpolate_in_var(samples, "x", degree)

    def test_a_sample_that_is_not_a_polynomial_is_refused(self):
        with pytest.raises(TypeError, match="sample value 0.5 is not a polynomial"):
            interpolate_in_var([(0, MultiPoly.constant(1)), (1, 0.5)], "x", 1)

    def test_sample_values_must_not_involve_var(self):
        with pytest.raises(ValueError):
            interpolate_in_var([(0, var("j")), (1, var("j"))], "j", 1)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6, unique=True),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_fit_matches_fraction_reference(self, nodes, data):
        u_over_r = var("u") * r_to(-1)
        samples = [(x, data.draw(polys(max_terms=3)) + u_over_r * data.draw(coefficients))
                   for x in nodes]
        degree = len(nodes) - 1
        fit = interpolate_in_var(samples, "j", degree)
        assert fit == reference_fit(samples, "j", degree)
        assert all(type(c) is Fraction for c in fit.terms.values())

    @given(st.lists(st.integers(-30, 60), min_size=1, max_size=12, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_lagrange_rows_match_one_product_per_basis_polynomial(self, nodes):
        # the rows come from one node product, by synthetic division
        assert algebra._lagrange_rows(tuple(nodes)) == reference_lagrange_rows(nodes)

    def test_rows_are_kept_per_node_tuple_and_witnesses_still_checked(self):
        # a fit from kept rows equals one from rows built afresh, and a bad
        # witness after a cache hit still raises.  Each of the two monomials
        # (u and 1) is one _fit, so two calls read the rows four times, and
        # the node tuple's rows are built once
        u, j = var("u"), var("j")
        samples = [(x, u * x * x + x) for x in range(5)]
        algebra._lagrange_rows.cache_clear()
        fresh = interpolate_in_var(samples, "j", 2)
        assert interpolate_in_var(samples, "j", 2) == fresh == u * j * j + j
        assert algebra._lagrange_rows.cache_info()[:2] == (3, 1)  # hits, misses
        by_degree, den = algebra._lagrange_rows((0, 1, 2))
        assert (by_degree, den) == algebra._lagrange_rows.__wrapped__((0, 1, 2))
        assert type(by_degree) is tuple and all(type(row) is tuple for row in by_degree)
        samples[-1] = (4, samples[-1][1] + Fraction(1, 7))
        with pytest.raises(PolynomialityError, match="surplus sample at j=4"):
            interpolate_in_var(samples, "j", 2)
        assert algebra._lagrange_rows.cache_info().misses == 1

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_surplus_witness_off_by_a_seventh_raises(self, degree, data):
        # a polynomial in j over a, b, c, sampled at degree + 3 points: the
        # fit passes, then a bump of 1/7 on one monomial of the witness (or
        # on one it lacks) must be caught
        j = var("j")
        truth = MultiPoly.zero()
        for d in range(degree + 1):
            truth = truth + data.draw(polys()) * j ** d
        samples = [(x, substitute(truth, {"j": x})) for x in range(-1, degree + 2)]
        assert interpolate_in_var(samples, "j", degree) == truth
        x, witness = samples[-1]
        choice = data.draw(st.sampled_from(sorted(witness.terms) + [None]))
        bump = var("v") if choice is None else MultiPoly(witness.vars, {choice: 1})
        samples[-1] = (x, witness + bump * Fraction(1, 7))
        with pytest.raises(PolynomialityError):
            interpolate_in_var(samples, "j", degree)

    @pytest.mark.parametrize("points", [
        (Fraction(1, 2), Fraction(3, 2)),  # truncated, these fit 5 + 2x for 4 + 2x
        (0.5, 3), (1.0, 3), ("1", 3),
    ], ids=["halves", "float-half", "float-one", "text"])
    def test_non_integral_points_rejected(self, points):
        samples = list(zip(points, (MultiPoly.constant(5), MultiPoly.constant(7))))
        with pytest.raises(ValueError):
            interpolate_in_var(samples, "x", 1)

    def test_integral_fraction_points_accepted(self):
        samples = [(Fraction(2, 2), MultiPoly.constant(5)), (Fraction(6, 2), 9)]
        assert interpolate_in_var(samples, "x", 1) == 3 + 2 * var("x")

    @given(st.lists(coefficients, min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_fit_reproduces_samples(self, cs):
        def f(x):
            return cs[0] + cs[1] * x + cs[2] * x * x

        samples = [(x, MultiPoly.constant(f(x))) for x in range(-2, 4)]
        fit = interpolate_in_var(samples, "t", 2)
        for x, value in samples:
            assert substitute(fit, {"t": x}) == value
