"""Kernel tests: sparse polynomials, truncated series, interpolation."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from stirlingzero.algebra import (
    MultiPoly,
    PolynomialityError,
    PrecisionError,
    Series,
    interpolate_in_var,
)


def var(name, laurent=False):
    return MultiPoly.variable(name, laurent=laurent)


def r_to(power):
    # the Laurent monomial r**power, power of either sign
    return MultiPoly(("r",), {(power,): 1}, laurent=("r",))


# ---------------------------------------------------------------- strategies

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6).filter(lambda q: q != 0)


@st.composite
def polys(draw, names=("a", "b", "c"), max_terms=4, max_exp=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in names)
        terms[exps] = draw(coefficients)
    return MultiPoly(names, terms)


@st.composite
def mixed_series(draw, order):
    # coefficients in a, b, c and a Laurent r with denominators up to 12,
    # and one coefficient forced to zero somewhere in the middle
    gap = draw(st.integers(1, order))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    entries = {}
    for k in range(1, order + 1):
        if k == gap:
            continue
        r_term = MultiPoly(("r",), {(draw(st.integers(-2, 2)),): draw(rational)},
                           laurent=("r",))
        entries[k] = draw(polys(max_terms=3, max_exp=2)) + r_term
    return Series.from_dict("x", order, entries)


# the parent recurrences over Fraction coefficients, kept as the reference
# for the integer-numerator kernel

def fraction_product(p, q):
    # term-pair product with Fraction arithmetic throughout
    pa = p.with_vars(q.vars, q.laurent)
    qa = q.with_vars(p.vars, p.laurent)
    out = {}
    for ea, ca in pa.terms.items():
        for eb, cb in qa.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return MultiPoly(pa.vars, out, pa.laurent)


def reference_exp(s, reduce=None):
    # k*f_k = sum_{i=1..k} i * s_i * f_{k-i}
    f = [MultiPoly.constant(1)]
    for k in range(1, s.order + 1):
        acc = MultiPoly.zero()
        for i in range(1, k + 1):
            if s.coeffs[i].is_zero():
                continue
            product = fraction_product(s.coeffs[i], f[k - i])
            if reduce is not None:
                product = reduce(product)
            acc = acc + product * Fraction(i, k)
        f.append(acc)
    return tuple(f)


def reference_log(s, reduce=None):
    # g_k = s_k - (1/k) sum_{i=1..k-1} i * g_i * s_{k-i}
    g = [MultiPoly.zero()]
    for k in range(1, s.order + 1):
        acc = s.coeffs[k] if reduce is None else reduce(s.coeffs[k])
        for i in range(1, k):
            product = fraction_product(g[i], s.coeffs[k - i])
            if reduce is not None:
                product = reduce(product)
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


REDUCTIONS = {
    "none": None,
    "weight": lambda p: p.remainder({"a": 1, "b": 2}, 3),
    "squarefree": lambda p: p.remainder({}, None, ["a", "b", "c"]),
}


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
        u2, r = var("u2"), var("r", laurent=True)
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

    def test_laurent_flag_gates_negative_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(("a",), {(-1,): 1})
        q = MultiPoly(("r",), {(-2,): 1}, laurent=("r",))
        assert q.degree_in("r") == -2
        assert q * r_to(2) == 1

    def test_constant_value(self):
        assert MultiPoly.constant(Fraction(7, 2)).constant_value() == Fraction(7, 2)
        assert MultiPoly.zero().constant_value() == 0
        with pytest.raises(ValueError):
            (var("a") + 1).constant_value()

    def test_semantic_equality_ignores_unused_vars(self):
        p = MultiPoly(("a", "b"), {(1, 0): 2})
        q = MultiPoly(("a",), {(1,): 2})
        assert p == q
        assert hash(p) == hash(q)

    def test_substitute_scalar_and_poly(self):
        a, b = var("a"), var("b")
        p = a ** 2 * b + 3 * a
        assert p.substitute({"a": 2, "b": Fraction(1, 2)}) == 2 + 6
        assert p.substitute({"a": b}) == b ** 3 + 3 * b

    def test_substitute_laurent_scalar(self):
        p = r_to(-2)
        assert p.substitute({"r": 2}) == Fraction(1, 4)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_fraction_reference(self, p, q):
        p = p * Fraction(1, 3) + r_to(-2) * Fraction(5, 7)
        assert (p * q).terms == fraction_product(p, q).terms

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, s):
        assert (p + q) + s == p + (q + s)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @given(polys())
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()


@st.composite
def equality_pairs(draw):
    # a polynomial and one that is often equal to it: the same terms (maybe
    # with one coefficient changed, one term added or one dropped), on the
    # same registry, a permutation of it, or one with unused variables added
    names = tuple(draw(st.permutations(("a", "b", "r"))))
    p = draw(polys(names=names))
    terms = dict(p.terms)
    edit = draw(st.sampled_from(("none", "change", "add", "drop")))
    if edit == "change" and terms:
        terms[draw(st.sampled_from(sorted(terms)))] += draw(coefficients)
    elif edit == "add":
        terms[tuple(draw(st.integers(0, 3)) for _ in names)] = draw(coefficients)
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
                     {(1, 0, -1): Fraction(1, 2), (0, 2, 0): 3, (0, 0, 0): -1},
                     laurent=("r",))

    def _on_base_registry(self, terms):
        other = MultiPoly(self.BASE.vars, terms, self.BASE.laurent)
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
                              for e, c in self.BASE.terms.items()},
                             self.BASE.laurent)
        assert permuted.vars != self.BASE.vars
        assert permuted == self.BASE
        assert hash(permuted) == hash(self.BASE)

    @given(equality_pairs())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_canonical_comparison(self, pair):
        p, q = pair
        assert (p == q) == (p._canonical() == q._canonical())
        assert (q == p) == (p == q)
        if p == q:
            assert hash(p) == hash(q)


class TestExtraction:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            var("a").coefficient_in("zz", 0)

    def test_coefficient_of_monomial(self):
        u2, u3, r = var("u2"), var("u3"), var("r", laurent=True)
        p = 5 * u2 * u3 * r + 2 * u2 ** 2 * r + 7 * u2 * u3
        got = p.coefficient_in("u2", 1).coefficient_in("u3", 1)
        assert got == 5 * r + 7


    def test_remainder_drops_heavy_and_squared_terms(self):
        u2, u3, u4 = var("u2"), var("u3"), var("u4")
        light = 4 * u4 * r_to(-2)
        p = u2 ** 3 + u2 * u3 + light + u2 * u4 + 7 * u3 ** 2 + 1
        weights = {"u2": 1, "u3": 2, "u4": 3}
        assert p.remainder(weights, 3) == u2 ** 3 + u2 * u3 + light + 1
        assert p.remainder(weights, 3, ["u2"]) == u2 * u3 + light + 1
        assert p.remainder({}, None, ["u3"]) == p - 7 * u3 ** 2
        assert p.remainder(weights) == p

    def test_remainder_weighs_each_registry_slot(self):
        # the weighted variables sit after unweighted ones in the registry
        j, n, u2, u3 = var("j"), var("n"), var("u2"), var("u3")
        over_r3 = r_to(-3)
        p = j ** 5 * u2 + n ** 3 * u3 + u2 * u3 * over_r3 + j * n * u2 ** 2 + u3 ** 2
        assert p.vars == ("j", "n", "r", "u2", "u3")
        weights = {"u2": 1, "u3": 2}
        assert p.remainder(weights, 2) == j ** 5 * u2 + n ** 3 * u3 + j * n * u2 ** 2
        assert p.remainder(weights, 1) == j ** 5 * u2

    @given(polys(names=("a", "u2", "b", "u3")), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_remainder_matches_a_per_term_reference(self, p, max_weight):
        weights = {"u2": 1, "u3": 2}
        kept = {e: c for e, c in p.terms.items()
                if sum(weights.get(name, 0) * x for name, x in zip(p.vars, e)) <= max_weight}
        assert p.remainder(weights, max_weight).terms == kept

    def test_remainder_needs_an_ideal(self):
        r = var("r", laurent=True)
        with pytest.raises(ValueError):
            (var("a") + 1).remainder({"a": -1}, 0)
        with pytest.raises(ValueError):
            (r + 1).remainder({"r": 1}, 0)


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

    def test_exp_rejects_unit(self):
        s = Series.from_dict("x", 2, {0: MultiPoly.constant(1)})
        with pytest.raises(ValueError):
            s.exp()

    def test_generating_argument_cubic_coefficient(self):
        # exp(n r x - (n u2/2) x^2 + (n u3/3) x^3) has x^3 coefficient
        # n^3 r^3/6 - n^2 r u2/2 + n u3/3  (hand expansion)
        n, u2, u3 = var("n"), var("u2"), var("u3")
        r = var("r", laurent=True)
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
        n, r = var("n"), var("r", laurent=True)
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
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_fraction_reference(self, s, reduction):
        reduce = REDUCTIONS[reduction]
        assert s.exp(reduce=reduce).coeffs == reference_exp(s, reduce)

    @given(st.integers(1, 7).flatmap(mixed_series), st.sampled_from(sorted(REDUCTIONS)))
    @settings(max_examples=60, deadline=None)
    def test_log_matches_fraction_reference(self, s, reduction):
        reduce = REDUCTIONS[reduction]
        unit = Series("x", s.order, (MultiPoly.constant(1),) + s.coeffs[1:])
        assert unit.log(reduce=reduce).coeffs == reference_log(unit, reduce)

    @given(st.integers(1, 7).flatmap(mixed_series))
    @settings(max_examples=40, deadline=None)
    def test_log_of_exp_of_mixed_series(self, s):
        assert s.exp().log() == s

    def test_coefficients_are_stored_as_fractions(self):
        s = Series.from_dict("x", 3, {1: var("a") * Fraction(2, 3), 3: 5})
        for series in (s.exp(), s.exp().log()):
            assert all(type(c) is Fraction
                       for p in series.coeffs for c in p.terms.values())

    @staticmethod
    def _reduce(p):
        return p.remainder({"a": 1, "b": 2}, 4, ["c"])

    @given(unit_free_series(order=6))
    @settings(max_examples=25, deadline=None)
    def test_reduced_exp_is_the_remainder_of_exp(self, s):
        assert s.exp(reduce=self._reduce).coeffs == tuple(
            self._reduce(c) for c in s.exp().coeffs)

    @given(unit_free_series(order=6))
    @settings(max_examples=25, deadline=None)
    def test_reduced_log_is_the_remainder_of_log(self, s):
        unit = s.exp()
        assert unit.log(reduce=self._reduce).coeffs == tuple(
            self._reduce(c) for c in s.coeffs)


# -------------------------------------------------------------- interpolation

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
        # j sits in the samples' registry at exponent 0; the fit drops and
        # re-inserts its slot
        u = var("u")
        samples = [(x, (u * x + 1).with_vars(["j"])) for x in range(4)]
        fit = interpolate_in_var(samples, "j", 2)
        assert fit == u * var("j") + 1
        assert fit.vars == ("j", "u")

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            interpolate_in_var([(0, MultiPoly.constant(1))], "j", 2)

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
        samples = [(x, truth.substitute({"j": x})) for x in range(-1, degree + 2)]
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
            assert fit.substitute({"t": x}) == value
