"""Log-expansion verifier: generating coefficients, dual routes, vanishing."""

from fractions import Fraction
from math import factorial

import pytest

from stirlingzero import series_vanishing
from stirlingzero.algebra import (
    BudgetError,
    ConsistencyError,
    MultiPoly,
    PolynomialityError,
    Series,
    _dense_from_nodes,
    interpolate_in_var,
)
from stirlingzero.series_vanishing import (
    X,
    ExpansionConfig,
    _closed_form,
    _generating_series,
    _readback_coefficients,
    expansion_coefficients,
    log_expansion,
    symbolic_expansion_coefficient,
    u_name,
    vanishing_report,
)
from stirlingzero.stirling import stirling_row

from generating_reference import generating_coefficient

n = MultiPoly.variable("n")
r = MultiPoly.variable("r", laurent=True)
j = MultiPoly.variable("j")
u2 = MultiPoly.variable("u2")
u3 = MultiPoly.variable("u3")


def over_r(p, power):
    return p * MultiPoly(("r",), {(-power,): 1}, laurent=("r",))


CFG = ExpansionConfig()


@pytest.fixture(autouse=True)
def fresh_checks():
    # each checked a_h is kept once made; a test that injects a fault needs
    # the check to run again, and must not leave its value behind
    series_vanishing._checked_coefficient.cache_clear()
    yield
    series_vanishing._checked_coefficient.cache_clear()


def reference_closed_form(h, u_indices, squarefree=False):
    """a_h(r, j) as a chain of MultiPoly products and sums over the multisets.

    The reference for the production closed form, which writes the same
    terms straight into a term map.
    """
    total = MultiPoly.zero()
    for parts in series_vanishing._partitions(h):
        s_list = [p + 1 for p in parts]
        if any(s not in u_indices for s in s_list):
            continue
        if squarefree and len(set(s_list)) < len(s_list):
            continue
        m = h + len(s_list)
        coeff = Fraction(1)
        mult = {}
        for s in s_list:
            coeff *= Fraction((-1) ** (s + 1), s)
            mult[s] = mult.get(s, 0) + 1
        for count in mult.values():
            coeff /= factorial(count)
        term = MultiPoly.constant(1)
        for t in range(m):
            term = term * (j - t)
        term = term * coeff
        for s in s_list:
            term = term * MultiPoly.variable(u_name(s))
        total = total + over_r(term, m)
    return total


class TestGeneratingCoefficient:
    def test_first_order(self):
        assert generating_coefficient(1, CFG) == n * r

    def test_second_order(self):
        expected = n ** 2 * r ** 2 * Fraction(1, 2) - n * u2 * Fraction(1, 2)
        assert generating_coefficient(2, CFG) == expected

    def test_third_order(self):
        expected = (n ** 3 * r ** 3 * Fraction(1, 6)
                    - n ** 2 * r * u2 * Fraction(1, 2)
                    + n * u3 * Fraction(1, 3))
        assert generating_coefficient(3, CFG) == expected

    @pytest.mark.parametrize("jj", [1, 2, 4, 7])
    def test_leading_term(self, jj):
        lead = generating_coefficient(jj, CFG).coefficient_in("n", jj)
        assert lead == (r ** jj) * Fraction(1, factorial(jj))

    def test_degree_in_n_is_j(self):
        gj = generating_coefficient(6, CFG)
        assert gj.degree_in("n") == 6


class TestSharedExponential:
    # one order-J exponential serves every sample j <= J: x^s with s > j
    # cannot reach x^j, so its x^j coefficient is the order-j series' one
    CFG9 = ExpansionConfig(h_max=4, s_max=9, j_samples=tuple(range(5, 14)))

    @pytest.mark.parametrize("jj", [5, 7, 8, 9, 13])
    def test_coefficient_matches_own_order_series(self, jj):
        top = max(self.CFG9.j_samples)
        indices = self.CFG9.u_indices()
        entries = {1: n * r}
        for s in indices:
            if s <= jj:
                entries[s] = n * MultiPoly.variable(u_name(s)) * Fraction((-1) ** (s + 1), s)
        own = Series.from_dict(X, jj, entries).exp().coefficient(jj)
        assert _generating_series(top, indices).coefficient(jj) == own
        assert generating_coefficient(jj, self.CFG9) == own

    @pytest.mark.parametrize("jj", [5, 13])
    def test_readback_reads_the_shared_series(self, jj):
        # the shared series drops u-weight > h_max; a_0..a_{h_max} are exact
        h_max = self.CFG9.h_max
        shared = _readback_coefficients(jj, 13, self.CFG9.u_indices(), h_max)
        own = expansion_coefficients(jj, generating_coefficient(jj, self.CFG9))
        assert list(shared) == own[:h_max + 1]

    def test_readback_series_drops_weight_above_h_max(self):
        h_max, indices = self.CFG9.h_max, self.CFG9.u_indices()
        full = _generating_series(13, indices).coefficient(13)
        reduced = _generating_series(13, indices, h_max).coefficient(13)
        weights = {u_name(s): s - 1 for s in indices}
        assert reduced == full.remainder(weights, h_max)
        assert reduced != full

    @pytest.mark.parametrize("jj", [9, 13])
    def test_squarefree_readback_is_the_reduced_one(self, jj):
        h_max, indices = self.CFG9.h_max, self.CFG9.u_indices()
        shared = _readback_coefficients(jj, 13, indices, h_max, True)
        own = expansion_coefficients(jj, generating_coefficient(jj, self.CFG9))
        square = [u_name(s) for s in indices]
        reduced = [c.remainder({}, None, square) for c in own[:h_max + 1]]
        assert list(shared) == reduced
        assert reduced[h_max] != own[h_max]  # u2^2 terms were there to drop


class TestWeightBound:
    """The readback exponential drops u-weight > h_max; one less is caught."""

    @pytest.fixture
    def bound_lowered(self, monkeypatch):
        real = series_vanishing._generating_series

        def lowered(order, u_indices, max_weight=None, squarefree=False):
            if max_weight is not None:
                max_weight -= 1
            return real(order, u_indices, max_weight, squarefree)

        _readback_coefficients.cache_clear()
        monkeypatch.setattr(series_vanishing, "_generating_series", lowered)
        yield
        monkeypatch.undo()
        _readback_coefficients.cache_clear()

    CFG3 = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 13)))

    def test_bound_h_max_minus_one_is_caught(self, bound_lowered):
        for h in range(1, self.CFG3.h_max):
            symbolic_expansion_coefficient(h, self.CFG3)
        with pytest.raises(ConsistencyError):
            symbolic_expansion_coefficient(self.CFG3.h_max, self.CFG3)

    def test_bound_h_max_minus_one_is_caught_on_the_bridge(self, bound_lowered):
        cfg = ExpansionConfig(h_max=6, j_samples=tuple(range(7, 22)))
        with pytest.raises(ConsistencyError):
            log_expansion(cfg, u_indices=(2, 3, 4), squarefree=True)


class TestReadback:
    def test_j2(self):
        assert expansion_coefficients(2, generating_coefficient(2, CFG)) == [
            1, over_r(-u2, 2)]

    def test_j3(self):
        assert expansion_coefficients(3, generating_coefficient(3, CFG)) == [
            1, over_r(-3 * u2, 2), over_r(2 * u3, 3)]

    def test_absent_power_of_n_reads_zero(self):
        # without u_2 no term has u-weight 1, so n^{j-1} is absent
        coeffs = expansion_coefficients(3, generating_coefficient(3, CFG, u_indices=(3,)))
        assert coeffs == [1, 0, over_r(2 * u3, 3)]

    @pytest.mark.parametrize("jj", range(1, 8))
    def test_order_zero_always_one(self, jj):
        coeffs = expansion_coefficients(jj, generating_coefficient(jj, CFG))
        assert coeffs[0] == 1

    @pytest.mark.parametrize("jj", range(1, 11))
    def test_reassembly_round_trip(self, jj):
        # explicit reconstruction: sum_h a_h n^{j-h} r^j / j! == original
        gj = generating_coefficient(jj, CFG)
        coeffs = expansion_coefficients(jj, gj)
        rebuilt = MultiPoly.zero()
        for h, c in enumerate(coeffs):
            rebuilt = rebuilt + c * r ** jj * n ** (jj - h)
        assert rebuilt * Fraction(1, factorial(jj)) == gj

    def test_stray_n_power_rejected(self):
        bad = generating_coefficient(2, CFG) + n ** 5
        with pytest.raises(ValueError):
            expansion_coefficients(2, bad)

    @pytest.mark.parametrize("jj, h_max", [(7, 2), (9, 4), (4, 6)])
    def test_h_max_reads_the_cut_series(self, jj, h_max):
        # the series cut above u-weight h_max carries n^{j-h_max} .. n^j only
        indices = CFG.u_indices()
        cut = _generating_series(jj, indices, h_max).coefficient(jj)
        full = expansion_coefficients(jj, generating_coefficient(jj, CFG))
        got = expansion_coefficients(jj, cut, h_max)
        assert len(got) == min(jj, h_max + 1)
        assert got == full[:h_max + 1]

    def test_h_max_rejects_deeper_powers_of_n(self):
        # the uncut coefficient carries n^{j-h} for h > h_max: outside the band
        with pytest.raises(ValueError, match="outside 6..9"):
            expansion_coefficients(9, generating_coefficient(9, CFG), 3)

    def test_readback_builds_only_the_orders_it_returns(self, monkeypatch):
        built = []
        real = series_vanishing.expansion_coefficients

        def counted(j, gj, h_max=None):
            coeffs = real(j, gj, h_max)
            built.append(len(coeffs))
            return coeffs

        _readback_coefficients.cache_clear()
        monkeypatch.setattr(series_vanishing, "expansion_coefficients", counted)
        coeffs = _readback_coefficients(13, 13, CFG.u_indices(), 3)
        monkeypatch.undo()
        _readback_coefficients.cache_clear()
        assert built == [len(coeffs)] == [4]

    # Positive controls: a fault in the readback samples reaches the oracle,
    # the one check on each a_h.  CFG at h = 2 has 5 nodes and 7 witnesses.

    @staticmethod
    def _tamper(monkeypatch, at, h, change):
        """Let the readback pass order ``h`` through ``change`` at the samples ``at``."""
        real = series_vanishing._readback_coefficients

        def tampered(j, *args):
            coeffs = real(j, *args)
            if j not in at:
                return coeffs
            return coeffs[:h] + (change(coeffs[h]),) + coeffs[h + 1:]

        monkeypatch.setattr(series_vanishing, "_readback_coefficients", tampered)

    def test_u_weight_is_enforced(self, monkeypatch):
        # u2/r^2 weighs 1, not 2; in a node sample it moves the fit
        self._tamper(monkeypatch, {5}, 2, lambda v: v + over_r(u2, 2))
        with pytest.raises(PolynomialityError):  # off the witnesses
            symbolic_expansion_coefficient(2, CFG)
        monkeypatch.undo()
        nodes_only = ExpansionConfig(h_max=2, s_max=3, j_samples=(3, 4, 5, 6, 7))
        self._tamper(monkeypatch, {3}, 2, lambda v: v + over_r(u2, 2))
        with pytest.raises(ConsistencyError, match="disagree at order 2"):
            symbolic_expansion_coefficient(2, nodes_only)  # off the closed form

    def test_wrong_weight_in_a_witness_sample_is_caught(self, monkeypatch):
        self._tamper(monkeypatch, {CFG.j_samples[-1]}, 2, lambda v: v + over_r(u2, 2))
        with pytest.raises(PolynomialityError, match="surplus sample at j=16"):
            symbolic_expansion_coefficient(2, CFG)

    def test_unexpected_variable_only_if_used(self, monkeypatch):
        clean = symbolic_expansion_coefficient(2, CFG)
        every = set(CFG.j_samples)
        recheck = series_vanishing._checked_coefficient.cache_clear
        recheck()
        self._tamper(monkeypatch, every, 2, lambda v: v.with_vars(["n"]))
        assert symbolic_expansion_coefficient(2, CFG) == clean
        monkeypatch.undo()
        recheck()
        # a stray n on a term of the right weight, in every sample: the fit
        # still passes its witnesses and carries n, which the closed form lacks
        self._tamper(monkeypatch, every, 2, lambda v: v + n * over_r(u3, 3))
        with pytest.raises(ConsistencyError, match="disagree at order 2"):
            symbolic_expansion_coefficient(2, CFG)

    def test_doubled_deepest_order_is_caught(self, monkeypatch):
        # a misfiled deepest order is polynomial in j, so only the closed form catches it
        real = series_vanishing.expansion_coefficients
        cfg = TestUIndices.CFG3

        def doubled_deepest(j, gj, h_max=None):
            coeffs = real(j, gj, h_max)
            return coeffs[:-1] + [coeffs[-1] * 2]

        _readback_coefficients.cache_clear()
        monkeypatch.setattr(series_vanishing, "expansion_coefficients", doubled_deepest)
        try:
            for h in range(cfg.h_max):
                symbolic_expansion_coefficient(h, cfg)
            with pytest.raises(ConsistencyError, match="disagree at order 3"):
                symbolic_expansion_coefficient(cfg.h_max, cfg)
            with pytest.raises(ConsistencyError, match="disagree at order 3"):
                log_expansion(cfg)
        finally:
            monkeypatch.undo()
            _readback_coefficients.cache_clear()

    def test_readback_orders_share_the_closed_form_registry(self):
        # n is read off into the order, so no readback order keeps its slot
        coeffs = _readback_coefficients(9, 13, CFG.u_indices(), CFG.h_max)
        for h, c in enumerate(coeffs[1:], start=1):
            assert "n" not in c.vars
            assert ("j",) + c.vars == _closed_form(h, CFG.u_indices()).vars

    def test_oracle_comparison_needs_no_canonical_form(self, monkeypatch):
        # closed form and oracle share one registry: __eq__ compares term maps
        calls = []
        real = MultiPoly._canonical

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(MultiPoly, "_canonical", counted)
        for h in range(CFG.h_max + 1):
            symbolic_expansion_coefficient(h, CFG)
        assert calls == []


class TestClosedForm:
    def test_order_zero(self):
        assert symbolic_expansion_coefficient(0, CFG) == 1

    def test_order_one(self):
        expected = over_r(j * (j - 1) * u2 * Fraction(-1, 2), 2)
        assert symbolic_expansion_coefficient(1, CFG) == expected

    def test_order_two(self):
        ff4 = j * (j - 1) * (j - 2) * (j - 3)
        ff3 = j * (j - 1) * (j - 2)
        expected = (over_r(ff4 * u2 * u2 * Fraction(1, 8), 4)
                    + over_r(ff3 * u3 * Fraction(1, 3), 3))
        assert symbolic_expansion_coefficient(2, CFG) == expected

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_j_degree_is_2h(self, h):
        value = symbolic_expansion_coefficient(h, CFG)
        assert value.degree_in("j") == 2 * h

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_dual_route_agreement_with_surplus(self, h):
        # interpolation through readback samples, two surplus witnesses
        samples = []
        for jj in range(h + 1, h + 1 + (2 * h + 1) + 2):
            coeffs = expansion_coefficients(jj, generating_coefficient(jj, CFG))
            samples.append((jj, coeffs[h]))
        assert len(samples) == 2 * h + 3
        oracle = interpolate_in_var(samples, "j", 2 * h)
        assert oracle == symbolic_expansion_coefficient(h, CFG)

    def test_order_one_interpolation_from_small_j(self):
        samples = []
        for jj in range(2, 7):
            coeffs = expansion_coefficients(jj, generating_coefficient(jj, CFG))
            samples.append((jj, coeffs[1]))
        fit = interpolate_in_var(samples, "j", 2)
        assert fit == over_r(j * (j - 1) * u2 * Fraction(-1, 2), 2)

    def test_matches_readback_at_every_sample(self):
        for h in (1, 2, 3):
            sym = symbolic_expansion_coefficient(h, CFG)
            for jj in CFG.j_samples[:4]:
                coeffs = expansion_coefficients(jj, generating_coefficient(jj, CFG))
                assert sym.substitute({"j": jj}) == coeffs[h]

    def test_closed_form_disagreement_is_caught(self, monkeypatch):
        real = series_vanishing._closed_form

        def bumped(h, u_indices, squarefree=False):
            value = real(h, u_indices, squarefree)
            terms = dict(value.terms)
            first = min(terms)
            terms[first] += 1
            return MultiPoly(value.vars, terms, value.laurent)

        def wrong_weight(h, u_indices, squarefree=False):
            # j u2/r^2 weighs 1, not 2
            return real(h, u_indices, squarefree) + j * over_r(u2, 2)

        for fault in (bumped, wrong_weight):
            monkeypatch.setattr(series_vanishing, "_closed_form", fault)
            with pytest.raises(ConsistencyError, match="disagree at order 2"):
                symbolic_expansion_coefficient(2, CFG)

    def test_falling_factorial_coefficients(self):
        # the closed form reads j(j-1)...(j-m+1) off the node product over
        # 0..m-1, which is sum_k (-1)^(m-k) [m, k] j^k:
        # j(j-1)(j-2)(j-3) = j^4 - 6j^3 + 11j^2 - 6j
        def signed_row(m):
            return [(-1) ** (m - k) * c for k, c in enumerate(stirling_row(m))]

        assert signed_row(0) == [1]
        assert signed_row(4) == [0, -6, 11, -6, 1]
        for m in range(12):
            assert _dense_from_nodes(range(m)) == signed_row(m)
            for j in range(m, m + 6):
                assert sum(c * j ** k for k, c in enumerate(signed_row(m))) == \
                    factorial(j) // factorial(j - m)

    def test_registry_is_j_r_then_the_u_indices(self):
        assert _closed_form(2, (2, 3, 5)).vars == ("j", "r", "u2", "u3", "u5")

    @pytest.mark.parametrize("h", range(10))
    @pytest.mark.parametrize("indices, squarefree", [
        (tuple(range(2, 11)), False),
        ((2, 3, 7), False),
        (tuple(range(2, 11)), True),
        ((2, 3, 7), True),
    ], ids=["full", "restricted", "full-squarefree", "restricted-squarefree"])
    def test_matches_the_product_chain(self, h, indices, squarefree):
        got = _closed_form(h, indices, squarefree)
        want = reference_closed_form(h, indices, squarefree)
        assert got == want
        assert got.canonical_str() == want.canonical_str()

    def test_budget_too_small_for_oracle(self):
        # the oracle at order 3 needs 7 samples: refused when the config is built
        with pytest.raises(ValueError, match="needs 7 j samples, got 3"):
            ExpansionConfig(h_max=3, s_max=6, j_samples=(4, 5, 6))
        ExpansionConfig(h_max=3, s_max=6, j_samples=tuple(range(4, 11)))

    def test_order_beyond_h_max(self):
        with pytest.raises(BudgetError):
            symbolic_expansion_coefficient(CFG.h_max + 1, CFG)

    def test_negative_order(self):
        with pytest.raises(ValueError, match="need h >= 0"):
            symbolic_expansion_coefficient(-1, CFG)


class TestConfigValidation:
    def test_sample_floor(self):
        with pytest.raises(ValueError, match="must be >= h_max"):
            ExpansionConfig(h_max=4, s_max=6, j_samples=(3, 5, 6))

    def test_distinct_samples(self):
        with pytest.raises(ValueError, match="distinct"):
            ExpansionConfig(h_max=2, s_max=4, j_samples=(5, 5, 6))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="need h_max >= 1"):
            ExpansionConfig(h_max=0)

    def test_minimum_indices(self):
        with pytest.raises(ValueError, match="need s_max >= 3"):
            ExpansionConfig(h_max=2, s_max=1)

    @pytest.mark.parametrize("kwargs", [
        dict(h_max=2.5),
        dict(h_max=Fraction(5, 2)),
        dict(h_max="3"),
        dict(s_max=6.0),
        dict(h_max=2, j_samples=(3.7, 4.2, 5.9, 6.1, 7.5)),
        dict(h_max=2, j_samples=("3", "4", "5", "6", "7")),
        dict(h_max=True),
    ], ids=["h-float", "h-half", "h-text", "s-float", "j-floats", "j-text", "h-bool"])
    def test_non_integral_values_rejected(self, kwargs):
        with pytest.raises(ValueError, match="is not an integer"):
            ExpansionConfig(**kwargs)

    def test_integral_fractions_read_as_ints(self):
        cfg = ExpansionConfig(h_max=Fraction(4, 2), s_max=Fraction(5),
                              j_samples=(Fraction(3), 4, Fraction(10, 2), 6, Fraction(14, 2)))
        assert (cfg.h_max, cfg.s_max, cfg.j_samples) == (2, 5, (3, 4, 5, 6, 7))
        assert all(type(x) is int for x in (cfg.h_max, cfg.s_max) + cfg.j_samples)

    def test_s_max_must_reach_every_index_of_weight_h_max(self):
        # s_max=3 would leave an a_4 of 21 terms in u2, u3: the true a_4 has
        # 32 terms in u2..u5
        with pytest.raises(ValueError, match="need s_max >= 5"):
            ExpansionConfig(h_max=4, s_max=3, j_samples=tuple(range(5, 18)))
        a4 = symbolic_expansion_coefficient(4, ExpansionConfig(h_max=4, s_max=5))
        assert len(a4.terms) == 32
        assert all(a4.degree_in(u_name(s)) > 0 for s in range(2, 6))

    def test_one_budget_built_different_ways_is_one_key(self):
        # h_max = 3 derives s_max = 6 and j_samples = 4..13
        budgets = [
            ExpansionConfig(h_max=3),
            ExpansionConfig(3, 6, range(4, 14)),
            ExpansionConfig(h_max=Fraction(3), s_max=Fraction(12, 2), j_samples=list(range(4, 14))),
            ExpansionConfig(h_max=2)._replace(h_max=3, j_samples=range(4, 14)),
            ExpansionConfig._make([3, 6, tuple(range(4, 14))]),
        ]
        first = budgets[0]
        assert first == (3, 6, tuple(range(4, 14)))
        for cfg in budgets[1:]:
            assert type(cfg) is ExpansionConfig
            assert cfg == first and hash(cfg) == hash(first)
        # so the checked a_h made for one is the one every other reads
        value = symbolic_expansion_coefficient(2, first)
        assert all(symbolic_expansion_coefficient(2, cfg) is value for cfg in budgets)
        assert series_vanishing._checked_coefficient.cache_info().currsize == 1

    @pytest.mark.parametrize("h", range(1, 7))
    def test_depth_alone_is_the_whole_budget(self, h):
        cfg = ExpansionConfig(h_max=h)
        assert cfg.s_max == max(6, h + 1)
        assert cfg.j_samples == tuple(range(h + 1, 3 * h + 5))
        assert all(check.vanished for check in vanishing_report(cfg))


class TestUIndices:
    """Every route reads ``u_indices`` through one normalizer."""

    CFG3 = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 13)))
    ROUTES = {
        "symbolic_expansion_coefficient":
            lambda u: symbolic_expansion_coefficient(2, TestUIndices.CFG3, u),
        "log_expansion": lambda u: log_expansion(TestUIndices.CFG3, u),
        "ExpansionConfig.u_indices": lambda u: TestUIndices.CFG3.u_indices(u),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("bad", [(0, 3), (1, 2), (2.5, 3), ("3",)],
                             ids=["zero", "one", "float", "text"])
    def test_rejected(self, route, bad):
        with pytest.raises(ValueError, match="u-ind"):
            self.ROUTES[route](bad)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_repeats_and_order_do_not_matter(self, route):
        assert self.ROUTES[route]((3, 2, 2, 3)) == self.ROUTES[route]((2, 3))

    def test_one_checked_value_per_normalized_input(self):
        # any sequence of u-indices is accepted; the check is made once per
        # normalized input and the value it checked is kept
        value = symbolic_expansion_coefficient(2, self.CFG3, [3, 2, 2])
        assert symbolic_expansion_coefficient(2, self.CFG3, (2, 3)) is value
        assert symbolic_expansion_coefficient(2, self.CFG3, range(2, 4)) is value
        assert symbolic_expansion_coefficient(2, self.CFG3, (2, 3), squarefree=True) is not value

    def test_squarefree_route_takes_repeats(self):
        assert (log_expansion(self.CFG3, (2, 2, 3), squarefree=True)
                == log_expansion(self.CFG3, (2, 3), squarefree=True))


class TestLogExpansion:
    def test_constant_order_is_zero(self):
        series = log_expansion(ExpansionConfig(h_max=2))
        assert series.coefficient(0).is_zero()

    def test_first_order_is_a1(self):
        series = log_expansion(ExpansionConfig(h_max=2))
        assert series.coefficient(1) == over_r(j * (j - 1) * u2 * Fraction(-1, 2), 2)

    def test_second_order_hand_value(self):
        # a_2 - a_1^2/2 = -j(j-1)(2j-3)u2^2/(4 r^4) + j(j-1)(j-2)u3/(3 r^3)
        series = log_expansion(ExpansionConfig(h_max=2))
        expected = (over_r(j * (j - 1) * (2 * j - 3) * u2 * u2 * Fraction(-1, 4), 4)
                    + over_r(j * (j - 1) * (j - 2) * u3 * Fraction(1, 3), 3))
        assert series.coefficient(2) == expected

    def test_exp_recovers_argument(self):
        cfg = ExpansionConfig(h_max=3)
        series = log_expansion(cfg)
        rebuilt = series.exp()
        assert rebuilt.coefficient(0) == 1
        for h in range(1, 4):
            assert rebuilt.coefficient(h) == symbolic_expansion_coefficient(h, cfg)

    def test_generic_mode_requires_coverage(self):
        # u5 weighs 4, so s_max=4 cannot carry order 4: refused when built
        with pytest.raises(ValueError, match="need s_max >= 5"):
            ExpansionConfig(h_max=4, s_max=4)

    def test_restricted_mode_skips_coverage_rule(self):
        # explicit indices are used as given, whatever s_max is: u3 and u5
        # are zero by assumption, and u9 (beyond s_max, weight 8) is kept
        cfg = ExpansionConfig(h_max=4, s_max=5, j_samples=tuple(range(5, 18)))
        series = log_expansion(cfg, u_indices=(2, 4, 9))
        assert series.order == 4
        assert series.coefficient(4).vars == ("j", "r", "u2", "u4", "u9")
        assert series.coefficient(3).degree_in("u4") == 1
        assert series == log_expansion(cfg, u_indices=(2, 4))


class TestVanishing:
    def test_order_one_degree_bound(self):
        checks = vanishing_report(ExpansionConfig(h_max=1, s_max=6))
        assert [(c.h, c.k) for c in checks] == [(1, 3)]
        assert checks[0].vanished
        assert checks[0].j_degree_at_order == 2  # = h + 1

    def test_j4_cancellation_at_order_two(self):
        # a_2 and a_1^2/2 both carry j^4; the log subtracts them exactly
        cfg = ExpansionConfig(h_max=2)
        a1 = symbolic_expansion_coefficient(1, cfg)
        a2 = symbolic_expansion_coefficient(2, cfg)
        a2_j4 = a2.coefficient_in("j", 4)
        half_sq_j4 = (a1 * a1 * Fraction(1, 2)).coefficient_in("j", 4)
        assert not a2_j4.is_zero()
        assert not half_sq_j4.is_zero()
        assert a2_j4 == half_sq_j4
        series = log_expansion(cfg)
        assert series.coefficient(2).coefficient_in("j", 4).is_zero()

    def test_full_depth_three(self):
        checks = vanishing_report(ExpansionConfig(h_max=3, s_max=6))
        assert all(c.vanished for c in checks)
        by_order = {c.h for c in checks}
        assert by_order == {1, 2, 3}
        for c in checks:
            assert c.j_degree_at_order <= c.h + 1

    def test_restricted_u_sets_also_vanish(self):
        cfg = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 15)))
        series = log_expansion(cfg, u_indices=(2, 4))
        for h in range(1, cfg.h_max + 1):
            coeff = series.coefficient(h).with_vars(["j"])
            for k in range(h + 2, max(2 * h, h + 2) + 1):
                assert coeff.coefficient_in("j", k).is_zero()
