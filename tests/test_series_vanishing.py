"""Log-expansion verifier: generating coefficients, dual routes, vanishing."""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

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
    _readback,
    log_expansion,
    symbolic_expansion_coefficient,
    u_name,
    vanishing_report,
)
from stirlingzero.stirling import stirling_row

from generating_reference import (
    expansion_coefficients,
    generating_coefficient,
    generating_series,
    readback,
)
from poly_reference import remainder, substitute

n = MultiPoly.variable("n")
r = MultiPoly.variable("r")
j = MultiPoly.variable("j")
u2 = MultiPoly.variable("u2")
u3 = MultiPoly.variable("u3")


def over_r(p, power):
    return p * MultiPoly(("r",), {(-power,): 1})


CFG = ExpansionConfig()


def clear_budgets():
    series_vanishing._readback.cache_clear()
    series_vanishing.log_expansion.cache_clear()


@pytest.fixture(autouse=True)
def fresh_checks():
    # the readback samples and the checked log are kept per budget; a test
    # that counts their work or injects a fault below them needs them made
    # again, and must not leave a faulted value behind
    clear_budgets()
    yield
    clear_budgets()


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
        indices = self.CFG9.u_indices
        entries = {1: n * r}
        for s in indices:
            if s <= jj:
                entries[s] = n * MultiPoly.variable(u_name(s)) * Fraction((-1) ** (s + 1), s)
        own = Series.from_dict(X, jj, entries).exp().coefficient(jj)
        assert generating_series(top, indices).coefficient(jj) == own
        assert generating_coefficient(jj, self.CFG9) == own

    @pytest.mark.parametrize("jj", [5, 13])
    def test_readback_reads_the_shared_series(self, jj):
        # the shared series drops u-weight > h_max; a_0..a_{h_max} are exact
        h_max = self.CFG9.h_max
        shared = _readback(self.CFG9)[jj]
        own = expansion_coefficients(jj, generating_coefficient(jj, self.CFG9))
        assert list(shared) == own[:h_max + 1]

    def test_readback_series_drops_weight_above_h_max(self):
        h_max, indices = self.CFG9.h_max, self.CFG9.u_indices
        full = generating_series(13, indices).coefficient(13)
        reduced = generating_series(13, indices, h_max).coefficient(13)
        weights = {u_name(s): s - 1 for s in indices}
        assert reduced == remainder(full, weights, h_max)
        assert reduced != full

    @pytest.mark.parametrize("jj", [9, 13])
    def test_squarefree_readback_is_the_reduced_one(self, jj):
        h_max, indices = self.CFG9.h_max, self.CFG9.u_indices
        shared = _readback(self.CFG9._replace(squarefree=True))[jj]
        own = expansion_coefficients(jj, generating_coefficient(jj, self.CFG9))
        square = [u_name(s) for s in indices]
        reduced = [remainder(c, {}, None, square) for c in own[:h_max + 1]]
        assert list(shared) == reduced
        assert reduced[h_max] != own[h_max]  # u2^2 terms were there to drop


class TestWeightBound:
    """The readback exponential drops u-weight > h_max; one less is caught."""

    @pytest.fixture
    def bound_lowered(self, monkeypatch):
        # fresh_checks clears the readback before and after, so each budget's
        # samples come from the lowered exponential and none is left behind
        real = Series.exp

        def lowered(self, ideal, **kw):
            weights, max_weight, squarefree = ideal
            if max_weight is not None:
                max_weight -= 1
            return real(self, (weights, max_weight, squarefree), **kw)

        monkeypatch.setattr(Series, "exp", lowered)

    CFG3 = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 13)))

    def test_bound_h_max_minus_one_is_caught(self, bound_lowered):
        for h in range(1, self.CFG3.h_max):
            symbolic_expansion_coefficient(h, self.CFG3)
        with pytest.raises(ConsistencyError):
            symbolic_expansion_coefficient(self.CFG3.h_max, self.CFG3)

    def test_bound_h_max_minus_one_is_caught_on_the_bridge(self, bound_lowered):
        cfg = ExpansionConfig(h_max=6, j_samples=tuple(range(7, 22)), u_indices=(2, 3, 4),
                              squarefree=True)
        with pytest.raises(ConsistencyError):
            log_expansion(cfg)


class TestReadback:
    def test_j2(self):
        assert expansion_coefficients(2, generating_coefficient(2, CFG)) == [
            1, over_r(-u2, 2)]

    def test_j3(self):
        assert expansion_coefficients(3, generating_coefficient(3, CFG)) == [
            1, over_r(-3 * u2, 2), over_r(2 * u3, 3)]

    def test_absent_power_of_n_reads_zero(self):
        # without u_2 no term has u-weight 1, so n^{j-1} is absent
        coeffs = expansion_coefficients(3, generating_coefficient(3, CFG._replace(u_indices=(3,))))
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
        cut = generating_series(jj, CFG.u_indices, h_max).coefficient(jj)
        full = expansion_coefficients(jj, generating_coefficient(jj, CFG))
        got = expansion_coefficients(jj, cut, h_max)
        assert len(got) == min(jj, h_max + 1)
        assert got == full[:h_max + 1]

    def test_h_max_rejects_deeper_powers_of_n(self):
        # the uncut coefficient carries n^{j-h} for h > h_max: outside the band
        with pytest.raises(ValueError, match="outside 6..9"):
            expansion_coefficients(9, generating_coefficient(9, CFG), 3)

    def test_readback_builds_only_the_orders_it_returns(self, monkeypatch):
        # every polynomial the readback files is on the registry without n:
        # h_max + 1 of them per sample, and no deeper order
        built = []
        real = MultiPoly._raw.__func__

        def counted(cls, names, terms):
            built.append(names)
            return real(cls, names, terms)

        cfg = ExpansionConfig(h_max=3)
        monkeypatch.setattr(MultiPoly, "_raw", classmethod(counted))
        coeffs = _readback(cfg)
        assert list(coeffs) == list(cfg.j_samples)
        assert [len(c) for c in coeffs.values()] == [4] * len(cfg.j_samples)
        without_n = ("r",) + tuple(map(u_name, cfg.u_indices))
        assert built.count(without_n) == 4 * len(cfg.j_samples)

    # Positive controls: a fault in the readback samples reaches the oracle,
    # the one check on each a_h.  CFG at h = 2 has 5 nodes and 7 witnesses.

    @staticmethod
    def _tamper(monkeypatch, at, h, change):
        """Let the readback pass order ``h`` through ``change`` at the samples ``at``."""
        real = series_vanishing._readback

        def tampered(cfg):
            return {j: coeffs[:h] + (change(coeffs[h]),) + coeffs[h + 1:] if j in at else coeffs
                    for j, coeffs in real(cfg).items()}

        monkeypatch.setattr(series_vanishing, "_readback", tampered)

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
        # every call runs its oracle, so no cache is cleared between them
        clean = symbolic_expansion_coefficient(2, CFG)
        every = set(CFG.j_samples)
        self._tamper(monkeypatch, every, 2, lambda v: v.with_vars(["n"]))
        assert symbolic_expansion_coefficient(2, CFG) == clean
        monkeypatch.undo()
        # a stray n on a term of the right weight, in every sample: the fit
        # still passes its witnesses and carries n, which the closed form lacks
        self._tamper(monkeypatch, every, 2, lambda v: v + n * over_r(u3, 3))
        with pytest.raises(ConsistencyError, match="disagree at order 2"):
            symbolic_expansion_coefficient(2, CFG)

    def test_doubled_deepest_order_is_caught(self, monkeypatch):
        # a misfiled deepest order is polynomial in j, so only the closed form catches it
        cfg = TestUIndices.CFG3
        self._tamper(monkeypatch, set(cfg.j_samples), cfg.h_max, lambda v: v * 2)
        for h in range(cfg.h_max):
            symbolic_expansion_coefficient(h, cfg)
        with pytest.raises(ConsistencyError, match="disagree at order 3"):
            symbolic_expansion_coefficient(cfg.h_max, cfg)
        with pytest.raises(ConsistencyError, match="disagree at order 3"):
            log_expansion(cfg)

    def test_readback_orders_share_the_closed_form_registry(self):
        # n is read off into the order, so no readback order keeps its slot
        coeffs = _readback(CFG)[9]
        for h, c in enumerate(coeffs[1:], start=1):
            assert "n" not in c.vars
            assert ("j",) + c.vars == _closed_form(h, CFG.u_indices).vars

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


class TestEgfReadback:
    """The readback, read off the exponential as an egf, is the ``Fraction`` route's."""

    BUDGETS = {
        **{f"H{h}": ExpansionConfig(h_max=h) for h in range(1, 11)},
        **{f"H{h}-squarefree": ExpansionConfig(h_max=h, squarefree=True) for h in range(1, 9)},
        "237-squarefree-H9": ExpansionConfig(h_max=9, u_indices=(2, 3, 7), squarefree=True),
        "35-H6": ExpansionConfig(h_max=6, u_indices=(3, 5)),
        "CFG9": TestSharedExponential.CFG9,
    }

    @pytest.mark.parametrize("name", BUDGETS)
    def test_equals_the_fraction_reference_at_every_sample(self, name):
        cfg = self.BUDGETS[name]
        got, want = _readback(cfg), readback(cfg)
        assert list(got) == list(want) == list(cfg.j_samples)
        for jj in cfg.j_samples:
            assert list(got[jj]) == want[jj]
            assert [c.vars for c in got[jj]] == [c.vars for c in want[jj]]

    @staticmethod
    def _patch_exp(monkeypatch, change):
        """Let every ``Series.exp`` result pass through ``change``."""
        real = Series.exp
        monkeypatch.setattr(Series, "exp", lambda self, ideal, **kw: change(real(self, ideal, **kw)))

    # positive controls: a readback scaled by a constant keeps every sample
    # polynomial in j, so only the closed form can tell; L = lcm(2..6) = 60
    @pytest.mark.parametrize("factor", [60, Fraction(1, 60)], ids=["times-L", "over-L"])
    def test_a_readback_scaled_by_a_power_of_l_fails_the_oracle(self, monkeypatch, factor):
        self._patch_exp(monkeypatch, lambda series: Series(
            series.var, series.order, [c * factor for c in series.coeffs]))
        with pytest.raises(ConsistencyError, match="disagree at order 1"):
            symbolic_expansion_coefficient(1, CFG)

    def test_a_readback_without_the_factorial_fails_the_oracle(self, monkeypatch):
        # f_j, not j! f_j: every sample over j!, which no polynomial in j fits
        real = Series.exp
        monkeypatch.setattr(Series, "exp", lambda self, ideal, **kw: real(self, ideal))
        with pytest.raises(PolynomialityError):
            symbolic_expansion_coefficient(1, CFG)

    @pytest.mark.parametrize("h", [-1, CFG.h_max + 1], ids=["above-n^j", "below-the-orders"])
    def test_power_of_n_outside_the_orders_is_refused(self, monkeypatch, h):
        top = max(CFG.j_samples)

        def stray(series):
            coeffs = list(series.coeffs)
            coeffs[top] = coeffs[top] + n ** (top - h)
            return Series(series.var, series.order, coeffs)

        self._patch_exp(monkeypatch, stray)
        with pytest.raises(ValueError, match=f"carries n\\^{top - h}, outside 12..16"):
            _readback(CFG)


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
                assert substitute(sym, {"j": jj}) == coeffs[h]

    def test_closed_form_disagreement_is_caught(self, monkeypatch):
        real = series_vanishing._closed_form

        def bumped(h, u_indices, squarefree=False):
            value = real(h, u_indices, squarefree)
            terms = dict(value.terms)
            first = min(terms)
            terms[first] += 1
            return MultiPoly(value.vars, terms)

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
            assert series_vanishing._falling(m) == tuple(signed_row(m))
            for j in range(m, m + 6):
                assert sum(c * j ** k for k, c in enumerate(signed_row(m))) == \
                    factorial(j) // factorial(j - m)

    def test_a_tampered_falling_factorial_row_is_caught(self, monkeypatch):
        # positive control for the cached rows: the j^5 coefficient of row
        # m = 5 read as 2.  Row m is read at order h when a multiset has
        # p = m - h parts, 1 <= p <= h, so first at h = 3 ({2, 3}); orders 1
        # and 2 do not read it and still pass
        real = series_vanishing._falling

        def tampered(m):
            row = real(m)
            return row[:-1] + (row[-1] + 1,) if m == 5 else row

        monkeypatch.setattr(series_vanishing, "_falling", tampered)
        for h in (1, 2):
            assert symbolic_expansion_coefficient(h, CFG) == reference_closed_form(h, CFG.u_indices)
        with pytest.raises(ConsistencyError, match="disagree at order 3"):
            symbolic_expansion_coefficient(3, CFG)
        with pytest.raises(ConsistencyError, match="disagree at order 3"):
            vanishing_report(CFG)

    @pytest.mark.parametrize("h", range(1, 11))
    @pytest.mark.parametrize("indices, squarefree", [
        (tuple(range(2, 12)), False),
        (tuple(range(2, 12)), True),
        ((2, 3, 7), False),
    ], ids=["plain", "squarefree", "narrowed"])
    def test_closed_form_is_canonical_as_built(self, h, indices, squarefree):
        # the closed form skips the constructor's checks: its terms must be
        # what the constructor would keep, int exponent tuples of the
        # registry's width and nonzero Fraction coefficients
        cf = _closed_form(h, indices, squarefree)
        assert cf == MultiPoly(cf.vars, cf.terms)
        assert cf.terms
        for exps, c in cf.terms.items():
            assert type(exps) is tuple and len(exps) == len(cf.vars)
            assert all(type(e) is int for e in exps)
            assert type(c) is Fraction and c != 0

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

    @pytest.mark.parametrize("h", [True, 2.0, "2"], ids=["bool", "float", "text"])
    def test_non_integral_order_rejected(self, h):
        with pytest.raises(ValueError, match="is not an integer"):
            symbolic_expansion_coefficient(h, CFG)

    def test_integral_fraction_order_reads_as_int(self):
        assert symbolic_expansion_coefficient(Fraction(2), CFG) == \
            symbolic_expansion_coefficient(2, CFG)


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
        # h_max = 3 derives s_max = 6, j_samples = 4..13 and u_indices = 2..6
        budgets = [
            ExpansionConfig(h_max=3),
            ExpansionConfig(3, 6, range(4, 14)),
            ExpansionConfig(h_max=Fraction(3), s_max=Fraction(12, 2), j_samples=list(range(4, 14))),
            ExpansionConfig(h_max=2)._replace(h_max=3, j_samples=range(4, 14)),
            ExpansionConfig._make([3, 6, tuple(range(4, 14))]),
            # the u-indices: in another order, with repeats, as Fractions,
            # through _replace, and 2..s_max given explicitly
            ExpansionConfig(h_max=3, u_indices=(6, 4, 2, 5, 3)),
            ExpansionConfig(h_max=3, u_indices=(2, 3, 3, 4, 5, 6, 2)),
            ExpansionConfig(h_max=3, u_indices=(Fraction(2), 3, Fraction(8, 2), 5, Fraction(6))),
            ExpansionConfig(h_max=3, u_indices=(2, 3))._replace(u_indices=[5, 2, 6, 3, 4]),
            ExpansionConfig(h_max=3, u_indices=range(2, 7)),
        ]
        first = budgets[0]
        assert first == (3, 6, tuple(range(4, 14)), (2, 3, 4, 5, 6), False)
        assert ExpansionConfig._fields == ("h_max", "s_max", "j_samples", "u_indices",
                                           "squarefree")
        for cfg in budgets[1:]:
            assert type(cfg) is ExpansionConfig
            assert cfg == first and hash(cfg) == hash(first)
            assert all(type(s) is int for s in cfg.u_indices)
        # so the readback and the checked log made for one serve every other
        value = symbolic_expansion_coefficient(2, first)
        assert all(symbolic_expansion_coefficient(2, cfg) == value for cfg in budgets)
        assert all(log_expansion(cfg) is log_expansion(first) for cfg in budgets)
        assert series_vanishing._readback.cache_info().currsize == 1
        assert series_vanishing.log_expansion.cache_info().currsize == 1

    def test_derived_u_indices_follow_a_new_s_max(self):
        # a budget deepened by _replace keeps every u_s up to its new s_max
        deeper = ExpansionConfig(h_max=4)._replace(h_max=6, s_max=7, j_samples=range(7, 23))
        assert deeper.u_indices == (2, 3, 4, 5, 6, 7)
        assert deeper == ExpansionConfig(h_max=6, s_max=7, j_samples=range(7, 23))
        assert ExpansionConfig(h_max=4)._replace(s_max=9).u_indices == tuple(range(2, 10))
        assert ExpansionConfig(h_max=4)._replace(s_max=9, u_indices=(2, 3)).u_indices == (2, 3)
        # and stay derived through a second _replace
        assert deeper._replace(s_max=8).u_indices == tuple(range(2, 9))

    @pytest.mark.parametrize("given", [(2, 3, 7), tuple(range(2, 7))], ids=["some", "2..6"])
    def test_given_u_indices_are_kept_by_replace(self, given):
        # given indices are kept whatever s_max becomes, even when they equal
        # the ones h_max = 4 derives, and so are indices read off another config
        for cfg in (ExpansionConfig(h_max=4, u_indices=given),
                    ExpansionConfig(h_max=4)._replace(u_indices=given)):
            assert cfg._replace(s_max=9).u_indices == given
            assert cfg._replace(h_max=6, s_max=7, j_samples=range(7, 23)).u_indices == given
        derived = ExpansionConfig(h_max=4).u_indices
        assert ExpansionConfig(h_max=4, u_indices=derived)._replace(s_max=9).u_indices == derived

    @pytest.mark.parametrize("value", [1, 0, "yes", None, 1.0],
                             ids=["one", "zero", "text", "none", "float"])
    def test_squarefree_is_exactly_a_bool(self, value):
        with pytest.raises(ValueError, match="is not True or False"):
            ExpansionConfig(h_max=2, squarefree=value)
        with pytest.raises(ValueError, match="is not True or False"):
            ExpansionConfig(h_max=2)._replace(squarefree=value)

    @pytest.mark.parametrize("h", range(1, 7))
    def test_depth_alone_is_the_whole_budget(self, h):
        cfg = ExpansionConfig(h_max=h)
        assert cfg.s_max == max(6, h + 1)
        assert cfg.j_samples == tuple(range(h + 1, 3 * h + 5))
        assert all(check.vanished for check in vanishing_report(cfg))


class TestUIndices:
    """``ExpansionConfig`` normalizes ``u_indices`` once, built directly or by ``_replace``."""

    CFG3 = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 13)))
    ROUTES = {
        "symbolic_expansion_coefficient":
            lambda u: symbolic_expansion_coefficient(2, TestUIndices.CFG3._replace(u_indices=u)),
        "log_expansion": lambda u: log_expansion(
            ExpansionConfig(h_max=3, s_max=4, j_samples=range(4, 13), u_indices=u)),
        "ExpansionConfig.u_indices": lambda u: ExpansionConfig(
            h_max=3, s_max=4, j_samples=range(4, 13), u_indices=u).u_indices,
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
        # any sequence of u-indices is accepted; the readback and the checked
        # log are kept once per normalized budget
        value = symbolic_expansion_coefficient(2, self.CFG3._replace(u_indices=[3, 2, 2]))
        series = log_expansion(self.CFG3._replace(u_indices=[3, 2, 2]))
        for same in ((2, 3), range(2, 4)):
            cfg = self.CFG3._replace(u_indices=same)
            assert cfg.u_indices == (2, 3)
            assert symbolic_expansion_coefficient(2, cfg) == value
            assert log_expansion(cfg) is series
        assert series_vanishing._readback.cache_info().currsize == 1
        assert series_vanishing.log_expansion.cache_info().currsize == 1
        # the squarefree quotient is another budget, with its own state
        squarefree = cfg._replace(squarefree=True)
        assert symbolic_expansion_coefficient(2, squarefree) != value
        assert log_expansion(squarefree) is not series
        assert series_vanishing._readback.cache_info().currsize == 2
        assert series_vanishing.log_expansion.cache_info().currsize == 2

    def test_squarefree_route_takes_repeats(self):
        cfg = self.CFG3._replace(squarefree=True)
        assert (log_expansion(cfg._replace(u_indices=(2, 2, 3)))
                is log_expansion(cfg._replace(u_indices=(2, 3))))


class TestKeptPerBudget:
    """The readback and the checked log are kept per budget; no value is."""

    def test_second_log_on_one_budget_redoes_nothing(self, monkeypatch):
        logs, coeffs = [], []
        real_log, real_coeff = Series.log, series_vanishing.symbolic_expansion_coefficient

        def counted_log(self, *args, **kwargs):
            logs.append(self.order)
            return real_log(self, *args, **kwargs)

        def counted_coeff(h, *args, **kwargs):
            coeffs.append(h)
            return real_coeff(h, *args, **kwargs)

        monkeypatch.setattr(Series, "log", counted_log)
        monkeypatch.setattr(series_vanishing, "symbolic_expansion_coefficient", counted_coeff)
        first = log_expansion(CFG)
        assert log_expansion(ExpansionConfig(u_indices=range(2, CFG.s_max + 1))) is first
        assert logs == [CFG.h_max]
        assert coeffs == list(range(1, CFG.h_max + 1))

    def test_fault_after_a_clean_check_is_caught(self, monkeypatch):
        # no value is kept, so a fault patched in after a clean check reaches
        # the next check with no cache cleared
        symbolic_expansion_coefficient(2, CFG)
        TestReadback._tamper(monkeypatch, {CFG.j_samples[-1]}, 2, lambda v: v + over_r(u2, 2))
        with pytest.raises(PolynomialityError, match="surplus sample at j=16"):
            symbolic_expansion_coefficient(2, CFG)

    def test_one_exponential_per_budget(self, monkeypatch):
        # taken as its egf, so no sample divides out a j! to multiply it back
        built = []
        real = Series.exp

        def counted(self, *args, **kw):
            built.append((self.order, kw))
            return real(self, *args, **kw)

        monkeypatch.setattr(Series, "exp", counted)
        once = (max(CFG.j_samples), {"egf": True})
        for _ in range(2):
            for h in range(CFG.h_max + 1):
                symbolic_expansion_coefficient(h, CFG)
        log_expansion(CFG)
        assert built == [once]
        series_vanishing._readback.cache_clear()
        symbolic_expansion_coefficient(1, CFG)
        assert built == [once] * 2


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
        series = log_expansion(cfg._replace(u_indices=(2, 4, 9)))
        assert series.order == 4
        assert series.coefficient(4).vars == ("j", "r", "u2", "u4", "u9")
        assert series.coefficient(3).degree_in("u4") == 1
        assert series == log_expansion(cfg._replace(u_indices=(2, 4)))


class TestVanishing:
    def test_a_j_power_above_2h_is_checked(self, monkeypatch):
        # positive control: a j^5 n^-2 term lies above 2h = 4 at h = 2, so a
        # report that stopped at k = max(2h, h+2) passed it; it must fail
        # [j^5 n^-2], and that component alone
        real = series_vanishing.log_expansion
        j = MultiPoly.variable("j")

        def with_j5(cfg):
            series = real(cfg)
            coeffs = list(series.coeffs)
            coeffs[2] = coeffs[2] + j ** 5
            return Series(series.var, series.order, coeffs)

        monkeypatch.setattr(series_vanishing, "log_expansion", with_j5)
        checks = vanishing_report(ExpansionConfig(h_max=3))
        assert [(c.h, c.k) for c in checks if not c.vanished] == [(2, 5)]
        assert {c.j_degree_at_order for c in checks if c.h == 2} == {5}
        assert [(c.h, c.k) for c in checks] == [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)]

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
        cfg = ExpansionConfig(h_max=3, s_max=4, j_samples=tuple(range(4, 15)), u_indices=(2, 4))
        series = log_expansion(cfg)
        for h in range(1, cfg.h_max + 1):
            coeff = series.coefficient(h).with_vars(["j"])
            for k in range(h + 2, max(2 * h, h + 2) + 1):
                assert coeff.coefficient_in("j", k).is_zero()


def first_layer(h, cfg):
    """[j^{h+1} n^{-h}] of the log as a sum over multisets, the expected first nonzero layer.

    Each multiset ``c`` of ``g`` u-indices from ``cfg.u_indices`` (without
    repeats when ``cfg.squarefree``) with ``sum(c_i - 1) = h`` and
    ``t = sum c_i`` contributes
    ``(-1)^(t+1) (t-1)! / ((t-g+1)! aut(c)) * r^(-t) * prod u_{c_i}``,
    ``aut(c)`` the product of the factorials of its multiplicities.
    """
    total = MultiPoly.zero()
    for g in range(1, h + 1):
        for c in combinations_with_replacement(cfg.u_indices, g):
            if sum(c) - g != h or (cfg.squarefree and len(set(c)) < g):
                continue
            t = sum(c)
            aut = prod(map(factorial, Counter(c).values()))
            term = MultiPoly.constant(Fraction((-1) ** (t + 1) * factorial(t - 1),
                                               factorial(t - g + 1) * aut))
            for s in c:
                term = term * MultiPoly.variable(u_name(s))
            total = total + over_r(term, t)
    return total


def layer_mismatches(series, cfg):
    """The orders h whose [j^{h+1}] log coefficient is not :func:`first_layer`'s."""
    return [h for h in range(1, cfg.h_max + 1)
            if series.coefficient(h).with_vars(["j"]).coefficient_in("j", h + 1)
            != first_layer(h, cfg)]


class TestFirstNonzeroLayer:
    """The layer just below the vanishing band, k = h + 1, has a closed form."""

    @pytest.mark.parametrize("cfg", [
        ExpansionConfig(h_max=10),
        ExpansionConfig(h_max=6, u_indices=(2, 3, 4), squarefree=True),
        ExpansionConfig(h_max=9, u_indices=(2, 3, 7), squarefree=True),
        ExpansionConfig(h_max=6, u_indices=(3, 5)),
    ], ids=["H10", "234-squarefree-H6", "237-squarefree-H9", "35-H6"])
    def test_log_matches_the_multiset_sum(self, cfg):
        assert not first_layer(cfg.h_max, cfg).is_zero()
        assert layer_mismatches(log_expansion(cfg), cfg) == []

    def test_a_tampered_log_coefficient_fails_it(self):
        # positive control: one coefficient of the h = 3 layer changed
        cfg = ExpansionConfig(h_max=4)
        series = log_expansion(cfg)
        coeffs = list(series.coeffs)
        layer = coeffs[3]
        at = layer.vars.index("j")
        exps = next(e for e in sorted(layer.terms) if e[at] == 4)
        coeffs[3] = MultiPoly(layer.vars, {**layer.terms, exps: layer.terms[exps] + 1})
        assert layer_mismatches(series, cfg) == []
        assert layer_mismatches(Series(series.var, series.order, coeffs), cfg) == [3]
