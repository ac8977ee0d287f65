"""Bridge layer: parameter mapping and paired verifier consistency."""

from fractions import Fraction
from math import prod

import pytest

from stirlingzero import bridge, config_sums, series_vanishing
from stirlingzero.algebra import ConsistencyError, MultiPoly, Series
from stirlingzero.bridge import (
    BridgeInstance,
    bridge_check,
    bridge_coefficient,
    bridge_params,
)
from stirlingzero.config_sums import ConfigSumInstance, sum_collapsed
from stirlingzero.partitions import GroundSet
from stirlingzero.series_vanishing import ExpansionConfig, J, log_expansion, u_name


class TestBridgeParams:
    def test_two_values(self):
        inst = bridge_params((2, 3), 0)
        assert (inst.k, inst.h) == (5, 3)
        assert inst.k - inst.h == 2

    def test_three_values_weight_one(self):
        inst = bridge_params((2, 3, 4), 1)
        assert (inst.k, inst.h) == (8, 6)
        assert inst.k - inst.h == 2

    def test_three_values_weight_zero(self):
        inst = bridge_params((2, 3, 4), 0)
        assert (inst.k, inst.h) == (9, 6)
        assert inst.k - inst.h == 3

    def test_gap_always_at_least_two(self):
        for c, w in [((2, 5), 0), ((3, 4, 7), 1), ((2, 3, 4, 5), 2)]:
            inst = bridge_params(c, w)
            assert inst.k - inst.h == inst.g - inst.w >= 2

    def test_rejections(self):
        with pytest.raises(ValueError):
            bridge_params((2,), 0)            # too few values
        with pytest.raises(ValueError):
            bridge_params((2, 2), 0)          # not distinct
        with pytest.raises(ValueError):
            bridge_params((1, 3), 0)          # below 2
        with pytest.raises(ValueError):
            bridge_params((2, 3), 1)          # w > g-2

    def test_non_integral_values_are_rejected_not_truncated(self):
        for c in [(2.7, 3), (2.0, 3), (Fraction(5, 2), 3), ("2", 3), (True, 3, 4)]:
            with pytest.raises(ValueError, match="is not an integer"):
                bridge_params(c, 0)
        assert bridge_params((Fraction(2), 3), 0).c == (2, 3)

    def test_non_integral_w_is_rejected_not_carried(self):
        for w in [0.5, 1.0, Fraction(1, 2), "1", True]:
            with pytest.raises(ValueError, match="is not an integer"):
                bridge_params((2, 3, 4), w)
        inst = bridge_params((2, 3, 4), Fraction(1))
        assert (inst.w, inst.k) == (1, 8)
        assert type(inst.w) is type(inst.k) is int


class TestBridgeCoefficient:
    def test_smallest_instance_vanishes(self):
        inst = bridge_params((2, 3), 0)
        assert bridge_coefficient(inst).is_zero()

    def test_stray_variable_after_extraction_is_caught(self, monkeypatch):
        # positive control: the target j^k u2 u3 term of order h also carries n
        inst = bridge_params((2, 3), 0)
        real = bridge.log_expansion

        def with_n(cfg):
            series = real(cfg)
            target = MultiPoly(("j", "n", "r", "u2", "u3"), {(inst.k, 1, -5, 1, 1): 1})
            coeffs = list(series.coeffs)
            coeffs[inst.h] = coeffs[inst.h] + target
            return Series(series.var, series.order, coeffs)

        monkeypatch.setattr(bridge, "log_expansion", with_n)
        with pytest.raises(ConsistencyError, match=r"unexpected variables \['n'\]"):
            bridge_coefficient(inst)


class TestBridgeCheck:
    @pytest.mark.parametrize("c,w", [((2, 3), 0), ((2, 4), 0),
                                     ((2, 3, 4), 0), ((2, 3, 4), 1)])
    def test_paired_verifiers_agree_on_zero(self, c, w):
        report = bridge_check(bridge_params(c, w))
        assert report.coefficient_zero
        assert report.config_sum_zero
        assert report.consistent

    def test_config_sum_side_uses_collapsed_route(self):
        report = bridge_check(bridge_params((2, 3), 0))
        assert report.config_sum.configurations_visited == 2  # Bell(2)

    def test_second_w_refits_nothing(self, monkeypatch):
        # every w of one c shares the budget (depth h, u-indices c, squarefree),
        # so the checked log of the first check serves the second: no a_h is
        # checked or fitted in j again, no Series.log is taken again, and no
        # part-2 Lagrange node tuple is built twice.  Each check's block table
        # still fits its own offsets, on nodes from 0, in config_sums
        nodes, fits, table_fits, coeffs, logs = [], [], [], [], []
        real_fit = series_vanishing.interpolate_in_var
        real_table_fit = config_sums._fit
        real_coeff, real_log = series_vanishing.symbolic_expansion_coefficient, Series.log

        def counted_fit(samples, var, degree_bound):
            fits.append(degree_bound)
            nodes.append(tuple(x for x, _ in samples[:degree_bound + 1]))
            return real_fit(samples, var, degree_bound)

        def counted_table_fit(points, values, degree, var):
            table_fits.append(degree)
            return real_table_fit(points, values, degree, var)

        def counted_coeff(h, *args, **kwargs):
            coeffs.append(h)
            return real_coeff(h, *args, **kwargs)

        def counted_log(self, *args, **kwargs):
            logs.append(self.order)
            return real_log(self, *args, **kwargs)

        series_vanishing.log_expansion.cache_clear()
        monkeypatch.setattr(series_vanishing, "interpolate_in_var", counted_fit)
        monkeypatch.setattr(config_sums, "_fit", counted_table_fit)
        monkeypatch.setattr(series_vanishing, "symbolic_expansion_coefficient", counted_coeff)
        monkeypatch.setattr(Series, "log", counted_log)
        try:
            first = bridge_check(bridge_params((2, 3, 7), 0))
            h = first.instance.h
            assert fits == [2 * k for k in range(1, h + 1)]
            assert table_fits == [0]
            second = bridge_check(bridge_params((2, 3, 7), 1))
        finally:
            series_vanishing.log_expansion.cache_clear()
        assert len(fits) == h  # none for the second check
        assert coeffs == list(range(1, h + 1))
        assert logs == [h]
        assert len(nodes) == len(set(nodes))
        assert table_fits == [0, 0, 2]  # the second table fits offsets 0 and 1
        assert first.consistent and second.consistent


class TestSquarefreeQuotient:
    """The bridge's log runs modulo every u_{c_i}^2; where the squarefree
    coefficient is nonzero, it must equal the one of the full log."""

    @staticmethod
    def _squarefree_part(series, inst, k):
        names = [u_name(s) for s in inst.c]
        component = (series.coefficient(inst.h)
                     .with_vars([J] + names)
                     .coefficient_in(J, k))
        for name in names:
            component = component.coefficient_in(name, 1)
        return component

    @pytest.mark.parametrize("c,expected", [((2, 3, 4), 8), ((2, 3, 5), -9),
                                            ((2, 3, 4, 6), 182)],
                             ids=["c=2,3,4", "c=2,3,5", "c=2,3,4,6"])
    def test_reduced_log_keeps_the_nonzero_coefficient(self, c, expected):
        inst = bridge_params(c, 0)
        cfg = ExpansionConfig(h_max=inst.h, u_indices=c)
        reduced = log_expansion(cfg._replace(squarefree=True))
        full = log_expansion(cfg)
        k = inst.h + 1  # outside the vanishing regime: nonzero
        pinned = MultiPoly(("r",), {(-sum(c),): expected})
        assert self._squarefree_part(full, inst, k) == pinned
        assert self._squarefree_part(reduced, inst, k) == pinned
        assert self._squarefree_part(reduced, inst, inst.k).is_zero()
        assert reduced.coefficient(inst.h) != full.coefficient(inst.h)  # squares dropped


def dictionary_value(c, w):
    # (-1)^(k+g-1) S(c, w) r^(-sum c) / prod c, S the configuration sum
    g, k = len(c), sum(c) - w
    total = sum_collapsed(ConfigSumInstance(g, w, GroundSet.numeric(c))).total
    return total, MultiPoly(("r",), {(-sum(c),): (-1) ** (k + g - 1) * total / prod(c)})


class TestDictionary:
    """The u-monomial coefficient is the configuration sum at every ``w`` with
    ``k = sum(c) - w >= 1``, not only in the band, where both sides vanish:

        [j^k u^c n^-h] log(...) = (-1)^(k+g-1) S(c, w) r^(-sum c) / prod c.

    ``bridge_params`` keeps its band check, so the instances are built directly.
    """

    @pytest.mark.parametrize("c", [(2, 3), (2, 4), (2, 3, 4), (2, 3, 5), (3, 4, 5),
                                   (2, 3, 4, 5)], ids=lambda c: "c=" + ",".join(map(str, c)))
    def test_every_w_with_k_at_least_one(self, c):
        for w in range(sum(c)):
            total, expected = dictionary_value(c, w)
            coefficient = bridge_coefficient(BridgeInstance(c, w))
            assert coefficient == expected, w
            assert coefficient.is_zero() == (total == 0) == (w <= len(c) - 2), w

    def test_nonzero_layers_of_2_3_4(self):
        assert bridge_coefficient(BridgeInstance((2, 3, 4), 2)) == \
            MultiPoly(("r",), {(-9,): 8})
        assert bridge_coefficient(BridgeInstance((2, 3, 4), 8)) == \
            MultiPoly(("r",), {(-9,): 1680})

    def test_p1_plus_one_breaks_the_equality(self, monkeypatch):
        # positive control: the fault reaches the configuration sum alone, in
        # the band, where both sides would otherwise read zero
        real = config_sums.eval_P
        monkeypatch.setattr(config_sums, "eval_P",
                            lambda v, t: real(v, t) + 1 if v == 1 else real(v, t))
        total, expected = dictionary_value((2, 3, 4), 1)
        coefficient = bridge_coefficient(BridgeInstance((2, 3, 4), 1))
        assert total == -1 and coefficient.is_zero()
        assert coefficient != expected
