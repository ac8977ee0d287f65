"""Bridge layer: parameter mapping and paired verifier consistency."""

from fractions import Fraction

import pytest

from stirlingzero.algebra import MultiPoly
from stirlingzero.bridge import (
    bridge_check,
    bridge_coefficient,
    bridge_params,
    expansion_budget_for,
)
from stirlingzero.series_vanishing import J, log_expansion, u_name


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
        for c in [(2.7, 3), (2.0, 3), (Fraction(5, 2), 3), ("2", 3)]:
            with pytest.raises(ValueError, match="integers"):
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
        cfg = expansion_budget_for(inst)
        reduced = log_expansion(cfg, u_indices=c, squarefree=True)
        full = log_expansion(cfg, u_indices=c)
        k = inst.h + 1  # outside the vanishing regime: nonzero
        pinned = MultiPoly(("r",), {(-sum(c),): expected}, laurent=("r",))
        assert self._squarefree_part(full, inst, k) == pinned
        assert self._squarefree_part(reduced, inst, k) == pinned
        assert self._squarefree_part(reduced, inst, inst.k).is_zero()
        assert reduced.coefficient(inst.h) != full.coefficient(inst.h)  # squares dropped
