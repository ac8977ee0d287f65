"""Bridge between the configuration-sum and log-expansion verifiers.

A configuration-sum instance with distinct integer ground values
``c_1..c_g >= 2`` and weight budget ``w`` maps to the log-expansion
component at

    k = sum(c_i) - w,    h = sum(c_i) - g,

so that ``k - h = g - w >= 2`` lands in the claimed vanishing regime.  With
every u_s zeroed except ``s in {c_i}``, the coefficient of the squarefree
monomial ``u_{c_1} u_{c_2} ... u_{c_g}`` in the ``[j^k n^{-h}]`` component is
the quantity tied to the configuration sum.  No proportionality constant
between the two is assumed: both are checked for vanishing independently.
The expansion budget is derived from ``(c, w)`` alone
(:func:`expansion_budget_for`), so it always covers the target component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ConsistencyError, MultiPoly, _as_int
from .config_sums import ConfigSumInstance, ConfigSumResult, sum_collapsed
from .partitions import GroundSet
from .series_vanishing import ExpansionConfig, J, log_expansion, u_name

__all__ = [
    "BridgeInstance",
    "BridgeReport",
    "bridge_params",
    "expansion_budget_for",
    "bridge_coefficient",
    "bridge_check",
]


@dataclass(frozen=True)
class BridgeInstance:
    c: tuple
    w: int
    k: int
    h: int

    @property
    def g(self) -> int:
        return len(self.c)


def bridge_params(c, w: int) -> BridgeInstance:
    """Validate (c, w) and derive the (k, h) target component."""
    values = tuple(c)
    if not all(isinstance(x, (int, Fraction)) and x.denominator == 1 for x in values):
        raise ValueError(f"ground values must be integers, got {values!r}")
    values = tuple(int(x) for x in values)
    w = _as_int(w, "w")
    g = len(values)
    if g < 2:
        raise ValueError("need at least two ground values")
    if len(set(values)) != g:
        raise ValueError("ground values must be distinct")
    if any(x < 2 for x in values):
        raise ValueError("ground values must be integers >= 2")
    if not 0 <= w <= g - 2:
        raise ValueError(f"need 0 <= w <= g-2, got w={w} for g={g}")
    total = sum(values)
    k = total - w
    h = total - g
    assert k - h == g - w >= 2
    return BridgeInstance(values, w, k, h)


def expansion_budget_for(inst: BridgeInstance) -> ExpansionConfig:
    """Smallest expansion budget covering the instance's (k, h) extraction.

    The deepest interpolated order is h with j-degree at most 2h, so 2h+1
    nodes plus two surplus polynomiality witnesses are configured, starting
    at the smallest admissible sample j = h+1.
    """
    h = inst.h
    return ExpansionConfig(
        h_max=h,
        s_max=max(inst.c),
        j_samples=tuple(range(h + 1, h + 1 + (2 * h + 3))))


def bridge_coefficient(inst: BridgeInstance) -> MultiPoly:
    """Coefficient of ``prod_i u_{c_i}`` in the [j^k n^{-h}] log component.

    All u_s with s outside the instance's value set are zeroed before
    expansion; the result is a Laurent polynomial in r, expected to vanish.
    The target is squarefree in u, so the expansion runs modulo every
    u_{c_i}^2 (``log_expansion(..., squarefree=True)``): its closed form and
    interpolation oracle are compared in that quotient ring, where the
    target coefficient is exact.
    """
    u_indices = tuple(sorted(inst.c))
    series = log_expansion(expansion_budget_for(inst), u_indices=u_indices,
                           squarefree=True)
    names = [u_name(s) for s in u_indices]  # squarefree: the c_i are distinct
    coefficient = (series.coefficient(inst.h)
                   .with_vars([J] + names)
                   .coefficient_in(J, inst.k))
    for name in names:
        coefficient = coefficient.coefficient_in(name, 1)
    stray = coefficient.used_vars() - {"r"}
    if stray:
        raise ConsistencyError(
            f"extraction left unexpected variables {sorted(stray)}")
    return coefficient


@dataclass(frozen=True)
class BridgeReport:
    """Paired outcome of both verifiers on one bridge instance."""

    instance: BridgeInstance
    coefficient: MultiPoly
    config_sum: ConfigSumResult

    @property
    def coefficient_zero(self) -> bool:
        return self.coefficient.is_zero()

    @property
    def config_sum_zero(self) -> bool:
        return self.config_sum.total == 0

    @property
    def consistent(self) -> bool:
        """Both sides vanish, or neither does."""
        return self.coefficient_zero == self.config_sum_zero


def bridge_check(inst: BridgeInstance) -> BridgeReport:
    """Run both verifiers on one instance and compare their verdicts."""
    ground = GroundSet.numeric([Fraction(x) for x in inst.c])
    return BridgeReport(
        instance=inst,
        coefficient=bridge_coefficient(inst),
        config_sum=sum_collapsed(ConfigSumInstance.make(inst.g, inst.w, ground)))
