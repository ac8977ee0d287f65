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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import ConsistencyError, MultiPoly, _as_int
from .config_sums import (ConfigSumInstance, ConfigSumResult, NonzeroConfirmation,
                          SweepEntry, run_plan)
from .partitions import GroundSet
from .series_vanishing import ExpansionConfig, J, R, log_expansion, u_name

__all__ = [
    "BridgeInstance",
    "BridgeReport",
    "bridge_params",
    "bridge_coefficient",
    "bridge_check",
]


class BridgeInstance(NamedTuple):
    """Distinct ground values ``c`` and weight budget ``w``; (k, h) derive from them."""

    c: tuple
    w: int

    @property
    def g(self) -> int:
        return len(self.c)

    @property
    def k(self) -> int:
        return sum(self.c) - self.w

    @property
    def h(self) -> int:
        return sum(self.c) - self.g


def bridge_params(c, w: int) -> BridgeInstance:
    """Validate (c, w); a bool, float, string or non-integral Fraction is refused."""
    values = tuple(_as_int(x, "ground value") for x in c)
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
    return BridgeInstance(values, w)


def bridge_coefficient(inst: BridgeInstance) -> MultiPoly:
    """Coefficient of ``prod_i u_{c_i}`` in the [j^k n^{-h}] log component.

    All u_s with s outside the instance's value set are zeroed before
    expansion; the result is a Laurent polynomial in r, expected to vanish.
    The target is squarefree in u, so the expansion runs modulo every
    u_{c_i}^2 (a ``squarefree`` budget): its closed form and interpolation
    oracle are compared in that quotient ring, where the target coefficient
    is exact.  Every w of one c shares the budget, so they share one log.
    """
    cfg = ExpansionConfig(h_max=inst.h, u_indices=inst.c, squarefree=True)
    series = log_expansion(cfg)
    names = [u_name(s) for s in cfg.u_indices]  # squarefree: the c_i are distinct
    coefficient = (series.coefficient(inst.h)
                   .with_vars([J] + names)
                   .coefficient_in(J, inst.k))
    for name in names:
        coefficient = coefficient.coefficient_in(name, 1)
    stray = coefficient.used_vars() - {R}
    if stray:
        raise ConsistencyError(
            f"extraction left unexpected variables {sorted(stray)}")
    return coefficient


class BridgeReport(NamedTuple):
    """Paired outcome of both verifiers on one bridge instance."""

    instance: BridgeInstance
    coefficient: MultiPoly
    config_sum: ConfigSumResult
    confirmation: Optional[NonzeroConfirmation] = None  # of a nonzero total

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
    """Run both verifiers on one instance; the sum runs as a one-entry plan at
    seed 0, so :func:`run_plan` confirms a nonzero total as it does in any plan."""
    coefficient = bridge_coefficient(inst)
    plan = [SweepEntry(ConfigSumInstance(inst.g, inst.w, GroundSet.numeric(inst.c)), "asserted")]
    [entry] = run_plan(plan, seed=0, jobs=1)
    return BridgeReport(inst, coefficient, entry.result, entry.confirmation)
