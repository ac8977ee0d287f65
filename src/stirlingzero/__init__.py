"""Exact-arithmetic verifier for two families of vanishing identities.

The first family: for a ground set of g distinct values and a weight budget
``0 <= w <= g-2``, the signed sum of Stirling-polynomial products over all
weighted ordered set partitions is conjectured to be exactly zero.  The
second: in the 1/n-logarithm of a matching-style exponential generating
series, every ``j^k n^{-h}`` coefficient with ``k >= h+2`` is conjectured to
vanish.  A parameter bridge maps instances of the first family onto
u-monomial coefficients of the second.  Everything is computed in exact
rational arithmetic; a nonzero result anywhere is a reportable finding, not
a rounding artifact.
"""

from .version import ENGINE_VERSION as __version__
from .algebra import (
    BudgetError,
    ConsistencyError,
    EngineError,
    MultiPoly,
    PolynomialityError,
    PrecisionError,
)
from .partitions import GroundSet
from .config_sums import ConfigSumInstance, sum_collapsed, sum_ordered
from .series_vanishing import ExpansionConfig, vanishing_report
from .bridge import bridge_check, bridge_params

# the names of README's "Library use"; every other name is imported from its
# own module (stirlingzero.stirling, stirlingzero.series_vanishing, ...)
__all__ = [
    "__version__",
    "MultiPoly",
    "EngineError", "PrecisionError", "PolynomialityError",
    "ConsistencyError", "BudgetError",
    "GroundSet",
    "ConfigSumInstance", "sum_collapsed", "sum_ordered",
    "ExpansionConfig", "vanishing_report",
    "bridge_params", "bridge_check",
]
