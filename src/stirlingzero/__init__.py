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
    Series,
    interpolate_in_var,
)
from .stirling import (
    StirlingPoly,
    StirlingTriangle,
    eval_P,
    eval_P_symbolic,
    stirling_poly,
    triangle,
)
from .partitions import (
    GroundSet,
    count_weighted_configs,
    iter_ordered_partitions,
    iter_unordered_partitions,
    weight_compositions,
)
from .config_sums import (
    ConfigSumInstance,
    ConfigSumResult,
    double_check_nonzero,
    random_ground,
    sum_collapsed,
    sum_ordered,
)
from .series_vanishing import (
    ExpansionCoefficient,
    ExpansionConfig,
    VanishingCheck,
    expansion_coefficients,
    generating_coefficient,
    log_expansion,
    symbolic_expansion_coefficient,
    vanishing_report,
)
from .bridge import (
    BridgeInstance,
    BridgeReport,
    bridge_check,
    bridge_coefficient,
    bridge_params,
)

__all__ = [
    "__version__",
    # algebra
    "MultiPoly", "Series", "interpolate_in_var",
    "EngineError", "PrecisionError", "PolynomialityError",
    "ConsistencyError", "BudgetError",
    # stirling
    "StirlingTriangle", "StirlingPoly", "triangle", "stirling_poly",
    "eval_P", "eval_P_symbolic",
    # partitions
    "GroundSet", "iter_ordered_partitions", "iter_unordered_partitions",
    "weight_compositions", "count_weighted_configs",
    # configuration sums
    "ConfigSumInstance", "ConfigSumResult",
    "sum_ordered", "sum_collapsed", "random_ground",
    "double_check_nonzero",
    # series vanishing
    "ExpansionConfig", "ExpansionCoefficient", "VanishingCheck",
    "generating_coefficient", "expansion_coefficients",
    "symbolic_expansion_coefficient", "log_expansion", "vanishing_report",
    # bridge
    "BridgeInstance", "BridgeReport", "bridge_params",
    "bridge_coefficient", "bridge_check",
]
