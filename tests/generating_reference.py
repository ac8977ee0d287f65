"""The untruncated x^j generating coefficient, the reference for the readback tests."""

from functools import lru_cache

from stirlingzero.series_vanishing import _generating_series


def generating_coefficient(j, cfg, u_indices=None):
    """Coefficient of x^j of the generating exponential, truncation T = j.

    A polynomial in n of degree j with leading term (n r)^j / j!; u-indices
    beyond min(j, s_max) cannot reach the extracted orders and are dropped.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    indices = cfg.u_indices(u_indices)
    return _coefficient(j, tuple(s for s in indices if s <= j))


@lru_cache(maxsize=None)
def _coefficient(j, u_indices):
    # the production series is not kept, and many tests read the same few
    return _generating_series(j, u_indices).coefficient(j)
