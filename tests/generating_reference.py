"""The untruncated x^j generating coefficient, the reference for the readback tests."""

from functools import lru_cache

from stirlingzero.series_vanishing import _generating_series


def generating_coefficient(j, cfg):
    """Coefficient of x^j of the generating exponential on ``cfg.u_indices``, truncation T = j.

    A polynomial in n of degree j with leading term (n r)^j / j!; u-indices
    beyond j cannot reach the extracted orders and are dropped.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    return _coefficient(j, tuple(s for s in cfg.u_indices if s <= j))


@lru_cache(maxsize=None)
def _coefficient(j, u_indices):
    # the production series is not kept, and many tests read the same few
    return _generating_series(j, u_indices).coefficient(j)
