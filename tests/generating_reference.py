"""The untruncated x^j generating coefficient, the reference for the readback tests."""

from stirlingzero.series_vanishing import _generating_series, _u_indices


def generating_coefficient(j, cfg, u_indices=None):
    """Coefficient of x^j of the generating exponential, truncation T = j.

    A polynomial in n of degree j with leading term (n r)^j / j!; u-indices
    beyond min(j, s_max) cannot reach the extracted orders and are dropped.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    indices = _u_indices(cfg, u_indices)
    return _generating_series(j, tuple(s for s in indices if s <= j)).coefficient(j)
