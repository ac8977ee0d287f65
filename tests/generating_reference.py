"""The generating exponential through ``Series.exp`` and ``Fraction``s, the reference for the readback.

Production takes the exponential as its exponential generating function,
``j! f_j`` at ``x^j``, and reads each sample off it as it stands
(``series_vanishing._readback``); this module takes the plain exponential,
``f_j`` at ``x^j``, then reads ``a_h`` off the ``x^j`` coefficient times ``j!``.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from stirlingzero.algebra import MultiPoly, Series
from stirlingzero.series_vanishing import N, R, X, u_name


def generating_series(order, u_indices, max_weight=None, squarefree=False):
    """The exponential of the ``series_vanishing`` docstring, truncated at ``order``.

    Exact with the defaults; otherwise exact only modulo the ideal of
    u-weight (``u_s`` weighs ``s - 1``) above ``max_weight`` and, with
    ``squarefree``, every ``u_s^2``.
    """
    n = MultiPoly.variable(N)
    r = MultiPoly.variable(R)
    entries = {1: n * r}
    for s in u_indices:
        if 2 <= s <= order:
            # -(n u_s / s) (-x)^s contributes (-1)^(s+1) n u_s / s at x^s
            entries[s] = n * MultiPoly.variable(u_name(s)) * Fraction((-1) ** (s + 1), s)
    weights = {u_name(s): s - 1 for s in u_indices}
    ideal = (weights, max_weight, tuple(weights) if squarefree else ())
    return Series.from_dict(X, order, entries).exp(ideal=ideal)


def expansion_coefficients(j, gj, h_max=None):
    """Read a_0 .. a_{j-1} off the x^j generating coefficient, or only a_0 .. a_{h_max}.

    ``a_h`` is the n^{j-h} coefficient of ``j! * gj`` divided by r^j, zero
    where that power is absent, on ``gj``'s registry without n.  ``gj`` may
    carry only the powers n^{j-h} of the orders read, else ``ValueError``.
    """
    orders = j if h_max is None else min(j, h_max + 1)
    n_at, r_at = gj._index_of(N), gj._index_of(R)
    scale = factorial(j)
    filed = [{} for _ in range(orders)]
    for exps, coeff in gj.terms.items():
        h = j - exps[n_at]
        if not 0 <= h < orders:
            raise ValueError(
                f"generating coefficient carries n^{exps[n_at]}, "
                f"outside {j - orders + 1}..{j}")
        key = list(exps)
        key[r_at] -= j
        del key[n_at]
        filed[h][tuple(key)] = coeff * scale
    names = gj.vars[:n_at] + gj.vars[n_at + 1:]
    return [MultiPoly(names, terms) for terms in filed]


def readback(cfg):
    """``{j: [a_0 .. a_{h_max}]}`` at every sample of ``cfg``, through the reference route."""
    series = generating_series(max(cfg.j_samples), cfg.u_indices, cfg.h_max, cfg.squarefree)
    return {j: expansion_coefficients(j, series.coefficient(j), cfg.h_max)
            for j in cfg.j_samples}


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
    # many tests read the same few
    return generating_series(j, u_indices).coefficient(j)
