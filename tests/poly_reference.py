"""Per-term references for MultiPoly: reduction modulo a monomial ideal, substitution,
and a plain-Fraction Lagrange fit.

Each walks a polynomial's terms one at a time, by variable name, and shares
no code with the reduction inside ``Series.exp``/``Series.log``, so the
tests that compare the two check the kernel against an independent route.
The fit builds one basis polynomial at a time in ``Fraction`` arithmetic,
sharing nothing with the integer kernel ``algebra._fit``.
"""

from fractions import Fraction

from stirlingzero.algebra import MultiPoly


def remainder(p, weights, max_weight=None, squarefree=()):
    """The terms of ``p`` outside a monomial ideal, kept as they are.

    The ideal is generated by every monomial whose weight, the sum of
    ``weights[name] * exponent`` over its variables (unlisted ones weigh
    nothing), exceeds ``max_weight`` (``None``: no bound), and by the square
    of each ``squarefree`` variable.
    """
    def outside(exps):
        power = dict(zip(p.vars, exps))
        weight = sum(weights.get(name, 0) * e for name, e in power.items())
        return ((max_weight is None or weight <= max_weight)
                and all(power.get(name, 0) < 2 for name in squarefree))

    return MultiPoly(p.vars, {e: c for e, c in p.terms.items() if outside(e)})


def substitute(p, values):
    """``p`` with each variable named in ``values`` replaced by that rational.

    A value may meet a negative exponent; the other variables are kept.
    """
    kept = tuple(name for name in p.vars if name not in values)
    out = {}
    for exps, coeff in p.terms.items():
        key = []
        for name, e in zip(p.vars, exps):
            if name in values:
                coeff *= Fraction(values[name]) ** e
            else:
                key.append(e)
        out[tuple(key)] = out.get(tuple(key), 0) + coeff
    return MultiPoly(kept, out)


def lagrange_coefficients(points, values, degree):
    """Coefficients, low degree first, of the polynomial of degree at most ``degree``
    through the first ``degree + 1`` pairs of ``points`` and ``values``.

    ``sum_i v_i * prod_{m != i} (X - x_m) / (x_i - x_m)``, each basis
    polynomial multiplied out on its own, one ``Fraction`` per coefficient.
    """
    nodes = list(zip(points, values))[:degree + 1]
    total = [Fraction(0)] * (degree + 1)
    for i, (x_i, v_i) in enumerate(nodes):
        basis = [Fraction(v_i)]
        for m, (x_m, _) in enumerate(nodes):
            if m != i:
                basis = [(low - x_m * c) / (x_i - x_m) for low, c in zip([0] + basis, basis + [0])]
        for d, c in enumerate(basis):
            total[d] += c
    return total
