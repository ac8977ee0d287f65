"""Per-term references for MultiPoly: reduction modulo a monomial ideal, substitution.

Each walks a polynomial's terms one at a time, by variable name, and shares
no code with the reduction inside ``Series.exp``/``Series.log``, so the
tests that compare the two check the kernel against an independent route.
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
