"""Stirling rows and offset-polynomial layer."""

import random
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest

from stirlingzero import stirling
from stirlingzero.algebra import ConsistencyError, MultiPoly, Series, _horner
from stirlingzero.stirling import (
    _validate_chain,
    eval_P,
    eval_P_symbolic,
    stirling_poly,
    stirling_row,
)

from poly_reference import substitute


def entry(n, k):
    """``[n, k]``, zero outside ``0 <= k <= n``."""
    return stirling_row(n)[k] if 0 <= k <= n else 0


class TestTriangle:
    def test_row_zero_is_empty_product(self):
        assert stirling_row(0) == (1,)

    def test_row_three(self):
        # x(x+1)(x+2) = 2x + 3x^2 + x^3
        assert stirling_row(3) == (0, 2, 3, 1)

    def test_row_four(self):
        # row three polynomial times (x+3)
        assert stirling_row(4) == (0, 6, 11, 6, 1)

    def test_row_sums_are_factorials(self):
        for n in range(13):
            assert sum(stirling_row(n)) == factorial(n)

    def test_recurrence_holds_everywhere(self):
        for n in range(10):
            assert len(stirling_row(n)) == n + 1
            for k in range(n + 2):
                assert entry(n + 1, k) == entry(n, k - 1) + n * entry(n, k)


class TestStirlingPoly:
    def test_offset_zero(self):
        assert stirling_poly(0) == (Fraction(1),)
        assert eval_P(0, Fraction(355, 113)) == 1

    def test_offset_one(self):
        # [n, n-1] = n(n-1)/2
        assert stirling_poly(1) == (0, Fraction(-1, 2), Fraction(1, 2))

    def test_offset_two(self):
        # (3x^4 - 10x^3 + 9x^2 - 2x)/24
        assert stirling_poly(2) == (
            0, Fraction(-2, 24), Fraction(9, 24), Fraction(-10, 24), Fraction(3, 24))

    def test_point_evaluations(self):
        assert eval_P(1, 7) == 21
        assert eval_P(2, 5) == 35  # equals row entry [5, 3]

    def test_matches_triangle_diagonals(self):
        for w in range(9):
            for n in range(w, 3 * w + 9):
                assert eval_P(w, n) == entry(n, n - w)

    def test_difference_identity(self):
        # P_w(x+1) - P_w(x) = x * P_{w-1}(x); degree-2w polynomials agreeing
        # at 2w+2 points are identical, so pointwise checks suffice here
        for w in range(1, 9):
            for x in range(2 * w + 2):
                assert eval_P(w, x + 1) - eval_P(w, x) == x * eval_P(w - 1, x)
            coeffs = stirling_poly(w)
            assert len(coeffs) == 2 * w + 1 and coeffs[-1] > 0

    def test_small_integer_roots(self):
        # P_w vanishes at 0..w for w >= 1 (Concrete Mathematics, eq. (6.44))
        for w in range(1, 9):
            for m in range(w + 1):
                assert eval_P(w, m) == 0

    @pytest.mark.parametrize("w", range(9))
    def test_integer_horner_matches_fraction_horner(self, w):
        rng = random.Random(w)
        points = [Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(40)]
        points += [Fraction(0), Fraction(-1), Fraction(7, 1), Fraction(-13, 97)]
        for t in points:
            assert eval_P(w, t) == _horner(stirling_poly(w), t)
        assert eval_P(w, 5) == eval_P(w, Fraction(5))

    def test_float_point_is_rejected(self):
        with pytest.raises(TypeError, match="float"):
            eval_P(2, 0.1)
        with pytest.raises(TypeError, match="float"):
            eval_P_symbolic(2, 5.0)
        for t in ("1/2", "5", True, Decimal("1.5")):  # once read as 1/2, 5, 1, 3/2
            with pytest.raises(TypeError, match="exact rational"):
                eval_P(1, t)

    @pytest.mark.parametrize("build, message", [
        (stirling_row, "row index must be nonnegative"),
        (stirling_poly, "offset w must be nonnegative"),
    ], ids=["row", "poly"])
    def test_negative_index_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(-1)

    def test_symbolic_matches_numeric(self):
        assert eval_P_symbolic(1, 7) == 21
        c1, c2 = MultiPoly.variable("c1"), MultiPoly.variable("c2")
        t = c1 + c2
        expected = (t * t - t) * Fraction(1, 2)
        assert eval_P_symbolic(1, t) == expected
        assert eval_P_symbolic(0, t) == 1

    def test_symbolic_substitution_consistency(self):
        c1, c2 = MultiPoly.variable("c1"), MultiPoly.variable("c2")
        sym = eval_P_symbolic(2, c1 + c2)
        assert substitute(sym, {"c1": 2, "c2": 3}) == eval_P(2, 5)


def log_degree_profile(polys):
    """``deg_t [y^m] log F`` for ``m = 1 .. len(polys)-1``, ``F = sum_v P_v(t) y^v``."""
    t = MultiPoly.variable("t")
    log = Series("y", len(polys) - 1, [_horner(p, t) for p in polys]).log()
    return [log.coefficient(m).degree_in("t") for m in range(1, len(polys))]


def shifted(coeffs, k):
    """``coeffs`` plus ``t^k``."""
    return tuple(c + 1 if d == k else c for d, c in enumerate(coeffs))


class TestProfileArgument:
    """The two facts on the Stirling side of the argument that the sums vanish.

    ``F(t) = sum_v P_v(t) y^v = prod_{i<t} (1 + i y)``, so ``[y^m] log F`` is
    ``(-1)^(m-1)/m`` times the power sum ``sum_{i<t} i^m``, of degree ``m+1``
    in ``t``; and ``P_v(0) = 0`` for ``v >= 1``.
    """

    def test_zero_lemma(self):
        for v in range(1, 13):
            assert stirling_poly(v)[0] == 0

    def test_degree_profile(self):
        assert log_degree_profile([stirling_poly(v) for v in range(11)]) == \
            [m + 1 for m in range(1, 11)]

    def test_profile_catches_a_raised_degree(self):
        # positive control: P_2 + t^4 breaks the profile first at m = 2
        polys = [stirling_poly(v) for v in range(5)]
        polys[2] = shifted(polys[2], 4)
        profile = log_degree_profile(polys)
        assert profile == [2, 4, 6, 8]
        assert min(m for m, d in enumerate(profile, start=1) if d > m + 1) == 2

    def test_constant_shift_breaks_both_checks(self):
        # positive control: P_1 + 1 fails the zero lemma and the profile at m = 4
        polys = [stirling_poly(v) for v in range(5)]
        polys[1] = shifted(polys[1], 0)
        assert log_degree_profile(polys) == [2, 3, 4, 6]
        with pytest.raises(ConsistencyError, match="anchor"):
            _validate_chain(1, polys[1], stirling_poly(0))


class TestChainCheck:
    """Positive controls: each tampered polynomial must be rejected."""

    def test_interior_coefficient_changed(self):
        coeffs = list(stirling_poly(3))
        coeffs[2] += 1
        with pytest.raises(ConsistencyError, match="difference identity"):
            _validate_chain(3, tuple(coeffs), stirling_poly(2))

    def test_constant_term_changed(self):
        # a constant shift leaves P(x+1) - P(x) unchanged; only the anchor sees it
        coeffs = list(stirling_poly(3))
        coeffs[0] += 1
        with pytest.raises(ConsistencyError, match="anchor"):
            _validate_chain(3, tuple(coeffs), stirling_poly(2))

    def test_wrong_length(self):
        coeffs = stirling_poly(2) + (Fraction(7),)
        with pytest.raises(ConsistencyError, match="degree exactly 4"):
            _validate_chain(2, coeffs, stirling_poly(1))

    def test_previous_coefficient_changed(self):
        prev = list(stirling_poly(2))
        prev[1] += 1
        with pytest.raises(ConsistencyError, match="difference identity"):
            _validate_chain(3, stirling_poly(3), tuple(prev))

    def test_previous_one_entry_too_long(self):
        prev = stirling_poly(2) + (Fraction(7),)
        with pytest.raises(ConsistencyError, match="difference identity"):
            _validate_chain(3, stirling_poly(3), prev)

    def test_tampered_interpolant_is_rejected(self, monkeypatch):
        real = stirling._fit

        def bumped(points, values, degree, var):
            nums, den = real(points, values, degree, var)
            if degree == 6:  # the offset-3 build: bump its x^3 coefficient by one
                nums = nums[:3] + [nums[3] + den] + nums[4:]
            return nums, den

        monkeypatch.setattr(stirling, "_fit", bumped)
        stirling_poly.cache_clear()
        try:
            with pytest.raises(ConsistencyError, match="difference identity"):
                stirling_poly(3)
        finally:
            stirling_poly.cache_clear()
