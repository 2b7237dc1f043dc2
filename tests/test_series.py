"""Tests for the truncated-series core."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import series_from_json, series_to_json

from voachain.series import (
    ExactComplex,
    SeriesError,
    TruncatedSeries,
    _frac_str,
    _int_str,
    points_coincide,
)


def S(coeffs, trunc, var="q", min_exponent=None):
    return TruncatedSeries(var, coeffs, trunc, min_exponent)


class TestExactComplex:
    def test_field_ops(self):
        a = ExactComplex(Fraction(1, 2), Fraction(1, 3))
        b = ExactComplex(2, -1)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (ExactComplex(1) / a) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ExactComplex(1) / ExactComplex(0)

    def test_mixing_with_rationals(self):
        a = ExactComplex(0, 1)
        assert a * a == -1
        assert a + Fraction(1, 2) == ExactComplex(Fraction(1, 2), 1)


class TestPointsCoincide:
    @pytest.mark.parametrize("twin", [5, Fraction(5), ExactComplex(5)])
    def test_equal_values_of_any_types_coincide(self, twin):
        for z in (5, Fraction(5), ExactComplex(5)):
            assert points_coincide([z, Fraction(1, 3), twin])

    @pytest.mark.parametrize("inexact", [0.5, 1 / 3, 5.0, 1j, 0.5 - 2j, 5 + 0j])
    @pytest.mark.parametrize("beside", [Fraction(1, 3), 10**400, ExactComplex(1, 10**400)])
    def test_a_float_or_complex_point_is_refused(self, inexact, beside):
        # no float arithmetic runs at a point: it would round its partner
        # (Fraction(1, 3) and 1/3 would be one point) or overflow on it
        with pytest.raises(SeriesError, match="is not exact"):
            points_coincide([beside, inexact])

    def test_complex_points_compare_both_parts(self):
        assert points_coincide([ExactComplex(Fraction(1, 2), -2), ExactComplex(Fraction(1, 2), -2)])
        assert not points_coincide([ExactComplex(Fraction(1, 2), -2), ExactComplex(Fraction(1, 2), 2)])

    @pytest.mark.parametrize("points", [
        (10**17, 10**17 + 1),
        (Fraction(10**17), Fraction(10**17 + 1)),
        (Fraction(10**400), Fraction(10**400) + Fraction(1, 2)),
        (ExactComplex(10**400, 1), ExactComplex(10**400, 2)),
    ])
    def test_exact_points_are_compared_exactly(self, points):
        # a complex conversion would merge the first three pairs (one
        # rounds them to one float, the others overflow)
        assert not points_coincide(points)
        assert points_coincide([*points, points[0]])


class TestArithmetic:
    def test_additive_identity(self):
        a = S({0: 1, 1: 1}, 4)
        z = S({}, 4)
        assert (a + z).coefficients == {0: 1, 1: 1}

    def test_truncation_is_min(self):
        a = S({0: 1, 1: 1}, 3)
        b = S({2: 1}, 2)
        out = a + b
        assert out.truncation == 2
        assert out.coefficients == {0: 1, 1: 1}

    def test_additive_inverse(self):
        a = S({-1: 1}, 3, min_exponent=-1)
        assert (a + (-a)).is_zero()

    def test_variable_mismatch_rejected(self):
        with pytest.raises(SeriesError):
            S({0: 1}, 2) + S({0: 1}, 2, var="z")
        with pytest.raises(SeriesError):
            S({0: 1}, 2) * S({0: 1}, 2, var="z")

    def test_telescoping_product(self):
        a = S({0: 1, 1: -1}, 5)
        b = S({0: 1, 1: 1, 2: 1, 3: 1}, 4)
        out = a * b
        assert out.truncation == 4
        assert out.coefficients == {0: 1}

    def test_laurent_product(self):
        a = S({-1: 1}, 3, min_exponent=-1)
        b = S({1: 1}, 4)
        out = a * b
        assert out.coefficients == {0: 1}

    def test_square(self):
        a = S({0: 1, 1: 1}, 5)
        assert (a * a).coefficients == {0: 1, 1: 2, 2: 1}

    def test_product_truncation_accounts_for_min_exponent(self):
        # (q^-2 + ...known to 3) * (q^5 + ...known to 8) only knows up to 3+5=8? no:
        # unknown tail of a (at exp 3) times lowest of b (exp 5) pollutes exp 8.
        a = S({-2: 1}, 3, min_exponent=-2)
        b = S({5: 1}, 8, min_exponent=5)
        out = a * b
        assert out.truncation == min(3 + 5, 8 + (-2))
        assert out.coefficients == {3: 1}


class TestInvert:
    def test_geometric(self):
        a = S({0: 1, 1: -1}, 6)
        inv = a.invert()
        assert inv.coefficients == {e: 1 for e in range(6)}
        assert (a * inv).coefficients == {0: 1}

    def test_monomial(self):
        a = S({1: 1}, 4, min_exponent=1)
        inv = a.invert()
        assert inv.coefficients == {-1: 1}

    def test_constant(self):
        a = S({0: 2}, 3)
        assert a.invert().coefficients == {0: Fraction(1, 2)}

    def test_zero_rejected(self):
        with pytest.raises(SeriesError):
            S({}, 3).invert()

    def test_exactness_preserved(self):
        a = S({0: Fraction(1, 3), 2: Fraction(2, 7)}, 9)
        prod = a * a.invert()
        assert prod.coefficients == {0: 1}
        assert all(isinstance(c, (int, Fraction)) for c in prod.coefficients.values())


class TestCompare:
    def test_equal(self):
        a = S({0: 1, 1: 1}, 3)
        assert a.compare(a).deviation == 0

    def test_respects_truncation(self):
        a = S({0: 1, 1: 1}, 3)
        b = S({0: 1}, 1)
        cmpres = a.compare(b)
        assert cmpres.comparable
        assert cmpres.deviation == 0
        assert (cmpres.low, cmpres.high) == (0, 1)

    def test_small_deviation(self):
        a = S({0: 1}, 2)
        b = S({0: 1, 1: 1e-15}, 2)
        cmpres = a.compare(b)
        assert cmpres.comparable
        assert cmpres.deviation == pytest.approx(1e-15)

    def test_incomparable(self):
        a = S({0: 1}, 1)
        b = S({3: 1}, 4, min_exponent=2)
        assert not a.compare(b).comparable

    def test_an_inner_block_with_no_shared_range_is_refused(self):
        # the outer ranges overlap, the rho1 blocks at rho2^0 do not: that
        # block compares nothing, and counting it as deviation 0 would hide it
        a = S({0: S({0: 1}, 1, var="rho1")}, 2, var="rho2")
        b = S({0: S({3: 1}, 4, var="rho1", min_exponent=2)}, 2, var="rho2")
        with pytest.raises(SeriesError, match=r"rho2\^0 blocks share no known range") as exc:
            a.compare(b)
        assert "rho1^[0, 1)" in str(exc.value) and "rho1^[2, 4)" in str(exc.value)

    @pytest.mark.parametrize("inner", [False, True])
    def test_vanishes_is_exact_where_the_deviation_underflows(self, inner):
        tiny = Fraction(1, 10**400)
        a, b = S({0: 1, 1: 2}, 3), S({0: 1, 1: 2 + tiny}, 3)
        if inner:
            a, b = S({1: a}, 2, var="rho"), S({1: b}, 2, var="rho")
        cmpres = a.compare(b)
        assert cmpres.deviation == 0.0
        assert not cmpres.vanishes
        assert a.compare(a).vanishes


coeff_strategy = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(var="q"):
    return st.builds(
        lambda pairs, trunc: TruncatedSeries(
            var,
            {e: c for e, c in pairs if e < trunc},
            trunc,
            min_exponent=min([e for e, _ in pairs], default=0) if pairs else 0,
        ),
        st.lists(
            st.tuples(st.integers(min_value=-3, max_value=5), coeff_strategy),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=6),
    )


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_add_associative_commutative(self, a, b, c):
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert lhs.coefficients == rhs.coefficients
        assert (a + b).coefficients == (b + a).coefficients

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_commutative_distributive(self, a, b, c):
        assert (a * b).coefficients == (b * a).coefficients
        lhs = a * (b + c)
        rhs = a * b + a * c
        trunc = min(lhs.truncation, rhs.truncation)
        for e in range(min(lhs.min_exponent, rhs.min_exponent), trunc):
            assert lhs.coefficients.get(e, 0) == rhs.coefficients.get(e, 0)

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        trunc = min(lhs.truncation, rhs.truncation)
        for e in range(min(lhs.min_exponent, rhs.min_exponent), trunc):
            assert lhs.coefficients.get(e, 0) == rhs.coefficients.get(e, 0)

    @settings(max_examples=40, deadline=None)
    @given(series_strategy())
    def test_invert_two_sided(self, a):
        if a.is_zero() or min(a.coefficients) != a.min_exponent:
            return
        inv = a.invert()
        left = a * inv
        right = inv * a
        for prod in (left, right):
            for e in range(prod.min_exponent, prod.truncation):
                assert prod.coefficients.get(e, 0) == (1 if e == 0 else 0)


class TestTruncationMonotonicity:
    def test_recompute_with_higher_order(self):
        lo = S({0: 1, 1: -1}, 4)
        hi = S({0: 1, 1: -1}, 9)
        inv_lo, inv_hi = lo.invert(), hi.invert()
        for e in range(inv_lo.min_exponent, inv_lo.truncation):
            assert inv_lo.coefficients.get(e, 0) == inv_hi.coefficients.get(e, 0)


class TestSerialization:
    def test_round_trip_exact(self):
        a = S({-1: Fraction(2, 3), 0: 1, 2: ExactComplex(0, Fraction(1, 5))}, 4,
              min_exponent=-1)
        back = series_from_json(series_to_json(a))
        assert back == a

    def test_round_trip_float(self):
        a = S({0: 1.5, 1: complex(0, 2.0)}, 3)
        back = series_from_json(series_to_json(a))
        assert back.coefficients[0] == 1.5
        assert back.coefficients[1] == complex(0, 2.0)

    def test_rationals_as_strings(self):
        a = S({0: Fraction(1, 3)}, 1)
        assert '"1/3"' in series_to_json(a)

    @pytest.mark.parametrize("n", [10**5000, 10**5000 - 1, -(10**9000 + 7), 3**20000, 12345],
                             ids=["10^5000", "10^5000-1", "-(10^9000+7)", "3^20000", "12345"])
    def test_integers_of_any_size_print_in_full(self, n):
        # str() refuses an int of more than sys.get_int_max_str_digits()
        # digits; the printed digits are str()'s with the cap lifted
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(n)
        finally:
            sys.set_int_max_str_digits(limit)
        assert _int_str(n) == want
        assert _frac_str(Fraction(1, n)) == ("-1/" + want[1:] if n < 0 else "1/" + want)

    @pytest.mark.parametrize("c", [10**6000, Fraction(1, 10**6000), 1 - 3**20000,
                                   ExactComplex(Fraction(-7, 10**6000), 10**6000)],
                             ids=["10^6000", "10^-6000", "1-3^20000", "complex"])
    def test_exact_values_of_any_size_read_back(self, c):
        # int() refuses more than sys.get_int_max_str_digits() digits (4300
        # by default); the reader splits longer digit strings, cap in place
        s = S({0: c, 2: Fraction(1, 3)}, 3)
        assert series_from_json(series_to_json(s)) == s

    def test_nested_round_trip(self):
        inner = TruncatedSeries("rho1", {0: 1, 1: 2}, 3)
        outer = TruncatedSeries("rho2", {0: inner, 1: inner}, 2)
        back = series_from_json(series_to_json(outer))
        assert back.coefficients[0] == inner


class TestNestedSeries:
    def test_nested_arithmetic(self):
        inner1 = TruncatedSeries("r1", {0: 1, 1: Fraction(1, 2)}, 3)
        inner2 = TruncatedSeries("r1", {0: 2, 2: 1}, 3)
        outer = TruncatedSeries("r2", {0: inner1, 1: inner2}, 2)
        sq = outer * outer
        assert sq.coefficient(0) == inner1 * inner1
        assert sq.coefficient(1) == (inner1 * inner2) * 2

    def test_nested_invert_round_trip(self):
        inner0 = TruncatedSeries("r1", {0: 1, 1: 2, 2: Fraction(3, 4)}, 4)
        inner1 = TruncatedSeries("r1", {0: Fraction(1, 3), 3: 5}, 4)
        outer = TruncatedSeries("r2", {0: inner0, 1: inner1, 2: inner0}, 3)
        inv = outer.invert()
        prod = outer * inv
        one = TruncatedSeries("r2", {0: TruncatedSeries("r1", {0: 1}, 4)}, 3)
        assert prod.compare(one).deviation == 0


class TestEvaluate:
    def test_exact_point(self):
        a = S({-1: 1, 1: Fraction(1, 2)}, 4, min_exponent=-1)
        val = a.evaluate(Fraction(2))
        assert val == Fraction(1, 2) + Fraction(1)

    def test_differentiate(self):
        a = S({0: 1, 1: 3, 2: 5}, 4)
        assert a.differentiate().coefficients == {0: 3, 1: 10}
