"""Tests for the truncated-series core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voachain.series import (
    ExactComplex,
    SeriesError,
    TruncatedSeries,
    series_from_json,
    series_to_json,
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
        assert cmpres.within(1e-9)
        assert cmpres.deviation == pytest.approx(1e-15)

    def test_incomparable(self):
        a = S({0: 1}, 1)
        b = S({3: 1}, 4, min_exponent=2)
        assert not a.compare(b).comparable


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
