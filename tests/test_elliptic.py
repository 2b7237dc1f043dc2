"""Tests for Eisenstein/Weierstrass machinery and genus-zero kernels."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import bipoly_eval, pm_direct_sum, pm_qseries

from voachain.elliptic import (
    EllipticError,
    ModularPoint,
    bernoulli,
    eisenstein,
    f0_iota,
    f0_kernel,
    pm_genus1,
    pm_lambert,
    pm_numerators,
    polylog_neg,
    weierstrass_p,
    weierstrass_series,
)


def oracle_bernoulli(k):
    # independent recurrence: B_k = -1/(k+1) sum_{j<k} C(k+1,j) B_j
    table = [Fraction(1)]
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * table[j]
        table.append(-acc / (n + 1))
    return table[k]


def oracle_sigma(n, p):
    return sum(d**p for d in range(1, n + 1) if n % d == 0)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)

    def test_odd_vanishing(self):
        for k in range(3, 20, 2):
            assert bernoulli(k) == 0

    def test_against_oracle(self):
        for k in range(16):
            assert bernoulli(k) == oracle_bernoulli(k)


class TestEisenstein:
    def test_odd_index_zero_series(self):
        assert eisenstein(3, 10).is_zero()
        assert eisenstein(5, 10).is_zero()

    def test_e2_leading_coefficients(self):
        s = eisenstein(2, 5)
        assert s.coefficient(0) == Fraction(-1, 12)
        assert s.coefficient(1) == 2
        assert s.coefficient(2) == 6
        assert s.coefficient(3) == 8

    def test_e4_leading_coefficients(self):
        s = eisenstein(4, 4)
        assert s.coefficient(0) == Fraction(1, 720)
        assert s.coefficient(1) == Fraction(1, 3)
        assert s.coefficient(2) == 3

    def test_low_index_rejected(self):
        with pytest.raises(EllipticError):
            eisenstein(1, 5)

    def test_divisor_sum_oracle_exact(self):
        for k in (2, 4, 6, 8):
            s = eisenstein(k, 21)
            assert s.coefficient(0) == -oracle_bernoulli(k) / math.factorial(k)
            for n in range(1, 21):
                want = Fraction(2, math.factorial(k - 1)) * oracle_sigma(n, k - 1)
                assert s.coefficient(n) == want, (k, n)


class TestWeierstrassSeries:
    def test_p1_leading_pole(self):
        mp = ModularPoint(2j)
        s = weierstrass_series(1, mp, 12)
        assert s.coefficients[-1] == 1.0

    def test_p2_is_minus_derivative_of_p1(self):
        mp = ModularPoint(1.5j)
        p1 = weierstrass_series(1, mp, 16)
        p2 = weierstrass_series(2, mp, 16)
        dp1 = p1.differentiate()
        for e in range(-2, 12):
            a = complex(dp1.coefficients.get(e, 0))
            b = complex(p2.coefficients.get(e, 0))
            assert a == pytest.approx(-b, abs=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(EllipticError):
            weierstrass_p(1, 0, ModularPoint(2j))

    def test_series_vs_lambert_cross_representation(self):
        # the z-series (Eisenstein route) and the resummed q_z route are
        # independent representations; they must agree where both converge
        mp = ModularPoint(0.8j, q_order=60)
        q = mp.q
        for k in (2, 3, 4):
            for z in (0.3 + 0.2j, -0.4 + 0.1j, 0.15 - 0.35j):
                a = weierstrass_p(k, z, mp, z_terms=50).value
                b = pm_lambert(k, cmath.exp(z), q, terms=60)
                assert a == pytest.approx(b, rel=1e-10), (k, z)

    def test_p1_offset_between_conventions_is_half(self):
        # measured, not assumed: the z-series P_1 sits 1/2 below the
        # q_z-sum convention, uniformly in z and tau
        mp = ModularPoint(0.9j, q_order=60)
        q = mp.q
        for z in (0.2 + 0.1j, -0.3 - 0.2j, 0.5):
            a = weierstrass_p(1, z, mp, z_terms=50).value
            b = pm_lambert(1, cmath.exp(z), q, terms=60)
            assert a - b == pytest.approx(-0.5, abs=1e-10)

    def test_quasi_periodicity(self):
        # P_1(z + 2 pi i tau) = P_1(z) - 1 at tau = 2i
        mp = ModularPoint(2j)
        q = mp.q
        rng = random.Random(5)
        for _ in range(10):
            # z in the fundamental annulus |q| < |e^z| < 1
            mod = rng.uniform(math.log(abs(q)) + 0.5, -0.5)
            arg = rng.uniform(0, 2 * math.pi)
            q_z = cmath.exp(complex(mod, arg))
            lhs = pm_lambert(1, q_z * q, q, terms=40)
            rhs = pm_lambert(1, q_z, q, terms=40)
            assert abs(lhs - rhs + 1) < 1e-9

    def test_ddz_relation_finite_difference(self):
        # P_{k+1} = -(1/k) dP_k/dz, checked numerically
        mp = ModularPoint(1.1j, q_order=50)
        q = mp.q
        h = 1e-5
        for k in (1, 2, 3):
            for z in (0.4 + 0.3j, -0.2 + 0.6j):
                qz = cmath.exp(z)
                deriv = (
                    pm_lambert(k, cmath.exp(z + h), q, 50)
                    - pm_lambert(k, cmath.exp(z - h), q, 50)
                ) / (2 * h)
                want = pm_lambert(k + 1, qz, q, 50)
                assert abs(-deriv / k - want) / abs(want) < 1e-6


class TestPmGenus1:
    def test_against_direct_summation_oracle(self):
        mp = ModularPoint(1.2j)
        rng = random.Random(9)
        for m in (1, 2, 3):
            for _ in range(4):
                mod = rng.uniform(math.log(abs(mp.q)) * 0.5, -0.2)
                arg = rng.uniform(0, 2 * math.pi)
                z = complex(mod, arg)
                fast = pm_genus1(m, z, mp)
                slow = pm_direct_sum(m, z, mp, tol=1e-14)
                assert fast == pytest.approx(slow, rel=1e-10)

    def test_outside_annulus_rejected(self):
        mp = ModularPoint(1.2j)
        with pytest.raises(EllipticError):
            pm_genus1(1, complex(0.5, 0), mp)  # |q_z| > 1

    @pytest.mark.parametrize("kernel", [
        lambda m: pm_lambert(m, 0.5, 0.01), lambda m: pm_qseries(m, 2, 3),
        lambda m: pm_direct_sum(m, -0.5 + 0.3j, ModularPoint(1.5j))])
    @pytest.mark.parametrize("m", [0, -1])
    def test_kernel_order_below_one_rejected(self, kernel, m):
        with pytest.raises(EllipticError, match="kernel order must be >= 1"):
            kernel(m)

    def test_q_to_zero_limit(self):
        # every q-dependent term vanishes; limit is the resummed
        # polylog part alone
        qz = cmath.exp(complex(-0.7, 0.4))
        tiny = ModularPoint(8j)  # q ~ 1e-22
        for m in (1, 2, 3):
            got = pm_lambert(m, qz, tiny.q, terms=10)
            want = complex(
                Fraction((-1) ** m, math.factorial(m - 1))
            ) * complex(polylog_neg(m - 1, qz))
            assert got == pytest.approx(want, rel=1e-12)

    def test_qseries_matches_numeric_evaluation(self):
        # exact q-expansion at rational q_z, summed at numeric q, vs the
        # resummed evaluator
        q = 0.004
        qz = Fraction(1, 3)
        for m in (1, 2, 3, 4):
            series = pm_qseries(m, qz, 8)
            val = complex(series.evaluate(q))
            want = pm_lambert(m, complex(qz), q, terms=60)
            assert val == pytest.approx(want, rel=1e-9), m

    def test_qseries_exactness(self):
        series = pm_qseries(2, Fraction(1, 2), 4)
        # q^0: sum n (1/2)^n = (1/2)/(1/4) = 2
        assert series.coefficient(0) == 2
        # q^1: n=1: (q_z + q_z^-1) = 5/2
        assert series.coefficient(1) == Fraction(5, 2)
        # q^2: n in {1,2}: (1/2 + 2) + 2 (1/4 + 4) = 5/2 + 17/2 = 11
        assert series.coefficient(2) == 11


def oracle_stirling2(j, k):
    # S(j, k) by S(j, k) = k S(j-1, k) + S(j-1, k-1)
    if j == k:
        return 1
    if k == 0 or k > j:
        return 0
    return k * oracle_stirling2(j - 1, k) + oracle_stirling2(j - 1, k - 1)


def oracle_pm_coefficients(m, q_z, q_order):
    # the Fraction definition of P_m's q-expansion at q_z: q^0 is
    # (-1)^m/(m-1)! sum_n n^(m-1) q_z^n, resummed by the Stirling form
    # sum_k k! S(m-1, k) q_z^k / (1 - q_z)^(k+1); q^N is the divisor sum
    # (-1)^m/(m-1)! sum_{n | N} n^(m-1) (q_z^n + (-1)^m q_z^-n)
    x = Fraction(q_z)
    pref = Fraction((-1) ** m, math.factorial(m - 1))
    head = sum(math.factorial(k) * oracle_stirling2(m - 1, k) * x**k / (1 - x) ** (k + 1)
               for k in range(m))
    if m == 1:
        head -= 1  # sum_{n >= 1} x^n omits the n = 0 term of x^0 / (1 - x)
    coeffs = [pref * head]
    for big_n in range(1, q_order):
        coeffs.append(pref * sum(n ** (m - 1) * (x**n + (-1) ** m * x ** (-n))
                                 for n in range(1, big_n + 1) if big_n % n == 0))
    return coeffs[:q_order]


exact_q_z = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
).filter(lambda x: x not in (0, 1))


class TestPmNumerators:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), exact_q_z, st.integers(0, 12))
    def test_equals_the_fraction_definition(self, m, q_z, q_order):
        nums, den = pm_numerators(m, q_z, q_order)
        assert type(den) is int and den > 0
        assert len(nums) == q_order and all(type(n) is int for n in nums)
        want = oracle_pm_coefficients(m, q_z, q_order)
        assert [Fraction(n, den) for n in nums] == want
        # pm_qseries is the same formula lowered: == and the same types
        series = pm_qseries(m, q_z, q_order)
        assert series.truncation == q_order
        assert series.coefficients == {k: c for k, c in enumerate(want) if c}
        assert all(type(c) is Fraction for c in series.coefficients.values())

    @pytest.mark.parametrize("q_z", [Fraction(-3, 2), Fraction(2, 5), Fraction(7, 3),
                                     Fraction(-1, 4), 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_summed_at_small_q_is_the_lambert_value(self, m, q_z):
        q = 0.001
        nums, den = pm_numerators(m, q_z, 12)
        got = sum(Fraction(n, den) * Fraction(q) ** k for k, n in enumerate(nums))
        want = pm_lambert(m, complex(q_z), q, terms=60)
        assert complex(got) == pytest.approx(want, rel=1e-9)

    def test_refusals(self):
        with pytest.raises(EllipticError, match="kernel order must be >= 1"):
            pm_numerators(0, Fraction(1, 2), 4)
        with pytest.raises(EllipticError, match="polylog pole at x = 1"):
            pm_numerators(2, Fraction(3, 3), 4)


class TestPolylogNeg:
    def test_geometric(self):
        assert polylog_neg(0, Fraction(1, 2)) == 1

    def test_weighted(self):
        # sum n x^n = x/(1-x)^2 at x = 1/3: (1/3)/(4/9) = 3/4
        assert polylog_neg(1, Fraction(1, 3)) == Fraction(3, 4)

    def test_against_partial_sums(self):
        x = 0.2
        for j in range(5):
            brute = sum(n**j * x**n for n in range(1, 200))
            assert complex(polylog_neg(j, x)).real == pytest.approx(brute, rel=1e-12)


def exact_f0_by_quotient_rule(n, m, z, w):
    """(1/m!) (d/dw)^m [w^n/(z-w)] evaluated exactly at rational z, w."""
    # represent N(w)/(z-w)^p with N as list of Fraction coeffs in w,
    # z a fixed rational
    num = [Fraction(0)] * n + [Fraction(1)]
    p = 1
    for _ in range(m):
        dnum = [num[i] * i for i in range(1, len(num))]
        # d/dw [N/(z-w)^p] = [N'(z-w) + pN] / (z-w)^{p+1}
        term1 = _poly_mul(dnum, [z, Fraction(-1)])
        term2 = [p * c for c in num]
        num = _poly_add(term1, term2)
        p += 1
    nv = sum(c * w**i for i, c in enumerate(num))
    return Fraction(1, math.factorial(m)) * nv / (z - w) ** p / z**n


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


class TestF0Kernel:
    def test_f0_10_closed_form(self):
        # f_{1,0}(z,w) = w/(z(z-w))
        k = f0_kernel(1, 0)
        z, w = Fraction(5), Fraction(2)
        assert k(z, w) == w / (z * (z - w))

    def test_f0_00(self):
        k = f0_kernel(0, 0)
        z, w = Fraction(3), Fraction(1)
        assert k(z, w) == 1 / (z - w)

    def test_against_symbolic_derivative_oracle(self):
        rng = random.Random(13)
        for n in range(0, 4):
            for m in range(0, 4):
                k = f0_kernel(n, m)
                for _ in range(4):
                    z = Fraction(rng.randint(3, 9), rng.randint(1, 3))
                    w = Fraction(rng.randint(1, 5), rng.randint(2, 4))
                    if z == w:
                        continue
                    assert k(z, w) == exact_f0_by_quotient_rule(n, m, z, w), (n, m)

    def test_numerator_denominator_pair(self):
        for n in range(0, 4):
            for m in range(0, 3):
                kern = f0_kernel(n, m)
                num, den = kern.numerator_denominator()
                z, w = Fraction(7), Fraction(3)
                assert bipoly_eval(num, z, w) / bipoly_eval(den, z, w) == kern(z, w)

    def test_pole_errors(self):
        k = f0_kernel(1, 1)
        with pytest.raises(EllipticError):
            k(Fraction(2), Fraction(2))


class TestF0Iota:
    def test_iota_of_f0_10_starts_at_w1(self):
        # expansion of w/(z^2 (1 - w/z)) = sum_{i>=0} w^{i+1} z^{-i-2};
        # the displayed j-sum form would add a spurious w^0 term, which
        # the rational function does not have
        terms = f0_iota(1, 0, 6)
        assert all(we >= 1 for _, we, _ in terms)
        lookup = {(ze, we): c for ze, we, c in terms}
        for i in range(5):
            assert lookup.get((-i - 2, i + 1)) == 1

    def test_iota_resums_to_kernel(self):
        # on |z| = 2, |w| = 1 the geometric tail is ~2^-order, so order 40
        # comfortably clears 1e-10
        rng = random.Random(21)
        for n in range(0, 3):
            for m in range(0, 3):
                k = f0_kernel(n, m)
                for _ in range(3):
                    az = 2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                    aw = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                    part = sum(
                        complex(c) * az**ze * aw**we
                        for ze, we, c in f0_iota(n, m, 48)
                    )
                    assert abs(part - complex(k(az, aw))) < 1e-10 * max(
                        1.0, abs(complex(k(az, aw)))
                    )

    def test_iota_coefficients_exact(self):
        terms = {(ze, we): c for ze, we, c in f0_iota(0, 0, 5)}
        # 1/(z-w) = sum w^i z^{-1-i}
        for i in range(5):
            assert terms[(-1 - i, i)] == 1
