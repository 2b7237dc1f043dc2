"""Classical elliptic kernels: Eisenstein series, Weierstrass functions,
and the genus-zero rational kernels with their expansions.

Exact objects (Bernoulli numbers, Eisenstein q-series, the rational
kernels) use Fraction arithmetic; the genus-one kernel q-expansions at
an exact point are ring numerators (ints, or Gaussian integers) over
one positive int denominator.
Numeric evaluation at a modular point goes through a Lambert-type
resummation that converges geometrically for any argument off the
lattice, which is what makes quasi-periodicity checkable across
fundamental domains.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .series import (
    Scalar,
    TruncatedSeries,
    _FrozenRecord,
    _int_power,
    _reciprocal,
    _split,
    to_complex,
)


class EllipticError(ValueError):
    pass


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number from sum_{j<=k} C(k+1,j) B_j = 0, B_0 = 1."""
    if k < 0:
        raise EllipticError("Bernoulli index must be >= 0")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def divisor_sigma(n: int, power: int) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, q_order: int) -> TruncatedSeries:
    """E_k(q) = delta_{k even} (-B_k/k! + 2/(k-1)! sum sigma_{k-1}(n) q^n).

    Odd k >= 3 gives the zero series by the parity factor; k < 2 is
    rejected.
    """
    if k < 2:
        raise EllipticError("Eisenstein index must be >= 2")
    if k % 2 == 1:
        return TruncatedSeries.zero("q", q_order)
    coeffs: dict[int, Fraction] = {0: -bernoulli(k) / math.factorial(k)}
    pref = Fraction(2, math.factorial(k - 1))
    for n in range(1, q_order):
        coeffs[n] = pref * divisor_sigma(n, k - 1)
    return TruncatedSeries("q", coeffs, q_order)


class ModularPoint(_FrozenRecord):
    """Point tau in the upper half plane with its nome q = e^{2 pi i tau}."""

    __slots__ = ("tau", "q_order")

    def __init__(self, tau: complex, q_order: int = 40):
        if complex(tau).imag <= 0:
            raise EllipticError("tau must have positive imaginary part")
        self._set_fields(tau, q_order)

    @property
    def q(self) -> complex:
        return cmath.exp(2j * cmath.pi * complex(self.tau))


def eisenstein_value(k: int, mp: ModularPoint) -> complex:
    series = eisenstein(k, mp.q_order)
    return to_complex(series.evaluate(mp.q))


# -- Weierstrass P_k via the defining z-expansion ----------------------


def weierstrass_series(k: int, mp: ModularPoint, z_terms: int) -> TruncatedSeries:
    """Laurent coefficients in z of P_k(z,tau) = (-1)^{k-1}/(k-1)! d^{k-1} P_1.

    P_1(z,tau) = 1/z - sum_{j>=2} E_j(tau) z^{j-1}; valid for |z| smaller
    than the nearest lattice point.
    """
    if k < 1:
        raise EllipticError("Weierstrass index must be >= 1")
    coeffs: dict[int, complex] = {-1: 1.0}
    for j in range(2, z_terms + 2):
        if j % 2 == 1:
            continue
        coeffs[j - 1] = -eisenstein_value(j, mp)
    series = TruncatedSeries("z", coeffs, z_terms + 1, min_exponent=-1)
    for step in range(k - 1):
        series = series.differentiate() * Fraction(-1, step + 1)
    return series


def weierstrass_p(
    k: int, z: complex, mp: ModularPoint, z_terms: int = 40
) -> "EllipticValue":
    """Numeric P_k(z,tau) from the truncated z-series, with a tail proxy."""
    if z == 0:
        raise EllipticError("pole at z = 0")
    series = weierstrass_series(k, mp, z_terms)
    value = to_complex(series.evaluate(complex(z)))
    if not cmath.isfinite(value):
        raise EllipticError(f"P_{k} is not finite at |z| = {abs(z):.6g}: "
                            "its z-series diverges there")
    ratio = abs(z) / (2 * math.pi)
    tail = float("inf")
    if ratio < 1:
        # inside the disc |z| < 2 pi the last term's power stays finite
        top = max(series.coefficients)
        last = abs(to_complex(series.coefficients.get(top, 0))) * abs(z) ** top
        tail = last * ratio / (1 - ratio)
    return EllipticValue(value, tail)


class EllipticValue(_FrozenRecord):
    __slots__ = ("value", "tail_estimate")

    def __init__(self, value: complex, tail_estimate: float):
        self._set_fields(value, tail_estimate)

    def flagged(self, tol: float = 1e-9) -> bool:
        return not (self.tail_estimate < tol)


# -- genus-one reduction kernels P_m ----------------------------------
#
# P_m(z,tau) = (-1)^m/(m-1)! sum_{n != 0} n^{m-1} q_z^n / (1 - q^n).
# Grouping the n<0 half by 1/(1-q^-n) = -q^n/(1-q^n) and resumming each
# geometric family in closed form gives, with L_j(x) = sum n^j x^n:
# P_m = (-1)^m/(m-1)! [ L_{m-1}(q_z)
#        + sum_{j>=1} ( L_{m-1}(q_z q^j) + (-1)^m L_{m-1}(q^j / q_z) ) ],
# each L a rational function (Eulerian numerator over (1-x)^m).  The j
# tail decays like q^j, so this evaluates P_m anywhere off q^Z.


@lru_cache(maxsize=None)
def _eulerian_row(j: int) -> tuple[int, ...]:
    """The Eulerian numbers A(j, k), 0 <= k <= j, built up row by row
    from A(0, 0) = 1: A(i, k) = (k+1) A(i-1, k) + (i-k) A(i-1, k-1)."""
    row = (1,)
    for i in range(1, j + 1):
        row = tuple((k + 1) * (row[k] if k < i else 0) + (i - k) * (row[k - 1] if k else 0)
                    for k in range(i + 1))
    return row


def polylog_neg(j: int, x: Scalar) -> Scalar:
    """sum_{n>=1} n^j x^n as the closed rational form, exact for exact x."""
    if x == 1:
        raise EllipticError("polylog pole at x = 1")
    row = _eulerian_row(j)
    num = 0
    for k, a in enumerate(row):
        num = num + a * _int_power(x, k + 1)
    return num * _int_power(1 - x, -(j + 1))


def pm_numerators(m: int, q_z: Scalar, q_order: int) -> tuple[list, int]:
    """q-expansion of P_m(z,tau) at an exact q_z = e^z = a/b (an int, a
    Fraction, or an ExactComplex with a a Gaussian integer), as ring
    numerators over one positive int denominator.

    Coefficient of q^0 is the resummed rational function
    (-1)^m/(m-1)! sum_k A(m-1,k) q_z^(k+1) / (1 - q_z)^m, with A the
    Eulerian numbers; coefficient of q^N (N >= 1) is the finite divisor
    sum (-1)^m/(m-1)! sum_{n | N} n^{m-1} (q_z^n + (-1)^m q_z^{-n}).
    With T = q_order - 1 the sums are taken over D = (m-1)! (b - a)^m a^T
    b^T: q_z^(k+1) / (1 - q_z)^m is a^(k+1) b^(m-1-k) / (b - a)^m, and
    q_z^(+-n) is a^(T+-n) b^(T-+n) / (a b)^T for n <= T.  D is then made
    a positive int (series._reciprocal), which multiplies every numerator.
    """
    if m < 1:
        raise EllipticError("kernel order must be >= 1")
    if q_z == 1:
        raise EllipticError("polylog pole at x = 1")
    a, b = _split(q_z)
    top = max(q_order - 1, 0)
    a_pow, b_pow = [1], [1]
    for _ in range(2 * top + m):
        a_pow.append(a_pow[-1] * a)
        b_pow.append(b_pow[-1] * b)
    sign = (-1) ** m
    gap = _int_power(b - a, m)
    head = sum((c * a_pow[k + 1 + top] * b_pow[m - 1 - k + top]
                for k, c in enumerate(_eulerian_row(m - 1))), 0)
    nums = [sign * head] + [0] * top
    for n in range(1, top + 1):
        term = sign * n ** (m - 1) * gap * (
            a_pow[top + n] * b_pow[top - n] + sign * a_pow[top - n] * b_pow[top + n])
        for k in range(n, top + 1, n):
            nums[k] = nums[k] + term
    inverse, den = _reciprocal(math.factorial(m - 1) * gap * a_pow[top] * b_pow[top])
    return [c * inverse for c in nums[:q_order]], den


def pm_lambert(m: int, q_z: complex, q: complex, terms: int = 40) -> complex:
    """Resummed numeric P_m, convergent for q_z off the lattice q^Z."""
    if m < 1:
        raise EllipticError("kernel order must be >= 1")
    pref = Fraction((-1) ** m, math.factorial(m - 1))
    sign = (-1) ** m
    total = polylog_neg(m - 1, q_z)
    for j in range(1, terms + 1):
        total = total + polylog_neg(m - 1, q_z * q**j)
        total = total + sign * polylog_neg(m - 1, q**j / q_z)
    return complex(pref) * to_complex(total)


def pm_genus1(
    m: int, z: complex, mp: ModularPoint, terms: int = 40
) -> complex:
    """P_m(z,tau) by the defining double sum, resummed; z given directly.

    The defining sum converges on |q| < |q_z| < 1 and that region is
    enforced here; :func:`pm_lambert` is the analytic continuation used
    internally when an argument leaves the annulus.
    """
    q = mp.q
    q_z = cmath.exp(complex(z))
    if not (abs(q) < abs(q_z) < 1):
        raise EllipticError(
            f"|q_z| = {abs(q_z):.6g} outside the convergence annulus "
            f"({abs(q):.6g}, 1)"
        )
    try:
        value = pm_lambert(m, q_z, q, terms)
    except OverflowError:  # an Eulerian numerator past the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise EllipticError(f"P_{m} is not finite in floats at |z| = {abs(complex(z)):.6g}")
    return value


# -- genus-zero rational kernels f^(0)_{n,m} ---------------------------
#
# f_{n,m}(z,w) = z^-n/m! (d/dw)^m [ w^n/(z-w) ]
#             = (z-w)^{-m-1} - sum_{j=m}^{n-1} C(j,m) w^{j-m} z^{-1-j},
# by splitting w^n/(z-w) = z^n/(z-w) - sum_{j<n} w^j z^{n-1-j}.


class RationalKernel(_FrozenRecord):
    """f^(0)_{n,m} with exact numerator/denominator polynomial pair."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __call__(self, z: Scalar, w: Scalar) -> Scalar:
        if z == w:
            raise EllipticError("kernel pole at z = w")
        if z == 0:
            raise EllipticError("kernel pole at z = 0")
        val = _int_power(z - w, -(self.m + 1))
        for j in range(self.m, self.n):
            val = val - math.comb(j, self.m) * _int_power(w, j - self.m) * _int_power(
                z, -(1 + j)
            )
        return val

    def numerator_denominator(self) -> tuple[dict, dict]:
        """Bivariate dicts {(z_exp, w_exp): coeff} with
        f = numerator / denominator and denominator = z^n (z-w)^{m+1}."""
        den = _bipoly_mul({(self.n, 0): 1}, _bipoly_pow({(1, 0): 1, (0, 1): -1}, self.m + 1))
        num = {(self.n, 0): Fraction(1)}
        poly_part: dict = {}
        for j in range(self.m, self.n):
            _bipoly_add_into(
                poly_part, {(self.n - 1 - j, j - self.m): Fraction(math.comb(j, self.m))}
            )
        correction = _bipoly_mul(poly_part, _bipoly_pow({(1, 0): 1, (0, 1): -1}, self.m + 1))
        num = dict(num)
        _bipoly_add_into(num, {k: -v for k, v in correction.items()})
        return num, den


def f0_kernel(n: int, m: int) -> RationalKernel:
    if n < 0 or m < 0:
        raise EllipticError("kernel indices must be >= 0")
    return RationalKernel(n, m)


def f0_iota(n: int, m: int, order: int) -> list[tuple[int, int, Fraction]]:
    """Coefficients of the |z| > |w| expansion of f^(0)_{n,m}.

    Produced by expanding the rational function itself:
    (z-w)^{-m-1} = sum_i C(m+i, i) w^i z^{-m-1-i}, then subtracting the
    finite polynomial part.  Returned as (z_exp, w_exp, coeff) triples
    with w_exp < order.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    for i in range(order):
        terms[(-m - 1 - i, i)] = Fraction(math.comb(m + i, i))
    for j in range(m, n):
        key = (-1 - j, j - m)
        terms[key] = terms.get(key, Fraction(0)) - math.comb(j, m)
    return [(ze, we, c) for (ze, we), c in sorted(terms.items(), reverse=True) if c]


def _bipoly_add_into(acc: dict, other: dict):
    for k, v in other.items():
        acc[k] = acc.get(k, 0) + v
        if acc[k] == 0:
            del acc[k]


def _bipoly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _bipoly_pow(a: dict, k: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(k):
        out = _bipoly_mul(out, a)
    return out
