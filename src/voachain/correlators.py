"""Raw correlation-function evaluators shared by the sewing and
reduction layers.

Genus 0 is the exact sphere engine.  Genus 1 is the Gaussian form of the
Heisenberg graded trace (the thermal Wick theorem; Mason-Tuite, Torus
chiral n-point functions for free boson and lattice VOAs, CMP 2003):
Z(q) times a sum over pairings of exact q-series propagators, exact per
q-order because each propagator coefficient is an exact rational
function of the insertion coordinates.  Torus insertion points are given
in the exponentiated coordinate x = e^z, so rational points keep the
whole computation in rational arithmetic: there every propagator and
pairing sum is a list of integer numerators over one integer
denominator, and each trace coefficient is lowered to a Fraction once,
after the product with Z(q).  The brute-force trace over
the Fock basis, :func:`torus_qseries`, stays as the oracle the tests
compare the Gaussian form with.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .series import Scalar, TruncatedSeries, _int_power
from .voa import (
    VACUUM,
    FockState,
    FockVector,
    _chars,
    _comb_neg,
    _expand_components,
    _power_pair,
    _require_distinct,
    partition_count,
    sphere_matrix_element,
    weight_basis,
)

Insertion = tuple[FockVector, Scalar]


def sphere_value(
    insertions: Sequence[Insertion],
    u_out: FockState = VACUUM,
    u_in: FockState = VACUUM,
    dressed: bool = False,
) -> Scalar:
    """<u_out', Y(v1,z1)...Y(vn,zn) u_in>, exact.

    With ``dressed`` each insertion is Y(x^{L0} v, x), contributing
    x^{wt} per homogeneous component.
    """
    points = [z for _, z in insertions]
    _require_distinct(points)
    total = 0
    for states, coeff in _expand_components(insertions, dressed):
        val = sphere_matrix_element(u_out, list(zip(states, points)), u_in)
        total = total + coeff * val
    return total


def torus_trace(
    insertions: Sequence[Insertion],
    q_order: int,
    zero_mode_state: FockVector | None = None,
) -> TruncatedSeries:
    """Tr(o(v) Y(x1^{L0}v1,x1)...Y(xn^{L0}vn,xn) q^{L0}) in Gaussian form,
    exact per q-order; o(v) is left out when v is None.

    Without the q^{-c/24} prefactor, which the caller tracks
    symbolically.  By the thermal Wick theorem the trace is Z(q) = sum
    p(k) q^k times the sum over pairings of the fields of all
    insertions of products of propagators; o(v) is the x^0 coefficient
    of Y(x^{L0}v, x) placed left of every insertion.  Equal to
    :func:`torus_qseries` with ``left_operator=zero_mode(v)``, which
    sums the same trace over the Fock basis.
    """
    if q_order < 1:
        return TruncatedSeries("q", {}, q_order)
    _require_distinct([x for _, x in insertions])
    if any(x == 0 for _, x in insertions):
        raise ValueError("torus points are x = e^z and cannot be 0")
    ctx = _torus_context(tuple((type(x), x) for _, x in insertions), q_order)
    if zero_mode_state is None:
        zero_mode_terms = [("", 1)]
    else:
        zero_mode_terms = [(_chars(sorted(p - 1 for p in s.partition)), c)
                           for s, c in zero_mode_state.terms.items()]
    # with exact points and rational coefficients every term is an
    # integer pair and the trace one list over one denominator; else the
    # terms are scalars, summed from Fraction(0) so that rational ones
    # come out as Fractions, as the basis sum's do
    rational = (int, Fraction)
    exact = (ctx.exact and all(isinstance(c, rational) for _, c in zero_mode_terms)
             and all(isinstance(c, rational) for v, _ in insertions for c in v.terms.values()))
    zero = [0] * q_order
    total, den = (zero if exact else [Fraction(0)] * q_order), 1
    for states, coeff in _expand_components(insertions, dressed=True):
        fields = "".join(sorted(chr(p - 1) + chr(i) for i, s in enumerate(states)
                                for p in s.partition))
        for v_fields, c in zero_mode_terms:
            # no pairing gives the zero a basis-state sum would give
            nums, d = _zero_mode_sum(ctx, v_fields, fields, 0) or (zero, 1)
            factor = c * coeff
            if exact:
                total, den = _accumulate(
                    (total, den), ([factor.numerator * n for n in nums], factor.denominator * d))
            else:
                values = [Fraction(n, d) for n in nums] if ctx.exact else nums
                total = [t + factor * s for t, s in zip(total, values)]
    # times Z(q), zero terms included: like the basis sum's, they carry
    # the scalar type of the point arithmetic
    coeffs = [0] * q_order
    for i, p in enumerate(ctx.partition):
        for j in range(q_order - i):
            coeffs[i + j] = coeffs[i + j] + p * total[j]
    if exact:
        coeffs = [Fraction(c, den) for c in coeffs]
    return TruncatedSeries("q", dict(enumerate(coeffs)), q_order)


# -- the Gaussian trace ------------------------------------------------
#
# A basis state a(-n1)...a(-nk)|0> at x is the normally ordered product
# of the fields d^(n-1)a/(n-1)! at x; a field is its derivative order d
# and the index i of its insertion, stored as chr(d) + chr(i).  Fields
# at two points contract through the propagator: its q^0 term is the
# sphere contraction, its q^k term (k >= 1) the divisor sum
#   sum_{n | k} n [C(-n-1,d1) C(n-1,d2) xi^(-n-1-d1) xj^(n-1-d2)
#                  + C(n-1,d1) C(-n-1,d2) xi^(n-1-d1) xj^(-n-1-d2)],
# which for d1 = d2 = 0, times xi xj, is the q-expansion of P2 at xj/xi
# (elliptic.pm_qseries).  Fields of one normally ordered state contract
# through the q^k >= 1 part only, at xi = xj: the (1 - E2)/12-type
# constants.
#
# The fields of v in o(v) sit at a formal x, left of every insertion.
# After the x^(wt v) dressing each term of a v-field's propagator to a
# field at xj carries a power x^e: e = -n for the q^0 part expanded at
# |x| > |xj| and for the first divisor sum, which together give
# n C(-n-1,d1) C(n-1,d2) xj^(n-1-d2) / (1 - q^n); e = +n for the second
# divisor sum, n C(n-1,d1) C(-n-1,d2) xj^(-n-1-d2) q^n / (1 - q^n); and
# e = 0 for a contraction of two fields of v.  o(v) keeps the pairings
# with sum e = 0.  Every positive e comes with at least q^e, so the
# positive powers add up to less than the q-order, and so does the
# magnitude of every partial sum: the sum is finite.
#
# One context per typed point tuple and q-order holds the propagators
# and the pairing sums over field multisets (fields sorted), shared by
# every trace at those points: the paired terms of a sewn torus, the
# reduction's re-evaluations with moved states.  None marks a sum with
# no pairing.  Every other sum is one q-series over one denominator: a
# list of q-order numerators and the denominator.  When every point is
# an int or a Fraction the numerators are ints and the denominator is a
# positive int, built from integer powers of the points (the
# denominators are products of powers of the x_i and of x_i - x_j).  The
# context keeps each point's powers over one denominator, so a
# propagator sums its divisor-sum terms over one denominator too.
# Products convolve the numerators and multiply the denominators, sums
# add numerators over an equal denominator or cross-multiply, and each
# table entry is reduced by one gcd when it is stored, where Fraction
# arithmetic would take one per operation; torus_trace lowers each
# trace coefficient to a Fraction once.  At any other points the
# denominator is 1 and the numerators are the scalars themselves, so the
# same code does the arithmetic of the points in the same order on the
# same values.


class _TorusContext:
    """The tables shared by every Gaussian trace at one point tuple."""

    __slots__ = ("points", "exact", "order", "partition", "powers", "propagators", "memo")

    def __init__(self, points: tuple, order: int):
        self.points = points
        self.exact = all(isinstance(x, (int, Fraction)) for x in points)
        self.order = order
        self.partition = [partition_count(k) for k in range(order)]
        self.powers: dict = {}  # (point index, d) -> the point's powers
        self.propagators: dict = {}  # two fields, or (d, field) -> {e: series}
        self.memo: dict = {}  # fields, or (v fields, fields, e) -> series or None


@lru_cache(maxsize=1)
def _torus_context(typed_points: tuple, order: int) -> _TorusContext:
    return _TorusContext(tuple(x for _, x in typed_points), order)


@lru_cache(maxsize=None)
def _divisor_weights(d1: int, d2: int, order: int) -> tuple[tuple[int, int], ...]:
    """The binomials (C(-n-1,d1) C(n-1,d2), C(n-1,d1) C(-n-1,d2)) of the
    two divisor sums of a propagator, for 1 <= n < order."""
    return tuple((_comb_neg(-n - 1, d1) * _comb_neg(n - 1, d2),
                  _comb_neg(n - 1, d1) * _comb_neg(-n - 1, d2)) for n in range(1, order))


@lru_cache(maxsize=None)
def _self_contraction(d1: int, d2: int, order: int) -> tuple[int, ...]:
    """q-coefficients of the contraction of two fields of one normally
    ordered state at x, without its factor x^(-2-d1-d2)."""
    out = [0] * order
    for n, (a, b) in enumerate(_divisor_weights(d1, d2, order), 1):
        t = n * (a + b)
        for k in range(n, order, n):
            out[k] += t
    return tuple(out)


def _reduced(ctx: _TorusContext, series):
    # one gcd over the numerators and the denominator, at exact points
    if ctx.exact and series is not None:
        nums, den = series
        g = math.gcd(den, *nums)
        if g > 1:
            return [n // g for n in nums], den // g
    return series


def _point_powers(ctx: _TorusContext, i: int, d: int) -> tuple:
    """The powers x^e of point i that the propagators of its fields of
    derivative order d take, -order - d <= e <= order - 2 - d, over one
    denominator: (numerators with x^e at index e + order + d,
    denominator).  At an exact point x = a/b the denominator is
    a^(order+d) b^top, made positive, with top = max(order - 2 - d, 0);
    at any other point it is 1 and the numerators are the powers."""
    key = (i, d)
    val = ctx.powers.get(key)
    if val is None:
        x, low = ctx.points[i], ctx.order + d
        exponents = range(-low, ctx.order - 1 - d)
        if ctx.exact:
            a, b = x.numerator, x.denominator
            top = max(ctx.order - 2 - d, 0)
            sign = -1 if a < 0 and low % 2 else 1
            den = sign * a**low * b**top
            val = [sign * a ** (low + e) * b ** (top - e) for e in exponents], den
        else:
            val = [_int_power(x, e) for e in exponents], 1
        ctx.powers[key] = val
    return val


def _propagator(ctx: _TorusContext, pair: str) -> tuple:
    val = ctx.propagators.get(pair)
    if val is None:
        d1, i, d2, j = map(ord, pair)
        xi, xj = ctx.points[i], ctx.points[j]
        order = ctx.order
        if i == j:
            num, den = _power_pair(ctx.exact, xi, -2 - d1 - d2)
            val = [num * c for c in _self_contraction(d1, d2, order)], den
        else:
            num, den = _power_pair(ctx.exact, xi - xj, -2 - d1 - d2)
            coeffs = [0] * order
            coeffs[0] = (-1) ** d1 * (d1 + d2 + 1) * math.comb(d1 + d2, d1) * num
            # the q^k terms over the one denominator of the two power
            # tables: xi^(-n-1-d1) is at index order - n - 1 of its
            # table, xi^(n-1-d1) at order + n - 1, and so for xj
            pi, di = _point_powers(ctx, i, d1)
            pj, dj = _point_powers(ctx, j, d2)
            for n, (a, b) in enumerate(_divisor_weights(d1, d2, order), 1):
                tn = (a * pi[order - n - 1] * pj[order + n - 1]
                      + b * pi[order + n - 1] * pj[order - n - 1])
                for k in range(n, order, n):
                    coeffs[k] = coeffs[k] + n * tn
            if ctx.exact:
                # the q^0 term over den, the rest over di dj
                dij = di * dj
                val = [coeffs[0] * dij] + [c * den for c in coeffs[1:]], den * dij
            else:
                val = coeffs, 1
        val = ctx.propagators[pair] = _reduced(ctx, val)
    return val


def _zero_mode_propagator(ctx: _TorusContext, d1: int, field: str) -> dict:
    """The propagator of a v-field d1 at the formal x to ``field``, by
    its power x^e (0 < |e| < q-order) after the dressing."""
    key = (d1, field)
    val = ctx.propagators.get(key)
    if val is None:
        d2, j = map(ord, field)
        pj, den = _point_powers(ctx, j, d2)
        order = ctx.order
        val = {}
        for n, (a, b) in enumerate(_divisor_weights(d1, d2, order), 1):
            # xj^(n-1-d2) and xj^(-n-1-d2), as _propagator reads them
            if a:
                c = n * a * pj[order + n - 1]
                val[-n] = _reduced(ctx, ([c if k % n == 0 else 0 for k in range(order)], den))
            if b:
                c = n * b * pj[order - n - 1]
                val[n] = _reduced(ctx, ([c if k and k % n == 0 else 0 for k in range(order)], den))
        ctx.propagators[key] = val
    return val


def _mul(a: tuple, b: tuple) -> tuple:
    """Product of two q-series truncated at their common length."""
    (an, ad), (bn, bd) = a, b
    order = len(an)
    out = [0] * order
    for i, ai in enumerate(an):
        if ai:
            for j in range(order - i):
                bj = bn[j]
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out, ad * bd


def _accumulate(total, term: tuple) -> tuple:
    if total is None:
        return term
    (sn, sd), (tn, td) = total, term
    if sd == td:
        return [s + t for s, t in zip(sn, tn)], sd
    g = math.gcd(sd, td)
    return [s * (td // g) + t * (sd // g) for s, t in zip(sn, tn)], sd // g * td


def _pairing_sum(ctx: _TorusContext, fields: str):
    # sum over the pairings of the fields of the product of propagators
    if fields in ctx.memo:
        return ctx.memo[fields]
    if not fields:
        val = [1] + [0] * (ctx.order - 1), 1
    elif len(fields) % 4:
        val = None
    else:
        first, rest = fields[:2], fields[2:]
        val = None
        for idx in range(0, len(rest), 2):
            sub = _pairing_sum(ctx, rest[:idx] + rest[idx + 2:])
            if sub is not None:
                val = _accumulate(val, _mul(_propagator(ctx, first + rest[idx:idx + 2]), sub))
        val = _reduced(ctx, val)
    ctx.memo[fields] = val
    return val


def _zero_mode_sum(ctx: _TorusContext, v_fields: str, fields: str, e: int):
    # the x^e coefficient of the pairing sum of the v-fields (one char,
    # the derivative order, each) and the fields, each v-field paired
    if not v_fields:
        return _pairing_sum(ctx, fields) if e == 0 else None
    key = (v_fields, fields, e)
    if key in ctx.memo:
        return ctx.memo[key]
    d1, rest = ord(v_fields[0]), v_fields[1:]
    val = None
    for idx, other in enumerate(rest):
        sub = _zero_mode_sum(ctx, rest[:idx] + rest[idx + 1:], fields, e)
        if sub is not None:
            val = _accumulate(val, _mul((_self_contraction(d1, ord(other), ctx.order), 1), sub))
    for idx in range(0, len(fields), 2):
        others = fields[:idx] + fields[idx + 2:]
        for power, series in _zero_mode_propagator(ctx, d1, fields[idx:idx + 2]).items():
            if (abs(e - power) < ctx.order) if rest else power == e:
                sub = _zero_mode_sum(ctx, rest, others, e - power)
                if sub is not None:
                    val = _accumulate(val, _mul(series, sub))
    val = ctx.memo[key] = _reduced(ctx, val)
    return val


def torus_qseries(
    insertions: Sequence[Insertion],
    q_order: int,
    left_operator: Callable[[FockVector], FockVector] | None = None,
) -> TruncatedSeries:
    """Brute-force graded trace over the Fock basis, exact per q-order:
    the oracle of :func:`torus_trace`.

    Tr(op . Y(x1^{L0}v1,x1)...Y(xn^{L0}vn,xn) q^{L0}) without the
    q^{-c/24} prefactor, which the caller tracks symbolically.  The q^k
    coefficient sums diagonal sphere elements over the weight-k basis;
    an optional grade-preserving operator is inserted on the left.
    """
    coeffs: dict[int, Scalar] = {}
    for k in range(q_order):
        basis = weight_basis(k)
        if left_operator is not None:
            # op(B) once per bridge B; its A-component is <A', op B>
            images = [left_operator(FockVector({bridge: 1})) for bridge in basis]
        acc = 0
        for state in basis:
            if left_operator is None:
                val = sphere_value(insertions, state, state, dressed=True)
            else:
                # <A', op X A> = sum_B <A', op B> <B', X A> over the
                # same-weight bridge basis (op is grade-preserving)
                val = 0
                for bridge, image in zip(basis, images):
                    c_ab = image.coefficient(state)
                    if c_ab == 0:
                        continue
                    val = val + c_ab * sphere_value(
                        insertions, bridge, state, dressed=True
                    )
            acc = acc + val
        coeffs[k] = acc
    return TruncatedSeries("q", coeffs, q_order)


def partition_qseries(q_order: int) -> TruncatedSeries:
    """Graded dimension series sum p(k) q^k (no prefactor)."""
    return torus_trace([], q_order)
