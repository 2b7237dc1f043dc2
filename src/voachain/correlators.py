"""Raw correlation-function evaluators shared by the sewing and
reduction layers.

Genus 0 is the exact sphere function between vacua, the one-pass sum
with no handle.  Genus 1 is the Gaussian form of the Heisenberg graded
trace (the thermal Wick theorem; Mason-Tuite, Torus chiral n-point
functions for free boson and lattice VOAs, CMP 2003):
Z(q) times a sum over pairings of exact q-series propagators, exact per
q-order because each propagator coefficient is an exact rational
function of the insertion coordinates.  Torus insertion points are given
in the exponentiated coordinate x = e^z, so exact points keep the whole
computation exact: every propagator and pairing sum is a list of ring
numerators (ints, or Gaussian integers at an ExactComplex point) over
one positive int denominator, and each trace coefficient is lowered
once, after the product with Z(q).  :func:`torus_trace_sum` sums
weighted traces at one point set that way, each weight a scalar or a
q-series over one denominator (the genus-1 D2 kernels): the reduction's
moved states and, through :func:`sewn_trace_series`, the paired terms
of a trace with handles sewn on.  :func:`torus_trace` is its one-term
case.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Sequence

from .series import (
    ExactComplex,
    Scalar,
    TruncatedSeries,
    _GaussInt,
    _int_power,
    _lower,
    _reciprocal,
    _split,
)
from .voa import (
    FockVector,
    _as_series,
    _comb_neg,
    _expand_components,
    _require_distinct,
    partition_count,
    sewn_sphere_series,
)

Insertion = tuple[FockVector, Scalar]


def sphere_value(insertions: Sequence[Insertion]) -> Scalar:
    """<1', Y(v1,z1)...Y(vn,zn) 1>, exact: the one-pass sphere sum
    :func:`~voachain.voa.sewn_sphere_series` with no handle."""
    return sewn_sphere_series([(1, insertions, ())])


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
    of Y(x^{L0}v, x) placed left of every insertion.  It is the one-term
    case of :func:`torus_trace_sum`.
    """
    return torus_trace_sum([(1, insertions, zero_mode_state)], q_order)


def torus_trace_sum(terms: Sequence[tuple], q_order: int) -> TruncatedSeries:
    """sum_t w_t Tr(o(v_t) Y(x1^{L0}v_t1,x1)...Y(xn^{L0}v_tn,xn) q^{L0})
    over terms (w_t, insertions_t, v_t) whose insertions sit at one point
    tuple, in the ring arithmetic of one trace.

    A weight is an exact scalar or a q-series given as ring numerators
    over a positive int denominator, as
    :func:`~voachain.elliptic.pm_numerators` gives the P_m kernels.  Every
    term reads the tables of one context, Z(q) multiplies the sum once
    and each coefficient is lowered once: an ExactComplex when an
    ExactComplex enters a term (a scalar weight, a coefficient, a point
    carrying fields, through its x^wt dressing, or a q-series weight of a
    term with a pairing), else a Fraction.  The terms must not be empty.
    """
    if q_order < 1:
        return TruncatedSeries("q", {}, q_order)
    points = [x for _, x in terms[0][1]]
    _require_distinct(points)
    if any(x == 0 for x in points):
        raise ValueError("torus points are x = e^z and cannot be 0")
    ctx = _torus_context(tuple(isinstance(x, ExactComplex) for x in points),
                         tuple(points), q_order)
    total, den, gaussian = [0] * q_order, 1, False
    for weight, insertions, zero_mode_state in terms:
        series = weight if isinstance(weight, tuple) else None
        if series is not None:
            # a q-series weight enters only the terms with a pairing
            weight, series_gaussian = 1, any(n.__class__ is _GaussInt for n in series[0])
        if zero_mode_state is None:
            zero_mode_terms = [("", 1)]
        else:
            zero_mode_terms = [("".join(sorted(chr(p - 1) for p in state.partition)), c)
                               for (state,), c in _expand_components([(zero_mode_state, 1)],
                                                                     dressed=False)]
        for states, coeff in _expand_components(insertions, dressed=True):
            fields = "".join(sorted(chr(p - 1) + chr(i) for i, s in enumerate(states)
                                    for p in s.partition))
            for v_fields, c in zero_mode_terms:
                scale = c * coeff * weight
                # a term with no pairing is 0, of its scale's type
                gaussian = gaussian or isinstance(scale, ExactComplex)
                pairing = _zero_mode_sum(ctx, v_fields, fields, 0)
                if pairing is None:
                    continue
                if series is not None:
                    gaussian = gaussian or series_gaussian
                    pairing = _mul(series, pairing)
                num, d = _split(scale)
                nums, d2 = pairing
                total, den = _accumulate((total, den), ([num * n for n in nums], d * d2))
    # times Z(q)
    coeffs = [0] * q_order
    for i, p in enumerate(ctx.partition):
        for j in range(q_order - i):
            if total[j]:
                coeffs[i + j] = coeffs[i + j] + p * total[j]
    return TruncatedSeries("q", {k: _lower(c, den, gaussian) for k, c in enumerate(coeffs) if c},
                           q_order)


def sewn_trace_series(pieces: Sequence[tuple], q_order: int) -> TruncatedSeries:
    """sum over pieces (w, insertions, handles, v) of w times the trace
    Tr(o(v) ...) with the handles sewn on, as the nested rho-series of its
    paired basis sums, outermost handle first, each coefficient a
    q-series.

    Each handle is (zeta1, zeta2, terms, variable), terms[k] the
    weight-k paired terms (c, bbar, b), as
    :func:`~voachain.voa.sewn_sphere_series` takes them; w is a weight
    of :func:`torus_trace_sum`.  The coefficient of rho_1^k1 ... rho_g^kg
    is one :func:`torus_trace_sum` over the terms of that multi-index of
    every piece, with weight w c_1 ... c_g.  Every piece has the points
    of the first, slot for slot; with no handles the sum is the weighted
    trace sum itself.
    """
    # each piece's handles by weight, with the pair as insertions
    levels = [[[[(c, (FockVector({bbar: 1}), zeta1), (FockVector({b: 1}), zeta2))
                 for c, bbar, b in terms_k] for terms_k in terms]
               for zeta1, zeta2, terms, _ in handles] for _, _, handles, _ in pieces]
    handles = pieces[0][2]
    values = {}
    for ks in product(*(range(len(terms)) for _, _, terms, _ in handles)):
        terms = []
        for (weight, insertions, _, v), piece in zip(pieces, levels):
            for picked in product(*(level[k] for level, k in zip(piece, ks))):
                w, term = weight, list(insertions)
                for c, pair1, pair2 in picked:
                    w = _weighed(w, c)
                    term += (pair1, pair2)
                terms.append((w, term, v))
        if not handles:
            return torus_trace_sum(terms, q_order)
        if not terms:
            continue
        series = torus_trace_sum(terms, q_order)
        if series.coefficients:
            level = values
            for k in ks[:-1]:
                level = level.setdefault(k, {})
            level[ks[-1]] = series
    return _as_series(values, [(variable, len(terms)) for _, _, terms, variable in handles])


def _weighed(weight, c):
    # a torus_trace_sum weight times a scalar c
    if isinstance(weight, tuple):
        num, den = _split(c)
        return [num * n for n in weight[0]], den * weight[1]
    return weight * c


# -- the Gaussian trace ------------------------------------------------
#
# A basis state a(-n1)...a(-nk)|0> at x is the normally ordered product
# of the fields d^(n-1)a/(n-1)! at x; a field is its derivative order d
# and the index i of its insertion, stored as chr(d) + chr(i).  Fields
# at two points contract through the propagator: its q^0 term is the
# sphere contraction, its q^k term (k >= 1) the divisor sum
#   sum_{n | k} n [C(-n-1,d1) C(n-1,d2) xi^(-n-1-d1) xj^(n-1-d2)
#                  + C(n-1,d1) C(-n-1,d2) xi^(n-1-d1) xj^(-n-1-d2)],
# which for d1 = d2 = 0, times xi xj, is the q-expansion of P2 at xj/xi.
# Fields of one normally ordered state contract through the q^k >= 1
# part only, at xi = xj: the (1 - E2)/12-type constants.
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
# One context per point tuple and q-order holds the propagators
# and the pairing sums over field multisets (fields sorted), shared by
# every trace at those points: the paired terms of a sewn torus, the
# reduction's moved states, each term of one torus_trace_sum.  None
# marks a sum with no pairing.  Every other sum is one q-series over one
# denominator: a list of q-order ring numerators (ints, or Gaussian
# integers series._GaussInt where a point is an ExactComplex) and a
# positive int denominator, built from integer powers of the points (the
# denominators are products of powers of the x_i and of x_i - x_j, and a
# Gaussian integer N is inverted as conj(N) / |N|^2, series._reciprocal).
# The context keeps each point's powers over one denominator, so a
# propagator sums its divisor-sum terms over one denominator too.
# Products convolve the numerators and multiply the denominators, sums
# add numerators over an equal denominator or cross-multiply, and each
# table entry is reduced by one gcd when it is stored, where Fraction
# arithmetic would take one per operation.  A weighted sum of traces
# adds its terms the same way (a q-series weight convolves, a scalar one
# scales), multiplies the sum by Z(q) once and lowers each coefficient
# once.  The context is keyed by the points and by which of them are
# ExactComplex, as the Wick context is: ExactComplex(5) and 5 compare and
# hash equal, but the one runs Gaussian integers and the other ints.


class _TorusContext:
    """The tables shared by every Gaussian trace at one point tuple."""

    __slots__ = ("points", "gaussian", "order", "partition", "powers", "propagators", "memo")

    def __init__(self, points: tuple, order: int):
        self.points = points
        self.gaussian = any(isinstance(x, ExactComplex) for x in points)
        self.order = order
        self.partition = [partition_count(k) for k in range(order)]
        self.powers: dict = {}  # (point index, d) -> the point's powers
        self.propagators: dict = {}  # two fields, or (d, field) -> {e: series}
        self.memo: dict = {}  # fields, or (v fields, fields, e) -> series or None


@lru_cache(maxsize=1)
def _torus_context(gaussian: tuple, points: tuple, order: int) -> _TorusContext:
    # gaussian[i]: whether point i is an ExactComplex
    return _TorusContext(points, order)


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
    # one gcd over the numerators' parts and the denominator
    if series is None:
        return None
    nums, den = series
    if not ctx.gaussian:
        g = math.gcd(den, *nums)
        return ([n // g for n in nums], den // g) if g > 1 else series
    g = math.gcd(den, *(x for n in nums
                        for x in ((n.re, n.im) if n.__class__ is _GaussInt else (n,))))
    if g == 1:
        return series
    return [_GaussInt(n.re // g, n.im // g) if n.__class__ is _GaussInt else n // g
            for n in nums], den // g


def _power_pair(x, k: int) -> tuple:
    """x^k for an exact nonzero scalar x, as (ring numerator, positive int
    denominator)."""
    num, den = _split(x)
    if k < 0:
        inverse, norm = _reciprocal(num)
        num, den, k = den * inverse, norm, -k
    return _int_power(num, k), den**k


def _point_powers(ctx: _TorusContext, i: int, d: int) -> tuple:
    """The powers x^e of point i that the propagators of its fields of
    derivative order d take, -order - d <= e <= order - 2 - d, over one
    denominator: (numerators with x^e at index e + order + d,
    denominator).  At x = N/b, with 1/N = r/n (an int n > 0, and r = +-1
    when N is an int), the denominator is n^(order+d) b^top with
    top = max(order - 2 - d, 0)."""
    key = (i, d)
    val = ctx.powers.get(key)
    if val is None:
        num, b = _split(ctx.points[i])
        inverse, n = _reciprocal(num)
        low, top = ctx.order + d, max(ctx.order - 2 - d, 0)
        val = [_int_power(num, e) * b ** (top - e) * n**low if e >= 0
               else _int_power(b * inverse, -e) * n ** (low + e) * b**top
               for e in range(-low, ctx.order - 1 - d)], n**low * b**top
        ctx.powers[key] = val
    return val


def _propagator(ctx: _TorusContext, pair: str) -> tuple:
    val = ctx.propagators.get(pair)
    if val is None:
        d1, i, d2, j = map(ord, pair)
        xi, xj = ctx.points[i], ctx.points[j]
        order = ctx.order
        if i == j:
            num, den = _power_pair(xi, -2 - d1 - d2)
            val = [num * c for c in _self_contraction(d1, d2, order)], den
        else:
            num, den = _power_pair(xi - xj, -2 - d1 - d2)
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
            # the q^0 term over den, the rest over di dj
            dij = di * dj
            val = [coeffs[0] * dij] + [c * den for c in coeffs[1:]], den * dij
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
