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
computation exact: every pairing sum is a list of ring numerators (ints,
or Gaussian integers at an ExactComplex point) over a closed-form
denominator, a product over its fields, and each trace coefficient is
lowered once, after the product with Z(q), whose p(k) come from Euler's
pentagonal recurrence (:func:`~voachain.voa.partition_count`).
:func:`torus_trace_sum` sums weighted traces at one point set that way,
each weight a scalar or a q-series over one denominator (the genus-1 D2
kernels): the reduction's moved states and, through
:func:`sewn_trace_series`, the paired terms of a trace with handles sewn
on.  :func:`torus_trace` is its one-term case.
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
    _field_chars,
    _require_distinct,
    _Rows,
    _scaled_points,
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
                               for (state,), c in _expand_components([(zero_mode_state, 1)])]
        for states, coeff in _expand_components(insertions):
            fields = "".join(sorted("".join(_field_chars(s, i, ctx)
                                            for i, s in enumerate(states))))
            # the closed form holds the x^wt dressing, and whether an
            # ExactComplex point that carries fields enters it
            m, closed, dressing_gaussian = _closed_form(ctx, fields)
            for v_fields, c in zero_mode_terms:
                scale = c * coeff * weight
                # a term with no pairing is 0, of its scale's type
                gaussian = gaussian or dressing_gaussian or isinstance(scale, ExactComplex)
                nums = _zero_mode_sum(ctx, v_fields, fields, 0)
                if nums is None:
                    continue
                num, d = _split(scale)
                d = d * closed
                if series is not None:
                    gaussian = gaussian or series_gaussian
                    nums, d = _mul_add(None, series[0], nums, 1), d * series[1]
                num = num * m
                total, den = _accumulate((total, den), ([num * n for n in nums], d))
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
# and the index i of its insertion.  Fields at two points contract
# through the propagator: its q^0 term is the sphere contraction, its
# q^k term (k >= 1) the divisor sum
#   sum_{n | k} n [C(-n-1,d1) C(n-1,d2) xi^(-n-1-d1) xj^(n-1-d2)
#                  + C(n-1,d1) C(-n-1,d2) xi^(n-1-d1) xj^(-n-1-d2)],
# which for d1 = d2 = 0, times xi xj, is the q-expansion of P2 at xj/xi.
# Fields of one normally ordered state contract through the q^k >= 1
# part only, at xi = xj: the (1 - E2)/12-type constants.  Unlike on the
# sphere, two fields at one point do contract.
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
# One context per point tuple and q-order holds the tables shared by
# every trace at those points: the paired terms of a sewn torus, the
# reduction's moved states, each term of one torus_trace_sum.  Its
# recursion is the sphere engine's (voa.py): a field (i, d) is one
# character of the context's own alphabet, given when it is first met
# (voa._field_chars), a state is its fields' characters sorted, the
# first field contracts once per distinct partner, counted by the
# partner's multiplicity, the factor is read from the first field's row,
# and a sub-state is looked up in the memo, which starts with the empty
# state, before the recursion is entered.  The fields of v are strung as
# chr(d) and take the same rule, against each other and against the
# fields.
#
# The recursion divides nothing.  The context scales the points by Q, as
# the sphere engine does, to p_i = Q x_i: ints, or Gaussian integers
# (series._GaussInt) where a point is an ExactComplex.  Every term of a
# propagator is homogeneous of degree -2-d1-d2 in the points, and every
# power of xi it takes is in [-order-d1, order-2-d1], its q^0 pole being
# (xi - xj)^(-2-d1-d2); so the field factor
#   F(i, d) = p_i^(order+d) prod_{k != i} (p_i - p_k)^(d+1)
# clears every propagator of the field.  A state of fields of total
# weight W has the value Q^W N / prod F over its fields, and the memo
# holds N: a q-series of ring numerators with no denominator, one list
# per state.  A contraction multiplies the sub-state's N by one row
# entry, the propagator times the two fields' factors.  A v-field's
# propagator term x^e xj^(...) carries Q^e besides, and the kept
# pairings have sum e = 0, so the v-fields put nothing into the closed
# form.  None marks a sum with no pairing (an odd number of fields, or
# no way to close the powers of x).  A trace also carries the dressing
# prod x_i^(W_i) of its insertions, W_i the weight at point i; it is
# p_i^(W_i) / Q^(W_i), so it cancels Q^W and part of each F: the closed
# form of a state with c_i fields of weight W_i at point i is
# 1 / prod_i p_i^((order-1) c_i) prod_{k != i} (p_i - p_k)^(W_i), a
# Gaussian denominator inverted as conj(D) / |D|^2 (series._reciprocal).
# A weighted sum of traces multiplies each term's N by its state's
# closed form, adds the terms over positive int denominators (a q-series
# weight convolves, a scalar one scales), multiplies the sum by Z(q)
# once and lowers each coefficient once.  The context is keyed by the points and by which of them are
# ExactComplex, as the Wick context is: ExactComplex(5) and 5 compare and
# hash equal, but the one runs Gaussian integers and the other ints.  It
# holds plain dicts, and its rows hold the field list, the scaled points
# and the power tables, not the context, so an evicted context is freed
# at once.


class _TorusContext:
    """The tables shared by every Gaussian trace at one point tuple."""

    __slots__ = ("order", "partition", "scaled", "powers", "alphabet", "fields",
                 "contractions", "memo", "zero_mode_propagators", "zero_mode_memo",
                 "closed_forms")

    def __init__(self, points: tuple, order: int):
        self.order = order
        self.partition = [partition_count(k) for k in range(order)]
        self.scaled = _scaled_points(points)[1]
        self.powers: dict = {}  # point index -> (p^0, ..., p^(2 order - 2), cofactor)
        self.alphabet: dict = {}  # (point index, d) -> its character
        self.fields: list = []  # the (point index, d) of each character, by ord
        # first field -> partner -> factor
        self.contractions = _Rows(_propagator, (self.fields, self.scaled, order, self.powers))
        self.memo: dict = {"": [1] + [0] * (order - 1)}  # fields -> N
        self.zero_mode_propagators: dict = {}  # (d, field) -> {e: factor}
        self.zero_mode_memo: dict = {}  # (v fields, fields, e) -> N, or None
        self.closed_forms: dict = {}  # fields -> (ring multiplier, positive int, bool)


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


def _point_tables(powers: dict, scaled: tuple, order: int, i: int) -> tuple:
    """(p_i^0, ..., p_i^(2 order - 2), prod_{k != i} (p_i - p_k)) of the
    scaled point i, made when first read."""
    val = powers.get(i)
    if val is None:
        p = scaled[i]
        val = [1]
        for _ in range(2 * order - 2):
            val.append(val[-1] * p)
        cofactor = 1
        for k, other in enumerate(scaled):
            if k != i:
                cofactor = cofactor * (p - other)
        val = powers[i] = (*val, cofactor)
    return val


def _propagator(fields: list, scaled: tuple, order: int, powers: dict, first: str,
                partner: str) -> list:
    # The factor one contraction of two fields puts into N: the
    # propagator's q-coefficients at the scaled points times F of both
    # fields, in which its poles cancel.
    (i, d1), (j, d2) = fields[ord(first)], fields[ord(partner)]
    pi = _point_tables(powers, scaled, order, i)
    if i == j:
        # x^(-2-d1-d2) times the constants, and F F has p^(2 order + d1 + d2)
        factor = pi[2 * order - 2] * _int_power(pi[-1], d1 + d2 + 2)
        return [c * factor if c else 0 for c in _self_contraction(d1, d2, order)]
    pj = _point_tables(powers, scaled, order, j)
    # F F is (-1)^(d2+1) (p_i - p_j)^(d1+d2+2) p_i^(order+d1) p_j^(order+d2)
    # times the two fields' products over the other points
    others = ((-1) ** (d2 + 1) * _int_power(_cofactor(scaled, i, j), d1 + 1)
              * _int_power(_cofactor(scaled, j, i), d2 + 1))
    coeffs = [(-1) ** d1 * (d1 + d2 + 1) * math.comb(d1 + d2, d1) * others
              * _int_power(scaled[i], order + d1) * _int_power(scaled[j], order + d2)]
    coeffs += [0] * (order - 1)
    # the q^k terms: xi^(-n-1-d1) xj^(n-1-d2) times the two powers of F
    # is p_i^(order-n-1) p_j^(order+n-1), and so for the second sum
    for n, (a, b) in enumerate(_divisor_weights(d1, d2, order), 1):
        tn = n * (a * pi[order - n - 1] * pj[order + n - 1]
                  + b * pi[order + n - 1] * pj[order - n - 1])
        if tn:
            for k in range(n, order, n):
                coeffs[k] = coeffs[k] + tn
    pole = _int_power(scaled[i] - scaled[j], d1 + d2 + 2) * others
    return [coeffs[0]] + [c * pole if c else 0 for c in coeffs[1:]]


def _cofactor(scaled: tuple, i: int, j: int):
    """prod over the points k other than i and j of p_i - p_k."""
    out = 1
    for k, p in enumerate(scaled):
        if k != i and k != j:
            out = out * (scaled[i] - p)
    return out


def _zero_mode_propagator(ctx: _TorusContext, d1: int, field: str) -> dict:
    """The factors of a v-field d1 at the formal x contracted with
    ``field``, by the power x^e (0 < |e| < q-order) after the dressing:
    each term times F of the field."""
    key = (d1, field)
    val = ctx.zero_mode_propagators.get(key)
    if val is None:
        j, d2 = ctx.fields[ord(field)]
        order = ctx.order
        pj = _point_tables(ctx.powers, ctx.scaled, order, j)
        others = _int_power(pj[-1], d2 + 1)
        val = {}
        for n, (a, b) in enumerate(_divisor_weights(d1, d2, order), 1):
            # xj^(n-1-d2) and xj^(-n-1-d2) times p_j^(order+d2)
            if a:
                c = n * a * pj[order + n - 1] * others
                val[-n] = [c if k % n == 0 else 0 for k in range(order)]
            if b:
                c = n * b * pj[order - n - 1] * others
                val[n] = [c if k and k % n == 0 else 0 for k in range(order)]
        ctx.zero_mode_propagators[key] = val
    return val


def _closed_form(ctx: _TorusContext, fields: str) -> tuple:
    """(m, den, gaussian): den a positive int, with the state's value
    Q^W N / prod F times its dressing prod x_i^(W_i) equal to N m / den,
    and whether an ExactComplex point carries one of the fields.  The
    dressing is p_i^(W_i) / Q^(W_i), so Q cancels, and it cancels
    p_i^(W_i) of F: the closed form is
    1 / prod_i p_i^((order-1) c_i) prod_{k != i} (p_i - p_k)^(W_i) over
    the points i with c_i fields of total weight W_i."""
    val = ctx.closed_forms.get(fields)
    if val is None:
        exponents = {}
        for char in fields:
            i, d = ctx.fields[ord(char)]
            e = exponents.setdefault(i, [0, 0])
            e[0] += ctx.order - 1
            e[1] += d + 1
        product = 1
        for i, (e_point, e_cofactor) in exponents.items():
            tables = _point_tables(ctx.powers, ctx.scaled, ctx.order, i)
            product = product * _int_power(ctx.scaled[i], e_point) * _int_power(tables[-1],
                                                                                e_cofactor)
        val = ctx.closed_forms[fields] = (
            *_reciprocal(product), any(ctx.scaled[i].__class__ is _GaussInt for i in exponents))
    return val


def _mul_add(total, a: list, b: list, count: int) -> list:
    """total + count a b for q-series a, b truncated at their common
    length; a new list when total is None."""
    order = len(a)
    if total is None:
        total = [0] * order
    for i, ai in enumerate(a):
        if ai:
            if count != 1:
                ai = count * ai
            for j in range(order - i):
                bj = b[j]
                if bj:
                    total[i + j] = total[i + j] + ai * bj
    return total


def _accumulate(total, term: tuple) -> tuple:
    (sn, sd), (tn, td) = total, term
    if sd == td:
        return [s + t for s, t in zip(sn, tn)], sd
    g = math.gcd(sd, td)
    return [s * (td // g) + t * (sd // g) for s, t in zip(sn, tn)], sd // g * td


def _pairing_sum(fields: str, ctx: _TorusContext) -> list:
    # N of an even state not in the memo: the first field contracts with
    # each distinct partner, counted by its multiplicity (a copy of the
    # first field is a partner too); a sub-state is looked up before the
    # recursion is entered
    memo = ctx.memo
    row = ctx.contractions[fields[0]]
    rest = fields[1:]
    total = None
    for partner in dict.fromkeys(rest):
        sub = rest.replace(partner, "", 1)
        sn = memo.get(sub)
        if sn is None:
            sn = _pairing_sum(sub, ctx)
        total = _mul_add(total, row[partner], sn, rest.count(partner))
    memo[fields] = total
    return total


def _zero_mode_sum(ctx: _TorusContext, v_fields: str, fields: str, e: int):
    # N of the x^e coefficient of the pairing sum of the v-fields (chr(d)
    # each) and the fields, each v-field paired; None if it has no pairing
    if not v_fields:
        if e or len(fields) % 2:
            return None
        sn = ctx.memo.get(fields)
        return sn if sn is not None else _pairing_sum(fields, ctx)
    key = (v_fields, fields, e)
    memo = ctx.zero_mode_memo
    if key in memo:
        return memo[key]
    order = ctx.order
    d1, rest = ord(v_fields[0]), v_fields[1:]
    total = None
    for other in dict.fromkeys(rest):
        sub = _zero_mode_sum(ctx, rest.replace(other, "", 1), fields, e)
        if sub is not None:
            total = _mul_add(total, _self_contraction(d1, ord(other), order), sub,
                             rest.count(other))
    for field in dict.fromkeys(fields):
        others, count = fields.replace(field, "", 1), fields.count(field)
        for power, factor in _zero_mode_propagator(ctx, d1, field).items():
            if (abs(e - power) < order) if rest else power == e:
                sub = _zero_mode_sum(ctx, rest, others, e - power)
                if sub is not None:
                    total = _mul_add(total, factor, sub, count)
    memo[key] = total
    return total
