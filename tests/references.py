"""Reference computations the tests compare the package against.

The per-term route sums a sewn surface one paired term at a time: the
sphere function, the graded trace, or the reduction terms of either, at
every paired term's points (:func:`genus_g_sum`), all the terms of one
coefficient in one :func:`typed_sum`; D^n's terms are D1's and D2's
together (:func:`reduce_dn`).  :func:`sewn_series` sums one handle.  The
package sums each of these in one pass
(``correlators.sewn_sphere_series``,
``correlators.sewn_trace_series``); the tests compare the two with
``_assert_identical``, equal values of equal types.  The pairing the
sums take has its dense forms here too: :func:`dense_gram_inverse`, the
blocks of ``schottky._gram_inverse`` as one matrix, and
:func:`dense_pairing_terms`, the paired terms by a scan of every entry.

The brute-force graded trace over the Fock basis, :func:`torus_qseries`,
is the oracle of the package's Gaussian trace: a sum of matrix elements
between basis states, each a memoised sum over the matchings of the
boundary modes and the fields, computed with nothing from the package's
Wick engine.

Beside them sit the helpers that only tests use: the graded dimension
series, the P_m kernels as q-series and as the defining double sum, the
evaluation of the rational kernels' polynomial pairs, the JSON round
trip of a series, and the float deviation of two values.
"""

import cmath
import json
import math
import os
from fractions import Fraction
from itertools import product
from pathlib import Path

from voachain.complexes import (
    Sphere,
    Trace,
    _ratio,
    _vacuum_elements,
    corr_difference,
)
from voachain.correlators import sphere_value, torus_trace
from voachain.elliptic import EllipticError, f0_kernel, pm_numerators, polylog_neg
from voachain.schottky import _gram_inverse, _sewn_handle, handle_pairing
from voachain.series import ExactComplex, Scalar, TruncatedSeries, _int_power
from voachain.voa import FockVector, apply_state_mode, square_bracket_mode, weight_basis

# -- the per-term route -------------------------------------------------


def _typed(value):
    """The value with the type and repr of every coefficient: equal
    only if the types agree."""
    if isinstance(value, TruncatedSeries):
        return (value.variable, value.truncation, value.min_exponent,
                sorted((e, _typed(c)) for e, c in value.coefficients.items()))
    return type(value).__name__, repr(value)


def _assert_identical(got, want):
    # equal values of equal types, coefficient by coefficient
    assert got == want
    assert _typed(got) == _typed(want)


def typed_sum(values):
    """One sum of the values of a per-term route, all scalars or all series
    of one shape, typed as the package's sums are, in any order of the
    values: a scalar sum is an ExactComplex when one of its terms is, and
    a series coefficient is the typed sum of the values' own coefficients
    there, so a value whose own coefficient is 0 types nothing.  The
    coefficients are summed apart: a running total of series would drop a
    coefficient that cancels to 0 part way, and a later term would retype
    it."""
    if not isinstance(values[0], TruncatedSeries):
        total = 0
        for value in values:
            total = total + value
        return total
    exponents = sorted({e for value in values for e in value.coefficients})
    return TruncatedSeries(values[0].variable, {
        e: typed_sum([value.coefficients[e] for value in values if e in value.coefficients])
        for e in exponents}, min(value.truncation for value in values))


def sewn_series(handle, evaluate) -> TruncatedSeries:
    """One sewn handle (a ``schottky._sewn_handle`` tuple): the rho^k
    coefficient is the typed sum of c * evaluate(pairs) over the weight-k
    paired terms, with pairs = [(bbar, zeta1), (b, zeta2)] as vectors."""
    zeta1, zeta2, terms, variable = handle
    return TruncatedSeries(variable, {k: typed_sum([
        evaluate([(FockVector({bbar: 1}), zeta1), (FockVector({b: 1}), zeta2)]) * c
        for c, bbar, b in terms_k]) for k, terms_k in enumerate(terms)}, len(terms))


def genus_g_sum(handles, insertions, terms):
    """Nested rho-series of the basis sums of the handles (zeta1, zeta2,
    rho_order, variable), outermost first.  The coefficient of
    rho_1^k1 ... rho_g^kg is one :func:`typed_sum` over the paired terms
    of that multi-index, c_1 ... c_g times each value of ``terms(points)``
    at the points [*insertions, *pairs of handles[0], ...]: the per-term
    values (the sphere function, the graded trace or the reduction terms
    of either).  With no handles it is the typed sum of
    ``terms(insertions)``, and the empty series of truncation 0 when a
    handle is summed to order 0."""
    if any(rho_order == 0 for _, _, rho_order, _ in handles):
        return TruncatedSeries.zero(handles[0][3], 0)
    if not handles:
        return typed_sum(terms(list(insertions)))
    sewn = [_sewn_handle(*h) for h in handles]
    by_index = {}
    for picked in product(*([(k, c, (FockVector({bbar: 1}), zeta1), (FockVector({b: 1}), zeta2))
                             for k, terms_k in enumerate(paired) for c, bbar, b in terms_k]
                            for zeta1, zeta2, paired, _ in sewn)):
        ks, weight, points = (), 1, list(insertions)
        for k, c, pair1, pair2 in picked:
            ks, weight, points = (*ks, k), weight * c, [*points, pair1, pair2]
        by_index.setdefault(ks, []).extend(value * weight for value in terms(points))

    def nested(ks):
        _, _, paired, variable = sewn[len(ks)]
        inner = nested if len(ks) + 1 < len(sewn) else lambda key: typed_sum(by_index[key])
        return TruncatedSeries(variable, {k: inner((*ks, k)) for k in range(len(paired))},
                               len(paired))

    return nested(())


def sphere_terms(points):
    """The sphere function at the points, as :func:`genus_g_sum`'s one
    term of a paired term."""
    return [sphere_value(points)]


def dense_gram_inverse(k):
    """G_k^-1 as a dense p(k) x p(k) matrix of Fractions: the rows of each
    block of ``schottky._gram_inverse`` over its determinant, at the
    block's basis indices, and 0 off the blocks."""
    n = len(weight_basis(k))
    dense = [[Fraction(0)] * n for _ in range(n)]
    for block, rows, det in _gram_inverse(k):
        for i, row in zip(block, rows):
            for j, x in zip(block, row):
                dense[i][j] = Fraction(x, det)
    return dense


def dense_pairing_terms(zeta1, zeta2, k):
    """The weight-k paired terms (c, bbar, b) by a scan of the whole
    ``handle_pairing`` matrix hinv: c = hinv[j][i] for bbar the i-th and
    b the j-th basis state, every nonzero one, by i and then j."""
    basis, hinv = handle_pairing(zeta1, zeta2, k)
    return [(hinv[j][i], bi, bj) for i, bi in enumerate(basis) for j, bj in enumerate(basis)
            if hinv[j][i] != 0]


def _value(surface, points):
    # the sphere function or the trace at the points, with no handle
    if isinstance(surface, Sphere):
        return sphere_value(points)
    return torus_trace(points, surface.q_order)


def evaluate(surface, entries):
    """The value's data on the surface, summed per paired term."""
    return genus_g_sum(surface.handles, entries, lambda points: [_value(surface, points)])


def _moves(surface, v, z_new, entries, slots):
    # (k, kernel, v(m) x_k) as the reduction takes them: the rational
    # kernel f0 on the sphere, the q-series P_{m+1} on the trace, for
    # every mode m that does not take x_k below weight 0
    for wt, comp in v.homogeneous_components().items():
        for k in slots:
            state_k, z_k = entries[k]
            for m in range(0, wt + max((s.weight for s in state_k.terms), default=0) + 1):
                if isinstance(surface, Sphere):
                    moved = apply_state_mode(comp, m, state_k)
                    kernel = f0_kernel(wt, m)(z_new, z_k)
                else:
                    moved = square_bracket_mode(comp, m)(state_k)
                    kernel = pm_qseries(m + 1, _ratio(z_new, z_k), surface.q_order)
                if not moved.is_zero():
                    yield k, kernel, moved


def _moved_terms(surface, points, moves):
    # kernel * F(points with the moved state at slot k), one term per move
    return [weight * _value(surface, (*points[:k], (moved, points[k][1]), *points[k + 1:]))
            for k, weight, moved in moves]


def _zero_mode_term(surface, points, v, z):
    if isinstance(surface, Trace):
        return torus_trace(points, surface.q_order, zero_mode_state=v)
    op_vacs = _vacuum_elements(v)
    value = sphere_value(points)
    data = 0
    for wt, op_vac in op_vacs.items():
        data = data + _int_power(z, -wt) * (value * op_vac)
    return data


def _d1_terms(surface, x_new, own, points):
    # D1's terms at one paired term's points: the zero-mode term on all
    # the points, and the kernel-weighted moves at the pair slots, past
    # the element's own ``own`` slots
    v, z = x_new
    return [_zero_mode_term(surface, points, v, z),
            *_moved_terms(surface, points, _moves(surface, v, z, points, range(own, len(points))))]


def _d2_moves(surface, x_new, entries):
    # D2's moves, at the element's own slots: the same in every paired term
    v, z = x_new
    return list(_moves(surface, v, z, entries, range(len(entries))))


def reduce_d1(surface, x_new, entries):
    """D1 on the surface per paired term: the sphere's or the trace's
    zero-mode term on all the points, and its kernel-weighted moves at
    the pair slots."""
    return genus_g_sum(surface.handles, entries,
                       lambda points: _d1_terms(surface, x_new, len(entries), points))


def reduce_d2(surface, x_new, entries):
    """D2 on the surface per paired term: the kernel-weighted moves at the
    element's own slots, one evaluation per move."""
    moves = _d2_moves(surface, x_new, entries)
    if not moves:
        return surface._zero()
    return genus_g_sum(surface.handles, entries,
                       lambda points: _moved_terms(surface, points, moves))


def reduce_dn(surface, x_new, entries):
    """D^n = D1 + D2 on the surface per paired term: one typed sum over
    the terms of both summands."""
    moves = _d2_moves(surface, x_new, entries)
    return genus_g_sum(surface.handles, entries, lambda points: [
        *_d1_terms(surface, x_new, len(entries), points), *_moved_terms(surface, points, moves)])


# -- the basis-sum trace ------------------------------------------------


def _pow(z, n):
    """z^n for n >= 0 by repeated products (ExactComplex has no **)."""
    out = 1
    for _ in range(n):
        out = out * z
    return out


def leg_contraction(x, y):
    """Wick contraction of two legs: ("out", m) or ("in", m) for a
    boundary mode, ("field", d, group, z) for d^(d)a/d! at z."""
    if x[0] == "in" or (x[0] == "field" and y[0] == "out"):
        x, y = y, x
    kind = (x[0], y[0])
    if kind == ("out", "in"):
        # <0| a(m) a(-n) |0> = m delta_mn
        return x[1] if x[1] == y[1] else 0
    if kind == ("out", "field"):
        # the mode of the field that pairs with a(m): z^(m-1) a(-m), differentiated
        m, (_, d, _, z) = x[1], y
        return m * math.comb(m - 1, d) * _pow(z, m - 1 - d) if d <= m - 1 else 0
    if kind == ("field", "in"):
        # a(m) z^(-m-1) annihilates a(-m)|0> with factor m, differentiated
        (_, d, _, z), m = x, y[1]
        return Fraction(m * (-1) ** d * math.comb(m + d, d)) / _pow(z, m + 1 + d)
    if kind == ("field", "field"):
        (_, d1, g1, z1), (_, d2, g2, z2) = x, y
        if g1 == g2:
            return 0  # normal ordering
        # d^(d1)_z1 d^(d2)_z2 (z1 - z2)^-2 / (d1! d2!)
        c = (-1) ** d1 * math.factorial(d1 + d2 + 1) // (
            math.factorial(d1) * math.factorial(d2))
        return Fraction(c) / _pow(z1 - z2, 2 + d1 + d2)
    return 0  # out-out and in-in never contract


def _matching_sum(legs):
    """The sum over the perfect matchings of the legs of the product of
    their contractions, memoised by the set of legs left (a bitmask): the
    first leg left pairs with each other one."""
    n = len(legs)
    table = [[leg_contraction(x, y) for y in legs] for x in legs]
    memo = {0: Fraction(1)}

    def left(mask):
        hit = memo.get(mask)
        if hit is None:
            i = (mask & -mask).bit_length() - 1
            hit = Fraction(0)
            for j in range(i + 1, n):
                if mask >> j & 1 and table[i][j]:
                    hit = hit + table[i][j] * left(mask ^ (1 << i) ^ (1 << j))
            memo[mask] = hit
        return hit

    return left((1 << n) - 1)


def _dressed_element(insertions, u_out, u_in):
    """<u_out', Y(x1^{L0}v1,x1)...Y(xn^{L0}vn,xn) u_in>, summed over the
    basis combinations of the insertions.  A combination's value is the
    int 0 at an odd number of legs, else its matching sum over the norm
    of u_out: an ExactComplex where a point carrying fields is one, else
    a Fraction."""
    total = 0
    slots = [[(s, c * _int_power(z, s.weight)) for s, c in v.terms.items()]
             for v, z in insertions]
    for combo in product(*slots):
        coeff, gaussian = 1, False
        legs = [("out", m) for m in u_out.partition] + [("in", m) for m in u_in.partition]
        for g, ((s, c), (_, z)) in enumerate(zip(combo, insertions)):
            coeff = coeff * c
            legs += [("field", part - 1, g, z) for part in s.partition]
            gaussian = gaussian or bool(s.partition) and isinstance(z, ExactComplex)
        if len(legs) % 2:
            value = 0
        else:
            value = _matching_sum(legs) / u_out.norm_squared()
            if gaussian:
                value = ExactComplex(0) + value
        total = total + coeff * value
    return total


def torus_qseries(insertions, q_order, left_operator=None) -> TruncatedSeries:
    """Brute-force graded trace over the Fock basis, exact per q-order:
    the oracle of ``torus_trace``.

    Tr(op . Y(x1^{L0}v1,x1)...Y(xn^{L0}vn,xn) q^{L0}) without the
    q^{-c/24} prefactor.  The q^k coefficient sums diagonal elements over
    the weight-k basis; an optional grade-preserving operator is inserted
    on the left, through <A', op X A> = sum_B <A', op B> <B', X A> over
    the same-weight bridge basis.
    """
    coeffs = {}
    for k in range(q_order):
        basis = weight_basis(k)
        if left_operator is not None:
            # op(B) once per bridge B; its A-component is <A', op B>
            images = [left_operator(FockVector({bridge: 1})) for bridge in basis]
        acc = 0
        for state in basis:
            if left_operator is None:
                value = _dressed_element(insertions, state, state)
            else:
                value = 0
                for bridge, image in zip(basis, images):
                    c_ab = image.coefficient(state)
                    if c_ab != 0:
                        value = value + c_ab * _dressed_element(insertions, bridge, state)
            acc = acc + value
        coeffs[k] = acc
    return TruncatedSeries("q", coeffs, q_order)


# -- helpers only tests use ---------------------------------------------


def partition_qseries(q_order: int) -> TruncatedSeries:
    """Graded dimension series sum p(k) q^k (no prefactor)."""
    return torus_trace([], q_order)


def pm_qseries(m: int, q_z: Scalar, q_order: int) -> TruncatedSeries:
    """q-expansion of P_m(z,tau) at fixed q_z = e^z, exact for exact q_z.

    At a rational q_z it is ``pm_numerators`` with each coefficient
    lowered to a Fraction.  At any other q_z the same two sums run in the
    arithmetic of q_z: the resummed rational function at q^0, the divisor
    sum (-1)^m/(m-1)! sum_{n | N} n^{m-1} (q_z^n + (-1)^m q_z^{-n}) at q^N.
    """
    if isinstance(q_z, (int, Fraction)):
        nums, den = pm_numerators(m, q_z, q_order)
        return TruncatedSeries("q", {k: Fraction(c, den) for k, c in enumerate(nums)}, q_order)
    if m < 1:
        raise EllipticError("kernel order must be >= 1")
    pref = Fraction((-1) ** m, math.factorial(m - 1))
    coeffs = {0: pref * polylog_neg(m - 1, q_z)}
    sign = (-1) ** m
    for n_ord in range(1, q_order):
        acc = 0
        for n in range(1, n_ord + 1):
            if n_ord % n == 0:
                acc = acc + n ** (m - 1) * (_int_power(q_z, n) + sign * _int_power(q_z, -n))
        coeffs[n_ord] = pref * acc
    return TruncatedSeries("q", coeffs, q_order)


def pm_direct_sum(m: int, z: complex, mp, tol: float = 1e-12, max_n: int = 4000) -> complex:
    """Term-by-term partial sums of the defining series of P_m."""
    if m < 1:
        raise EllipticError("kernel order must be >= 1")
    q = mp.q
    q_z = cmath.exp(complex(z))
    if not (abs(q) < abs(q_z) < 1):
        raise EllipticError("outside the convergence annulus")
    pref = (-1) ** m / math.factorial(m - 1)
    total = 0j
    for n in range(1, max_n + 1):
        t_pos = n ** (m - 1) * q_z**n / (1 - q**n)
        t_neg = (-n) ** (m - 1) * q_z ** (-n) / (1 - q ** (-n))
        total += t_pos + t_neg
        if abs(t_pos) + abs(t_neg) < tol and n > 8:
            break
    return pref * total


def bipoly_eval(p: dict, z: Scalar, w: Scalar) -> Scalar:
    """A bivariate polynomial {(z_exp, w_exp): coeff} at (z, w)."""
    total = 0
    for (i, j), c in p.items():
        total = total + c * _int_power(z, i) * _int_power(w, j)
    return total


def series_to_json(s: TruncatedSeries) -> str:
    return json.dumps(s.to_json_dict())


def series_from_json(text: str) -> TruncatedSeries:
    return TruncatedSeries.from_json_dict(json.loads(text))


def child_env() -> dict:
    """This interpreter's environment with the checkout's src first on
    PYTHONPATH, so that a child interpreter imports voachain as pytest
    does (pyproject's ``pythonpath``), installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def corr_deviation(a, b) -> float:
    """Max-abs difference of two values over their shared known range."""
    return corr_difference(a, b)[0]
