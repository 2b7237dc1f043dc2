"""Raw correlation-function evaluators shared by the sewing and
reduction layers, and the two Wick engines behind them.

Genus 0 is the exact sphere function between vacua of products of
vertex operators, with or without handles sewn on
(:func:`sewn_sphere_series`: resummed pairwise contractions, so values
are honest rational functions of the insertion points rather than
truncated mode sums); :func:`sphere_value` is its case with no handle,
and :func:`gram_block` its integer two-point values at 0 and 1, which
the sewing pairing inverts.  Genus 1 is the Gaussian form of the
Heisenberg graded trace (the thermal Wick theorem; Mason-Tuite, Torus
chiral n-point functions for free boson and lattice VOAs, CMP 2003):
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
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .series import (
    ExactComplex,
    Scalar,
    SeriesError,
    TruncatedSeries,
    _GaussInt,
    _int_power,
    _lower,
    _reciprocal,
    _split,
    points_coincide,
)
from .voa import FockState, FockVector, partition_count

Insertion = tuple[FockVector, Scalar]


def sphere_value(insertions: Sequence[Insertion]) -> Scalar:
    """<1', Y(v1,z1)...Y(vn,zn) 1>, exact: the one-pass sphere sum
    :func:`sewn_sphere_series` with no handle."""
    return sewn_sphere_series([(1, insertions, ())])


# -- handles sewn onto the sphere ------------------------------------
#
# A sewn handle sums the sphere function over the paired basis states
# of each weight k (bbar at zeta1, b at zeta2), weighted by the pairing
# entry c and counted by rho^k; g handles nest these sums, and with no
# handle the sum is the sphere function itself.  Every term of every
# handle is taken at the same points, so one check, one canonical order
# and one Wick context serve them all, and each paired state is strung
# once per handle slot: a term is one _wick call, which enters only the
# sub-states that no earlier term has met.  The terms of one expansion
# combination, one multi-index (k_1, ..., k_g) and one weight of each
# paired state (the weight k, unless a reduction has moved the state)
# put the same weights W at the points, so their Wick sums share one
# factor: each such sum is one ring element, the pairing entries of the
# group split (series._split) over their least common denominator, and
# Q^W over prod_i c_i^(W_i) (the sphere engine's closed form, below) is
# made once per weights and context, as a ring numerator over a positive
# int.  The sums stay in the ring: each multi-index keeps one numerator
# per denominator, and each coefficient is lowered once, over the lcm of
# its denominators.  A reduction's sums at one point set (its pieces) run
# in one call.
#
# The type of a coefficient is decided by its terms, not by its value:
# it is an ExactComplex when an ExactComplex enters one of them (a
# weight, an insertion coefficient, a pairing entry, or a point that
# carries fields in a term with an even number of fields), else a
# Fraction, as a per-term sum gives it.  A group of pairing entries
# notes whether one is an ExactComplex, at rational handle points too: a
# reduction moves states by the new insertion's coefficients.  With no
# handle, a term with an odd number of fields is the 0 of its weight
# times its coefficient (an int 0 when both are ints), as a per-term sum
# of the int 0 gives it.


def sewn_sphere_series(pieces: Sequence[tuple]) -> TruncatedSeries | Scalar:
    """sum over pieces (w, insertions, handles) of w <1', Y(v1,z1)...
    Y(vn,zn) 1> with the handles sewn on, as the nested rho-series of its
    paired basis sums, outermost handle first; with no handles, the
    sphere function between vacua itself, a scalar.

    Each handle is (zeta1, zeta2, terms, variable); terms[k] lists the
    weight-k paired terms (c, bbar, b) of basis states, bbar at zeta1 and
    b at zeta2.  The coefficient of rho_1^k1 ... rho_g^kg sums c_1 ... c_g
    times the sphere function over the weight-(k1, ..., kg) terms.  Every
    piece has the handles and the points of the first, slot for slot (a
    reduction moves states, not points); they are checked first.
    """
    _, insertions, handles = pieces[0]
    points = [z for _, z in insertions]
    for zeta1, zeta2, _, _ in handles:
        points += (zeta1, zeta2)
    _require_distinct(points)
    order = _canonical_order(tuple(points))
    gaussian = tuple(isinstance(points[i], ExactComplex) for i in order)
    ctx = _wick_context(gaussian, tuple(points[i] for i in order))
    position = [0] * len(order)
    for pi, slot in enumerate(order):
        position[slot] = pi
    acc, flags, built = {}, {}, {}
    for piece in pieces:
        _sewn_piece(ctx, gaussian, position, *piece, acc, flags, built)
    if not handles:
        return acc[()]
    values = {}
    for key, sums in acc.items():
        den = math.lcm(*sums)
        num = sum(n * (den // d) for d, n in sums.items())
        if num:
            value = _lower(num, den, flags.get(key, False))
            level = values
            for k in key[:-1]:
                level = level.setdefault(k, {})
            level[key[-1]] = value
    return _as_series(values, [(variable, len(terms)) for _, _, terms, variable in handles])


def gram_block(states: Sequence[FockState]) -> list[list[int]]:
    """The sphere's two-point values <1', Y(b_i, 1) Y(b_j, 0) 1> of basis
    states b of one weight k, row i and column j, as ints.

    At the points 0 and 1 the value of a state is Q^W N / (0 - 1)^k
    (1 - 0)^k with Q = 1, so it is (-1)^k N, one _wick call in the context
    of those points.  That context is built on its own, not fetched from
    the cache of the sums' contexts, so a block evicts none of them; its
    tables are the ones every two-point context of integer points shares,
    and each state is strung once per point."""
    ctx = _WickContext((0, 1))
    at0 = [_field_chars(b, 0, ctx) for b in states]
    at1 = [_field_chars(b, 1, ctx) for b in states]
    sign = (-1) ** states[0].weight
    return [[sign * _wick(j0 + i1, ctx) for j0 in at0] for i1 in at1]


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
    and each coefficient is lowered once.  A coefficient is typed as a sum
    of the terms' own traces gives it, each term its own weighted
    :func:`torus_trace`: an ExactComplex when that coefficient is not 0
    in a term that an ExactComplex enters (a scalar weight, a
    coefficient, a point carrying fields, through its x^wt dressing, or a
    q-series weight), else a Fraction.  The terms must not be empty.
    An input that one q-order refuses is refused at every q-order.
    """
    points = [x for _, x in terms[0][1]]
    _require_distinct(points)
    if any(x == 0 for x in points):
        raise ValueError("torus points are x = e^z and cannot be 0")
    if q_order < 1:
        # no coefficient is known, but every coefficient is checked
        for _, insertions, zero_mode_state in terms:
            _expand_components(insertions if zero_mode_state is None
                               else [*insertions, (zero_mode_state, 1)])
        return TruncatedSeries("q", {}, q_order)
    ctx = _torus_context(tuple(isinstance(x, ExactComplex) for x in points),
                         tuple(points), q_order)
    total, den, flags = [0] * q_order, 1, [False] * q_order
    for weight, insertions, zero_mode_state in terms:
        series = weight if isinstance(weight, tuple) else None
        if series is not None:
            weight, series_gaussian = 1, any(n.__class__ is _GaussInt for n in series[0])
        if zero_mode_state is None:
            zero_mode_terms = [("", 1)]
        else:
            zero_mode_terms = [("".join(sorted(chr(p - 1) for p in state.partition)), c)
                               for (state,), c in _expand_components([(zero_mode_state, 1)])]
        # the term's own sum, and whether an ExactComplex enters it (also
        # in a combination with no pairing, which adds 0)
        term, gaussian = None, False
        for states, coeff in _expand_components(insertions):
            fields = "".join(sorted("".join(_field_chars(s, i, ctx)
                                            for i, s in enumerate(states))))
            # the closed form holds the x^wt dressing, and whether an
            # ExactComplex point that carries fields enters it
            m, closed, dressing_gaussian = _closed_form(ctx, fields)
            for v_fields, c in zero_mode_terms:
                scale = c * coeff * weight
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
                nums = [num * n for n in nums]
                term = (nums, d) if term is None else _accumulate(term, (nums, d))
        if term is None:
            continue
        total, den = _accumulate((total, den), term)
        if gaussian:
            # the q^k coefficients that are not 0 in the term's own trace,
            # Z(q) times its sum, are ExactComplex ones
            nums = term[0]
            for k in range(q_order):
                if not flags[k]:
                    flags[k] = bool(sum(p * n for p, n in zip(ctx.partition[k::-1], nums)))
    coeffs = _mul_add(None, ctx.partition, total, 1)  # times Z(q)
    return TruncatedSeries("q", {k: _lower(c, den, flags[k]) for k, c in enumerate(coeffs) if c},
                           q_order)


def sewn_trace_series(pieces: Sequence[tuple], q_order: int) -> TruncatedSeries:
    """sum over pieces (w, insertions, handles, v) of w times the trace
    Tr(o(v) ...) with the handles sewn on, as the nested rho-series of its
    paired basis sums, outermost handle first, each coefficient a
    q-series.

    Each handle is (zeta1, zeta2, terms, variable), terms[k] the
    weight-k paired terms (c, bbar, b), as :func:`sewn_sphere_series`
    takes them, or with a reduction's moved FockVector in place of bbar
    or b, one term, so the sum types it as its own trace; w is a weight
    of :func:`torus_trace_sum`.  The
    coefficient of rho_1^k1 ... rho_g^kg is one :func:`torus_trace_sum`
    over the terms of that multi-index of every piece, with weight
    w c_1 ... c_g.  Every piece has the points of the first, slot for
    slot; with no handles the sum is the weighted trace sum itself.
    """
    # each piece's handles by weight, with the pair as insertions
    levels = [[[[(c, (_vector(bbar), zeta1), (_vector(b), zeta2))
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


def _vector(state):
    # a paired basis state as a vector; a moved one is a vector already
    return state if isinstance(state, FockVector) else FockVector({state: 1})


def _weighed(weight, c):
    # a torus_trace_sum weight times a scalar c
    if isinstance(weight, tuple):
        num, den = _split(c)
        return [num * n for n in weight[0]], den * weight[1]
    return weight * c


def _as_series(values: dict, shape) -> TruncatedSeries:
    # nested dicts {exponent: coefficient} as nested series
    (variable, order), inner = shape[0], shape[1:]
    return TruncatedSeries(
        variable, {k: _as_series(v, inner) if inner else v for k, v in values.items()}, order)


# -- the Wick engines ----------------------------------------------------
#
# A basis state a(-n1)...a(-nk)|0> at a point is the normally ordered
# product of the derivative fields d^(n-1)a/(n-1)! there; a field is its
# derivative order d and the index i of its point.  Both engines sum
# over the pairings of the fields of all insertions by one recursion, on
# the tables of a context, one per point set, which every evaluation at
# those points reads.
#
# The recursion divides nothing.  The context scales the points by Q,
# the least common multiple of the denominators of their real and
# imaginary parts, to p_i = Q z_i: ints, or Gaussian integers
# (series._GaussInt) when an ExactComplex is among the points.  A
# state's value is its closed form, a product over its fields of powers
# of the scaled points, times N, which has no denominator; the memo
# holds N, one ring element on the sphere and a list of q-coefficients
# on the torus.  A contraction of two fields multiplies the sub-state's
# N by one row entry: the contraction times what the two fields put into
# the closed form, in which its poles cancel.  The products over the
# other points are _cofactor's, prod_{k != i, j} (p_i - p_k).
#
# The recursion carries its state as a string, compact enough to keep
# every sub-sum of a handle sum: one character per field, from the
# context's alphabet, which gives each field (i, d) the next character
# when it is first met (_field_chars).  The alphabet has no fixed
# stride, so no d is too high and no two fields share a character; while
# a context has at most 256 fields, each character is one byte.  The
# first field is contracted once per distinct partner and the term
# counted by the partner's multiplicity (str.count): the branching grows
# with the number of distinct fields, not of fields.  Partners are
# found, removed and counted by str and dict methods, a factor is read
# from the first field's row of contractions, and a sub-state is looked
# up in the memo, which starts with the empty state, before the
# recursion is entered.
#
# A context is keyed by the points and by which of them are
# ExactComplex: ExactComplex(5) and 5 compare and hash equal, but the
# one computes with Gaussian integers and the other with ints.  Each
# engine keeps one context: no workload interleaves two point sets that
# both recur, and a context is freed as soon as it is evicted, since its
# rows hold what a contraction reads, not the tables that hold them.


def _require_distinct(points) -> None:
    if points_coincide(points):
        raise ValueError("insertion points must be pairwise distinct")


def _expand_components(insertions):
    """Multilinear expansion into basis-state insertions with weights, an
    iterator.  Every coefficient is exact, as every point is: any other
    is refused when the expansion is made, a SeriesError."""
    slots = []
    for v, _ in insertions:
        for c in v.terms.values():
            if not isinstance(c, (int, Fraction, ExactComplex)):
                raise SeriesError(f"coefficient {c!r} is not exact: give an int, a Fraction "
                                  "or an ExactComplex")
        slots.append(v.terms.items())
    return ((tuple(s for s, _ in combo), math.prod(c for _, c in combo))
            for combo in product(*slots))


def _scaled_points(points: tuple) -> tuple:
    """(Q, the points times Q): Q the least common multiple of the
    denominators of the points' real and imaginary parts, so that each
    scaled point is an int, or a _GaussInt at an ExactComplex."""
    parts = [x for z in points for x in ((z.re, z.im) if isinstance(z, ExactComplex) else (z,))]
    q = math.lcm(*(x.denominator for x in parts))
    return q, tuple(_GaussInt(int(z.re * q), int(z.im * q)) if isinstance(z, ExactComplex)
                    else z.numerator * (q // z.denominator) for z in points)


def _cofactor(scaled: tuple, i: int, j: int):
    """prod over the points k other than i and j of p_i - p_k; with j = i,
    over every point other than i."""
    out = 1
    for k, p in enumerate(scaled):
        if k != i and k != j:
            out = out * (scaled[i] - p)
    return out


def _field_chars(state: FockState, pi: int, ctx) -> str:
    """The fields of a basis state at point index pi, as the recursion
    strings them: one character of the context's alphabet per field, in
    partition order."""
    alphabet, chars = ctx.alphabet, []
    for part in state.partition:
        char = alphabet.get((pi, part - 1))
        if char is None:
            char = alphabet[pi, part - 1] = chr(len(ctx.fields))
            ctx.fields.append((pi, part - 1))
        chars.append(char)
    return "".join(chars)


class _WickTables:
    """The alphabet, contraction rows and memo of the recursion at one
    point set: a field (point index, derivative order) is one character,
    chr(n) for the n-th field met.  A row entry is contraction(fields,
    *args, first, partner), and the memo starts with the empty state's
    N.  A context copies these onto itself, so the recursion reads them
    with one attribute lookup."""

    __slots__ = ("alphabet", "fields", "contractions", "memo")

    def __init__(self, contraction, args: tuple, empty):
        self.alphabet: dict = {}  # (point index, d) -> its character
        self.fields: list = []  # the (point index, d) of each character, by ord
        # first field -> partner -> factor
        self.contractions = _Rows(contraction, (self.fields, *args))
        self.memo: dict = {"": empty}  # fields -> N


class _Rows(dict):
    # one row per first field, made when first read; a factor is
    # contraction(*args, first, partner).  The rows hold what a
    # contraction reads (the alphabet's field list, the scaled points),
    # not the tables that hold them: with no cycle, an evicted context's
    # tables are freed at once
    __slots__ = ("contraction", "args")

    def __init__(self, contraction, args: tuple):
        self.contraction, self.args = contraction, args

    def __missing__(self, first):
        row = self[first] = _Row(self.contraction, self.args, first)
        return row


class _Row(dict):
    # partner -> the factor of its contraction with the row's field,
    # computed when first read
    __slots__ = ("contraction", "args", "first")

    def __init__(self, contraction, args: tuple, first: str):
        self.contraction, self.args, self.first = contraction, args, first

    def __missing__(self, partner):
        factor = self[partner] = self.contraction(*self.args, self.first, partner)
        return factor


# -- the sphere engine -----------------------------------------------
#
# <1', Y(v1,z1)...Y(vn,zn) 1> for basis states v_i is the sum over
# pairings of closed-form contractions, which is exactly the resummation
# of the infinite intermediate mode sums.  Fields of one insertion never
# contract (normal ordering), so their factor is 0.  A state whose
# fields have total weight W_i at point i has the value
# V = Q^W N / prod_i c_i^(W_i), c_i = prod_{k != i} (p_i - p_k): removing
# a field (i, d) takes c_i^(d+1) out of the product.  Every point of the
# context enters the products, a vacuum one too; its factors cancel, and
# a value is an ExactComplex exactly when a point carrying fields is
# one.  The memo holds one ring element per state entered (an int, or a
# _GaussInt at a context with an ExactComplex point), and
# sewn_sphere_series lowers each coefficient once, by series._lower.
#
# A genus-g sum evaluates all its paired basis terms, vacuum pairs
# included, at the same points, and the same sum with the handles or
# insertions in another order (the chain conditions compose the
# differentials both ways) evaluates the same terms again.  The function
# is symmetric in its insertions, so the context takes the points in one
# canonical order, compared exactly, and numbers the fields in that
# order; a state's fields are strung by point in canonical order and by
# partition order within a point, so any permutation of the insertions
# gives the same strings.  At two points a contraction's product over
# the other points is empty, so every factor, and with it N, is a pure
# number, the same at any two points: every two-point context of one
# ring shares one set of tables, those of gram_block among them.


def _sewn_piece(ctx, gaussian, position, weight, insertions, handles, acc, flags, built):
    # one piece's coefficients added into acc, by multi-index, as ring
    # numerators by denominator (with no handle, the sphere function's
    # scalar); where an ExactComplex enters a term, flags marks the
    # multi-index, also when the weight is 0 and no term is summed.
    # built keeps each handle's grouped terms by its terms list and slot:
    # the pieces of a reduction share every handle they do not move
    combos = []
    for states, coeff in _expand_components(insertions):
        scale = weight * coeff
        combos.append((*_split(scale), [(position[i], _field_chars(s, position[i], ctx), s.weight)
                                        for i, s in enumerate(states)],
                       sum(s.length for s in states), scale))
    live = weight != 0
    slots = [""] * len(gaussian)
    weights = [0] * len(gaussian)
    if not handles:
        # the sphere function, one term per expansion combination, each
        # of its own type and lowered on its own
        total = acc.get((), 0)
        for num, den, chars, legs, scale in combos:
            if legs % 2:
                total = total + scale * 0
                continue
            for pi, field, wt in chars:
                slots[pi], weights[pi] = field, wt
            scaled, d = _weight_factor(ctx, weights)
            n, d = (num * _wick("".join(slots), ctx) * scaled, den * d) if live else (0, 1)
            total = total + _lower(n, d, num.__class__ is _GaussInt
                                   or any(g and wt for g, wt in zip(gaussian, weights)))
        acc[()] = total
        return
    levels = []
    for h, (_, _, terms, _) in enumerate(handles):
        slot = len(insertions) + 2 * h
        p1, p2 = position[slot], position[slot + 1]
        by_weight = built.get((id(terms), slot))
        if by_weight is not None:
            levels.append((p1, p2, by_weight))
            continue
        by_weight = built[id(terms), slot] = []
        at1, at2 = ({s: _field_chars(s, p, ctx) for s in dict.fromkeys(
            term[side] for terms_k in terms for term in terms_k)} for side, p in ((1, p1), (2, p2)))
        for terms_k in terms:
            # the weight-k terms grouped by the weights of bbar and b: the
            # group's pairing entries as ring elements over their lcm, whether
            # one is an ExactComplex, and the parities of the field counts
            groups = {}
            for term in terms_k:
                groups.setdefault((term[1].weight, term[2].weight), []).append(term)
            by_weight.append([])
            for (wbar, wb), group in groups.items():
                split = [_split(c) for c, _, _ in group]
                common = math.lcm(*(d for _, d in split))
                gauss = any(n.__class__ is _GaussInt for n, _ in split)
                by_weight[-1].append((wbar, wb, common, gauss,
                                      {(bbar.length + b.length) % 2 for _, bbar, b in group}, [
                    (n * (common // d), at1[bbar], at2[b], bbar.length + b.length)
                    for (n, d), (_, bbar, b) in zip(split, group)]))
        levels.append((p1, p2, by_weight))
    exotic = ctx.gaussian or any(num.__class__ is _GaussInt for num, *_ in combos) or any(
        group[3] for _, _, by_weight in levels for groups in by_weight for group in groups)
    if not (live or exotic):
        return

    # each coefficient (k_outer, ..., k_inner), one term per expansion
    # combination, multi-index and weights of the paired states, added
    # into the coefficient's ring numerator over its denominator
    outer = [[(k, wbar, wb, common, term) for k, groups in enumerate(by_weight)
              for wbar, wb, common, _, _, group in groups for term in group]
             for _, _, by_weight in levels[:-1]]
    pos1, pos2, inner = levels[-1]
    for num0, den0, chars, combo_legs, _ in combos:
        for pi, field, weight in chars:
            slots[pi], weights[pi] = field, weight
        for picked in product(*outer):
            ks, num, den, outer_legs = (), num0, den0, combo_legs
            marked = num0.__class__ is _GaussInt
            for (p1, p2, _), (k, wbar, wb, common, (c, bbar, b, term_legs)) in zip(levels, picked):
                slots[p1], slots[p2] = bbar, b
                weights[p1], weights[p2] = wbar, wb
                ks, outer_legs = ks + (k,), outer_legs + term_legs
                num, den = num * c, den * common
                marked = marked or c.__class__ is _GaussInt
            for k, groups in enumerate(inner):
                for wbar, wb, common, gauss, parities, group in groups:
                    weights[pos1], weights[pos2] = wbar, wb
                    key = ks + (k,)
                    if exotic:
                        flags[key] = flags.get(key) or marked or gauss or (
                            outer_legs % 2 in parities
                            and any(g and w for g, w in zip(gaussian, weights)))
                    if not live:
                        continue
                    total = 0
                    for c, bbar, b, term_legs in group:
                        if (outer_legs + term_legs) % 2:
                            continue
                        slots[pos1], slots[pos2] = bbar, b
                        total += c * _wick("".join(slots), ctx)
                    if total:
                        scaled, d = _weight_factor(ctx, weights)
                        sums, d = acc.setdefault(key, {}), den * common * d
                        sums[d] = sums.get(d, 0) + num * total * scaled


@lru_cache(maxsize=256)
def _canonical_order(points: tuple) -> tuple[int, ...]:
    """The insertion indices of the points in canonical order: by real
    part, then imaginary part, compared exactly.  Equal points of other
    types have one order, so they may share its cache entry."""

    def key(i):
        z = points[i]
        return (z.re, z.im) if isinstance(z, ExactComplex) else (z, 0)

    return tuple(sorted(range(len(points)), key=key))


@lru_cache(maxsize=2)
def _two_point_tables(gaussian: bool) -> _WickTables:
    # at two points a contraction's product over the other points is
    # empty, so no table entry depends on the points: every two-point
    # context of one ring shares these
    one = _GaussInt(1, 0) if gaussian else 1
    return _WickTables(_contraction, ((0, 1), one), one)


class _WickContext:
    """The tables shared by every sphere function at one point set."""

    __slots__ = ("scale", "scaled", "gaussian", "zero", "one", "cofactors", "factors",
                 "alphabet", "fields", "contractions", "memo")

    def __init__(self, points: tuple):
        _require_distinct(points)
        self.scale, self.scaled = _scaled_points(points)
        self.gaussian = any(isinstance(z, ExactComplex) for z in points)
        self.zero, self.one = (_GaussInt(0, 0), _GaussInt(1, 0)) if self.gaussian else (0, 1)
        # c_i, the factor a unit of weight at i puts into the denominator
        self.cofactors = tuple(_cofactor(self.scaled, i, i) for i in range(len(points)))
        self.factors: dict = {}  # weights -> _weight_factor
        tables = (_two_point_tables(self.gaussian) if len(points) == 2
                  else _WickTables(_contraction, (self.scaled, self.one), self.one))
        self.alphabet, self.fields = tables.alphabet, tables.fields
        self.contractions, self.memo = tables.contractions, tables.memo


@lru_cache(maxsize=1)
def _wick_context(gaussian: tuple, points: tuple) -> _WickContext:
    # gaussian[i]: whether point i is an ExactComplex
    return _WickContext(points)


def _weight_factor(ctx: _WickContext, weights) -> tuple:
    """Q^W / prod_i c_i^(W_i) at the weights W, as (ring numerator,
    positive int denominator); made once per weights at a context."""
    key = tuple(weights)
    factor = ctx.factors.get(key)
    if factor is None:
        den = 1
        for cofactor, w in zip(ctx.cofactors, weights):
            if w:
                den = den * _int_power(cofactor, w)
        inverse, den = _reciprocal(den)
        factor = ctx.factors[key] = (inverse * ctx.scale ** sum(weights), den)
    return factor


def _contraction(fields: list, scaled: tuple, one, first: str, partner: str):
    # The factor one contraction of the fields (i, d) and (j, e) puts into
    # N: the normalized derivative contraction d^d_z1 d^e_z2 (z1 - z2)^-2,
    # (-1)^d (d+e+1) C(d+e, d) / (p_i - p_j)^(d+e+2) at the scaled points,
    # times c_i^(d+1) c_j^(e+1), which hold (p_i - p_j)^(d+1)
    # (p_j - p_i)^(e+1), so the pole cancels, and the two products over
    # the other points.  Fields of one insertion never contract: 0.
    (i, d), (j, e) = fields[ord(first)], fields[ord(partner)]
    if i == j:
        return 0 * one
    return ((-1) ** (d + e + 1) * (d + e + 1) * math.comb(d + e, d)
            * _int_power(_cofactor(scaled, i, j), d + 1)
            * _int_power(_cofactor(scaled, j, i), e + 1) * one)


def _wick(fields: str, ctx: _WickContext):
    """N of the state ``fields``, one character per field (see
    _field_chars), an element of the context's ring."""
    hit = ctx.memo.get(fields)
    return hit if hit is not None else _wick_sum(fields, ctx)


def _wick_sum(fields: str, ctx: _WickContext):
    # A state not in the memo: the first field contracts with each
    # distinct partner.  Contracting any copy of a partner leaves the
    # same sub-state, so the term is counted by the partner's
    # multiplicity; a sub-state is looked up before the recursion is
    # entered.  A lone field has no partner: its state is 0.
    memo = ctx.memo
    row = ctx.contractions[fields[0]]
    rest = fields[1:]
    total = ctx.zero
    for partner in dict.fromkeys(rest):
        factor = row[partner]
        if not factor:  # a field of the first one's insertion
            continue
        sub = rest.replace(partner, "", 1)
        sn = memo.get(sub)
        if sn is None:
            sn = _wick_sum(sub, ctx)
        if sn:
            term = factor * sn
            count = rest.count(partner)
            total = total + (term if count == 1 else count * term)
    memo[fields] = total
    return total


# -- the torus engine ------------------------------------------------
#
# Fields at two points contract through the propagator: its q^0 term is
# the sphere contraction, its q^k term (k >= 1) the divisor sum
#   sum_{n | k} n [C(-n-1,d1) C(n-1,d2) xi^(-n-1-d1) xj^(n-1-d2)
#                  + C(n-1,d1) C(-n-1,d2) xi^(n-1-d1) xj^(-n-1-d2)],
# which for d1 = d2 = 0, times xi xj, is the q-expansion of P2 at xj/xi.
# Fields of one normally ordered state contract through the q^k >= 1
# part only, at xi = xj: the (1 - E2)/12-type constants.  Unlike on the
# sphere, two fields at one point do contract, so a state is its fields'
# characters sorted.
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
# magnitude of every partial sum: the sum is finite.  The fields of v
# are strung as chr(d) and take the recursion's rule, against each
# other and against the fields.
#
# One context per point tuple and q-order holds the tables shared by
# every trace at those points: the paired terms of a sewn torus, the
# reduction's moved states, each term of one torus_trace_sum.  Every
# term of a propagator is homogeneous of degree -2-d1-d2 in the points,
# and every power of xi it takes is in [-order-d1, order-2-d1], its q^0
# pole being (xi - xj)^(-2-d1-d2); so the field factor
#   F(i, d) = p_i^(order+d) prod_{k != i} (p_i - p_k)^(d+1)
# clears every propagator of the field.  A state of fields of total
# weight W has the value Q^W N / prod F over its fields, and the memo
# holds N as a list of q-coefficients.  A v-field's propagator term
# x^e xj^(...) carries Q^e besides, and the kept pairings have sum
# e = 0, so the v-fields put nothing into the closed form.  None marks a
# sum with no pairing (an odd number of fields, or no way to close the
# powers of x).  A trace also carries the dressing prod x_i^(W_i) of its
# insertions, W_i the weight at point i; it is p_i^(W_i) / Q^(W_i), so it
# cancels Q^W and part of each F: the closed form of a state with c_i
# fields of weight W_i at point i is
# 1 / prod_i p_i^((order-1) c_i) prod_{k != i} (p_i - p_k)^(W_i), a
# Gaussian denominator inverted as conj(D) / |D|^2 (series._reciprocal).
# A weighted sum of traces multiplies each term's N by its state's
# closed form, adds the terms over positive int denominators (a q-series
# weight convolves, a scalar one scales), multiplies the sum by Z(q)
# once and lowers each coefficient once.


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
        tables = _WickTables(_propagator, (self.scaled, order, self.powers),
                             [1] + [0] * (order - 1))
        self.alphabet, self.fields = tables.alphabet, tables.fields
        self.contractions, self.memo = tables.contractions, tables.memo
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
    two divisor sums of a propagator, for 1 <= n < order; C(-n-1, d) is
    (-1)^d C(n+d, d)."""
    return tuple(((-1) ** d1 * math.comb(n + d1, d1) * math.comb(n - 1, d2),
                  (-1) ** d2 * math.comb(n - 1, d1) * math.comb(n + d2, d2))
                 for n in range(1, order))


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
        val = powers[i] = (*val, _cofactor(scaled, i, i))
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
    # times the two fields' products over the other points, so the q^0 term
    # is the sphere's factor times the two powers
    others = ((-1) ** (d2 + 1) * _int_power(_cofactor(scaled, i, j), d1 + 1)
              * _int_power(_cofactor(scaled, j, i), d2 + 1))
    coeffs = [_contraction(fields, scaled, 1, first, partner)
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
