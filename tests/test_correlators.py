"""The Gaussian genus-1 trace against the brute-force graded trace.

`torus_trace` sums pairings of q-series propagators; `torus_qseries`
sums diagonal sphere elements over the Fock basis.  The two are computed
apart from each other, so agreement per q-coefficient is the thermal
Wick theorem checked, not a construction.  The weighted sums of traces
(`torus_trace_sum`, `sewn_trace_series`) and the reduction on a sewn
trace are checked against the per-term route of `references`, one
`torus_trace` per term.
"""

import contextlib
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from references import (
    _assert_identical,
    evaluate,
    partition_qseries,
    pm_qseries,
    reduce_d1,
    reduce_d2,
    reduce_dn,
    sewn_series,
    torus_qseries,
)
from test_schottky import KINDS, _point, vectors
from test_voa import _program_caches

from voachain import complexes, correlators
from voachain.complexes import (
    ComplexError,
    InsertionTuple,
    Trace,
    _element,
    _ratio,
    apply_D1,
    apply_D2,
    apply_Dn,
)
from voachain.correlators import (
    sewn_trace_series,
    sphere_value,
    torus_trace,
    torus_trace_sum,
)
from voachain.elliptic import pm_numerators
from voachain.schottky import SewingData, _sewn_handle
from voachain.series import ExactComplex, SeriesError, _GaussInt, _lower, points_coincide
from voachain.voa import (
    A_VECTOR,
    VACUUM_VECTOR,
    FockState,
    FockVector,
    fock_basis,
    square_bracket_mode,
    zero_mode,
)

AA = FockVector.basis(1, 1)
BASIS_TO_3 = fock_basis(4)  # every basis state of weight <= 3


def _brute(insertions, q_order, v=None):
    left = None if v is None else zero_mode(v)
    return torus_qseries(insertions, q_order, left_operator=left)


def _same(got, want):
    # coefficient by coefficient, exactly and with the same scalar type,
    # over the whole validity range
    assert got.truncation == want.truncation
    for k in range(want.truncation):
        assert got.coefficient(k) == want.coefficient(k), k
        assert type(got.coefficient(k)) is type(want.coefficient(k)), k


_states = st.one_of(
    st.sampled_from(BASIS_TO_3).map(lambda s: FockVector({s: 1})),
    st.dictionaries(st.sampled_from(BASIS_TO_3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool),
                    min_size=2, max_size=3).map(FockVector),
)


@st.composite
def _torus_insertions(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    # exact points away from 0 and from each other, integral or not
    points = draw(st.lists(
        st.fractions(min_value=-7, max_value=7, max_denominator=4).filter(bool),
        min_size=n, max_size=n, unique=True))
    return [(draw(_states), x) for x in points]


class TestTraceAgainstBasisSum:
    @settings(max_examples=60, deadline=None)
    @given(_torus_insertions(), st.integers(1, 6), st.none() | _states)
    def test_equals_brute_force_trace(self, insertions, q_order, v):
        _same(torus_trace(insertions, q_order, zero_mode_state=v), _brute(insertions, q_order, v))

    def test_no_insertion_is_the_partition_function(self):
        counts = [1, 1, 2, 3, 5, 7, 11, 15]
        trace = partition_qseries(8)
        assert [trace.coefficient(k) for k in range(8)] == counts

    @pytest.mark.parametrize("q_order", [0, -1])
    def test_no_order_is_the_empty_series(self, q_order):
        insertions = [(A_VECTOR, Fraction(2)), (AA, Fraction(3))]
        got, want = torus_trace(insertions, q_order), _brute(insertions, q_order)
        assert (got.coefficients, got.truncation) == (want.coefficients, want.truncation)

    @pytest.mark.parametrize("v", [FockVector({s: 1}) for s in BASIS_TO_3]
                             + [VACUUM_VECTOR.scale(2) + AA + FockVector.basis(2).scale(3)])
    def test_zero_mode_trace_equals_bridge_sum(self, v):
        # o(v) for every basis v of weight <= 3 and one inhomogeneous v
        for insertions in (
            [],
            [(A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(-2, 3))],
            [(AA + FockVector.basis(2), Fraction(3, 2)), (A_VECTOR, Fraction(-4)),
             (FockVector.basis(2, 1), Fraction(7, 3))],
        ):
            _same(torus_trace(insertions, 5, zero_mode_state=v), _brute(insertions, 5, v))

    def test_sewn_torus_equals_brute_force_handle_sum(self):
        # every paired term of the handle runs at one point tuple, so the
        # shared tables serve basis states of each weight below rho_order
        insertions = [(A_VECTOR, Fraction(2)), (AA, Fraction(-3)), (A_VECTOR, Fraction(4))]
        sd = SewingData(zeta1=Fraction(5), zeta2=Fraction(-7, 2))
        got = Trace(5).sew(sd, 4).evaluate(insertions).data
        want = sewn_series(_sewn_handle(sd.zeta1, sd.zeta2, 4, "rho"),
                           lambda pairs: _brute([*insertions, *pairs], 5))
        assert set(got.coefficients) == set(want.coefficients) == {0, 1, 2, 3}
        for k, series in want.coefficients.items():
            _same(got.coefficients[k], series)

    def test_zero_mode_of_a_state_with_one_field_vanishes(self):
        # o(a) = a(0) and o(a(-2)1) = (L(-1) a)(1) are 0 on the charge-0 module
        insertions = [(AA, Fraction(3)), (A_VECTOR, Fraction(-5))]
        for v in (A_VECTOR, FockVector.basis(2), FockVector.basis(3)):
            assert torus_trace(insertions, 6, zero_mode_state=v).is_zero()


def _closed(ctx, fields, nums):
    # a memo entry over its state's closed form, the dressing included, as
    # ExactComplex coefficients (equal to Fractions where they are real)
    m, den, _ = correlators._closed_form(ctx, fields)
    return [_lower(n * m, den, True) for n in nums]


def _as_trace(ctx, points, fields, values, v_fields=""):
    """The trace a memo entry stands for, against the basis sum: the
    fields' basis states at their points (the vacuum elsewhere), o(v) for
    the basis state of the v-fields, and the entry over its closed form
    times Z(q)."""
    parts = [sorted((d + 1 for i, d in map(ctx.fields.__getitem__, map(ord, fields)) if i == k),
                    reverse=True) for k in range(len(points))]
    insertions = [(FockVector.basis(*p), x) for p, x in zip(parts, points)]
    v = FockVector.basis(*(ord(c) + 1 for c in v_fields)) if v_fields else None
    z = [partition_qseries(len(values)).coefficient(k) for k in range(len(values))]
    got = [sum(z[i] * values[k - i] for i in range(k + 1)) for k in range(len(values))]
    want = _brute(insertions, len(values), v)
    return got, [want.coefficient(k) for k in range(len(values))]


class TestPropagator:
    @pytest.mark.parametrize("xi, xj", [(Fraction(5), Fraction(2)),
                                        (Fraction(-7, 2), Fraction(1, 3))])
    def test_weight_one_contraction_is_p2(self, xi, xj):
        # the contraction's numerators over the two fields' closed form,
        # which holds the dressing xi xj, are P2 at xj / xi
        q_order = 8
        correlators._torus_context.cache_clear()
        ctx = correlators._torus_context((False, False), (xi, xj), q_order)
        a = FockState((1,))
        first, partner = correlators._field_chars(a, 0, ctx), correlators._field_chars(a, 1, ctx)
        factor = ctx.contractions[first][partner]
        assert all(type(n) is int for n in factor)
        p2 = pm_qseries(2, xj / xi, q_order)
        assert _closed(ctx, first + partner, factor) == [
            p2.coefficient(k) for k in range(q_order)]

    @pytest.mark.parametrize("gaussian", [False, True], ids=["exact", "gaussian"])
    def test_memo_entries_are_ring_lists_over_their_closed_forms(self, gaussian):
        # every memo entry is one list of ring numerators, ints or (at a
        # Gaussian point) Gaussian integers, with no denominator; over its
        # state's closed form, times Z(q) and the dressing, each is the
        # basis-sum trace of its state
        first = ExactComplex(Fraction(5, 2), 1) if gaussian else Fraction(5, 2)
        points = (first, Fraction(-7, 3), Fraction(4))
        insertions = [(AA + FockVector.basis(2), points[0]), (A_VECTOR, points[1]),
                      (FockVector.basis(2, 1), points[2])]
        q_order = 5
        correlators._torus_context.cache_clear()
        torus_trace(insertions, q_order, zero_mode_state=AA + FockVector.basis(1, 1, 1, 1))
        ctx = correlators._torus_context((gaussian, False, False), points, q_order)
        entries = list(ctx.memo.items()) + [
            (key, nums) for key, nums in ctx.zero_mode_memo.items() if nums is not None]
        assert len(ctx.memo) > 5 and len(entries) > len(ctx.memo)
        ring = (int, _GaussInt) if gaussian else (int,)
        for _, nums in entries:
            assert type(nums) is list and len(nums) == q_order
            assert all(type(n) in ring for n in nums)
        assert gaussian is any(type(n) is _GaussInt for _, nums in entries for n in nums)
        for fields, nums in ctx.memo.items():
            got, want = _as_trace(ctx, points, fields, _closed(ctx, fields, nums))
            assert got == want, fields
        traces = [(key, nums) for key, nums in entries[len(ctx.memo):] if key[2] == 0]
        assert len(traces) > 3
        for (v_fields, fields, _), nums in traces:
            got, want = _as_trace(ctx, points, fields, _closed(ctx, fields, nums), v_fields)
            assert got == want, (v_fields, fields)

    def test_repeated_fields_enter_each_state_once(self, monkeypatch):
        # a(-1)^4 at two points: two alphabet fields, and each state of
        # (a, b) fields is entered once, each distinct partner contracted
        # once and counted by its multiplicity
        calls = []
        pairing_sum = correlators._pairing_sum

        def counted(fields, ctx):
            calls.append(fields)
            return pairing_sum(fields, ctx)

        monkeypatch.setattr(correlators, "_pairing_sum", counted)
        power = FockVector.basis(1, 1, 1, 1)
        insertions = [(power, Fraction(5)), (power, Fraction(-3))]
        correlators._torus_context.cache_clear()
        value = torus_trace(insertions, 4)
        ctx = correlators._torus_context((False, False), (Fraction(5), Fraction(-3)), 4)
        assert len(ctx.fields) == 2
        assert len(calls) == len(set(calls)) == 8
        assert set(calls) == set(ctx.memo) - {""}
        assert sorted((f.count("\x00"), f.count("\x01")) for f in calls) == [
            (0, 2), (0, 4), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (4, 4)]
        _same(value, _brute(insertions, 4))

    def test_a_high_order_trace_stays_small(self):
        # Z(q) by the pentagonal recurrence and one list per state: the
        # (aa, a, a) trace to q^80 allocates well under a few MB (about
        # 0.15 MB at its peak); listing the partitions behind Z(q) would
        # take gigabytes
        for cache in _program_caches():
            cache.cache_clear()
        insertions = [(AA, Fraction(5)), (A_VECTOR, Fraction(6)), (A_VECTOR, Fraction(-7))]
        tracemalloc.start()
        try:
            deep = torus_trace(insertions, 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert deep.truncation == 80 and deep.coefficient(79) != 0
        shallow = torus_trace(insertions, 6)
        for k in range(6):
            assert deep.coefficient(k) == shallow.coefficient(k), k

    def test_warm_context_gives_cold_values(self):
        # one point tuple: a batch in any order reads the shared tables
        points = (Fraction(5), Fraction(-2), Fraction(7, 3))
        batch = [[(FockVector({s: 1}), x) for s, x in zip(states, points)]
                 for states in ((FockState((1,)), FockState((1,)), FockState(())),
                                (FockState((2, 1)), FockState((1,)), FockState((2,))),
                                (FockState((1, 1)), FockState((3,)), FockState((1,))))]
        cold = []
        for insertions in batch:
            correlators._torus_context.cache_clear()
            cold.append(torus_trace(insertions, 6))
        correlators._torus_context.cache_clear()
        for insertions, want in zip(reversed(batch), reversed(cold)):
            _same(torus_trace(insertions, 6), want)


class TestScalarTypes:
    @pytest.mark.parametrize("states", [
        (AA, A_VECTOR, A_VECTOR),
        (VACUUM_VECTOR + A_VECTOR, A_VECTOR, FockVector.basis(2)),
        (VACUUM_VECTOR, FockVector.basis(2, 1), A_VECTOR),
    ])
    @pytest.mark.parametrize("v", [None, AA, FockVector.basis(2, 1) + VACUUM_VECTOR])
    def test_types_and_values_follow_the_brute_force(self, states, v):
        # the first point is Gaussian, the others rational
        points = (ExactComplex(Fraction(5, 3), Fraction(1, 2)), Fraction(-7, 2), 4)
        insertions = list(zip(states, points))
        got = torus_trace(insertions, 5, zero_mode_state=v)
        want = _brute(insertions, 5, v)
        assert set(got.coefficients) == set(want.coefficients)
        for k, c in want.coefficients.items():
            assert type(got.coefficients[k]) is type(c), k
            assert got.coefficients[k] == c, k

    @pytest.mark.parametrize("c", [0.5, complex(0.5, -0.25),
                                   ExactComplex(Fraction(1, 2), Fraction(1, 3))],
                             ids=["float", "complex", "ExactComplex"])
    @pytest.mark.parametrize("v", [None, AA.scale(Fraction(1, 2)) + FockVector.basis(2)])
    def test_inexact_coefficients_at_exact_points(self, c, v):
        # the points are exact, so the tables hold ints; an ExactComplex
        # coefficient makes the sum Gaussian, with the basis sum's values
        # and types, and a float or complex one is refused as a point is
        insertions = [(AA.scale(c) + A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(-7, 2)),
                      (FockVector.basis(2), 4)]
        if not isinstance(c, ExactComplex):
            with pytest.raises(SeriesError, match="is not exact"):
                torus_trace(insertions, 5, zero_mode_state=v)
            with pytest.raises(SeriesError, match="is not exact"):
                sphere_value(insertions)
            return
        got = torus_trace(insertions, 5, zero_mode_state=v)
        want = _brute(insertions, 5, v)
        assert set(got.coefficients) == set(want.coefficients)
        for k, w in want.coefficients.items():
            assert type(got.coefficients[k]) is type(w), k
            assert got.coefficients[k] == w, k

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            torus_trace([(A_VECTOR, Fraction(2)), (A_VECTOR, ExactComplex(2))], 3)

    @pytest.mark.parametrize("insertions, error", [
        ([(A_VECTOR, 2), (A_VECTOR, ExactComplex(2))], ValueError),
        ([(A_VECTOR, 0), (A_VECTOR, 3)], ValueError),
        ([(A_VECTOR, 2.5), (A_VECTOR, 3)], SeriesError),
        ([(A_VECTOR.scale(0.5), 2), (A_VECTOR, 3)], SeriesError),
    ], ids=["coincident", "at-zero", "float-point", "float-coefficient"])
    @pytest.mark.parametrize("q_order", [0, 1, 3])
    def test_an_input_is_refused_at_every_q_order(self, insertions, error, q_order):
        # at q 0 no coefficient is known, but what any order refuses is
        # refused there too, by the trace and by its evaluator
        with pytest.raises(error):
            torus_trace(insertions, q_order)
        with pytest.raises(error):
            torus_trace(insertions, q_order, zero_mode_state=AA)
        with pytest.raises(error):
            Trace(q_order).evaluate(tuple(insertions))

    def test_an_inexact_zero_mode_coefficient_is_refused_at_q_0(self):
        with pytest.raises(SeriesError, match="is not exact"):
            torus_trace([(A_VECTOR, 2), (A_VECTOR, 3)], 0, zero_mode_state=AA.scale(0.5))

    @pytest.mark.parametrize("point", [2.5, 2 + 1j], ids=["float", "complex"])
    def test_float_and_complex_points_are_refused(self, point):
        for evaluate in (sphere_value, lambda insertions: torus_trace(insertions, 3)):
            with pytest.raises(SeriesError, match="is not exact"):
                evaluate([(A_VECTOR, point), (A_VECTOR, Fraction(3))])

    @pytest.mark.parametrize("order", [(5, ExactComplex(5)), (ExactComplex(5), 5)],
                             ids=["int-first", "ExactComplex-first"])
    def test_an_equal_exactcomplex_point_keeps_its_own_result(self, order):
        # 5 and ExactComplex(5) compare and hash equal, but 5 runs integer
        # pairs and ExactComplex(5) the scalar path: in either order each
        # gets the value and type of a cold evaluation
        def traces(z):
            return torus_trace([(AA, z), (A_VECTOR, Fraction(-7, 2)), (A_VECTOR, 4)], 5)

        cold = {}
        for z in (5, ExactComplex(5)):
            correlators._torus_context.cache_clear()
            cold[type(z)] = traces(z)
        correlators._torus_context.cache_clear()
        for z in order:
            _assert_identical(traces(z), cold[type(z)])
        assert {type(c) for c in cold[int].coefficients.values()} == {Fraction}
        assert {type(c) for c in cold[ExactComplex].coefficients.values()} == {ExactComplex}

    @pytest.mark.parametrize("zero", [0, Fraction(0), ExactComplex(0)],
                             ids=["int", "Fraction", "ExactComplex"])
    def test_point_zero_rejected(self, zero):
        # x = e^z never vanishes: a ValueError, not a ZeroDivisionError
        with pytest.raises(ValueError, match="x = e\\^z"):
            torus_trace([(A_VECTOR, zero), (A_VECTOR, Fraction(2))], 3)


# -- the weighted sums against the per-term route ----------------------

EXACT_KINDS = (int, Fraction)
RAW_POINTS = st.tuples(st.sampled_from((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)),
                       st.sampled_from((1, 2, 3)), st.integers(-2, 2))


def _points(draw, n, exact):
    family = EXACT_KINDS if exact else KINDS
    kinds = draw(st.lists(st.sampled_from(family), min_size=n, max_size=n))
    points = [_point(kind, *raw)
              for kind, raw in zip(kinds, draw(st.lists(RAW_POINTS, min_size=n, max_size=n)))]
    assume(not points_coincide(points))
    return points


@st.composite
def trace_steps(draw, exact=True):
    """Insertions on a trace, a new insertion (v, x) and the q order."""
    states = draw(st.lists(vectors, min_size=1, max_size=3))
    *points, x = _points(draw, len(states) + 1, exact)
    return list(zip(states, points)), (draw(vectors), x), draw(st.integers(0, 5))


@st.composite
def sewn_traces(draw, exact=True):
    """Insertions on a trace to a q order, and one or two handles to rho
    orders 0 to 3, innermost first."""
    states = draw(st.lists(vectors, max_size=2))
    orders = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    points = _points(draw, len(states) + 2 * len(orders), exact)
    handles = [(points[len(states) + 2 * h], points[len(states) + 2 * h + 1], order)
               for h, order in enumerate(orders)]
    return list(zip(states, points)), handles, draw(st.integers(0, 3))


@st.composite
def permuted_traces(draw):
    """Insertions at rational or Gaussian points, a permutation of them,
    an o(v) state or None, and the q order."""
    states = draw(st.lists(vectors, min_size=1, max_size=3))
    insertions = list(zip(states, _points(draw, len(states), exact=False)))
    permuted = draw(st.permutations(insertions))
    return insertions, permuted, draw(st.none() | vectors), draw(st.integers(1, 4))


def _components_reversed(insertions):
    # equal vectors whose components are met in the other order, so that
    # the context's alphabet numbers the fields in another order
    return [(FockVector(dict(reversed(v.terms.items()))), x) for v, x in insertions]


class TestPermutedInsertions:
    @settings(max_examples=40, deadline=None)
    @given(permuted_traces())
    def test_traces_do_not_change_when_the_insertions_are_permuted(self, case):
        # torus_trace with and without o(v), and a torus_trace_sum with a
        # scalar and a q-series weight: cold in either order, and again in
        # a context the other order of first use has warmed, where no
        # state may be keyed under two strings
        insertions, permuted, v, q_order = case
        kernel = pm_numerators(2, Fraction(3), q_order)

        def values(ins):
            return (torus_trace(ins, q_order), torus_trace(ins, q_order, zero_mode_state=v),
                    torus_trace_sum([(Fraction(1, 2), ins, v), (kernel, ins, None)], q_order))

        cold = {}
        for name, ins in (("drawn", insertions), ("permuted", permuted)):
            correlators._torus_context.cache_clear()
            cold[name] = values(ins)
        for got, want in zip(cold["permuted"], cold["drawn"]):
            _assert_identical(got, want)
        for name, ins in (("drawn", insertions), ("permuted", permuted)):
            correlators._torus_context.cache_clear()
            values(_components_reversed(ins))
            for got, want in zip(values(ins), cold[name]):
                _assert_identical(got, want)
            points = tuple(x for _, x in ins)
            ctx = correlators._torus_context(tuple(isinstance(x, ExactComplex) for x in points),
                                             points, q_order)
            states = [tuple(sorted(ctx.fields[ord(c)] for c in key)) for key in ctx.memo]
            assert len(states) == len(set(states))


@contextlib.contextmanager
def _counted_traces():
    # the trace sums that complexes runs, counted: the pieces of each
    calls = []

    def counted(pieces, q_order):
        calls.append(pieces)
        return sewn_trace_series(pieces, q_order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "sewn_trace_series", counted)
        yield calls


def _every_handle_in_each_sum(calls, surface):
    # no sum leaves out a handle: none is a trace per paired term
    return all(len(handles) == len(surface.handles)
               for pieces in calls for _, _, handles, _ in pieces)


class TestWeightedTraceSum:
    @settings(max_examples=40, deadline=None)
    @given(trace_steps())
    # the moves of i a(-1)^2 have no pairing at q^0: the sum there is a
    # Fraction, as the per-term traces give it, though an ExactComplex
    # enters the sum
    @example(([(FockVector({FockState(()): -3, FockState((1,)): -3}), -6)],
              (FockVector({FockState((1,)): -3, FockState((1, 1)): ExactComplex(0, 1)}), -5), 1))
    def test_d2_and_dn_at_exact_points_match_the_per_term_route(self, case):
        entries, x_new, q_order = case
        elem = _element(InsertionTuple(tuple(entries)), Trace(q_order))
        want_d2 = reduce_d2(Trace(q_order), x_new, entries)
        want_dn = reduce_dn(Trace(q_order), x_new, entries)
        with _counted_traces() as calls:
            got_d2 = apply_D2(x_new, elem).value.data
        # one sum (none with no move), no trace per move
        assert len(calls) <= 1
        _assert_identical(got_d2, want_d2)
        _assert_identical(apply_Dn(x_new, elem).value.data, want_dn)

    @settings(max_examples=30, deadline=None)
    @given(trace_steps(exact=False))
    def test_d2_at_gaussian_points_is_the_per_term_route(self, case):
        entries, x_new, q_order = case
        elem = _element(InsertionTuple(tuple(entries)), Trace(q_order))
        with _counted_traces() as calls:
            got = apply_D2(x_new, elem).value.data
        assert len(calls) <= 1
        _assert_identical(got, reduce_d2(Trace(q_order), x_new, entries))

    def test_gaussian_coefficient_at_exact_points_matches_the_per_term_route(self):
        # every kernel is rational and every point too; the coefficient
        # makes the sum Gaussian, and it still runs in one pass
        c = ExactComplex(Fraction(1, 2), Fraction(1, 3))
        entries = [(AA.scale(c) + A_VECTOR, Fraction(5)), (FockVector.basis(2), Fraction(-7, 2))]
        x_new = (AA + A_VECTOR, 4)
        elem = _element(InsertionTuple(tuple(entries)), Trace(5))
        _assert_identical(apply_D2(x_new, elem).value.data, reduce_d2(Trace(5), x_new, entries))
        _assert_identical(apply_Dn(x_new, elem).value.data, reduce_dn(Trace(5), x_new, entries))

    @pytest.mark.parametrize("c", [0.5, complex(0.5, -0.25)], ids=["float", "complex"])
    def test_an_inexact_coefficient_is_refused(self, c):
        entries = [(AA.scale(c) + A_VECTOR, Fraction(5)), (FockVector.basis(2), Fraction(-7, 2))]
        elem = _element(InsertionTuple(tuple(entries)), Trace(5))
        for step in (apply_D1, apply_D2, apply_Dn):
            with pytest.raises(SeriesError, match="is not exact"):
                step((AA + A_VECTOR, 4), elem).value

    @settings(max_examples=30, deadline=None)
    @given(trace_steps(), st.booleans())
    def test_torus_trace_is_the_one_term_case(self, case, weighted):
        entries, (v, x), q_order = case
        v = v if weighted else None
        _assert_identical(torus_trace_sum([(1, entries, v)], q_order),
                          torus_trace(entries, q_order, zero_mode_state=v))
        # a kernel weight is a q-series product, a scalar one a multiple
        kernel = pm_numerators(2, _ratio(x, entries[0][1]), q_order)
        _assert_identical(
            torus_trace_sum([(kernel, entries, v), (Fraction(-3, 7), entries, v)], q_order),
            pm_qseries(2, _ratio(x, entries[0][1]), q_order) * torus_trace(entries, q_order, v)
            + torus_trace(entries, q_order, v) * Fraction(-3, 7))

    def test_every_exact_sum_runs_and_an_inexact_one_is_refused(self):
        # a Gaussian weight, point or coefficient is summed like a rational
        # one, with the per-term value and type; a float is not exact
        exact = [(A_VECTOR, Fraction(5)), (A_VECTOR, 2)]
        gaussian = [(A_VECTOR, ExactComplex(5, 1)), (A_VECTOR, 2)]
        half = ExactComplex(Fraction(1, 2), 1)
        for weight, insertions, v in ((Fraction(1, 2), exact, None), (half, exact, None),
                                      (1, gaussian, None), (1, exact, AA.scale(half))):
            _assert_identical(torus_trace_sum([(weight, insertions, v)], 4),
                              torus_trace(insertions, 4, v) * weight)
        with pytest.raises(SeriesError, match="is not exact"):
            torus_trace_sum([(0.5, exact, None)], 4)
        with pytest.raises(SeriesError, match="is not exact"):
            torus_trace_sum([(1, exact, A_VECTOR.scale(0.5))], 4)


def _sewn_trace(q_order, handles):
    surface = Trace(q_order)
    for zeta1, zeta2, order in handles:
        surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
    return surface


@st.composite
def sewn_trace_steps(draw, exact=True):
    """Insertions on a trace with one or two handles sewn on, and a new
    insertion (v, x) for a reduction step."""
    states = draw(st.lists(vectors, max_size=2))
    orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    *points, x = _points(draw, len(states) + 2 * len(orders) + 1, exact)
    handles = [(points[len(states) + 2 * h], points[len(states) + 2 * h + 1], order)
               for h, order in enumerate(orders)]
    return list(zip(states, points)), handles, (draw(vectors), x), draw(st.integers(1, 3))


class TestSewnTraceSeries:
    @settings(max_examples=40, deadline=None)
    @given(sewn_traces())
    def test_exact_sewn_trace_matches_the_per_term_sums(self, case):
        insertions, handles, q_order = case
        surface = _sewn_trace(q_order, handles)
        want = evaluate(surface, insertions)
        with _counted_traces() as calls:
            got = surface.evaluate(tuple(insertions)).data
        # every handle at once, in one sum (none at an order 0): no trace
        # per paired term
        assert len(calls) == all(order for _, _, order in handles)
        assert _every_handle_in_each_sum(calls, surface)
        _assert_identical(got, want)
        if all(order for _, _, order in handles):
            sewn = [_sewn_handle(*h) for h in surface.handles]
            _assert_identical(sewn_trace_series([(1, insertions, sewn, None)], q_order), want)

    @settings(max_examples=30, deadline=None)
    @given(sewn_traces(exact=False))
    def test_gaussian_sewn_trace_is_the_per_term_sums(self, case):
        insertions, handles, q_order = case
        surface = _sewn_trace(q_order, handles)
        with _counted_traces() as calls:
            got = surface.evaluate(tuple(insertions)).data
        assert len(calls) == all(order for _, _, order in handles)
        assert _every_handle_in_each_sum(calls, surface)
        _assert_identical(got, evaluate(surface, insertions))

    @settings(max_examples=25, deadline=None)
    @given(sewn_trace_steps())
    # each coefficient is typed by the per-term traces not 0 there
    @example(([], [(-6, -5, 2)],
              (FockVector({FockState(()): ExactComplex(-2), FockState((1, 1)): 1}), -4), 2))
    def test_reduction_at_exact_points_matches_the_per_term_route(self, case):
        # D1 (o(v) and the moves at the pair slots) and D2 (the moves at
        # the element's slots) as one trace sum per rho multi-index
        insertions, handles, x_new, q_order = case
        surface = _sewn_trace(q_order, handles)
        elem = _element(InsertionTuple(tuple(insertions)), surface)
        with _counted_traces() as calls:
            got_d1 = apply_D1(x_new, elem).value.data
            got_d2 = apply_D2(x_new, elem).value.data
        # one sum per summand (none for D2 with no move)
        assert len(calls) in (1, 2)
        assert _every_handle_in_each_sum(calls, surface)
        _assert_identical(got_d1, reduce_d1(surface, x_new, insertions))
        _assert_identical(got_d2, reduce_d2(surface, x_new, insertions))

    @settings(max_examples=25, deadline=None)
    @given(sewn_trace_steps(exact=False))
    # a P_m-weighted term with no pairing (an odd field count) is 0 of the
    # type its per-term product has: the kernel times the empty series
    @example(([], [(-6, -5, 1), (-4, -3, 2)],
              (FockVector({FockState(()): -3, FockState((1,)): -3}), ExactComplex(-6, 1)), 1))
    @example(([], [(-6, -2, 1), (-4, -3, 2)],
              (FockVector({FockState((1,)): ExactComplex(0, 1), FockState((1, 1)): -3}), -5), 1))
    # the traces of D2's moves are -1800+0j, 1800+0j and -4200: a running
    # total cancels to 0 and the last term would retype it a Fraction, but
    # the sum of them all is -4200+0j, and so is D^n's
    @example(([(FockVector({FockState((1,)): -3}), -6),
               (FockVector({FockState((2,)): ExactComplex(0, 1), FockState((1, 1)): -3}), -5)],
              [(-4, -3, 1)], (FockVector({FockState((1,)): -3, FockState((2,)): -3}), -2), 1))
    def test_reduction_at_gaussian_points_matches_the_per_term_route(self, case):
        insertions, handles, x_new, q_order = case
        surface = _sewn_trace(q_order, handles)
        elem = _element(InsertionTuple(tuple(insertions)), surface)
        with _counted_traces() as calls:
            got_d1 = apply_D1(x_new, elem).value.data
            got_d2 = apply_D2(x_new, elem).value.data
        # one sum per summand (none for D2 with no move)
        assert len(calls) in (1, 2)
        assert _every_handle_in_each_sum(calls, surface)
        _assert_identical(got_d1, reduce_d1(surface, x_new, insertions))
        _assert_identical(got_d2, reduce_d2(surface, x_new, insertions))
        with _counted_traces() as calls:
            got_dn = apply_Dn(x_new, elem).value.data
        # one sum for D1's and D2's pieces together
        assert len(calls) == 1
        _assert_identical(got_dn, reduce_dn(surface, x_new, insertions))

    @pytest.mark.parametrize("c1, c2, entries", [
        (ExactComplex(0, 1), 3, [(A_VECTOR, Fraction(5))]),
        (3, ExactComplex(0, 1), []),
        (ExactComplex(1, -1), 3, [(A_VECTOR, Fraction(5))]),
    ], ids=["i-even", "i-odd", "gaussian-even"])
    def test_a_moved_pair_state_is_typed_as_its_own_trace(self, c1, c2, entries):
        # c1 a(-1)^2 + c2 a(-2) moves a paired state into basis states of
        # both field parities: only one parity has a pairing, and the
        # ExactComplex coefficient of the other still types that trace
        v = FockVector({FockState((1, 1)): c1, FockState((2,)): c2})
        surface = Trace(2).sew(SewingData(zeta1=3, zeta2=-2), 2)
        elem = _element(InsertionTuple(tuple(entries)), surface)
        _assert_identical(apply_D1((v, 7), elem).value.data, reduce_d1(surface, (v, 7), entries))

    @pytest.mark.parametrize("zero", [0, Fraction(0), ExactComplex(0)],
                             ids=["int", "Fraction", "ExactComplex"])
    @pytest.mark.parametrize("q_order", [0, 3])
    def test_a_sewing_point_at_zero_stays_a_complex_error(self, zero, q_order):
        surface = Trace(q_order).sew(SewingData(zeta1=zero, zeta2=2), 2)
        with pytest.raises(ComplexError,
                           match="^genus-1 points are exponentiated coordinates x = e\\^z "
                                 "and cannot be 0$"):
            surface.evaluate(((A_VECTOR, Fraction(5)),))

    def test_a_coincident_point_stays_a_value_error(self):
        surface = Trace(3).sew(SewingData(zeta1=Fraction(5), zeta2=2), 2)
        with pytest.raises(ValueError, match="^insertion points must be pairwise distinct$"):
            surface.evaluate(((A_VECTOR, 5),))


class TestLargeOrder:
    def test_aa_a_a_to_order_30(self):
        insertions = [(AA, Fraction(5)), (A_VECTOR, Fraction(-6)), (A_VECTOR, Fraction(7))]
        correlators._torus_context.cache_clear()
        start = time.perf_counter()
        deep = torus_trace(insertions, 30)
        elapsed = time.perf_counter() - start
        assert deep.truncation == 30 and deep.coefficient(29) != 0
        assert elapsed < 10  # about 0.04 s on a 2-core host; a loose guard
        shallow = _brute(insertions, 10)
        for k in range(10):
            assert deep.coefficient(k) == shallow.coefficient(k), k
