"""The Gaussian genus-1 trace against the brute-force graded trace.

`torus_trace` sums pairings of q-series propagators; `torus_qseries`
sums diagonal sphere elements over the Fock basis.  The two are computed
apart from each other, so agreement per q-coefficient is the thermal
Wick theorem checked, not a construction.  The weighted sums of traces
(`torus_trace_sum`, `sewn_trace_series`) are checked against the
per-term route, one `torus_trace` per term.
"""

import cmath
import contextlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_schottky import KINDS, _assert_identical, _point, vectors

from voachain import complexes, correlators
from voachain.complexes import (
    ComplexError,
    InsertionTuple,
    Trace,
    _element,
    _ratio,
    apply_D2,
    apply_Dn,
)
from voachain.correlators import (
    partition_qseries,
    sewn_trace_series,
    sphere_value,
    torus_qseries,
    torus_trace,
    torus_trace_sum,
)
from voachain.elliptic import pm_numerators, pm_qseries
from voachain.schottky import SewingData, _genus_g_sum, _sewn_handle, _sewn_series
from voachain.series import ExactComplex, SeriesError, points_coincide
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
        want = _sewn_series(_sewn_handle(sd.zeta1, sd.zeta2, 4, "rho"),
                            lambda pairs: _brute([*insertions, *pairs], 5))
        assert set(got.coefficients) == set(want.coefficients) == {0, 1, 2, 3}
        for k, series in want.coefficients.items():
            _same(got.coefficients[k], series)

    def test_zero_mode_of_a_state_with_one_field_vanishes(self):
        # o(a) = a(0) and o(a(-2)1) = (L(-1) a)(1) are 0 on the charge-0 module
        insertions = [(AA, Fraction(3)), (A_VECTOR, Fraction(-5))]
        for v in (A_VECTOR, FockVector.basis(2), FockVector.basis(3)):
            assert torus_trace(insertions, 6, zero_mode_state=v).is_zero()


class TestPropagator:
    @pytest.mark.parametrize("xi, xj", [(Fraction(5), Fraction(2)),
                                        (Fraction(-7, 2), Fraction(1, 3))])
    def test_weight_one_propagator_is_p2(self, xi, xj):
        # xi xj <a(xi) a(xj)> in q is P2 at xj / xi
        q_order = 8
        ctx = correlators._torus_context((False, False), (xi, xj), q_order)
        nums, den = correlators._propagator(ctx, "\x00\x00\x00\x01")
        p2 = pm_qseries(2, xj / xi, q_order)
        assert [xi * xj * Fraction(n, den) for n in nums] == [p2.coefficient(k) for k in range(q_order)]

    def test_exact_memo_holds_reduced_int_pairs(self):
        # at exact points every table entry is one q-series over one
        # denominator: int numerators, a positive int denominator, gcd 1
        points = (Fraction(5, 2), Fraction(-7, 3), Fraction(4))
        insertions = [(AA + FockVector.basis(2), points[0]), (A_VECTOR, points[1]),
                      (FockVector.basis(2, 1), points[2])]
        torus_trace(insertions, 6, zero_mode_state=AA + FockVector.basis(3))
        ctx = correlators._torus_context((False,) * 3, points, 6)
        entries = [val for val in ctx.memo.values() if val is not None]
        for val in ctx.propagators.values():
            entries += val.values() if isinstance(val, dict) else [val]
        assert len(entries) > 20
        for nums, den in entries:
            assert len(nums) == 6
            assert all(type(n) is int for n in nums) and type(den) is int and den > 0
            assert math.gcd(den, *nums) == 1

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
                                   ExactComplex(Fraction(1, 2), Fraction(1, 3))])
    @pytest.mark.parametrize("v", [None, AA.scale(Fraction(1, 2)) + FockVector.basis(2)])
    def test_inexact_coefficients_at_exact_points(self, c, v):
        # the points are exact, so the tables hold integer pairs, but
        # the coefficient leaves the trace in the coefficient's arithmetic
        insertions = [(AA.scale(c) + A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(-7, 2)),
                      (FockVector.basis(2), 4)]
        got = torus_trace(insertions, 5, zero_mode_state=v)
        want = _brute(insertions, 5, v)
        assert set(got.coefficients) == set(want.coefficients)
        for k, w in want.coefficients.items():
            assert type(got.coefficients[k]) is type(w), k
            assert cmath.isclose(complex(got.coefficients[k]), complex(w), rel_tol=1e-12), k

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            torus_trace([(A_VECTOR, Fraction(2)), (A_VECTOR, ExactComplex(2))], 3)

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


def _per_term_d2(trace, entries, x_new):
    # D2 one torus_trace per move, each P_{m+1} kernel a pm_qseries: the
    # per-term route, in the order complexes._moves gives the moves
    v, x = x_new
    q_order = trace.q_order
    total = trace._zero()
    for wt, comp in v.homogeneous_components().items():
        for k, (state, x_k) in enumerate(entries):
            for m in range(wt + max(s.weight for s in state.terms) + 1):
                moved = square_bracket_mode(comp, m)(state)
                if not moved.is_zero():
                    term = [*entries[:k], (moved, x_k), *entries[k + 1:]]
                    total = total + pm_qseries(m + 1, _ratio(x, x_k), q_order) * torus_trace(
                        term, q_order)
    return total


@contextlib.contextmanager
def _counted_traces():
    # the per-term traces that complexes evaluates, counted
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return torus_trace(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "torus_trace", counted)
        yield calls


class TestWeightedTraceSum:
    @settings(max_examples=40, deadline=None)
    @given(trace_steps())
    def test_d2_and_dn_at_exact_points_match_the_per_term_route(self, case):
        entries, x_new, q_order = case
        elem = _element(InsertionTuple(tuple(entries)), Trace(q_order))
        want_d2 = _per_term_d2(Trace(q_order), entries, x_new)
        want_dn = torus_trace(entries, q_order, zero_mode_state=x_new[0]) + want_d2
        with _counted_traces() as calls:
            got_d2 = apply_D2(x_new, elem).value.data
        # one sum, no trace per move
        assert calls == []
        _assert_identical(got_d2, want_d2)
        _assert_identical(apply_Dn(x_new, elem).value.data, want_dn)

    @settings(max_examples=30, deadline=None)
    @given(trace_steps(exact=False))
    def test_d2_at_gaussian_points_is_the_per_term_route(self, case):
        entries, x_new, q_order = case
        elem = _element(InsertionTuple(tuple(entries)), Trace(q_order))
        _assert_identical(apply_D2(x_new, elem).value.data,
                          _per_term_d2(Trace(q_order), entries, x_new))

    @pytest.mark.parametrize("c", [0.5, complex(0.5, -0.25),
                                   ExactComplex(Fraction(1, 2), Fraction(1, 3))])
    def test_inexact_coefficient_at_exact_points_sums_per_term(self, c):
        # every kernel is exact, the sum is not: the per-term route runs,
        # each kernel lowered to the q-series pm_qseries gives
        entries = [(AA.scale(c) + A_VECTOR, Fraction(5)), (FockVector.basis(2), Fraction(-7, 2))]
        x_new = (AA + A_VECTOR, 4)
        elem = _element(InsertionTuple(tuple(entries)), Trace(5))
        _assert_identical(apply_D2(x_new, elem).value.data, _per_term_d2(Trace(5), entries, x_new))
        _assert_identical(apply_Dn(x_new, elem).value.data,
                          torus_trace(entries, 5, zero_mode_state=x_new[0])
                          + _per_term_d2(Trace(5), entries, x_new))

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

    def test_an_inexact_sum_is_left_to_the_caller(self):
        exact = [(A_VECTOR, Fraction(5)), (A_VECTOR, 2)]
        assert torus_trace_sum([(Fraction(1, 2), exact, None)], 4) is not None
        assert torus_trace_sum([(0.5, exact, None)], 4) is None
        assert torus_trace_sum([(1, [(A_VECTOR, ExactComplex(5, 1)), (A_VECTOR, 2)], None)],
                               4) is None
        assert torus_trace_sum([(1, exact, A_VECTOR.scale(0.5))], 4) is None


class TestSewnTraceSeries:
    @settings(max_examples=40, deadline=None)
    @given(sewn_traces())
    def test_exact_sewn_trace_matches_the_per_term_sums(self, case):
        insertions, handles, q_order = case
        surface = Trace(q_order)
        for zeta1, zeta2, order in handles:
            surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
        want = _genus_g_sum(surface.handles, insertions,
                            inner=lambda points: torus_trace(points, q_order))
        with _counted_traces() as calls:
            got = surface.evaluate(tuple(insertions)).data
        # every handle at once: no trace per paired term
        assert calls == []
        _assert_identical(got, want)
        if all(order for _, _, order in handles):
            sewn = [_sewn_handle(*h) for h in surface.handles]
            _assert_identical(sewn_trace_series(insertions, sewn, q_order), want)

    @settings(max_examples=30, deadline=None)
    @given(sewn_traces(exact=False))
    def test_gaussian_sewn_trace_is_the_per_term_sums(self, case):
        insertions, handles, q_order = case
        surface = Trace(q_order)
        for zeta1, zeta2, order in handles:
            surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
        _assert_identical(surface.evaluate(tuple(insertions)).data,
                          _genus_g_sum(surface.handles, insertions,
                                       inner=lambda points: torus_trace(points, q_order)))

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
