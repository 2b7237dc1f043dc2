"""The Gaussian genus-1 trace against the brute-force graded trace.

`torus_trace` sums pairings of q-series propagators; `torus_qseries`
sums diagonal sphere elements over the Fock basis.  The two are computed
apart from each other, so agreement per q-coefficient is the thermal
Wick theorem checked, not a construction.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voachain import correlators
from voachain.complexes import Trace
from voachain.correlators import partition_qseries, torus_qseries, torus_trace
from voachain.elliptic import pm_qseries
from voachain.schottky import SewingData, _sewn_handle, _sewn_series
from voachain.series import ExactComplex
from voachain.voa import (
    A_VECTOR,
    VACUUM_VECTOR,
    FockState,
    FockVector,
    fock_basis,
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
        ctx = correlators._torus_context(((type(xi), xi), (type(xj), xj)), q_order)
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
        ctx = correlators._torus_context(tuple((type(x), x) for x in points), 6)
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


_KINDS = {
    float: lambda t: t / 3,
    complex: lambda t: complex(t / 3, 0.5),
    ExactComplex: lambda t: ExactComplex(Fraction(t, 3), Fraction(1, 2)),
}


class TestScalarTypes:
    @pytest.mark.parametrize("kind", list(_KINDS))
    @pytest.mark.parametrize("states", [
        (AA, A_VECTOR, A_VECTOR),
        (VACUUM_VECTOR + A_VECTOR, A_VECTOR, FockVector.basis(2)),
        (VACUUM_VECTOR, FockVector.basis(2, 1), A_VECTOR),
    ])
    @pytest.mark.parametrize("v", [None, AA, FockVector.basis(2, 1) + VACUUM_VECTOR])
    def test_types_and_values_follow_the_brute_force(self, kind, states, v):
        # the first point is of the kind, the others exact
        points = (_KINDS[kind](5), Fraction(-7, 2), 4)
        insertions = list(zip(states, points))
        got = torus_trace(insertions, 5, zero_mode_state=v)
        want = _brute(insertions, 5, v)
        assert set(got.coefficients) == set(want.coefficients)
        for k, c in want.coefficients.items():
            assert type(got.coefficients[k]) is type(c), k
            assert cmath.isclose(complex(got.coefficients[k]), complex(c), rel_tol=1e-12), k

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
            torus_trace([(A_VECTOR, Fraction(2)), (A_VECTOR, 2.0)], 3)


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
