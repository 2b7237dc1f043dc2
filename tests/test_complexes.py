"""Tests for the reduction differentials, chain conditions, zero-point
factorization, connection functional, and probe cohomology."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from references import (
    _assert_identical,
    _typed,
    corr_deviation,
    evaluate,
    pm_qseries,
    reduce_d1,
    reduce_d2,
    torus_qseries,
)

from test_correlators import _points
from test_schottky import vectors

from voachain.complexes import (
    ComplexError,
    CorrelationFunction,
    DifferentialDescriptor,
    InsertionTuple,
    ProbeComplex,
    apply_D1,
    apply_D2,
    apply_Dg,
    apply_Dn,
    check_chain_conditions,
    ConditionReport,
    cohomology_ranks,
    connection_functional,
    corr_difference,
    element_from_insertions,
    _check_ncondition,
    _element,
    _nested_coefficient,
    reduce_to_zero_point,
    Sphere,
    Trace,
)
from voachain.correlators import sewn_sphere_series, sphere_value
from voachain.schottky import SchottkyData, SewingData, row_reduce_integer
from voachain.series import (
    ExactComplex,
    SeriesError,
    TruncatedSeries,
    _int_power,
    points_coincide,
)
from voachain.voa import (
    A_VECTOR,
    OMEGA_VECTOR,
    VACUUM,
    VACUUM_VECTOR,
    FockState,
    FockVector,
    zero_mode,
)

AA = FockVector.basis(1, 1)  # a(-1)a, weight 2
POOL = {"1": VACUUM_VECTOR, "a": A_VECTOR, "aa": AA}
POINTS0 = (Fraction(3), Fraction(1), Fraction(-2))
POINTS1 = (Fraction(5), Fraction(2), Fraction(1, 2))


def g0_element(*names_points):
    return element_from_insertions(InsertionTuple(tuple((POOL[n], z) for n, z in names_points)), 0)


def _corr_sum(a, b):
    return CorrelationFunction(a.genus, a.data + b.data, a.prefactor_exponent)


def sewn_sphere(handles, *names_points, elem=None):
    # the genus-0 element (by default of names_points) with handles sewn
    # on at (-1, 1), then (-4, 4), to rho order 3
    elem = elem or g0_element(*names_points)
    for zeta in (Fraction(1), Fraction(4))[:handles]:
        elem = apply_Dg(elem, SewingData(zeta1=-zeta, zeta2=zeta), 3)
    return elem


def sewn_sum(sd, entries, rho_orders):
    # the sphere sewn with the handles of sd, at the entries
    return Sphere(sd.handles(rho_orders)).evaluate(tuple(entries)).data


def g1_element(names_points, q_order=8):
    ins = InsertionTuple(tuple((POOL[n], x) for n, x in names_points))
    return element_from_insertions(ins, 1, q_order=q_order)


class TestGenus0Oracle:
    def test_zero_point_is_pairing(self):
        elem = g0_element()
        assert elem.value.data == 1

    def test_one_point_of_a_vanishes(self):
        assert g0_element(("a", Fraction(2))).value.data == 0

    def test_two_point_of_a(self):
        z1, z2 = Fraction(3), Fraction(1)
        elem = g0_element(("a", z1), ("a", z2))
        assert elem.value.data == Fraction(1, (z1 - z2) ** 2)

    def test_coincident_points_rejected(self):
        with pytest.raises(ComplexError):
            InsertionTuple(((A_VECTOR, Fraction(1)), (A_VECTOR, Fraction(1))))


class TestGenus0ReductionEquivalence:
    def test_iterated_reduction_matches_oracle_exactly(self):
        # all tuples with n <= 3 from the pool at distinct rational points
        names = list(POOL)
        for n in range(1, 4):
            for combo in _tuples(names, n):
                elem = g0_element()
                for i, name in enumerate(combo):
                    elem = apply_Dn((POOL[name], POINTS0[i]), elem)
                direct = g0_element(*zip(combo, POINTS0[:n]))
                assert elem.value.data == direct.value.data, combo

    def test_vacuum_insertion_is_identity(self):
        base = g0_element(("a", POINTS0[0]), ("a", POINTS0[1]))
        stepped = apply_Dn((VACUUM_VECTOR, POINTS0[2]), base)
        assert stepped.value.data == base.value.data

    def test_d1_vacuum_returns_input(self):
        base = g0_element(("a", POINTS0[0]), ("a", POINTS0[1]))
        d1 = apply_D1((VACUUM_VECTOR, POINTS0[2]), base)
        assert d1.value.data == base.value.data

    def test_d2_of_vacuum_vanishes(self):
        base = g0_element(("a", POINTS0[0]), ("a", POINTS0[1]))
        d2 = apply_D2((VACUUM_VECTOR, POINTS0[2]), base)
        assert d2.value.data == 0

    def test_d2_rebuilds_two_point(self):
        # from the (zero) one-point of a: D2 alone carries the value
        base = g0_element(("a", POINTS0[1]))
        d2 = apply_D2((A_VECTOR, POINTS0[0]), base)
        d1 = apply_D1((A_VECTOR, POINTS0[0]), base)
        want = g0_element(("a", POINTS0[1]), ("a", POINTS0[0])).value.data
        assert d1.value.data == 0
        assert d2.value.data == want

    @pytest.mark.parametrize("names_points", [
        (("a", 3), ("a", 1)),
        (("a", ExactComplex(3)), ("a", ExactComplex(1))),
        (("a", Fraction(3)), ("a", ExactComplex(1))),
        (("a", Fraction(1, 2)),),
        (("aa", Fraction(1, 2)),),
        (("1", ExactComplex(0, 1)), ("a", 3), ("a", 1)),
        (("1", ExactComplex(0, 1)), ("a", ExactComplex(3)), ("a", 1)),
        (("aa", ExactComplex(0, 1)), ("a", 3), ("1", ExactComplex(1))),
        (("a", ExactComplex(3, 1)), ("a", 1)),
        (("a", ExactComplex(0, 3)), ("a", 1), ("aa", -2)),
    ])
    def test_d1_of_weight_one_keeps_the_scalar_type(self, names_points):
        # o(v)|0> = 0 for wt v >= 1: D1 is the zero that evaluating the
        # element and scaling by that matrix element would give
        base = g0_element(*names_points)
        z = Fraction(-5)
        op_vac = zero_mode(A_VECTOR)(VACUUM_VECTOR).coefficient(VACUUM)
        want = _int_power(z, -1) * (sphere_value(base.insertions.entries) * op_vac)
        got = apply_D1((A_VECTOR, z), base).value.data
        assert got == 0
        assert type(got) is type(want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("1", "a", "aa", "1+a", "a+aa")),
                              st.sampled_from((int, Fraction, ExactComplex))),
                    max_size=4))
    def test_d1_zero_type_matches_evaluation(self, slots):
        # mixed vectors and point types: the unevaluated zero has the
        # type sphere_value's sum would have
        pool = {**POOL, "1+a": VACUUM_VECTOR + A_VECTOR, "a+aa": A_VECTOR + AA}
        entries = tuple((pool[name], kind(3 * i + 1)) for i, (name, kind) in enumerate(slots))
        base = element_from_insertions(InsertionTuple(entries), 0)
        z = Fraction(-5)
        want = _int_power(z, -1) * (sphere_value(entries) * 0)
        got = apply_D1((A_VECTOR, z), base).value.data
        assert got == 0
        assert type(got) is type(want)

    @pytest.mark.parametrize("v", [A_VECTOR, AA, VACUUM_VECTOR + A_VECTOR])
    def test_step_to_zero_with_weight_rejected(self, v):
        # D1 scales by z^-wt: a new point 0 is a validation error, not a
        # ZeroDivisionError
        base = g0_element(("a", Fraction(2)))
        with pytest.raises(ComplexError, match="z = 0"):
            apply_D1((v, 0), base)
        with pytest.raises(ComplexError, match="z = 0"):
            apply_Dn((v, Fraction(0)), base)

    def test_vacuum_step_to_zero_is_identity(self):
        base = g0_element(("a", Fraction(2)), ("a", Fraction(5)))
        stepped = apply_Dn((VACUUM_VECTOR, 0), base)
        assert stepped.value.data == base.value.data
        assert stepped.insertions.entries[-1] == (VACUUM_VECTOR, 0)


def _tuples(names, n):
    if n == 0:
        yield ()
        return
    for head in names:
        for rest in _tuples(names, n - 1):
            yield (head,) + rest


partitions_to_4 = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
state_strategy = st.builds(
    lambda pairs: FockVector(
        {FockState(p): c for p, c in pairs}
    ),
    st.lists(
        st.tuples(
            st.sampled_from(partitions_to_4),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        min_size=1,
        max_size=2,
    ),
)


class TestGenus0ReductionRandomized:
    @settings(max_examples=40, deadline=None)
    @given(state_strategy, state_strategy)
    def test_reduction_matches_oracle_for_random_states(self, v1, v2):
        # the reduction identity is a theorem for arbitrary module
        # states, not just the acceptance pool
        z1, z2 = Fraction(4), Fraction(1)
        elem = apply_Dn((v2, z2), apply_Dn((v1, z1), g0_element()))
        direct = element_from_insertions(InsertionTuple(((v1, z1), (v2, z2))), 0)
        assert elem.value.data == direct.value.data


class TestGenus1Oracle:
    def test_partition_series(self):
        elem = g1_element([], q_order=7)
        counts = [1, 1, 2, 3, 5, 7, 11]
        for k, c in enumerate(counts):
            assert elem.value.data.coefficient(k) == c
        assert elem.value.prefactor_exponent == Fraction(-1, 24)

    def test_one_point_of_a_vanishes(self):
        elem = g1_element([("a", Fraction(2))], q_order=6)
        assert elem.value.data.is_zero()

    def test_vacuum_one_point_equals_partition(self):
        elem = g1_element([("1", Fraction(2))], q_order=6)
        part = g1_element([], q_order=6)
        assert elem.value.data.compare(part.value.data).deviation == 0

    @pytest.mark.parametrize("points", [(0, Fraction(2)), (Fraction(2), Fraction(0))])
    def test_point_zero_rejected_by_every_entry(self, points):
        # the trace checks its own points, whichever way it is reached
        ins = InsertionTuple(tuple((A_VECTOR, x) for x in points))
        with pytest.raises(ComplexError, match="x = e\\^z"):
            element_from_insertions(ins, 1, q_order=3)
        with pytest.raises(ComplexError, match="x = e\\^z"):
            _element(ins, Trace(3))


class TestGenus1ReductionEquivalence:
    def test_one_point_reduction(self):
        for name in ("1", "a"):
            base = g1_element([], q_order=8)
            stepped = apply_Dn((POOL[name], POINTS1[0]), base)
            direct = g1_element([(name, POINTS1[0])], q_order=8)
            assert corr_deviation(stepped.value, direct.value) == 0, name

    def test_two_point_reduction_exact_through_order_8(self):
        for n1 in ("1", "a"):
            for n2 in ("1", "a"):
                base = g1_element([(n1, POINTS1[0])], q_order=8)
                stepped = apply_Dn((POOL[n2], POINTS1[1]), base)
                direct = g1_element([(n1, POINTS1[0]), (n2, POINTS1[1])], q_order=8)
                dev = corr_deviation(stepped.value, direct.value)
                assert dev == 0, (n1, n2)

    def test_two_point_aa_composite_state(self):
        # weight-2 composite insertion exercises P_1, P_2, P_3 kernels
        base = g1_element([("aa", POINTS1[0])], q_order=7)
        stepped = apply_Dn((AA, POINTS1[1]), base)
        direct = g1_element([("aa", POINTS1[0]), ("aa", POINTS1[1])], q_order=7)
        assert corr_deviation(stepped.value, direct.value) == 0

    def test_three_point_composite_states_exercise_p1_kernel(self):
        # weight-2 insertions make v[0] act nontrivially, so this pins
        # the constant convention of the m=0 kernel (it cancels only in
        # the sum over slots, through the commutator trace identity)
        x1, x2, x3 = Fraction(7), Fraction(3), Fraction(1)
        base = g1_element([("aa", x1), ("aa", x2)], 6)
        stepped = apply_Dn((AA, x3), base)
        direct = g1_element([("aa", x1), ("aa", x2), ("aa", x3)], 6)
        assert corr_deviation(stepped.value, direct.value) == 0
        mixed_base = g1_element([("a", x1), ("a", x2)], 6)
        mixed = apply_Dn((AA, x3), mixed_base)
        mixed_direct = g1_element([("a", x1), ("a", x2), ("aa", x3)], 6)
        assert corr_deviation(mixed.value, mixed_direct.value) == 0

    def test_omega_square_bracket_zero_mode_is_weighted_trace(self):
        # o(omega~) inserted equals (q d/dq + prefactor shift) of the
        # bare trace: coefficient k picks up (k - c/24)
        q_order = 7
        omega_tilde = OMEGA_VECTOR + VACUUM_VECTOR.scale(Fraction(-1, 24))
        ins = [(A_VECTOR, POINTS1[0]), (A_VECTOR, POINTS1[1])]
        from voachain.voa import zero_mode

        weighted = torus_qseries(ins, q_order, left_operator=zero_mode(omega_tilde))
        bare = torus_qseries(ins, q_order)
        for k in range(q_order):
            want = bare.coefficient(k) * (Fraction(k) - Fraction(1, 24))
            assert weighted.coefficient(k) == want, k

    def test_d1_of_a_vanishes_at_genus1(self):
        base = g1_element([("a", POINTS1[0])], q_order=6)
        d1 = apply_D1((A_VECTOR, POINTS1[1]), base)
        assert d1.value.data.is_zero()


class TestApplyDg:
    def test_partition_counts_through_order_6(self):
        base = g0_element()
        sewn = apply_Dg(base, SewingData(), 7)
        counts = [1, 1, 2, 3, 5, 7, 11]
        for k, c in enumerate(counts):
            assert sewn.value.data.coefficient(k) == c

    def test_vacuum_rho0_term_is_input(self):
        base = g0_element(("a", Fraction(4)), ("a", Fraction(6)))
        sewn = apply_Dg(base, SewingData(), 3)
        assert sewn.value.data.coefficient(0) == base.value.data

    def test_linearity(self):
        b1 = g0_element(("a", Fraction(4)), ("a", Fraction(6)))
        b2 = g0_element(("aa", Fraction(4)), ("a", Fraction(6)))
        combo_ins = InsertionTuple(
            ((A_VECTOR + AA.scale(Fraction(3, 7)), Fraction(4)), (A_VECTOR, Fraction(6))))
        combo = element_from_insertions(combo_ins, 0)
        s1 = apply_Dg(b1, SewingData(), 5)
        s2 = apply_Dg(b2, SewingData(), 5)
        sc = apply_Dg(combo, SewingData(), 5)
        for k in range(5):
            want = s1.value.data.coefficient(k) + Fraction(3, 7) * s2.value.data.coefficient(k)
            assert sc.value.data.coefficient(k) == want

    def test_one_point_a_matches_vanishing_torus_one_point(self):
        base = g0_element(("a", Fraction(4)))
        sewn = apply_Dg(base, SewingData(), 6)
        assert sewn.value.data.is_zero()

    def test_genus_one_to_two_degeneration(self):
        base = g1_element([], q_order=5)
        sewn = apply_Dg(base, SewingData(zeta1=Fraction(4), zeta2=Fraction(6)), 2)
        rho0 = sewn.value.data.coefficient(0)
        part = torus_qseries([], 5)
        assert rho0.compare(part).deviation == 0


class TestChainConditions:
    def test_vacuum_residuals_exactly_zero(self):
        elem0 = g0_element(("a", Fraction(7)), ("a", Fraction(9)))
        elem1 = g1_element([("a", Fraction(7))], q_order=5)
        suite = [
            {"kind": "n", "element": elem0,
             "x1": (VACUUM_VECTOR, Fraction(11)), "x2": (VACUUM_VECTOR, Fraction(13))},
            {"kind": "n", "element": elem1,
             "x1": (VACUUM_VECTOR, Fraction(11)), "x2": (VACUUM_VECTOR, Fraction(13))},
            {"kind": "g", "element": elem0, "rho_order": 3},
            {"kind": "gn", "element": elem0,
             "x": (VACUUM_VECTOR, Fraction(11)), "rho_order": 3},
        ]
        reports = check_chain_conditions(suite)
        for rep in reports:
            assert rep.residual == 0, rep.kind
        # the raw composition norms are nonzero: the literal conditions
        # constrain, they are not identities
        assert any(rep.composition_norm != 0 for rep in reports)

    def test_nontrivial_insertions_report_without_crashing(self):
        elem0 = g0_element(("a", Fraction(7)), ("a", Fraction(9)))
        elem1 = g1_element([("a", Fraction(7))], q_order=4)
        suite = [
            {"kind": "n", "element": elem0,
             "x1": (A_VECTOR, Fraction(11)), "x2": (A_VECTOR, Fraction(13))},
            {"kind": "n", "element": elem1,
             "x1": (A_VECTOR, Fraction(3)), "x2": (A_VECTOR, Fraction(4))},
            {"kind": "gn", "element": elem0,
             "x": (A_VECTOR, Fraction(11)), "rho_order": 3},
        ]
        reports = check_chain_conditions(suite)
        assert len(reports) == 3
        for rep in reports:
            assert math.isfinite(rep.residual)

    def test_gcondition_sums_only_the_twice_sewn_values(self, monkeypatch):
        # the once-sewn intermediates are never valued: the check makes one
        # sewn_sphere_series call per handle order, both at one point set,
        # and the second runs in the first one's Wick context
        from voachain import complexes, correlators

        elem = g0_element(("a", Fraction(7)), ("a", Fraction(9)))
        calls = []

        def spy(pieces):
            misses = correlators._wick_context.cache_info().misses
            out = sewn_sphere_series(pieces)
            (_, insertions, handles), = pieces
            points = sorted([z for _, z in insertions] + [z for h in handles for z in h[:2]])
            calls.append((points, correlators._wick_context.cache_info().misses - misses))
            return out

        monkeypatch.setattr(complexes, "sewn_sphere_series", spy)
        report = complexes._check_gcondition({"element": elem, "rho_order": 3})
        assert report.residual == 0 and report.composition_norm != 0
        (points_ab, _), (points_ba, new_ba) = calls
        assert points_ab == points_ba == sorted(Fraction(z) for z in (7, 9, 1, -1, 3, -3))
        assert new_ba == 0

    def test_exchange_residual_vanishes_for_exact_reductions(self):
        # at desk scale the reduction is a theorem at genus 0 and 1, so
        # the insertion-exchange residual is exactly zero there
        elem = g0_element(("a", Fraction(7)))
        reports = check_chain_conditions([
            {"kind": "n", "element": elem,
             "x1": (A_VECTOR, Fraction(2)), "x2": (AA, Fraction(5))},
        ])
        assert reports[0].residual == 0

    def test_total_condition_vacuum(self):
        elems = {
            (0, 1): g0_element(("a", Fraction(7))),
            (1, 0): g1_element([], q_order=4),
        }
        descriptors = {
            (0, 1): DifferentialDescriptor(VACUUM_VECTOR, Fraction(11), SewingData()),
            (0, 2): DifferentialDescriptor(VACUUM_VECTOR, Fraction(13)),
            (1, 0): DifferentialDescriptor(VACUUM_VECTOR, Fraction(11),
                                           SewingData(zeta1=Fraction(17), zeta2=Fraction(19))),
            (1, 1): DifferentialDescriptor(VACUUM_VECTOR, Fraction(13)),
            (2, 0): DifferentialDescriptor(
                sewing=SewingData(zeta1=Fraction(23), zeta2=Fraction(29))),
        }
        reports = check_chain_conditions([
            {"kind": "total", "elements": elems, "descriptors": descriptors,
             "rho_order": 2},
        ])
        assert reports[0].residual == 0
        # the genus-1 block's g check leaves the window: named, not zero;
        # its gn check is computed
        assert reports[0].skipped.count("beyond") == 1
        assert "g: genus 1+2" in reports[0].skipped


class TestExactVerdict:
    # a residual is a float, which reads 0.0 below about 1e-308; whether
    # the differences vanish is decided on the exact values
    TINY = Fraction(1, 10**400)

    def test_values_with_no_shared_range_are_refused(self):
        a = CorrelationFunction(1, TruncatedSeries("q", {0: 1}, 1))
        b = CorrelationFunction(1, TruncatedSeries("q", {3: 1}, 4, min_exponent=2))
        for compare in (corr_deviation, corr_difference):
            with pytest.raises(ComplexError, match=r"q\^\[0, 1\) and q\^\[2, 4\)"):
                compare(a, b)

    @pytest.mark.parametrize("data", [Fraction(3), TruncatedSeries("q", {0: 1, 2: 5}, 4)])
    def test_a_difference_below_the_float_range_does_not_vanish(self, data):
        a = CorrelationFunction(0, data)
        assert corr_difference(a, a) == (0.0, True)
        assert corr_difference(a, a._replace(data=data + self.TINY)) == (0.0, False)

    def test_the_default_verdict_is_a_zero_residual(self):
        assert ConditionReport("n", 0.0, 1.0, {}).vanishes
        assert not ConditionReport("n", 0.5, 1.0, {}).vanishes
        assert not ConditionReport("n", 0.0, 1.0, {}, vanishes=False).vanishes

    def _shift_call(self, monkeypatch, name, nth):
        # the nth call of the step, the last one of the first path, comes
        # out off by TINY
        from voachain import complexes

        step, calls = getattr(complexes, name), []

        def shifted(*args):
            out = step(*args)
            calls.append(args)
            if len(calls) == nth:
                out = out._replace(value=out.value._replace(data=out.value.data + self.TINY))
            return out

        monkeypatch.setattr(complexes, name, shifted)

    @pytest.mark.parametrize("kind, step, nth", [("n", "apply_Dn", 2), ("g", "apply_Dg", 2),
                                                 ("gn", "apply_Dg", 1)])
    def test_each_check_decides_on_the_exact_differences(self, monkeypatch, kind, step, nth):
        elem = g0_element(("a", Fraction(7)), ("a", Fraction(9)))
        x1, x2 = (VACUUM_VECTOR, Fraction(11)), (VACUUM_VECTOR, Fraction(13))
        case = {"kind": kind, "element": elem, "x1": x1, "x2": x2, "x": x1, "rho_order": 3}
        (exact,) = check_chain_conditions([case])
        assert exact.residual == 0 and exact.vanishes
        self._shift_call(monkeypatch, step, nth)
        (off,) = check_chain_conditions([case])
        assert off.residual == 0.0 and not off.vanishes

    def test_the_total_check_vanishes_only_if_every_block_does(self, monkeypatch):
        elems = {(0, 1): g0_element(("a", Fraction(7)))}
        descriptors = {
            (0, 1): DifferentialDescriptor(VACUUM_VECTOR, Fraction(11)),
            (0, 2): DifferentialDescriptor(VACUUM_VECTOR, Fraction(13)),
        }
        case = {"kind": "total", "elements": elems, "descriptors": descriptors}
        assert check_chain_conditions([case])[0].vanishes
        self._shift_call(monkeypatch, "apply_Dn", 2)
        (off,) = check_chain_conditions([case])
        assert off.residual == 0.0 and not off.vanishes


class TestReduceToZeroPoint:
    def test_zero_insertions_give_unit_factor(self):
        elem = g0_element()
        factor, zero_point = reduce_to_zero_point(elem)
        assert factor == 1
        assert zero_point.data == 1

    def test_genus1_two_point_round_trip(self):
        elem = g1_element([("a", POINTS1[0]), ("a", POINTS1[1])], q_order=8)
        factor, zero_point = reduce_to_zero_point(elem)
        product = factor * zero_point.data
        dev = product.compare(elem.value.data).deviation
        assert dev == 0

    def test_factor_is_elliptic_kernel_for_free_boson_two_point(self):
        # two reduction steps produce exactly the P_2 kernel series
        elem = g1_element([("a", POINTS1[0]), ("a", POINTS1[1])], q_order=8)
        factor, _ = reduce_to_zero_point(elem)
        kernel = pm_qseries(2, POINTS1[1] / POINTS1[0], 8)
        assert factor.compare(kernel).deviation == 0

    def test_vacuum_insertions_give_unit_factor(self):
        elem = g1_element([("1", Fraction(2)), ("1", Fraction(3))], q_order=6)
        factor, _ = reduce_to_zero_point(elem)
        assert factor.coefficient(0) == 1
        # P = 1 as a series
        one = TruncatedSeries("q", {0: 1}, factor.truncation)
        assert factor.compare(one).deviation == 0

    @pytest.mark.parametrize("genus, orders, variable", [
        (1, {"q_order": 0}, "q"),
        (2, {"rho_orders": (0, 3)}, "rho1"),
        (2, {"rho_orders": (3, 0)}, "rho2"),
    ], ids=["genus1-q", "genus2-rho1", "genus2-rho2"])
    def test_a_truncation_order_0_is_named_not_a_vanishing_zero_point(
            self, genus, orders, variable):
        # no coefficient is known there, so none vanishes: the refusal
        # names the order that is 0
        elem = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(2)),)), genus,
                                       SD2 if genus == 2 else None, **orders)
        with pytest.raises(ComplexError) as info:
            reduce_to_zero_point(elem)
        assert str(info.value) == ("the reduce check compares no coefficient: "
                                   f"a truncation order is 0 (the {variable} order)")


class TestConnectionFunctional:
    def test_zero_operator_gives_zero(self):
        phi = g0_element(("a", Fraction(7)))
        rep = connection_functional(phi, (A_VECTOR, Fraction(11)), f_op="zero")
        assert rep.G_norm == 0
        assert rep.vanishing
        for comp in rep.components.values():
            assert comp.is_zero()

    def test_vacuum_identifications_reported(self):
        phi = g0_element(("1", Fraction(7)))
        rep = connection_functional(phi, (VACUUM_VECTOR, Fraction(11)))
        # sewing term: minus the k>=1 sewing sum; middle 0; bracket
        # identity-like
        assert rep.components["middle_term"].is_zero()
        bracket = rep.components["bracket_term"]
        assert bracket.data == -((-1) ** 0) * phi.value.data
        sew = rep.components["sewing_term"].data
        assert sew.coefficient(0) == 0  # k=0 excluded by default
        assert sew.coefficient(1) == -1  # -p(1) * F
        assert not rep.vanishing

    def test_vacuum_term_flag(self):
        phi = g0_element()
        rep = connection_functional(phi, (VACUUM_VECTOR, Fraction(11)),
                                    include_vacuum_term=True)
        assert rep.components["sewing_term"].data.coefficient(0) == -1

    def test_genus1_operand(self):
        phi = g1_element([("a", Fraction(5))], q_order=4)
        rep = connection_functional(phi, (A_VECTOR, Fraction(2)), rho_order=3)
        sew = rep.components["sewing_term"].data
        assert sew.variable == "rho"
        from voachain.series import scalar_is_zero

        assert scalar_is_zero(sew.coefficient(0))  # k=0 excluded
        bracket = rep.components["bracket_term"]
        direct = g1_element([("a", Fraction(5)), ("a", Fraction(2))], 4)
        # bracket term is -(-1)^1 (D1+D2) phi = +the two-point here
        assert corr_deviation(
            bracket, direct.value
        ) == 0

    def test_linearity_in_operand(self):
        z = Fraction(7)
        phi1 = g0_element(("a", z), ("a", Fraction(9)))
        phi2 = g0_element(("aa", z), ("a", Fraction(9)))
        combo_ins = InsertionTuple(((A_VECTOR + AA.scale(Fraction(2)), z), (A_VECTOR, Fraction(9))))
        phic = element_from_insertions(combo_ins, 0)
        x = (A_VECTOR, Fraction(11))
        r1 = connection_functional(phi1, x)
        r2 = connection_functional(phi2, x)
        rc = connection_functional(phic, x)
        for key in ("sewing_term", "bracket_term"):
            a = r1.components[key].data
            b = r2.components[key].data
            c = rc.components[key].data
            if isinstance(a, TruncatedSeries):
                for k in range(a.truncation):
                    assert c.coefficient(k) == a.coefficient(k) + 2 * b.coefficient(k)
            else:
                assert c == a + 2 * b


A2 = FockVector.basis(2)  # a(-2)|0>, weight 2, not quasiprimary
SD2 = SchottkyData(genus=2, points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)))


class TestGenus2Reduction:
    # the genus-g reduction is the sphere's, run inside the handle sums,
    # so it reproduces the sums with the new insertion exactly, for any
    # state: quasiprimary, not, inhomogeneous, or the vacuum
    STATES = {"a": A_VECTOR, "omega": OMEGA_VECTOR, "a(-2)": A2, "aa": AA,
              "a+omega": A_VECTOR + OMEGA_VECTOR, "vacuum": VACUUM_VECTOR}

    def make_element(self, entries=((A_VECTOR, Fraction(2)),), orders=(3, 2)):
        return element_from_insertions(InsertionTuple(tuple(entries)), 2, SD2, rho_orders=orders)

    @pytest.mark.parametrize("name", list(STATES))
    def test_one_step_equals_the_direct_sums(self, name):
        v, y = self.STATES[name], Fraction(6)
        # with a and a + aa held, every state meets a part of even leg
        # count, so no sum vanishes by parity
        elem = self.make_element(((A_VECTOR, Fraction(2)), (A_VECTOR + AA, Fraction(3))))
        d1 = apply_D1((v, y), elem)
        d2 = apply_D2((v, y), elem)
        step = apply_Dn((v, y), elem)
        want = sewn_sum(SD2, [*elem.insertions.entries, (v, y)], (3, 2))
        assert not want.is_zero()
        assert d1.value.data + d2.value.data == want
        assert step.value.data == want
        assert len(step.insertions.entries) == 3 and step.evaluator == elem.evaluator

    @pytest.mark.parametrize("steps", [
        (("a", 2), ("a", 6)),
        (("omega", 2), ("a(-2)", -3), ("a", 5)),
        (("a+omega", 2), ("vacuum", 6), ("a", Fraction(1, 2))),
    ], ids=["a,a", "omega,a(-2),a", "a+omega,vacuum,a"])
    def test_iterated_reduction_from_the_partition_function(self, steps):
        elem = self.make_element(entries=(), orders=(3, 2))
        assert elem.value.data == sewn_sum(SD2, [], (3, 2))
        entries = []
        for name, y in steps:
            elem = apply_Dn((self.STATES[name], Fraction(y)), elem)
            entries.append((self.STATES[name], Fraction(y)))
            assert elem.value.data == sewn_sum(SD2, entries, (3, 2)), entries
        assert not elem.value.is_zero()

    def test_vacuum_step_is_the_identity(self):
        # as at genus 0 and 1 (the removed kernels raised SewingError here),
        # and on the once- and twice-sewn sphere, at z = 0 as on the sphere
        elem = self.make_element(entries=((A_VECTOR, Fraction(2)), (AA, Fraction(3))))
        assert apply_Dn((VACUUM_VECTOR, Fraction(6)), elem).value.data == elem.value.data
        for handles in (1, 2):
            sewn = sewn_sphere(handles, ("a", Fraction(2)), ("a", Fraction(3)))
            assert not sewn.value.is_zero()
            for y in (Fraction(6), Fraction(0)):
                assert apply_Dn((VACUUM_VECTOR, y), sewn).value.data == sewn.value.data

    @pytest.mark.parametrize("v", [A_VECTOR, OMEGA_VECTOR + VACUUM_VECTOR])
    def test_weighted_step_to_zero_rejected_as_at_genus_0(self, v):
        with pytest.raises(ComplexError) as at_genus_0:
            apply_Dn((v, Fraction(0)), g0_element(("a", Fraction(2))))
        for elem in (self.make_element(), sewn_sphere(1, ("a", Fraction(2))),
                     sewn_sphere(2, ("a", Fraction(2)))):
            with pytest.raises(ComplexError) as raised:
                apply_Dn((v, Fraction(0)), elem)
            assert str(raised.value) == str(at_genus_0.value)

    def test_d2_leading_coefficient_is_the_pole_kernel_reduction(self):
        # the rho^0 coefficient of the sums is the sphere value, and at
        # weight one the only surviving mode, a(1), has the kernel
        # (x_new - x_old)^-2, so the (0,0) coefficient of D2 is the
        # pole-kernel-weighted sphere reduction
        from voachain.correlators import sphere_value
        from voachain.voa import apply_state_mode

        sd = SD2
        x_old, x_new = Fraction(2), Fraction(6)
        elem = element_from_insertions(InsertionTuple(((A_VECTOR, x_old),)), 2, sd,
                                       rho_orders=(2, 2))
        d2 = apply_D2((A_VECTOR, x_new), elem)
        got = complex(d2.value.data.coefficient(0).coefficient(0))
        want = 0j
        for j in range(0, 3):
            moved = apply_state_mode(A_VECTOR, j, A_VECTOR)
            if moved.is_zero():
                continue
            kernel = complex(x_new - x_old) ** (-(j + 1))
            want += kernel * complex(sphere_value([(moved, x_old)]))
        assert got == pytest.approx(want, abs=1e-9)

    def test_d2_with_no_surviving_term_builds_the_zero(self, monkeypatch):
        # a(j) kills the vacuum for j >= 0: no term survives, and the
        # zero is built without a genus-g sum
        import voachain.complexes as complexes

        sd = SD2
        ins = InsertionTuple(((VACUUM_VECTOR, Fraction(2)),))
        elem = element_from_insertions(ins, 2, sd, rho_orders=(3, 2))
        old_zero = sewn_sum(sd, ins.entries, (3, 2)) * 0
        calls = []
        genus_g_sum = complexes._genus_g_sum
        monkeypatch.setattr(complexes, "_genus_g_sum",
                            lambda *a, **k: calls.append(a) or genus_g_sum(*a, **k))
        d2 = apply_D2((A_VECTOR, Fraction(6)), elem)
        assert calls == []
        assert d2.value.data == old_zero
        assert d2.value.data == TruncatedSeries.zero("rho2", 2)
        assert len(d2.insertions.entries) == 2 and d2.evaluator == elem.evaluator

    @pytest.mark.parametrize("orders", [(0, 3), (3, 0)])
    def test_d2_zero_knows_no_coefficient_past_a_handle_to_order_0(self, orders):
        # the zero D2 builds claims no more known coefficients than the sums
        ins = InsertionTuple(((VACUUM_VECTOR, Fraction(2)),))
        elem = element_from_insertions(ins, 2, SD2, rho_orders=orders)
        d2 = apply_D2((A_VECTOR, Fraction(6)), elem)
        assert d2.value.data == elem.value.data == TruncatedSeries.zero("rho2", 0)
        assert d2.value.data.truncation == 0

    @pytest.mark.parametrize("names, parts", [
        (("a", "a"), (A_VECTOR, OMEGA_VECTOR)),
        (("a",), (A_VECTOR, FockVector.basis(1, 1, 1))),
    ])
    def test_reduction_is_linear_in_an_inhomogeneous_state(self, names, parts):
        # each homogeneous component reduces with the kernels of its own
        # weight, so D1 and D2 of a sum are the sums of D1 and D2, and
        # D^n of the sum is the direct sums with the sum inserted
        entries = tuple((POOL[n], Fraction(2 + 3 * i)) for i, n in enumerate(names))
        elem = self.make_element(entries)
        y = Fraction(7)
        whole = parts[0] + parts[1]
        for apply in (apply_D1, apply_D2):
            value = apply((whole, y), elem).value
            first, second = (apply((v, y), elem).value for v in parts)
            assert not value.is_zero()
            assert value == _corr_sum(first, second)
        want = sewn_sum(SD2, [*entries, (whole, y)], (3, 2))
        assert apply_Dn((whole, y), elem).value.data == want

    @pytest.mark.parametrize("state", [A_VECTOR, VACUUM_VECTOR])
    @pytest.mark.parametrize("apply", [apply_D1, apply_D2])
    def test_step_to_a_handle_point_rejected(self, apply, state):
        # also when no D2 term survives to meet the kernel's pole
        elem = self.make_element(((state, Fraction(2)),))
        with pytest.raises(ComplexError, match="handle points"):
            apply((A_VECTOR, Fraction(-4)), elem)

    def test_sewing_at_a_handle_point_rejected_up_front(self):
        # the handle points are on the surface: refused before any sum runs
        elem = self.make_element()
        with pytest.raises(ComplexError, match="sewing points must differ from the points "
                                               "already on the surface"):
            apply_Dg(elem, SewingData(zeta1=Fraction(9), zeta2=Fraction(1)), 2)

    def test_genus2_zero_point_round_trip(self):
        sd = SD2
        ins = InsertionTuple(((AA, Fraction(2)), (AA, Fraction(6))))
        elem = element_from_insertions(ins, 2, sd, rho_orders=(3, 2))
        factor, zero_point = reduce_to_zero_point(elem)
        product = factor * zero_point.data
        assert product.compare(elem.value.data).deviation == 0



EXCHANGE_POOL = {"1": VACUUM_VECTOR, "a": A_VECTOR, "aa": AA, "[2]": A2, "omega": OMEGA_VECTOR}
exchange_points = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(
    lambda x: x != 0 and x not in SD2.points)


@pytest.mark.parametrize("genus", [0, 2])
@settings(max_examples=10, deadline=None)
@given(names=st.lists(st.sampled_from(list(EXCHANGE_POOL)), min_size=3, max_size=4),
       points=st.lists(exchange_points, min_size=4, max_size=4, unique=True))
def test_insertion_exchange_residual_is_exactly_zero(genus, names, points):
    # D(x2) D(x1) = D(x1) D(x2) on the nose at genus 0 and at genus 2,
    # for any states and points (the new points avoid 0 and the handles)
    *held, n1, n2 = names
    entries = tuple((EXCHANGE_POOL[n], z) for n, z in zip(held, points))
    elem = element_from_insertions(InsertionTuple(entries), genus, SD2 if genus else None,
                                   rho_orders=(2, 2))
    report = _check_ncondition({"element": elem,
                                "x1": (EXCHANGE_POOL[n1], points[2]),
                                "x2": (EXCHANGE_POOL[n2], points[3])})
    assert report.residual == 0


# genus-0 elements of a and aa at distinct exact points, with the points
# of the handles sewn onto them drawn from the same set
sewn_points = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(bool),
                       min_size=7, max_size=7, unique=True)
sewn_names = st.lists(st.sampled_from(["a", "aa"]), min_size=1, max_size=3).filter(
    lambda names: sum(len(n) for n in names) % 2 == 0)  # an odd leg count is 0


@settings(max_examples=10, deadline=None)
@given(names=sewn_names, points=sewn_points)
def test_handle_exchange_is_exact_at_genus0(names, points):
    # two handles sewn in either order: coefficient (j, k) of one order
    # is coefficient (k, j) of the other, by ==
    elem = g0_element(*zip(names, points))
    sd_a = SewingData(zeta1=points[3], zeta2=points[4])
    sd_b = SewingData(zeta1=points[5], zeta2=points[6])
    ab = apply_Dg(apply_Dg(elem, sd_a, 3), sd_b, 3).value.data
    ba = apply_Dg(apply_Dg(elem, sd_b, 3), sd_a, 3).value.data
    for j in range(3):
        for k in range(3):
            assert _nested_coefficient(ab, j, k) == _nested_coefficient(ba, k, j), (j, k)
    assert _nested_coefficient(ab, 0, 0) == elem.value.data
    assert any(_nested_coefficient(ab, j, k) != 0 for j in range(3) for k in range(3))


@settings(max_examples=10, deadline=None)
@example(names=["a"], step="a", points=[7, 2, 3, 1, -1, 11, 5])
@given(names=st.lists(st.sampled_from(["a", "aa"]), min_size=1, max_size=3),
       step=st.sampled_from(["1", "a", "aa", "omega"]), points=sewn_points)
def test_sewing_commutes_with_a_reduction_step_at_genus0(names, step, points):
    # Dg Dn(x) = Dn(x) Dg coefficient for coefficient, for the vacuum and
    # for weighted x: D^n of the sewn sphere is the sewing of the element
    # with x inserted, so the gn residual is exactly 0.  An odd leg count
    # is 0 on both sides.
    legs = {"1": 0, "a": 1, "aa": 2, "omega": 2}
    assume(sum(legs[n] for n in [*names, step]) % 2 == 0)
    x = (EXCHANGE_POOL[step], Fraction(points[5]))
    elem = g0_element(*zip(names, map(Fraction, points)))
    sd = SewingData(zeta1=Fraction(points[3]), zeta2=Fraction(points[4]))
    path_a = apply_Dg(apply_Dn(x, elem), sd, 3).value.data
    path_b = apply_Dn(x, apply_Dg(elem, sd, 3)).value.data
    for k in range(3):
        assert path_a.coefficient(k) == path_b.coefficient(k), k
    if step == "1":
        assert path_a.coefficient(0) == elem.value.data
    (report,) = check_chain_conditions(
        [{"kind": "gn", "element": elem, "x": x, "sewing": sd, "rho_order": 3}])
    assert report.residual == 0
    if names == ["a"] and step == "a":
        assert report.composition_norm > 0


class TestGenus2Presentations:
    # two sewings of the sphere and the direct genus-2 basis sums present
    # the same surface: handle 1 at (-1, 1), handle 2 at (-3, 3)
    SD1 = SewingData(zeta1=Fraction(-1), zeta2=Fraction(1))
    SD2 = SewingData(zeta1=Fraction(-3), zeta2=Fraction(3))

    def twice_sewn(self, *names_points):
        return apply_Dg(apply_Dg(g0_element(*names_points), self.SD1, 3), self.SD2, 3)

    @pytest.mark.parametrize("names_points", [(), (("a", Fraction(5)), ("a", Fraction(7)))])
    def test_twice_sewn_sphere_equals_genus_g_sum(self, names_points):
        sewn = self.twice_sewn(*names_points)
        sd = SchottkyData(
            genus=2, points=(Fraction(-1), Fraction(1), Fraction(-3), Fraction(3))
        )
        direct = sewn_sum(sd, sewn.insertions.entries, (3, 3))
        assert sewn.value.genus == 2
        for k2 in range(3):
            for k1 in range(3):
                got = sewn.value.data.coefficient(k2).coefficient(k1)
                assert got == direct.coefficient(k2).coefficient(k1), (k1, k2)

    def test_twice_sewn_zero_point(self):
        factor, zero_point = reduce_to_zero_point(self.twice_sewn())
        want = TruncatedSeries("rho", {0: 1, 1: 1, 2: 2}, 3)
        assert zero_point.data.coefficient(0) == want
        assert factor.coefficients == {0: TruncatedSeries("rho", {0: 1}, 3)}

    def test_twice_sewn_round_trip(self):
        elem = self.twice_sewn(("a", Fraction(5)), ("a", Fraction(7)))
        factor, zero_point = reduce_to_zero_point(elem)
        assert (factor * zero_point.data).compare(elem.value.data).deviation == 0


@pytest.mark.parametrize("apply", [apply_D1, apply_D2])
@pytest.mark.parametrize("build", [
    lambda: g0_element(("a", Fraction(2))),
    lambda: g1_element([("a", Fraction(2))], q_order=3),
    lambda: element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(2)),)), 2, SD2,
                                    rho_orders=(2, 2)),
], ids=["genus0", "genus1", "genus2"])
def test_step_to_an_occupied_point_rejected(apply, build):
    # checked before any sum, whatever the presentation (genus-1 D2 met
    # the kernel's pole first, an EllipticError)
    with pytest.raises(ComplexError, match="pairwise distinct"):
        apply((A_VECTOR, Fraction(2)), build())


class TestExactPointChecks:
    # every distinctness check compares the points exactly: 10**17 and
    # 10**17 + 1 round to one complex but are two points, while equal
    # values of other types are one
    BIG = 10**17

    def test_insertion_tuple(self):
        InsertionTuple(((A_VECTOR, self.BIG), (A_VECTOR, self.BIG + 1)))
        with pytest.raises(ComplexError, match="pairwise distinct"):
            InsertionTuple(((A_VECTOR, Fraction(3)), (A_VECTOR, ExactComplex(3))))

    @pytest.mark.parametrize("point", [2.5, 2 + 1j], ids=["float", "complex"])
    def test_insertion_tuple_refuses_a_float_or_complex_point(self, point):
        with pytest.raises(SeriesError, match="is not exact"):
            InsertionTuple(((A_VECTOR, Fraction(3)), (A_VECTOR, point)))

    def test_sewing_beside_an_insertion(self):
        elem = g0_element(("a", Fraction(self.BIG)), ("a", Fraction(2)))
        sewn = apply_Dg(elem, SewingData(zeta1=self.BIG + 1, zeta2=-1), 2)
        assert sewn.value.data.coefficient(0) == elem.value.data
        with pytest.raises(ComplexError, match="sewing points"):
            apply_Dg(elem, SewingData(zeta1=ExactComplex(2), zeta2=-1), 2)

    def test_genus2_step_beside_a_handle_point(self):
        sd = SchottkyData(genus=2, points=(-1, 1, -self.BIG, self.BIG))
        elem = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(2)),)), 2, sd,
                                       rho_orders=(1, 1))
        stepped = apply_Dn((A_VECTOR, self.BIG + 1), elem)
        assert stepped.value.data.coefficient(0).coefficient(0) == Fraction(1, (self.BIG - 1) ** 2)
        with pytest.raises(ComplexError, match="handle points"):
            apply_Dn((A_VECTOR, ExactComplex(self.BIG)), elem)


SEWN_POOL = {"1": VACUUM_VECTOR, "a": A_VECTOR, "aa": AA, "omega": OMEGA_VECTOR, "[2]": A2}


def sewn_trace(handles, *names_points):
    # the genus-1 element of names_points to q order 3, with handles sewn
    # on at (2, -2), then (7, -7), to rho orders 3, then 2
    elem = g1_element(names_points, q_order=3)
    for zeta, order in ((Fraction(2), 3), (Fraction(7), 2))[:handles]:
        elem = apply_Dg(elem, SewingData(zeta1=zeta, zeta2=-zeta), order)
    return elem


trace_points = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(
        lambda x: x not in (0, 2, -2, 7, -7)),
    min_size=3, max_size=3, unique=True)


class TestSewnTraceReduction:
    # handles sewn onto the trace reduce as on the sphere: D^n is the
    # trace's reduction run inside the handle sums, so it equals the sewn
    # evaluation with the new insertion, by ==
    @settings(max_examples=10, deadline=None)
    @example(handles=2, names=["a", "aa"], step="a", points=[5, Fraction(1, 2), 3])
    @given(handles=st.sampled_from([1, 2]),
           names=st.lists(st.sampled_from(["a", "aa"]), min_size=1, max_size=2),
           step=st.sampled_from(list(SEWN_POOL)), points=trace_points)
    def test_one_step_equals_the_sewn_evaluation(self, handles, names, step, points):
        *held, y = points
        elem = sewn_trace(handles, *zip(names, held))
        v = SEWN_POOL[step]
        want = elem.evaluator.evaluate((*elem.insertions.entries, (v, y)))
        stepped = apply_Dn((v, y), elem)
        assert stepped.value == want
        assert stepped.evaluator == elem.evaluator
        assert len(stepped.insertions.entries) == len(names) + 1
        d1, d2 = apply_D1((v, y), elem), apply_D2((v, y), elem)
        assert d1.value.data + d2.value.data == want.data
        legs = sum(len(n) for n in names) + {"1": 0, "a": 1, "[2]": 1}.get(step, 2)
        assert want.is_zero() == (legs % 2 == 1)

    @pytest.mark.parametrize("handles", [1, 2])
    def test_step_to_zero_or_a_handle_point_rejected(self, handles):
        # the trace's point check holds on the sewn trace, and a new point
        # must avoid the handles; both before any sum runs
        elem = sewn_trace(handles, ("a", Fraction(5)))
        for apply in (apply_D1, apply_D2):
            with pytest.raises(ComplexError, match="cannot be 0"):
                apply((A_VECTOR, Fraction(0)), elem)
            with pytest.raises(ComplexError, match="handle points"):
                apply((A_VECTOR, Fraction(-2)), elem)


@pytest.mark.parametrize("elem", [
    lambda: g1_element([("a", Fraction(5))], q_order=3),
    lambda: sewn_sphere(1, ("a", Fraction(5))),
], ids=["genus1-trace", "genus1-sewn-sphere"])
def test_gn_composition_paths_are_equal_at_genus1(elem):
    # Dg Dn(x) = Dn(x) Dg by == on a genus-1 element, which sews a trace
    # or a sphere with two handles: the gn residual is 0 and the
    # composition is not
    elem = elem()
    x, sd = (A_VECTOR, Fraction(3)), SewingData(zeta1=Fraction(7), zeta2=Fraction(-7))
    path_a = apply_Dg(apply_Dn(x, elem), sd, 3)
    path_b = apply_Dn(x, apply_Dg(elem, sd, 3))
    assert path_a.value == path_b.value
    assert path_a.genus == 2 and path_a.evaluator == path_b.evaluator
    (report,) = check_chain_conditions(
        [{"kind": "gn", "element": elem, "x": x, "sewing": sd, "rho_order": 3}])
    assert report.skipped is None
    assert report.residual == 0 and report.composition_norm > 0


@pytest.mark.parametrize("orders", [(0, 3), (3, 0), (0, 0), (2, 3, 0), (0, 2, 3)])
def test_sewn_trace_with_a_handle_to_order_0_knows_no_coefficient(orders):
    # a handle summed to order 0 knows none of its coefficients, wherever it
    # sits in the chain: the value is the empty truncation-0 series in the
    # outermost variable, as the handle sums onto the sphere give it
    surface = Trace(4)
    for zeta, order in zip((2, 5, 9), orders):
        surface = surface.sew(SewingData(zeta1=zeta, zeta2=zeta + 1), order)
    value = surface.evaluate(())
    assert value.genus == 1 + len(orders)
    assert value.data == TruncatedSeries.zero(f"rho{len(orders)}" if len(orders) > 1 else "rho", 0)
    assert value.data.truncation == 0


@st.composite
def sewn_sphere_steps(draw, exact):
    """Insertions on the sphere with one or two handles to rho orders 1 to
    3, innermost first, and a new insertion (v, y)."""
    states = draw(st.lists(vectors, max_size=2))
    orders = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    *points, y = _points(draw, len(states) + 2 * len(orders) + 1, exact)
    handles = [(points[len(states) + 2 * h], points[len(states) + 2 * h + 1], order)
               for h, order in enumerate(orders)]
    return list(zip(states, points)), handles, (draw(vectors), y)


class TestSewnSphereReduction:
    # handles sewn onto the sphere reduce as the direct genus-g sums do:
    # D^n of the sewn element is the sewing of the element with the new
    # insertion, by == and coefficient for coefficient, for any state
    def assert_steps_equal_sewing(self, handles, names_points, steps):
        elem = sewn_sphere(handles, *names_points)
        for v, y in steps:
            elem = apply_Dn((v, y), elem)
        entries = tuple((POOL[n], z) for n, z in names_points) + tuple(steps)
        want = sewn_sphere(handles, elem=element_from_insertions(InsertionTuple(entries), 0)).value
        assert elem.value == want
        for j in range(3):
            for k in range(3 if handles == 2 else 1):
                assert (_nested_coefficient(elem.value.data, j, k)
                        == _nested_coefficient(want.data, j, k)), (j, k)
        return elem

    def test_once_sewn_example(self):
        # a at 7 sewn at (1, -1), stepped by a at 11: the sphere two-point
        # function 1/(7 - 11)^2 at rho^0
        elem = apply_Dg(g0_element(("a", Fraction(7))), SewingData(zeta1=1, zeta2=-1), 3)
        step = apply_Dn((A_VECTOR, Fraction(11)), elem)
        assert [step.value.data.coefficient(k) for k in range(3)] == [
            Fraction(1, 16), Fraction(8281, 129600), Fraction(4470011, 34992000)]
        sewn = apply_Dg(g0_element(("a", Fraction(7)), ("a", Fraction(11))),
                        SewingData(zeta1=1, zeta2=-1), 3)
        assert step.value == sewn.value

    def test_twice_sewn_stepped_twice(self):
        elem = self.assert_steps_equal_sewing(
            2, [("a", Fraction(5))], [(A_VECTOR, Fraction(7)), (AA, Fraction(9))])
        assert not elem.value.is_zero()

    @settings(max_examples=10, deadline=None)
    @given(handles=st.sampled_from([1, 2]), names=sewn_names,
           step=st.sampled_from(list(SEWN_POOL)),
           points=st.lists(exchange_points, min_size=4, max_size=4, unique=True))
    def test_one_step_equals_sewing_the_stepped_element(self, handles, names, step, points):
        # the points avoid 0 and the handle points (-1, 1, -4, 4)
        *held, y = points
        self.assert_steps_equal_sewing(handles, list(zip(names, held)), [(SEWN_POOL[step], y)])

    @pytest.mark.parametrize("handles", [1, 2], ids=["genus1", "genus2"])
    @pytest.mark.parametrize("step", ["1", "a", "aa", "[2]", "omega+1"])
    def test_one_pass_step_equals_the_evaluation_and_the_per_term_route(
            self, monkeypatch, handles, step):
        # D^n runs as one sewn_sphere_series call per summand, in the
        # element's own Wick context, with no sphere function per paired
        # term; it equals the sewn evaluation of the stepped insertions,
        # and D1 and D2 each equal the per-term route, values and types
        from voachain import complexes, correlators

        v, y = {**SEWN_POOL, "omega+1": OMEGA_VECTOR + VACUUM_VECTOR}[step], Fraction(9)
        entries = ((A_VECTOR, Fraction(5)), (A_VECTOR + AA, Fraction(7)))
        elem = sewn_sphere(handles, elem=element_from_insertions(InsertionTuple(entries), 0))
        want = elem.evaluator.evaluate((*entries, (v, y)))
        assert not want.is_zero()
        assert elem.value.genus == handles  # its Wick context is now built
        calls = []

        def spy(pieces):
            calls.append(pieces)
            return sewn_sphere_series(pieces)

        monkeypatch.setattr(complexes, "sewn_sphere_series", spy)
        misses = correlators._wick_context.cache_info().misses
        assert apply_Dn((v, y), elem).value == want
        assert correlators._wick_context.cache_info().misses == misses
        # one sum per summand, each with every handle; D2 of the vacuum has
        # no move, so no sum
        assert len(calls) == (1 if step == "1" else 2)
        assert all(len(handles) == len(elem.evaluator.handles)
                   for pieces in calls for _, _, handles in pieces)
        _assert_identical(apply_D1((v, y), elem).value.data,
                          reduce_d1(elem.evaluator, (v, y), entries))
        _assert_identical(apply_D2((v, y), elem).value.data,
                          reduce_d2(elem.evaluator, (v, y), entries))

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "gaussian"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reduction_matches_the_per_term_route(self, exact, data):
        # D1 and D2 on a sphere with one or two handles sewn on, at any
        # exact points and coefficients, equal the per-term route in
        # values and types
        insertions, handles, x_new = data.draw(sewn_sphere_steps(exact))
        surface = Sphere()
        for zeta1, zeta2, order in handles:
            surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
        elem = _element(InsertionTuple(tuple(insertions)), surface)
        _assert_identical(apply_D1(x_new, elem).value.data,
                          reduce_d1(surface, x_new, insertions))
        _assert_identical(apply_D2(x_new, elem).value.data,
                          reduce_d2(surface, x_new, insertions))

    @pytest.mark.parametrize("surface", ["genus2", "sewn"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_dn_equals_the_per_term_sums_of_the_stepped_insertions(self, surface, data):
        # D^n on a genus-2 element, at points of every kind, and on a sphere
        # with one or two handles sewn on at Gaussian handle points, equals
        # the per-term sums with the new insertion by ==, and the per-term
        # reduction route D1 + D2 in values and types: its moved states put
        # several weights, so several denominators, in one multi-index.  Its
        # type follows its reduction terms, so it may be an ExactComplex
        # where the direct sum is a Fraction (see the next test)
        insertions, handles, x_new = data.draw(sewn_sphere_steps(False))
        if surface == "genus2":
            assume(len(handles) == 2)
            sd = SchottkyData(genus=2, points=tuple(z for h in handles for z in h[:2]))
            elem = element_from_insertions(InsertionTuple(tuple(insertions)), 2, sd,
                                           rho_orders=tuple(order for *_, order in handles))
        else:
            handles = [(z1 if isinstance(z1, ExactComplex) else ExactComplex(z1, 1), z2, order)
                       for z1, z2, order in handles]
            assume(not points_coincide([z for _, z in insertions] + [x_new[1]]
                                       + [z for h in handles for z in h[:2]]))
            surface = Sphere()
            for zeta1, zeta2, order in handles:
                surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
            elem = _element(InsertionTuple(tuple(insertions)), surface)
        stepped = apply_Dn(x_new, elem).value.data
        assert stepped == evaluate(elem.evaluator, (*insertions, x_new))
        _assert_identical(stepped, reduce_d1(elem.evaluator, x_new, insertions)
                          + reduce_d2(elem.evaluator, x_new, insertions))

    def test_dn_types_follow_the_reduction_terms(self):
        # the vacuum and a(-1) at -6 - i stepped onto a genus-2 element with
        # a Gaussian handle point: only the vacuum term survives at rho^0,
        # a rational -3 in the direct sum, but D1's kernel at the Gaussian
        # point enters its a(-1) term, so D^n's -3 is an ExactComplex, as
        # the per-term D1 route gives it
        v = FockVector({FockState(()): Fraction(-3), FockState((1,)): Fraction(-3)})
        x_new = (v, ExactComplex(-6, -1))
        sd = SchottkyData(genus=2, points=(-6, -5, -4, ExactComplex(-6, 1)))
        elem = element_from_insertions(InsertionTuple(()), 2, sd, rho_orders=(1, 1))
        stepped = apply_Dn(x_new, elem).value.data
        direct = evaluate(elem.evaluator, (x_new,))
        assert stepped == direct
        assert _typed(direct.coefficient(0).coefficient(0)) == ("Fraction", "Fraction(-3, 1)")
        _assert_identical(stepped, reduce_d1(elem.evaluator, x_new, ())
                          + reduce_d2(elem.evaluator, x_new, ()))
        assert _typed(stepped.coefficient(0).coefficient(0)) == (
            "ExactComplex", "ExactComplex(-3)")

    @pytest.mark.parametrize("coeff", [ExactComplex(0, 1), ExactComplex(-2)], ids=["i", "real"])
    @pytest.mark.parametrize("handles", [((3, -2, 2),), ((3, -2, 2), (-4, 6, 1))],
                             ids=["once", "twice"])
    def test_a_gaussian_step_coefficient_at_rational_points(self, coeff, handles):
        # a(-1) at 5 on a sphere sewn at rational points, stepped by
        # coeff * a(-1) at 7: D1 moves the held a(-1) into the handle terms
        # by coeff, so their pairing entries are ExactComplex at rational
        # points, and so is every coefficient they enter, as the per-term
        # route gives it (also when coeff is real)
        surface = Sphere()
        for zeta1, zeta2, order in handles:
            surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
        insertions = ((A_VECTOR, Fraction(5)),)
        elem = _element(InsertionTuple(insertions), surface)
        x_new = (A_VECTOR.scale(coeff), Fraction(7))
        stepped = apply_Dn(x_new, elem).value.data
        assert stepped == evaluate(surface, (*insertions, x_new))
        _assert_identical(stepped, reduce_d1(surface, x_new, insertions)
                          + reduce_d2(surface, x_new, insertions))
        _assert_identical(apply_D1(x_new, elem).value.data,
                          reduce_d1(surface, x_new, insertions))

    def test_one_pass_at_exact_complex_points(self):
        # a Gaussian-rational point runs the same one-pass sums, for the
        # sewn evaluation and D^n alike, and the two agree by ==; each
        # equals the per-term route's value
        y = ExactComplex(9, 1)
        elem = sewn_sphere(1, ("a", Fraction(5)), ("aa", Fraction(7)))
        entries = elem.insertions.entries
        want = elem.evaluator.evaluate((*entries, (A_VECTOR, y)))
        assert not want.is_zero()
        _assert_identical(want.data, evaluate(elem.evaluator, (*entries, (A_VECTOR, y))))
        stepped = apply_Dn((A_VECTOR, y), elem).value
        assert stepped == want
        assert stepped.data == (reduce_d1(elem.evaluator, (A_VECTOR, y), entries)
                                + reduce_d2(elem.evaluator, (A_VECTOR, y), entries))


class TestDeferredValues:
    # a value is computed when it is first read, and then kept; a step's
    # refusals come with the step, before any value is computed

    @pytest.fixture
    def no_value(self, monkeypatch):
        from voachain import complexes

        def computed(*args, **kwargs):
            raise AssertionError("a value was computed")

        for name in ("sewn_trace_series", "sewn_sphere_series", "_genus_g_sum"):
            monkeypatch.setattr(complexes, name, computed)

    def test_a_value_is_computed_once_when_read(self, monkeypatch):
        from voachain import complexes

        calls = []
        monkeypatch.setattr(complexes, "sewn_sphere_series",
                            lambda *a, **k: calls.append(a) or sewn_sphere_series(*a, **k))
        elem = g0_element(("a", Fraction(2)), ("a", Fraction(5)))
        stepped = apply_Dn((A_VECTOR, Fraction(7)), apply_Dn((A_VECTOR, Fraction(6)), elem))
        sewn = apply_Dg(stepped, SewingData(), 2)
        assert calls == []
        assert elem.value.data == Fraction(1, 9)
        assert len(calls) == 1
        assert elem.value.data == Fraction(1, 9) and len(calls) == 1
        assert stepped.value.data == g0_element(
            ("a", Fraction(2)), ("a", Fraction(5)), ("a", Fraction(6)), ("a", Fraction(7))
        ).value.data
        assert sewn.value.genus == 1

    def test_steps_and_sewings_compute_no_value(self, no_value):
        elem = sewn_sphere(2, ("a", Fraction(2)))
        for step in (apply_D1, apply_D2, apply_Dn):
            stepped = step((AA, Fraction(6)), elem)
            assert stepped.genus == 2 and len(stepped.insertions.entries) == 2
        trace = apply_Dn((A_VECTOR, Fraction(3)), g1_element([("a", Fraction(2))], q_order=3))
        assert apply_Dg(trace, SewingData(zeta1=5, zeta2=-5), 2).genus == 2

    @pytest.mark.parametrize("elem", [
        lambda: g0_element(("a", Fraction(2))),
        lambda: sewn_sphere(1, ("a", Fraction(2))),
        lambda: element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(2)),)), 2, SD2,
                                        rho_orders=(2, 0)),
    ], ids=["sphere", "sewn-sphere", "genus2-order-0"])
    @pytest.mark.parametrize("step", [apply_D1, apply_D2, apply_Dn])
    def test_weighted_step_to_zero(self, no_value, elem, step):
        with pytest.raises(ComplexError, match="z = 0"):
            step((A_VECTOR, Fraction(0)), elem())

    def test_trace_point_zero(self, no_value):
        ins = InsertionTuple(((A_VECTOR, Fraction(2)), (A_VECTOR, Fraction(0))))
        with pytest.raises(ComplexError, match="x = e\\^z"):
            _element(ins, Trace(3))
        elem = g1_element([("a", Fraction(2))], q_order=3)
        with pytest.raises(ComplexError, match="x = e\\^z"):
            apply_Dn((A_VECTOR, Fraction(0)), elem)
        with pytest.raises(ComplexError, match="x = e\\^z"):
            apply_Dg(elem, SewingData(zeta1=Fraction(0), zeta2=Fraction(5)), 2)

    @pytest.mark.parametrize("step", [apply_D1, apply_D2, apply_Dn])
    def test_step_onto_a_handle_point(self, no_value, step):
        elem = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(2)),)), 2, SD2,
                                       rho_orders=(2, 2))
        with pytest.raises(ComplexError, match="handle points"):
            step((A_VECTOR, Fraction(-4)), elem)

    @pytest.mark.parametrize("zeta", [Fraction(2), Fraction(-1)], ids=["insertion", "handle"])
    def test_sewing_onto_a_point_on_the_surface(self, no_value, zeta):
        elem = sewn_sphere(1, ("a", Fraction(2)))
        with pytest.raises(ComplexError, match="sewing points must differ from the points "
                                               "already on the surface"):
            apply_Dg(elem, SewingData(zeta1=zeta, zeta2=Fraction(9)), 2)


class TestCohomology:
    def probe(self, **kw):
        return ProbeComplex(**{"pool": ("1", "a", "aa"), "g_max": 1, "n_max": 2, **kw})

    def test_rank_nullity_every_matrix(self):
        probe = self.probe()
        for m in range(0, 3):
            mat, dom, _ = probe.matrix(m)
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == sympy.Matrix(mat).rank()
            assert report.rank_dm + report.dim_kernel == len(dom)

    def test_ranks_match_sympy(self):
        # genus-0-only probe at weight cutoff 4-style pool, n <= 2
        probe = self.probe(pool=("1", "a", "aa", "a3"), g_max=0)
        for m in range(0, 3):
            mat, dom, _ = probe.matrix(m)
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == sympy.Matrix(mat).rank(), m
            assert report.rank_dm + report.dim_kernel == len(dom), m

    def test_zero_differentials_full_betti(self):
        probe = self.probe(zero_dn=True, zero_dg=True)
        for m in (0, 1, 2):
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == 0
            assert report.betti == report.dim_domain

    def test_identity_like_injective(self):
        # vacuum descriptors with sewing off: inclusion maps, kernel 0
        probe = self.probe(zero_dg=True, descriptor_pool_index=0)
        report = cohomology_ranks(probe, 0)
        assert report.dim_kernel == 0
        # image of d^{m-1} saturates the kernel wherever enumeration
        # bounds allow, so the probe betti at level 1 counts only the
        # labels the truncation cut off
        assert report.betti == 0

    def test_composition_residual_reported(self):
        probe = self.probe()
        report = cohomology_ranks(probe, 1)
        assert report.composition_residual >= 0
        assert isinstance(report.non_complex, bool)

    @pytest.mark.parametrize("m", [1, 2])
    def test_no_betti_where_the_maps_do_not_compose_to_zero(self, m):
        # d^m d^{m-1} != 0 puts im d^{m-1} outside ker d^m: H^m is
        # undefined, not a negative dimension
        probe = self.probe()
        report = cohomology_ranks(probe, m)
        dm, _, _ = probe.matrix(m)
        dm1, _, _ = probe.matrix(m - 1)
        assert report.non_complex
        assert report.composition_residual == 1
        assert report.composition_residual == max(
            abs(x) for x in sympy.Matrix(dm) * sympy.Matrix(dm1))
        assert report.betti is None

    def test_a_complex_has_its_betti_number(self):
        report = cohomology_ranks(self.probe(zero_dn=True), 1)
        assert not report.non_complex and report.composition_residual == 0
        assert report.betti == report.dim_kernel - report.rank_dm_minus_1 >= 0


int_matrices = st.integers(0, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=5))


@settings(max_examples=200, deadline=None)
@given(rows=int_matrices, coefficients=st.lists(st.integers(-2, 2), min_size=5, max_size=5))
@example(rows=[], coefficients=[1] * 5)
@example(rows=[[0, 0, 0], [0, 0, 0]], coefficients=[1] * 5)
@example(rows=[[2, -1, 3, 0]], coefficients=[1] * 5)
@example(rows=[[1], [-2], [3]], coefficients=[1] * 5)
@example(rows=[[1, 2, 3], [2, 4, 6], [0, 0, 1]], coefficients=[1] * 5)
def test_integer_rank_matches_sympy(rows, coefficients):
    assert row_reduce_integer(rows)[1] == sympy.Matrix(rows).rank()
    # a combination of the rows, added as a row, leaves the rank as it is
    combination = [sum(c * x for c, x in zip(coefficients, column)) for column in zip(*rows)]
    deficient = rows + [combination]
    assert row_reduce_integer(deficient)[1] == sympy.Matrix(deficient).rank()
