"""Tests for the reduction differentials, chain conditions, zero-point
factorization, connection functional, and probe cohomology."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voachain.complexes import (
    ComplexError,
    DifferentialDescriptor,
    InsertionTuple,
    ProbeComplex,
    TotalDifferential,
    apply_D1,
    apply_D2,
    apply_Dg,
    apply_Dn,
    check_chain_conditions,
    cohomology_ranks,
    connection_functional,
    corr_deviation,
    element_from_insertions,
    exact_rank,
    genus0_npoint,
    genus1_npoint_trace,
    reduce_to_zero_point,
)
from voachain.correlators import torus_qseries
from voachain.schottky import SchottkyData, SewingData, genus_g_npoint
from voachain.series import TruncatedSeries
from voachain.voa import (
    A_VECTOR,
    OMEGA_VECTOR,
    VACUUM_VECTOR,
    FockState,
    FockVector,
    fock_basis,
)

AA = FockVector.basis(1, 1)  # a(-1)a, weight 2
POOL = {"1": VACUUM_VECTOR, "a": A_VECTOR, "aa": AA}
POINTS0 = (Fraction(3), Fraction(1), Fraction(-2))
POINTS1 = (Fraction(5), Fraction(2), Fraction(1, 2))


def g0_element(*names_points):
    ins = InsertionTuple(
        tuple((POOL[n], z) for n, z in names_points), genus=0
    )
    return genus0_npoint(ins)


def g1_element(names_points, q_order=8):
    ins = InsertionTuple(
        tuple((POOL[n], x) for n, x in names_points), genus=1
    )
    return genus1_npoint_trace(ins, q_order)


class TestGenus0Oracle:
    def test_zero_point_is_pairing(self):
        elem = g0_element()
        assert elem.value.data == 1
        for s in fock_basis(4):
            for t in fock_basis(4):
                e = genus0_npoint(InsertionTuple((), 0), boundary=(s, t))
                assert e.value.data == (1 if s == t else 0)

    def test_one_point_of_a_vanishes(self):
        assert g0_element(("a", Fraction(2))).value.data == 0

    def test_two_point_of_a(self):
        z1, z2 = Fraction(3), Fraction(1)
        elem = g0_element(("a", z1), ("a", z2))
        assert elem.value.data == Fraction(1, (z1 - z2) ** 2)

    def test_coincident_points_rejected(self):
        with pytest.raises(ComplexError):
            InsertionTuple(((A_VECTOR, Fraction(1)), (A_VECTOR, Fraction(1))), 0)


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

    def test_non_vacuum_boundary_rejected_for_reduction(self):
        ins = InsertionTuple(((A_VECTOR, Fraction(2)),), 0)
        elem = genus0_npoint(ins, boundary=(FockState((1,)), FockState((1,))))
        with pytest.raises(ComplexError):
            apply_Dn((A_VECTOR, Fraction(5)), elem)


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
        direct = genus0_npoint(InsertionTuple(((v1, z1), (v2, z2)), 0))
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
        base = genus1_npoint_trace(InsertionTuple(((AA, x1), (AA, x2)), 1), 6)
        stepped = apply_Dn((AA, x3), base)
        direct = genus1_npoint_trace(
            InsertionTuple(((AA, x1), (AA, x2), (AA, x3)), 1), 6
        )
        assert corr_deviation(stepped.value, direct.value) == 0
        mixed_base = genus1_npoint_trace(
            InsertionTuple(((A_VECTOR, x1), (A_VECTOR, x2)), 1), 6
        )
        mixed = apply_Dn((AA, x3), mixed_base)
        mixed_direct = genus1_npoint_trace(
            InsertionTuple(((A_VECTOR, x1), (A_VECTOR, x2), (AA, x3)), 1), 6
        )
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
            ((A_VECTOR + AA.scale(Fraction(3, 7)), Fraction(4)), (A_VECTOR, Fraction(6))),
            genus=0,
        )
        combo = genus0_npoint(combo_ins)
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
            assert np.isfinite(rep.residual)

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
            (0, 1): DifferentialDescriptor(
                kind="total", state=VACUUM_VECTOR, point=Fraction(11),
                sewing=SewingData(),
            ),
            (0, 2): DifferentialDescriptor(
                kind="total", state=VACUUM_VECTOR, point=Fraction(13),
            ),
            (1, 0): DifferentialDescriptor(
                kind="total", state=VACUUM_VECTOR, point=Fraction(11),
                sewing=SewingData(zeta1=Fraction(17), zeta2=Fraction(19)),
            ),
            (1, 1): DifferentialDescriptor(
                kind="total", state=VACUUM_VECTOR, point=Fraction(13),
            ),
            (2, 0): DifferentialDescriptor(
                kind="total",
                sewing=SewingData(zeta1=Fraction(23), zeta2=Fraction(29)),
            ),
        }
        reports = check_chain_conditions([
            {"kind": "total", "elements": elems, "descriptors": descriptors,
             "rho_order": 2},
        ])
        assert reports[0].residual == 0
        # the genus-1 block's g and gn checks leave the window: named, not zero
        assert reports[0].skipped.count("beyond") == 2
        assert "g: genus 1+2" in reports[0].skipped


class TestTotalDifferential:
    def test_block_structure(self):
        elems = {
            (0, 1): g0_element(("a", Fraction(7))),
            (1, 0): g1_element([], q_order=4),
        }
        descriptors = {
            (0, 1): DifferentialDescriptor(
                kind="total", state=A_VECTOR, point=Fraction(11), sewing=SewingData()
            ),
            (1, 0): DifferentialDescriptor(
                kind="total", state=A_VECTOR, point=Fraction(11),
                sewing=SewingData(zeta1=Fraction(17), zeta2=Fraction(19)),
            ),
        }
        d = TotalDifferential(m=1, descriptors=descriptors, rho_order=3)
        images = d.apply(elems)
        assert set(images) == {(1, 1), (0, 2), (2, 0)}
        # block-by-block agreement with individual applications
        dn_01 = apply_Dn((A_VECTOR, Fraction(11)), elems[(0, 1)])
        tagged = dict(images[(0, 2)])
        assert tagged["Dn"].value.data == dn_01.value.data * (-1) ** 0

    def test_sign_structure(self):
        # with sewing absent, d acts as (+/-1)^g D^n blockwise
        elems = {
            (1, 0): g1_element([], q_order=4),
        }
        descriptors = {
            (1, 0): DifferentialDescriptor(kind="total", state=A_VECTOR,
                                           point=Fraction(3)),
        }
        d = TotalDifferential(m=1, descriptors=descriptors)
        images = d.apply(elems)
        assert set(images) == {(1, 1)}
        stepped = apply_Dn((A_VECTOR, Fraction(3)), elems[(1, 0)])
        got = dict(images[(1, 1)])["Dn"].value.data
        dev = got.compare(stepped.value.data * (-1)).deviation
        assert dev == 0

    def test_missing_descriptor_rejected(self):
        elems = {(0, 1): g0_element(("a", Fraction(7)))}
        d = TotalDifferential(m=1, descriptors={})
        with pytest.raises(ComplexError):
            d.apply(elems)

    def test_m_zero_single_block(self):
        # d^0 acts on the lone (0,0) block as sewing plus one insertion
        elems = {(0, 0): g0_element()}
        descriptors = {
            (0, 0): DifferentialDescriptor(
                kind="total", state=A_VECTOR, point=Fraction(3), sewing=SewingData()
            ),
        }
        d = TotalDifferential(m=0, descriptors=descriptors, rho_order=3)
        assert d.blocks() == [(0, 0)]
        images = d.apply(elems)
        assert set(images) == {(1, 0), (0, 1)}
        assert dict(images[(0, 1)])["Dn"].value.data == 0  # 1-point of a
        sewn = dict(images[(1, 0)])["Dg"].value.data
        assert sewn.coefficient(1) == 1


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
        from voachain.elliptic import pm_qseries

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
        direct = genus1_npoint_trace(
            InsertionTuple(((A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(2))), 1), 4
        )
        # bracket term is -(-1)^1 (D1+D2) phi = +the two-point here
        assert corr_deviation(
            bracket, direct.value
        ) == 0

    def test_linearity_in_operand(self):
        z = Fraction(7)
        phi1 = g0_element(("a", z), ("a", Fraction(9)))
        phi2 = g0_element(("aa", z), ("a", Fraction(9)))
        combo_ins = InsertionTuple(
            ((A_VECTOR + AA.scale(Fraction(2)), z), (A_VECTOR, Fraction(9))), 0
        )
        phic = genus0_npoint(combo_ins)
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


class TestConnectionFromTuples:
    def test_genus_mismatch_rejected(self):
        from voachain.complexes import connection_functional_from_tuples

        phi = InsertionTuple(((A_VECTOR, Fraction(7)),), 0)
        psi = InsertionTuple(((A_VECTOR, Fraction(7)), (A_VECTOR, Fraction(9))), 1)
        with pytest.raises(ComplexError):
            connection_functional_from_tuples(psi, phi)

    def test_psi_must_extend_phi(self):
        from voachain.complexes import connection_functional_from_tuples

        phi = InsertionTuple(((A_VECTOR, Fraction(7)),), 0)
        psi = InsertionTuple(((A_VECTOR, Fraction(8)), (A_VECTOR, Fraction(9))), 0)
        with pytest.raises(ComplexError):
            connection_functional_from_tuples(psi, phi)

    def test_matches_element_level_call(self):
        from voachain.complexes import connection_functional_from_tuples

        phi = InsertionTuple(((A_VECTOR, Fraction(7)),), 0)
        psi = phi.append(A_VECTOR, Fraction(9))
        rep_t = connection_functional_from_tuples(psi, phi)
        rep_e = connection_functional(genus0_npoint(phi), (A_VECTOR, Fraction(9)))
        for key in rep_t.components:
            assert corr_deviation(rep_t.components[key], rep_e.components[key]) == 0


class TestGenus2Reduction:
    def make_element(self):
        sd = SchottkyData(
            genus=2, rho=(0.01, 0.015),
            points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)),
            mode_cutoff=2, neumann_order=8,
        )
        ins = InsertionTuple(((A_VECTOR, Fraction(2)),), genus=2, moduli=sd)
        return element_from_insertions(ins, rho_orders=(3, 2))

    def test_quasiprimary_required(self):
        elem = self.make_element()
        bad = FockVector.basis(2)
        with pytest.raises(ComplexError):
            apply_D1((bad, Fraction(6)), elem)

    def test_reduction_step_runs_and_is_finite(self):
        elem = self.make_element()
        d1 = apply_D1((A_VECTOR, Fraction(6)), elem)
        d2 = apply_D2((A_VECTOR, Fraction(6)), elem)
        for out in (d1, d2):
            assert out.insertions.n == 2
            data = out.value.data
            for k2 in range(data.truncation):
                inner = data.coefficient(k2)
                if isinstance(inner, TruncatedSeries):
                    assert all(
                        np.isfinite(complex(c).real) for c in inner.coefficients.values()
                    )

    def test_d2_degenerates_to_pole_kernels_at_tiny_rho(self):
        # as both handles close, psi_p derivative kernels collapse to
        # the plain pole derivatives and the leading rho coefficient of
        # the n-point sums is the sphere value, so the (0,0) coefficient
        # of D2 must approach the pole-kernel-weighted sphere reduction
        from voachain.correlators import sphere_value
        from voachain.voa import apply_state_mode

        sd = SchottkyData(
            genus=2, rho=(1e-12, 1e-12),
            points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)),
            mode_cutoff=2, neumann_order=6,
        )
        x_old, x_new = Fraction(2), Fraction(6)
        ins = InsertionTuple(((A_VECTOR, x_old),), genus=2, moduli=sd)
        elem = element_from_insertions(ins, rho_orders=(2, 2))
        d2 = apply_D2((A_VECTOR, x_new), elem)
        got = complex(d2.value.data.coefficient(0).coefficient(0))
        want = 0j
        for j in range(0, 3):
            moved = apply_state_mode(A_VECTOR, j, A_VECTOR)
            if moved.is_zero():
                continue
            kernel = complex(x_new - x_old) ** (-(j + 1))
            want += kernel * complex(sphere_value([(moved, x_old)], dressed=False))
        assert got == pytest.approx(want, abs=1e-9)

    def test_genus2_zero_point_round_trip(self):
        sd = SchottkyData(
            genus=2, rho=(0.01, 0.015),
            points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)),
        )
        ins = InsertionTuple(
            ((AA, Fraction(2)), (AA, Fraction(6))), genus=2, moduli=sd
        )
        elem = element_from_insertions(ins, rho_orders=(3, 2))
        factor, zero_point = reduce_to_zero_point(elem)
        product = factor * zero_point.data
        assert product.compare(elem.value.data).deviation == 0



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
        direct = genus_g_npoint(sd, sewn.insertions.entries, (3, 3))
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

class TestCohomology:
    def probe(self, **kw):
        defaults = dict(
            pool=("1", "a", "aa"),
            points=(Fraction(3), Fraction(1), Fraction(-2)),
            g_max=1,
            n_max=2,
        )
        defaults.update(kw)
        return ProbeComplex(**defaults)

    def test_rank_nullity_every_matrix(self):
        probe = self.probe()
        for m in range(0, 3):
            mat, dom, _ = probe.matrix(m)
            rank = exact_rank(mat)
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == rank
            assert report.rank_dm + report.dim_kernel == len(dom)

    def test_svd_matches_exact_row_reduction(self):
        # genus-0-only probe at weight cutoff 4-style pool, n <= 2
        probe = self.probe(pool=("1", "a", "aa", "a3"), g_max=0)
        for m in range(0, 3):
            mat, _, _ = probe.matrix(m)
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == exact_rank(mat), m
            assert not report.indeterminate

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
