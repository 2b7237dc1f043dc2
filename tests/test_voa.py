"""Tests for the Heisenberg module: modes, brackets, forms, sphere values."""

import math
import random
from fractions import Fraction

import pytest

from voachain.correlators import sphere_value
from voachain.series import TruncatedSeries
from voachain.voa import (
    A_VECTOR,
    OMEGA_VECTOR,
    VACUUM,
    VACUUM_VECTOR,
    FockState,
    FockVector,
    adjoint_mode,
    apply_state_mode,
    bilinear_form,
    dual_coefficient,
    fock_basis,
    heisenberg_mode,
    is_quasiprimary,
    partition_count,
    sphere_matrix_element,
    square_bracket_mode,
    vertex_matrix_element,
    virasoro_mode,
    zero_mode,
)


def brute_partition_count(n):
    # independent oracle: count partitions by explicit recursion
    def count(n, max_part):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, max_part), 0, -1))

    return count(n, n)


class TestBasis:
    def test_cutoff_one_is_vacuum(self):
        assert fock_basis(1) == [VACUUM]

    def test_cutoff_zero_empty(self):
        assert fock_basis(0) == []

    def test_cutoff_five_counts(self):
        basis = fock_basis(5)
        assert len(basis) == sum(brute_partition_count(k) for k in range(5))
        assert len(basis) == 12

    def test_order_weight_major_then_lex(self):
        basis = fock_basis(4)
        weights = [s.weight for s in basis]
        assert weights == sorted(weights)
        w3 = [s.partition for s in basis if s.weight == 3]
        assert w3 == sorted(w3)

    def test_partition_count_matches_oracle(self):
        for n in range(12):
            assert partition_count(n) == brute_partition_count(n)


class TestHeisenbergModes:
    def test_creation(self):
        v = heisenberg_mode(-1, VACUUM_VECTOR)
        assert v == FockVector.basis(1)

    def test_annihilation_of_vacuum(self):
        assert heisenberg_mode(2, VACUUM_VECTOR).is_zero()

    def test_commutator_on_vacuum(self):
        # [a(1), a(-1)] = 1 on the vacuum
        v = heisenberg_mode(1, heisenberg_mode(-1, VACUUM_VECTOR))
        assert v == VACUUM_VECTOR

    def test_commutator_on_all_states_below_cutoff(self):
        for s in fock_basis(6):
            v = FockVector({s: 1})
            for m in range(1, 4):
                lhs = heisenberg_mode(m, heisenberg_mode(-m, v)) - heisenberg_mode(
                    -m, heisenberg_mode(m, v)
                )
                assert lhs == v.scale(m), (s, m)

    def test_zero_mode_annihilates(self):
        assert heisenberg_mode(0, FockVector.basis(3, 1)).is_zero()

    def test_grading(self):
        # v(n): weight w -> w + wt(v) - n - 1 for v = a
        for s in fock_basis(5):
            for n in (-2, -1, 1, 2):
                out = heisenberg_mode(n, FockVector({s: 1}))
                for t in out.terms:
                    assert t.weight == s.weight - n


class TestCompositeModes:
    def test_mode_of_a_matches_direct(self):
        for m in range(-3, 4):
            for s in fock_basis(5):
                via_state = apply_state_mode(A_VECTOR, m, FockVector({s: 1}))
                direct = heisenberg_mode(m, FockVector({s: 1}))
                assert via_state == direct

    def test_mode_of_am2_is_shifted(self):
        # Y(a(-2)1, z) = da(z): (a(-2)1)(m) = -m a(m-1)
        v = FockVector.basis(2)
        for m in range(-3, 4):
            for s in fock_basis(5):
                got = apply_state_mode(v, m, FockVector({s: 1}))
                want = heisenberg_mode(m - 1, FockVector({s: 1})).scale(-m)
                assert got == want, (m, s)

    def test_vacuum_state_mode_is_identity_at_minus_one(self):
        w = FockVector.basis(2, 1)
        assert apply_state_mode(VACUUM_VECTOR, -1, w) == w
        assert apply_state_mode(VACUUM_VECTOR, 0, w).is_zero()


class TestVertexMatrixElement:
    def test_vacuum_operator_is_identity(self):
        s = vertex_matrix_element(VACUUM_VECTOR, VACUUM, VACUUM, 3)
        assert s.coefficients == {0: 1}

    def test_creation_coefficient(self):
        # <{1}', Y(a,z) 1>: a(-1) at z^0
        s = vertex_matrix_element(A_VECTOR, FockState((1,)), VACUUM, 3)
        assert s.coefficients == {0: 1}

    def test_annihilation_coefficient(self):
        # <1', Y(a,z) {1}>: a(1) at z^-2
        s = vertex_matrix_element(A_VECTOR, VACUUM, FockState((1,)), 3)
        assert s.coefficients == {-2: 1}

    def test_matches_mode_expansion_oracle(self):
        # oracle: assemble the matrix element directly from mode actions
        rng = random.Random(7)
        basis = fock_basis(5)
        for _ in range(12):
            u_in = rng.choice(basis)
            u_out = rng.choice(basis)
            v = FockVector.basis(2, 1)
            series = vertex_matrix_element(v, u_out, u_in, 6)
            m = u_in.weight + 3 - u_out.weight - 1
            image = apply_state_mode(v, m, FockVector({u_in: 1}))
            assert series.coefficients.get(-m - 1, 0) == image.coefficient(u_out)


class TestZeroMode:
    def test_zero_mode_of_a_vanishes_on_module(self):
        o = zero_mode(A_VECTOR)
        for s in fock_basis(6):
            assert o(FockVector({s: 1})).is_zero()

    def test_zero_mode_of_omega_is_grading(self):
        o = zero_mode(OMEGA_VECTOR)
        for s in fock_basis(6):
            v = FockVector({s: 1})
            assert o(v) == v.scale(s.weight), s

    def test_zero_mode_of_vacuum_is_identity(self):
        o = zero_mode(VACUUM_VECTOR)
        w = FockVector.basis(3)
        assert o(w) == w


class TestSquareBrackets:
    def test_a0_bracket_equals_a0(self):
        op = square_bracket_mode(A_VECTOR, 0)
        for s in fock_basis(5):
            assert op(FockVector({s: 1})) == heisenberg_mode(0, FockVector({s: 1}))

    def test_a1_bracket_on_a(self):
        # a[1]a = sum_{i>=1} c(1,i,1) i! ... evaluates to 1_V on a
        op = square_bracket_mode(A_VECTOR, 1)
        assert op(A_VECTOR) == VACUUM_VECTOR

    def test_bracket_oracle_via_exponential_substitution(self):
        # oracle: Y[v,z] = Y(qz^{L0} v, qz - 1) with qz = e^z expanded in z.
        # For v = a (weight 1): v[m] = sum_i c_i v(i) where
        # sum_m v[m] z^{-m-1}|_{z-expansion} must match e^z Y(a, e^z - 1).
        # We check the action on a few states through z^2 by expanding both
        # sides as formal series in z acting coefficient-wise.
        # e^z - 1 = z(1 + z/2 + z^2/6 + ...), so
        # Y(a, e^z-1) = sum_n a(n) (e^z-1)^{-n-1}; compare the z^j
        # coefficients of e^z * Y(a, e^z-1) w with sum_m (a[m]w) z^{-m-1}
        # for terms with -m-1 >= 0 ... restrict to m in {0,1,2} acting on
        # states where a(n>=3) vanishes, making the n-sum finite.
        target = FockVector.basis(2)
        n_max = 4
        z_ord = 3
        # lhs: coefficients of z^0..z^2 of e^z * sum_n a(n) (e^z-1)^{-n-1} target
        # build (e^z - 1) as series with min exponent 1
        ez1 = TruncatedSeries(
            "z",
            {k: Fraction(1, math.factorial(k)) for k in range(1, z_ord + 3)},
            z_ord + 3,
            min_exponent=1,
        )
        ez = TruncatedSeries(
            "z",
            {k: Fraction(1, math.factorial(k)) for k in range(0, z_ord + 3)},
            z_ord + 3,
        )
        lhs = {}
        for n in range(-3, n_max):
            vec = heisenberg_mode(n, target)
            if vec.is_zero():
                continue
            power = _series_int_power(ez1, -n - 1)
            total = power * ez
            for e, c in total.coefficients.items():
                if 0 <= e < z_ord:
                    cur = lhs.setdefault(e, FockVector())
                    lhs[e] = cur + vec.scale(c)
        for m in range(0, z_ord):
            want = lhs.get(m, FockVector())
            # z^m coefficient corresponds to the mode a[-m-1]... match via
            # sum_m a[m] z^{-m-1}: nonnegative z-powers come from m <= -1,
            # which the conversion formula does not cover; instead compare
            # negative powers: handled in the next loop.
        # negative z-powers: z^{-m-1} for m >= 0
        lhs_neg = {}
        for n in range(-3, n_max):
            vec = heisenberg_mode(n, target)
            if vec.is_zero():
                continue
            power = _series_int_power(ez1, -n - 1)
            total = power * ez
            for e, c in total.coefficients.items():
                if e < 0:
                    cur = lhs_neg.setdefault(e, FockVector())
                    lhs_neg[e] = cur + vec.scale(c)
        for m in range(0, 2):
            got = square_bracket_mode(A_VECTOR, m)(target)
            want = lhs_neg.get(-m - 1, FockVector())
            assert got == want, m


def _series_int_power(s, k):
    if k == 0:
        return TruncatedSeries("z", {0: 1}, s.truncation)
    if k < 0:
        return _series_int_power(s.invert(), -k)
    out = s
    for _ in range(k - 1):
        out = out * s
    return out


class TestVirasoro:
    def test_l0_is_grading(self):
        for s in fock_basis(6):
            v = FockVector({s: 1})
            assert virasoro_mode(0, v) == v.scale(s.weight)

    def test_l1_lm1_commutator_on_vacuum(self):
        v = VACUUM_VECTOR
        lhs = virasoro_mode(1, virasoro_mode(-1, v)) - virasoro_mode(
            -1, virasoro_mode(1, v)
        )
        assert lhs.is_zero()  # 2 L(0) vacuum = 0

    def test_l2_lm2_central_term_on_vacuum(self):
        # [L(2), L(-2)] 1 = 4 L(0) 1 + (c/12)(8-2) 1 = (1/2) 1 for c = 1
        v = VACUUM_VECTOR
        lhs = virasoro_mode(2, virasoro_mode(-2, v)) - virasoro_mode(
            -2, virasoro_mode(2, v)
        )
        assert lhs == VACUUM_VECTOR.scale(Fraction(1, 2))

    def test_virasoro_relations_exact(self):
        # [L(m), L(n)] = (m-n) L(m+n) + (1/12)(m^3-m) delta_{m,-n}, c = 1
        cutoff = 9
        for m in range(-3, 4):
            for n in range(-3, 4):
                for s in fock_basis(cutoff - abs(m) - abs(n)):
                    v = FockVector({s: 1})
                    lhs = virasoro_mode(m, virasoro_mode(n, v)) - virasoro_mode(
                        n, virasoro_mode(m, v)
                    )
                    rhs = virasoro_mode(m + n, v).scale(m - n)
                    if m + n == 0:
                        rhs = rhs + v.scale(Fraction(m**3 - m, 12))
                    assert lhs == rhs, (m, n, s)

    def test_translation_property(self):
        # d/dz <u', Y(v,z) w> = <u', Y(L(-1)v, z) w>
        v = FockVector.basis(2, 1)
        lv = virasoro_mode(-1, v)
        for u_out in fock_basis(5):
            for u_in in fock_basis(4):
                s = vertex_matrix_element(v, u_out, u_in, 8)
                ds = s.differentiate()
                s2 = vertex_matrix_element(lv, u_out, u_in, 7)
                for e in range(-8, 7):
                    assert ds.coefficients.get(e, 0) == s2.coefficients.get(e, 0)


class TestBilinearForm:
    def test_normalization(self):
        assert bilinear_form(VACUUM_VECTOR, VACUUM_VECTOR) == 1

    def test_distinct_weights_vanish(self):
        assert bilinear_form(FockVector.basis(1), FockVector.basis(2)) == 0

    def test_a_a_value_from_adjoint_chain(self):
        # oracle: <a,a> = <a(-1)1, a(-1)1> = -<1, a(1)a(-1)1> = -1 (alpha=1)
        val = bilinear_form(A_VECTOR, A_VECTOR)
        chain = heisenberg_mode(1, heisenberg_mode(-1, VACUUM_VECTOR))
        assert val == -chain.coefficient(VACUUM)
        assert val == -1

    def test_adjoint_identity_all_pairs(self):
        # <u(n)a, b> = <a, u^dagger(n) b> for u = a, every n in range
        basis = fock_basis(6)
        for n in range(-2, 3):
            adj = adjoint_mode(A_VECTOR, n)
            for sa in basis:
                for sb in basis:
                    va, vb = FockVector({sa: 1}), FockVector({sb: 1})
                    lhs = bilinear_form(heisenberg_mode(n, va), vb)
                    rhs = bilinear_form(va, adj(vb))
                    assert lhs == rhs, (n, sa, sb)

    def test_adjoint_identity_alpha_2(self):
        alpha = Fraction(2)
        basis = fock_basis(5)
        for n in (-1, 0, 1):
            adj = adjoint_mode(A_VECTOR, n, alpha)
            for sa in basis:
                for sb in basis:
                    va, vb = FockVector({sa: 1}), FockVector({sb: 1})
                    lhs = bilinear_form(heisenberg_mode(n, va), vb, alpha)
                    rhs = bilinear_form(va, adj(vb), alpha)
                    assert lhs == rhs

    def test_dual_coefficient_matches_form(self):
        for alpha in (1, Fraction(4), Fraction(-1, 3)):
            for s in fock_basis(6):
                v = FockVector({s: 1})
                gram = bilinear_form(v, v, alpha)
                assert dual_coefficient(s, alpha) * gram == 1, (s, alpha)

    def test_form_diagonal_on_basis(self):
        basis = fock_basis(5)
        for i, s in enumerate(basis):
            for t in basis[i + 1:]:
                assert bilinear_form(FockVector({s: 1}), FockVector({t: 1})) == 0


class TestAdjointModeFormula:
    def test_adjoint_of_a_at_zero(self):
        # a^dagger(0) = -a(0): the zero operator here
        adj = adjoint_mode(A_VECTOR, 0)
        assert adj(FockVector.basis(2, 1)).is_zero()

    def test_adjoint_of_a_general_n(self):
        # a^dagger(n) = -a(-n) for alpha=1
        for n in (-2, -1, 1, 2):
            adj = adjoint_mode(A_VECTOR, n)
            for s in fock_basis(5):
                v = FockVector({s: 1})
                assert adj(v) == heisenberg_mode(-n, v).scale(-1)

    def test_adjoint_of_omega(self):
        # omega^dagger(1) = omega(1) = L(0) for alpha=1
        adj = adjoint_mode(OMEGA_VECTOR, 1)
        for s in fock_basis(5):
            v = FockVector({s: 1})
            assert adj(v) == v.scale(s.weight)

    def test_non_quasiprimary_rejected(self):
        bad = FockVector.basis(2)  # L(1) a(-2)1 = 2 a(-1) 1 != 0
        assert not is_quasiprimary(bad)
        with pytest.raises(ValueError):
            adjoint_mode(bad, 0)

    def test_omega_quasiprimary(self):
        assert is_quasiprimary(OMEGA_VECTOR)
        assert is_quasiprimary(A_VECTOR)


class TestCommutatorFormula:
    def test_commutator_formula_matrix_elements(self):
        # u(k) Y(v,z) - Y(v,z) u(k) = sum_j C(k,j) Y(u(j)v, z) z^{k-j}
        # checked coefficient-wise on randomized state pairs, u = a
        rng = random.Random(3)
        basis = fock_basis(5)
        for v in (A_VECTOR, OMEGA_VECTOR):
            for k in (-2, -1, 0, 1, 2):
                for _ in range(6):
                    u_in = rng.choice(basis)
                    u_out = rng.choice(basis)
                    lhs = _commutator_series(k, v, u_out, u_in)
                    rhs = {}
                    for j in range(0, 8):
                        uv = heisenberg_mode(j, v)
                        if uv.is_zero():
                            continue
                        term = vertex_matrix_element(uv, u_out, u_in, 10)
                        for e, c in term.coefficients.items():
                            ee = e + k - j
                            rhs[ee] = rhs.get(ee, 0) + c * _comb_int(k, j)
                    for e in set(lhs) | set(rhs):
                        assert lhs.get(e, 0) == rhs.get(e, 0), (v, k, u_in, u_out, e)


def _comb_int(k, j):
    out = 1
    for t in range(j):
        out *= k - t
    return out // math.factorial(j)


def _commutator_series(k, v, u_out, u_in):
    """Coefficients of <u_out', [a(k), Y(v,z)] u_in> by direct modes.

    Grading pins a single contributing mode index per homogeneous
    component on each side of the commutator.
    """
    out = {}
    w = FockVector({u_in: 1})
    for wt, comp in v.homogeneous_components().items():
        m = u_in.weight + wt - k - u_out.weight - 1
        term1 = heisenberg_mode(k, apply_state_mode(comp, m, w))
        term2 = apply_state_mode(comp, m, heisenberg_mode(k, w))
        c = term1.coefficient(u_out) - term2.coefficient(u_out)
        if c:
            out[-m - 1] = out.get(-m - 1, 0) + c
    return out


class TestSphereEngine:
    def test_two_point_function(self):
        # <1', Y(a,z1) Y(a,z2) 1> = 1/(z1-z2)^2
        z1, z2 = Fraction(5), Fraction(2)
        val = sphere_matrix_element(
            VACUUM, [(FockState((1,)), z1), (FockState((1,)), z2)], VACUUM
        )
        assert val == Fraction(1, (z1 - z2) ** 2)

    def test_symmetry_under_exchange(self):
        z1, z2, z3 = Fraction(7), Fraction(3), Fraction(1)
        ins = [
            (FockState((1,)), z1),
            (FockState((2, 1)), z2),
            (FockState((1,)), z3),
        ]
        base = sphere_matrix_element(VACUUM, ins, VACUUM)
        import itertools

        for perm in itertools.permutations(ins):
            assert sphere_matrix_element(VACUUM, list(perm), VACUUM) == base

    def test_odd_leg_count_vanishes(self):
        val = sphere_matrix_element(VACUUM, [(FockState((1,)), Fraction(2))], VACUUM)
        assert val == 0

    def test_matches_mode_composition_small(self):
        # oracle: <{1}', Y(a,z){1}> via engine vs direct mode expansion
        z = Fraction(3)
        got = sphere_matrix_element(
            FockState((1,)), [(FockState((1,)), z)], FockState((1,))
        )
        series = vertex_matrix_element(A_VECTOR, FockState((1,)), FockState((1,)), 4)
        want = series.evaluate(z)
        assert got == want

    def test_matches_truncated_mode_expansion_two_insertions(self):
        # oracle: radial-ordered double mode sum, truncated deep enough to
        # see float agreement with the exact rational value
        z1, z2 = Fraction(4), Fraction(1)
        exact = sphere_matrix_element(
            VACUUM, [(FockState((1,)), z1), (FockState((1,)), z2)], VACUUM
        )
        acc = 0.0
        for m in range(1, 60):
            # <1', a(m) a(-m) 1> = m, z1^{-m-1} z2^{m-1}
            acc += m * float(z1) ** (-m - 1) * float(z2) ** (m - 1)
        assert acc == pytest.approx(float(exact), rel=1e-12)

    def test_composite_insertion_derivative_field(self):
        # Y(a(-2)1, z) = da(z): <1', Y(a(-2)1,z1) Y(a,z2) 1> = -2/(z1-z2)^3
        z1, z2 = Fraction(5), Fraction(3)
        val = sphere_matrix_element(
            VACUUM, [(FockState((2,)), z1), (FockState((1,)), z2)], VACUUM
        )
        assert val == Fraction(-2, (z1 - z2) ** 3)

    def test_normal_ordered_square(self):
        # <1', Y(:aa:,z1) Y(a,z2) Y(a,z3) 1> = 2/((z1-z2)^2 (z1-z3)^2)
        z1, z2, z3 = Fraction(9), Fraction(4), Fraction(1)
        val = sphere_matrix_element(
            VACUUM,
            [
                (FockState((1, 1)), z1),
                (FockState((1,)), z2),
                (FockState((1,)), z3),
            ],
            VACUUM,
        )
        assert val == Fraction(2, ((z1 - z2) ** 2 * (z1 - z3) ** 2))

    def test_boundary_states_delta(self):
        for s in fock_basis(5):
            for t in fock_basis(5):
                val = sphere_matrix_element(s, [], t)
                assert val == (1 if s == t else 0)

    def test_consistency_with_mode_recursion_random(self):
        # engine vs radially ordered mode composition: the mode sum is an
        # infinite geometric-type series in z2/z1, so truncate deep and
        # compare within the tail bound
        rng = random.Random(11)
        states = [FockState((1,)), FockState((2,)), FockState((1, 1)), FockState((2, 1))]
        z1, z2 = Fraction(1), Fraction(1, 10)
        max_j = 40
        for _ in range(8):
            s1, s2 = rng.choice(states), rng.choice(states)
            got = sphere_matrix_element(VACUUM, [(s1, z1), (s2, z2)], VACUUM)
            # oracle: Y(s2,z2)|0> = e^{z2 L(-1)} s2 = sum_j z2^j L(-1)^j/j! s2,
            # then pair each weight component against the single surviving
            # mode of s1
            want = Fraction(0)
            cur = FockVector({s2: 1})
            expansion = {0: cur}
            for j in range(1, max_j):
                cur = virasoro_mode(-1, cur).scale(Fraction(1, j))
                expansion[j] = cur
            for j, vj in expansion.items():
                for state, c in vj.terms.items():
                    m = state.weight + s1.weight - 1
                    img = apply_state_mode(s1, m, FockVector({state: 1}))
                    coeff = img.coefficient(VACUUM)
                    if coeff:
                        want += c * coeff * z2**j * Fraction(1, z1 ** (m + 1))
            # tail decays like (z2/z1)^max_j times slow polynomial growth
            assert abs(float(got - want)) < 1e-30, (s1, s2)

    def test_sphere_function_multilinear(self):
        z1, z2 = Fraction(6), Fraction(2)
        v = A_VECTOR + FockVector.basis(2).scale(Fraction(1, 3))
        got = sphere_value([(v, z1), (A_VECTOR, z2)], VACUUM, VACUUM)
        want = sphere_matrix_element(
            VACUUM, [(FockState((1,)), z1), (FockState((1,)), z2)], VACUUM
        ) + Fraction(1, 3) * sphere_matrix_element(
            VACUUM, [(FockState((2,)), z1), (FockState((1,)), z2)], VACUUM
        )
        assert got == want
