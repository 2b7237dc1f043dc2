"""Tests for the Heisenberg module: modes, brackets, forms, sphere values."""

import gc
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from references import _pow, leg_contraction

from voachain import correlators, voa
from voachain.correlators import sphere_value
from voachain.series import ExactComplex, SeriesError, TruncatedSeries, _GaussInt
from voachain.voa import (
    A_STATE,
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
    square_bracket_mode,
    vertex_matrix_element,
    virasoro_mode,
    weight_basis,
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

    def test_pentagonal_counts_match_the_bases(self):
        # p(n) by the pentagonal recurrence, from a cleared table, against
        # the enumerated bases, and past where they can be listed
        voa._partition_table.cache_clear()
        assert partition_count(100) == 190569292
        for n in range(21):
            assert partition_count(n) == len(weight_basis(n)), n
        assert partition_count(-1) == 0
        voa._partition_table.cache_clear()
        assert partition_count(20) == 627


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


def sphere(insertions):
    """The sphere function between vacua of basis states at points."""
    return sphere_value([(FockVector({s: 1}), z) for s, z in insertions])


class TestSphereEngine:
    def test_two_point_function(self):
        # <1', Y(a,z1) Y(a,z2) 1> = 1/(z1-z2)^2
        z1, z2 = Fraction(5), Fraction(2)
        val = sphere([(FockState((1,)), z1), (FockState((1,)), z2)])
        assert val == Fraction(1, (z1 - z2) ** 2)

    def test_symmetry_under_exchange(self):
        z1, z2, z3 = Fraction(7), Fraction(3), Fraction(1)
        ins = [
            (FockState((1,)), z1),
            (FockState((2, 1)), z2),
            (FockState((1,)), z3),
        ]
        base = sphere(ins)
        import itertools

        for perm in itertools.permutations(ins):
            assert sphere(list(perm)) == base

    def test_odd_leg_count_vanishes(self):
        val = sphere([(FockState((1,)), Fraction(2))])
        assert val == 0

    def test_matches_truncated_mode_expansion_two_insertions(self):
        # oracle: radial-ordered double mode sum, truncated deep enough to
        # see float agreement with the exact rational value
        z1, z2 = Fraction(4), Fraction(1)
        exact = sphere([(FockState((1,)), z1), (FockState((1,)), z2)])
        acc = 0.0
        for m in range(1, 60):
            # <1', a(m) a(-m) 1> = m, z1^{-m-1} z2^{m-1}
            acc += m * float(z1) ** (-m - 1) * float(z2) ** (m - 1)
        assert acc == pytest.approx(float(exact), rel=1e-12)

    def test_composite_insertion_derivative_field(self):
        # Y(a(-2)1, z) = da(z): <1', Y(a(-2)1,z1) Y(a,z2) 1> = -2/(z1-z2)^3
        z1, z2 = Fraction(5), Fraction(3)
        val = sphere([(FockState((2,)), z1), (FockState((1,)), z2)])
        assert val == Fraction(-2, (z1 - z2) ** 3)

    def test_normal_ordered_square(self):
        # <1', Y(:aa:,z1) Y(a,z2) Y(a,z3) 1> = 2/((z1-z2)^2 (z1-z3)^2)
        z1, z2, z3 = Fraction(9), Fraction(4), Fraction(1)
        val = sphere([
            (FockState((1, 1)), z1),
            (FockState((1,)), z2),
            (FockState((1,)), z3),
        ])
        assert val == Fraction(2, ((z1 - z2) ** 2 * (z1 - z3) ** 2))

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
            got = sphere([(s1, z1), (s2, z2)])
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
        got = sphere_value([(v, z1), (A_VECTOR, z2)])
        want = sphere([(FockState((1,)), z1), (FockState((1,)), z2)]) + Fraction(1, 3) * sphere(
            [(FockState((2,)), z1), (FockState((1,)), z2)])
        assert got == want


# -- the shared Wick context -------------------------------------------


def _pairings(legs):
    """Every perfect matching of legs, enumerated afresh (no memo)."""
    if not legs:
        yield []
        return
    first, rest = legs[0], legs[1:]
    for idx, other in enumerate(rest):
        for tail in _pairings(rest[:idx] + rest[idx + 1:]):
            yield [(first, other)] + tail


def _wick_oracle(insertions):
    # every matching of the fields, enumerated afresh; each pair's
    # contraction is computed once per call and read by every matching
    legs = []
    for g, (state, z) in enumerate(insertions):
        legs += [("field", part - 1, g, z) for part in state.partition]
    contraction = {(i, j): leg_contraction(legs[i], legs[j])
                   for i in range(len(legs)) for j in range(i + 1, len(legs))}
    total = Fraction(0)
    for matching in _pairings(list(range(len(legs)))):
        term = Fraction(1)
        for pair in matching:
            term *= contraction[pair]
            if term == 0:
                break
        total += term
    return total


def _states_up_to(weight):
    return fock_basis(weight + 1)


@st.composite
def _sphere_elements(draw):
    """Basis states at 1-4 exact points, and one more at 0."""
    n = draw(st.integers(1, 4))
    thirds = draw(st.lists(st.integers(-30, 30).filter(bool), min_size=n, max_size=n,
                           unique=True))
    points = [Fraction(t, 3) for t in thirds]
    states = draw(st.lists(st.sampled_from(_states_up_to(4)), min_size=n, max_size=n))
    at_zero = draw(st.sampled_from(_states_up_to(3)))
    return [*zip(states, points), (at_zero, Fraction(0))]


# the point kind that mixes with a non-integral Fraction, drawn from the
# same thirds as the Fraction points and moved off the real line
_MIXED_KINDS = {
    ExactComplex: lambda t: ExactComplex(Fraction(t, 3), Fraction(1, 2)),
}


@st.composite
def _mixed_sphere_elements(draw):
    """Elements at non-integral Fraction points mixed with one other
    kind: at least one point of each, every such point carrying fields,
    and one more state, maybe the vacuum, at 0."""
    kind = draw(st.sampled_from(list(_MIXED_KINDS)))
    n = draw(st.integers(2, 4))
    thirds = draw(st.lists(st.integers(-30, 30).filter(lambda t: t % 3), min_size=n,
                           max_size=n, unique=True))
    other = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
        lambda flags: any(flags) and not all(flags)))
    points = [_MIXED_KINDS[kind](t) if o else Fraction(t, 3) for t, o in zip(thirds, other)]
    states = draw(st.lists(st.sampled_from(_states_up_to(3)[1:]), min_size=n, max_size=n))
    at_zero = draw(st.sampled_from(_states_up_to(2)))
    return kind, [*zip(states, points), (at_zero, Fraction(0))]


def _legs(insertions):
    return sum(len(s.partition) for s, _ in insertions)


def _program_caches():
    """Every voachain cache, found as benchmarks/worker.program_caches does."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("voachain."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def _cold(fn, *args):
    correlators._wick_context.cache_clear()
    correlators._two_point_tables.cache_clear()
    correlators._canonical_order.cache_clear()
    return fn(*args)


def _context_of(points):
    """The Wick context of a point set, fetched by its canonical key."""
    order = correlators._canonical_order(tuple(points))
    points = tuple(points[i] for i in order)
    return correlators._wick_context(tuple(isinstance(z, ExactComplex) for z in points), points)


# the points a drawn third t gives each kind; vacuum slots take fresh
# thirds, away from the points that carry fields
_KIND_POINTS = {Fraction: lambda t: Fraction(t, 3), **_MIXED_KINDS}


@st.composite
def _permuted_elements(draw):
    """An element at exact or mixed points, with up to two vacuum slots
    at fresh points, and its insertions in a drawn order."""
    kind, insertions = draw(st.one_of(
        _sphere_elements().map(lambda element: (Fraction, element)),
        _mixed_sphere_elements()))
    fresh = draw(st.lists(st.integers(31, 40), max_size=2, unique=True))
    slot_kinds = draw(st.lists(st.sampled_from([Fraction, kind]), min_size=len(fresh),
                               max_size=len(fresh)))
    insertions = insertions + [(VACUUM, _KIND_POINTS[k](t)) for k, t in zip(slot_kinds, fresh)]
    permuted = draw(st.permutations(insertions))
    return kind, insertions, permuted


def _typed(x):
    return type(x), repr(x)


# states with repeated parts: equal fields that the kernel contracts once
# per run, times the run's length
_REPEATED = (FockState((1, 1, 1)), FockState((2, 2, 1)), FockState((1, 1, 1, 1)))


@st.composite
def _repeated_part_elements(draw):
    """Elements at 3-4 exact or mixed points, with at least one state of
    repeated parts and an even leg count up to 12."""
    kind = draw(st.sampled_from([Fraction, *_MIXED_KINDS]))
    n = draw(st.integers(3, 4))
    thirds = draw(st.lists(st.integers(-30, 30).filter(lambda t: t % 3), min_size=n,
                           max_size=n, unique=True))
    if kind is Fraction:
        points = [Fraction(t, 3) for t in thirds]
    else:
        other = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
            lambda flags: any(flags) and not all(flags)))
        points = [_MIXED_KINDS[kind](t) if o else Fraction(t, 3) for t, o in zip(thirds, other)]
    states = draw(st.lists(st.sampled_from([*_REPEATED, *_states_up_to(2)[1:]]), min_size=n,
                           max_size=n).filter(lambda s: any(x in _REPEATED for x in s)))
    assume(_legs(list(zip(states, points))) in (4, 6, 8, 10, 12))
    return kind, list(zip(states, points))


@st.composite
def _two_point_elements(draw):
    """Basis states at two exact points, both rational or one of them an
    ExactComplex, with at most 12 legs."""
    kind = draw(st.sampled_from([Fraction, *_MIXED_KINDS]))
    thirds = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=2, unique=True))
    points = [Fraction(t, 3) for t in thirds]
    if kind is not Fraction:
        points[draw(st.integers(0, 1))] = _MIXED_KINDS[kind](thirds[0])
    states = draw(st.lists(st.sampled_from(_states_up_to(5)), min_size=2, max_size=2))
    assume(points[0] != points[1] and _legs(list(zip(states, points))) <= 12)
    return kind, list(zip(states, points))


def _one_contraction(k, z1, z2):
    # <a(-k) at z1, a(-k) at z2>: the fields d^(k-1)a/(k-1)! contract once
    d = k - 1
    return Fraction((-1) ** d * (2 * d + 1) * math.comb(2 * d, d)) / _pow(z1 - z2, 2 * d + 2)


# the largest element the oracle runs on: 14 legs, 135135 matchings
_FOURTEEN_LEGS = [(FockState((1, 1, 1, 1)), Fraction(1, 3)),
                  (FockState((2, 1, 1)), Fraction(-2, 3)),
                  (FockState((1,)), Fraction(5, 3)),
                  (FockState((1, 1, 1)), Fraction(2)),
                  (FockState((1, 1, 1)), Fraction(0))]


class TestWickContext:
    @settings(max_examples=80, deadline=None)
    # the oracle enumerates (legs - 1)!! matchings: 10395 at 12 legs
    @given(_sphere_elements().filter(lambda element: _legs(element) <= 12))
    @example(_FOURTEEN_LEGS)
    def test_matches_memo_free_pairing_sum(self, insertions):
        legs = _legs(insertions)
        value = sphere(insertions)
        assert value == _wick_oracle(insertions)
        # exact points give a Fraction; an odd leg count is the int 0
        assert type(value) is (int if legs % 2 else Fraction)

    @settings(max_examples=80, deadline=None)
    @given(_mixed_sphere_elements())
    def test_mixed_points_match_memo_free_pairing_sum(self, drawn):
        # a non-integral Fraction next to an ExactComplex point: every
        # value stays (x, 1) and keeps the denominators of x
        kind, insertions = drawn
        legs = _legs(insertions)
        assume(legs <= 12)
        value = _cold(sphere, insertions)
        want = _wick_oracle(insertions)
        if legs % 2:
            assert type(value) is int and value == 0
            return
        # a point's kind reaches the value only through a term it enters
        assert type(value) in (Fraction, kind)
        assert value == want

    @settings(max_examples=80, deadline=None)
    @given(_permuted_elements())
    def test_permuted_insertions_match_memo_free_pairing_sum(self, drawn):
        # the value is symmetric in the insertions, and every order runs
        # on the same sub-sums: evaluated cold in the permuted order, then
        # warm in the drawn one, both must equal the oracle
        kind, insertions, permuted = drawn
        legs = _legs(insertions)
        assume(legs <= 12)
        want = _wick_oracle(insertions)
        cold = _cold(sphere, permuted)
        warm = sphere(insertions)
        for value in (cold, warm):
            if legs % 2:
                assert type(value) is int and value == 0
            elif kind is Fraction:
                assert type(value) is Fraction and value == want
            else:
                assert type(value) in (Fraction, kind) and value == want

    @pytest.mark.parametrize("points, kind", [
        ((Fraction(1, 3), Fraction(-5, 2)), Fraction),
        ((4, -1), Fraction),
        ((ExactComplex(1, 2), ExactComplex(Fraction(-1, 3))), ExactComplex),
        ((Fraction(1, 3), ExactComplex(0, 1)), ExactComplex),
    ])
    def test_result_type_follows_the_points(self, points, kind):
        # <a(z1) a(z2)> = (z1 - z2)^-2 enters both points, so the value has
        # the type of their arithmetic
        z1, z2 = points
        value = _cold(sphere, [(A_STATE, z1), (A_STATE, z2)])
        assert type(value) is kind
        assert value == Fraction(1) / _pow(z1 - z2, 2)

    @settings(max_examples=40, deadline=None)
    @given(_repeated_part_elements())
    def test_repeated_parts_match_memo_free_pairing_sum(self, drawn):
        kind, insertions = drawn
        value = _cold(sphere, insertions)
        want = _wick_oracle(insertions)
        if kind is Fraction:
            assert type(value) is Fraction and value == want
            return
        # a point's kind reaches the value only through a term it enters
        assert type(value) in (Fraction, kind) and value == want

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("z1, z2", [(Fraction(7, 3), Fraction(-2)), (5, 2)])
    def test_two_powers_of_a_pair_in_n_factorial_ways(self, n, z1, z2):
        # a(-1)^n|0> at z1 against a(-1)^n|0> at z2: every field at z1 pairs
        # with one at z2, in n! ways, each (z1 - z2)^-2n.  Up to 16 legs,
        # past what the oracle can enumerate
        power = FockState((1,) * n)
        value = _cold(sphere, [(power, z1), (power, z2)])
        assert type(value) is Fraction
        assert value == Fraction(math.factorial(n)) / Fraction(z1 - z2) ** (2 * n)

    @pytest.mark.parametrize("zero", [0, Fraction(0), ExactComplex(0)])
    def test_two_insertions_at_zero_are_refused(self, zero):
        # two insertions at one point: a ValueError, not a
        # ZeroDivisionError, also where an odd leg count makes the
        # function 0
        with pytest.raises(ValueError, match="pairwise distinct"):
            sphere_value([(A_VECTOR, zero), (A_VECTOR, 1), (FockVector.basis(1, 1), 0)])
        with pytest.raises(ValueError, match="pairwise distinct"):
            sphere_value([(A_VECTOR, zero), (FockVector.basis(1, 1), 0)])
        # one insertion at 0 is a point like any other
        assert sphere_value([(A_VECTOR, zero), (A_VECTOR, 1)]) == 1

    def test_equal_fields_recurse_once_per_state(self, monkeypatch):
        # a(-1)^8|0> at two points: every field at 5 has one distinct
        # partner, so each state of 16, 14, ..., 2 fields is entered once,
        # and the two-field state closes on the memo's empty state
        calls = []
        wick_sum = correlators._wick_sum

        def counted(fields, ctx):
            calls.append(len(fields))
            return wick_sum(fields, ctx)

        monkeypatch.setattr(correlators, "_wick_sum", counted)
        power = FockState((1,) * 8)
        _cold(sphere, [(power, 7), (power, 5)])
        assert calls == [16, 14, 12, 10, 8, 6, 4, 2]
        # one character per field: a field at 7 and one at 5
        assert len(_context_of([7, 5]).fields) == 2

    def test_exact_memo_holds_one_int_per_state(self):
        # the guard against Fraction arithmetic or pairs creeping back into
        # the recursion: at rational points every memoised sub-sum and
        # every entry of every contraction row is one int, and the value
        # still matches the oracle
        points = [Fraction(7, 2), Fraction(-2), Fraction(5, 3), 4, 0]
        states = [FockState((2, 1)), FockState((1, 1, 1)), FockState((3,)), FockState((1, 1)),
                  FockState((1, 1))]
        value = _cold(sphere, list(zip(states, points)))
        assert type(value) is Fraction and value != 0
        assert value == _wick_oracle(list(zip(states, points)))
        ctx = _context_of(points)
        assert not ctx.gaussian and ctx.scale == 6 and len(ctx.memo) > 10
        entries = [x for row in ctx.contractions.values() for x in row.values()]
        assert len(entries) > 10
        for entry in [*ctx.memo.values(), *entries]:
            assert type(entry) is int

    def test_huge_exact_point_gives_its_value(self):
        # the distinctness check compares exactly: a point past the float
        # range is a value, not an OverflowError
        big = Fraction(10**400)
        assert sphere_value([(A_VECTOR, big), (A_VECTOR, 0)]) == Fraction(1, 10**800)
        assert sphere_value([(A_VECTOR, big), (A_VECTOR, big + 1)]) == 1
        with pytest.raises(ValueError, match="pairwise distinct"):
            sphere_value([(A_VECTOR, big), (A_VECTOR, ExactComplex(big))])
        # no float point reaches the engine, where it would overflow
        with pytest.raises(SeriesError, match="is not exact"):
            sphere_value([(A_VECTOR, big), (A_VECTOR, 0.5)])

    @pytest.mark.parametrize("c", [0.5, complex(0.5, -0.25)], ids=["float", "complex"])
    def test_an_inexact_coefficient_is_refused(self, c):
        # as an inexact point is: the one multilinear expansion refuses it
        # before any value is computed
        with pytest.raises(SeriesError, match="coefficient .* is not exact"):
            sphere_value([(A_VECTOR.scale(c), 5), (A_VECTOR, 2)])
        with pytest.raises(SeriesError, match="coefficient .* is not exact"):
            sphere_value([(A_VECTOR.scale(c) + FockVector.basis(2), 5), (A_VECTOR, 2)])

    def test_exact_points_are_ordered_exactly(self):
        # 10**400 has no float, and 10**400 + 1/2 would round to it: both
        # orders of the two points must still find one context
        big = Fraction(10**400)
        insertions = [(A_STATE, big), (A_STATE, big + Fraction(1, 2)), (VACUUM, Fraction(1))]
        values = [_cold(sphere, insertions), sphere(insertions[::-1])]
        assert values == [4, 4]
        assert correlators._wick_context.cache_info().misses == 1

    def test_gaussian_memo_holds_one_gaussian_integer_per_state(self):
        # one ExactComplex point moves the whole context to Gaussian
        # integers: every memoised sub-sum is one _GaussInt with int parts,
        # never a tuple or an ExactComplex
        points = [Fraction(7, 2), ExactComplex(Fraction(1, 2), 1), Fraction(-1, 3)]
        insertions = [(FockState((2, 1)), points[0]), (FockState((1, 2)), points[1]),
                      (FockState((1, 1)), points[2])]
        value = _cold(sphere, insertions)
        assert type(value) is ExactComplex and value == _wick_oracle(insertions)
        ctx = _context_of(points)
        assert ctx.gaussian and ctx.scale == 6 and len(ctx.memo) > 3
        for entry in ctx.memo.values():
            assert type(entry) is _GaussInt
            assert type(entry.re) is int and type(entry.im) is int

    def test_batch_is_order_independent(self):
        # one point tuple, so every element of the batch shares a context
        rng = random.Random(5)
        points = [Fraction(7), Fraction(-2), Fraction(5, 3)]
        basis = _states_up_to(4)
        batch = [[(rng.choice(basis[1:]), z) for z in points] + [(rng.choice(_states_up_to(3)), 0)]
                 for _ in range(60)]
        correlators._wick_context.cache_clear()
        cold = [_typed(sphere(e)) for e in batch]
        warm = [_typed(sphere(e)) for e in batch]
        order = list(range(len(batch)))
        rng.shuffle(order)
        correlators._wick_context.cache_clear()
        shuffled = {i: _typed(sphere(batch[i])) for i in order}
        assert warm == cold
        assert [shuffled[i] for i in range(len(batch))] == cold
        assert correlators._wick_context.cache_info().misses == 1

    @pytest.mark.parametrize("kinds", [[int, Fraction, ExactComplex],
                                       [ExactComplex, Fraction, int]])
    def test_point_types_keep_their_own_results(self, kinds):
        # 5, Fraction(5) and ExactComplex(5) compare and hash equal, but
        # ExactComplex(5) runs the scalar path and the others integer
        # pairs: in either order each gets the value and type a cold
        # evaluation gives it
        states = [FockState((2, 1)), FockState((1,)), FockState((1, 1)), FockState((1,))]
        values = [5, -2, 3, 7]
        args = {kind: [*zip(states, map(kind, values)), (FockState((2, 1)), 0)]
                for kind in kinds}
        correlators._wick_context.cache_clear()
        shared = {kind: _typed(sphere(args[kind])) for kind in kinds}
        for kind in kinds:
            assert shared[kind] == _typed(_cold(sphere, args[kind])), kind
        assert shared[int][0] is shared[Fraction][0] is Fraction
        assert shared[ExactComplex][0] is ExactComplex

    def test_worker_cache_rule_clears_the_context(self):
        # the two-point tables too: a memo kept across passes would make
        # every pass after the first a warm one
        sphere([(FockState((1,)), 2), (FockState((1,)), 3)])
        assert correlators._wick_context.cache_info().currsize > 0
        assert correlators._two_point_tables.cache_info().currsize > 0
        for cache in _program_caches():
            cache.cache_clear()
        assert correlators._wick_context.cache_info().currsize == 0
        assert correlators._two_point_tables.cache_info().currsize == 0

    def test_an_evicted_context_is_freed_without_the_cyclic_collector(self):
        # one context is kept, and its rows hold no reference back to its
        # tables: with gc off, a sum at new points frees the previous
        # context's memo and rows.  Probes stand in for their entries, as
        # plain dicts take no weak reference
        class Probe:
            pass

        sphere([(FockState((1,)), 2), (FockState((1,)), 3), (FockState((2,)), 5)])
        ctx = _context_of([2, 3, 5])
        probes = [Probe(), Probe(), Probe()]
        ctx.memo["probe"] = probes[0]
        ctx.contractions["probe"] = probes[1]
        ctx.contractions[next(iter(ctx.alphabet.values()))]["probe"] = probes[2]
        refs = [weakref.ref(probe) for probe in probes]
        del ctx, probes
        enabled = gc.isenabled()
        gc.disable()
        try:
            sphere([(FockState((1,)), 2), (FockState((1,)), 3), (FockState((2,)), 7)])
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
        assert correlators._wick_context.cache_info().currsize == 1

    @settings(max_examples=60, deadline=None)
    @given(_two_point_elements(), _two_point_elements())
    def test_two_point_values_match_the_oracle_on_shared_tables(self, drawn, warming):
        # every two-point context of one ring reads one point-free memo:
        # a value is the oracle's cold and after another pair, at other
        # points, has filled the tables
        kind, insertions = drawn
        want = _wick_oracle(insertions)
        cold = _cold(sphere, insertions)
        _cold(sphere, warming[1])
        warm = sphere(insertions)
        for value in (cold, warm):
            if _legs(insertions) % 2:
                assert type(value) is int and value == 0
            else:
                assert type(value) in (Fraction, kind) and value == want

    def test_two_point_contexts_share_their_tables(self):
        rational = [_context_of(points) for points in ([1, 2], [Fraction(5), Fraction(-7, 3)])]
        gaussian = [_context_of(points) for points in ([ExactComplex(1, 1), 2],
                                                       [0, ExactComplex(Fraction(1, 2))])]
        for contexts in (rational, gaussian):
            first, other = contexts
            assert first is not other and first.scaled != other.scaled
            assert first.memo is other.memo and first.alphabet is other.alphabet
            assert first.contractions is other.contractions
        assert rational[0].memo is not gaussian[0].memo
        # three points have their own
        assert _context_of([1, 2, 3]).memo is not rational[0].memo

    @pytest.mark.parametrize("z1, z2", [(1, 2), (Fraction(7, 3), Fraction(-2))])
    def test_a_high_mode_pair_is_one_contraction(self, z1, z2):
        # two fields with d = 8999: the alphabet names fields, not a
        # fixed stride of derivative orders, so nothing aliases
        state = FockState((9000,))
        assert _cold(sphere, [(state, z1), (state, z2)]) == _one_contraction(9000, z1, z2)

    def test_an_alphabet_past_256_fields(self):
        # a(-k) pairs for k <= 300 on the shared two-point tables: 600
        # fields, so the later ones take characters past one byte
        z1, z2 = Fraction(3, 2), Fraction(-1)
        correlators._two_point_tables.cache_clear()
        for k in range(1, 301):
            state = FockState((k,))
            assert sphere([(state, z1), (state, z2)]) == _one_contraction(k, z1, z2), k
        ctx = _context_of([z1, z2])
        assert len(ctx.fields) == 600 and len(ctx.alphabet) == 600

    @pytest.mark.parametrize("points", [(0, 1, 2), (0, ExactComplex(1, 1), 2)])
    def test_an_odd_field_count_is_the_rings_zero(self, points):
        # a lone field has no partner: the state is 0, not an IndexError
        ctx = _cold(_context_of, list(points))
        a = FockState((1,))
        for fields in [correlators._field_chars(a, 0, ctx),
                       "".join(correlators._field_chars(a, pi, ctx) for pi in range(3)),
                       correlators._field_chars(FockState((2, 1, 1)), 1, ctx)]:
            value = correlators._wick(fields, ctx)
            assert type(value) is type(ctx.zero) and not value

    def test_vacuum_and_legged_states_share_one_context(self):
        # every insertion point keys the context, so a vacuum state in a
        # slot does not move the batch to another point tuple
        rng = random.Random(11)
        points = [Fraction(7), Fraction(-2), Fraction(5, 3)]
        basis = _states_up_to(3)
        batch = [[(rng.choice(basis), z) for z in points] for _ in range(60)]
        assert any(s == VACUUM for ins in batch for s, _ in ins)
        assert any(s != VACUUM for ins in batch for s, _ in ins)
        cold = [_typed(_cold(sphere, e)) for e in batch]
        correlators._wick_context.cache_clear()
        shared = [_typed(sphere(e)) for e in batch]
        assert shared == cold
        assert correlators._wick_context.cache_info().misses == 1

    def test_vacuum_point_never_enters_a_value(self):
        # a legged state at the ExactComplex point fills the context with
        # ExactComplex entries; the vacuum there must still give the
        # Fraction cold value
        point = ExactComplex(Fraction(1, 2), 1)
        legged = [(FockState((1,)), Fraction(3)), (FockState((1, 1)), point),
                  (FockState((2,)), Fraction(1))]
        vacuum = [legged[0], (VACUUM, point), legged[2]]
        correlators._wick_context.cache_clear()
        assert type(sphere(legged)) is ExactComplex
        warm = _typed(sphere(vacuum))
        assert correlators._wick_context.cache_info().misses == 1
        assert warm == _typed(_cold(sphere, vacuum))
        assert warm[0] is Fraction


    def test_cold_genus2_partition_builds_one_cached_context(self):
        # one for the whole nested sum, which runs at all four handle
        # points; the Gram inversions build theirs outside the cache
        from voachain.complexes import Sphere
        from voachain.schottky import SchottkyData

        for cache in _program_caches():
            cache.cache_clear()
        sd = SchottkyData(genus=2, points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)))
        Sphere(sd.handles((4, 4))).evaluate(())
        assert correlators._wick_context.cache_info().misses == 1

    def test_swapped_handles_reuse_the_context(self):
        # the same handle sums in the other handle order: every paired
        # term is a permutation of one already evaluated
        from voachain.complexes import Sphere
        from voachain.schottky import SchottkyData

        def partition(points):
            handles = SchottkyData(genus=2, points=points).handles((4, 4))
            return Sphere(handles).evaluate(()).data

        for cache in _program_caches():
            cache.cache_clear()
        points = (Fraction(-1), Fraction(1), Fraction(-4), Fraction(4))
        series = partition(points)
        misses = correlators._wick_context.cache_info().misses
        ctx = _context_of(points)
        entries = len(ctx.memo)
        swapped = partition(points[2:] + points[:2])
        assert correlators._wick_context.cache_info().misses == misses
        assert _context_of(points) is ctx and len(ctx.memo) == entries
        for j in range(4):
            for k in range(4):
                assert swapped.coefficient(j).coefficient(k) == series.coefficient(k).coefficient(j)
