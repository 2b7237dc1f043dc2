"""Tests for sewing operators and the genus-g form apparatus."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from voachain.complexes import Sewn, Sphere, Trace
from voachain.correlators import partition_qseries, sphere_value, torus_qseries
from voachain.schottky import (
    SchottkyData,
    SewingData,
    SewingError,
    _genus_g_sum,
    big_psi_p,
    build_R,
    chi_vector,
    genus_g_npoint,
    genus_g_partition,
    handle_pairing,
    neumann_inverse,
    p_vector,
    paired_handle_terms,
    psi0,
    psi_p,
    psi_p_deriv_y,
    q_vector,
    theta_vector,
)
from voachain.series import TruncatedSeries
from voachain.voa import A_VECTOR, FockVector, apply_state_mode


def oracle_partition_counts(n):
    def count(n, max_part):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(min(n, max_part), 0, -1))

    return count(n, n)


class TestSewingData:
    def test_coincident_points_rejected(self):
        with pytest.raises(SewingError):
            SewingData(zeta1=1, zeta2=1)

    def test_rho_domain(self):
        with pytest.raises(SewingError):
            SewingData(rho=2.0, disk_radii=(1.0, 1.0))


class TestHandlePairing:
    def test_weight_zero_is_trivial(self):
        basis, hinv = handle_pairing(Fraction(1), Fraction(-1), 0)
        assert len(basis) == 1
        assert hinv[0][0] == 1

    def test_inverse_property(self):
        z1, z2 = Fraction(3), Fraction(-2)
        for k in (1, 2, 3):
            basis, hinv = handle_pairing(z1, z2, k)
            n = len(basis)
            gram = [
                [
                    sphere_value(
                        [(FockVector({bi: 1}), z1), (FockVector({bj: 1}), z2)]
                    )
                    for bj in basis
                ]
                for bi in basis
            ]
            for i in range(n):
                for j in range(n):
                    val = sum(gram[i][r] * hinv[r][j] for r in range(n))
                    assert val == (1 if i == j else 0)


class TestSewSphere:
    def test_partition_series_matches_trace_oracle(self):
        # sewing the bare sphere reproduces the graded dimensions: the
        # trace oracle gives sum p(k) q^k and sewing must agree with
        # rho identified with q
        series = Sewn(Sphere(), SewingData(), 7).evaluate([]).data
        oracle = partition_qseries(7)
        for k in range(7):
            assert series.coefficient(k) == oracle.coefficient(k), k
            assert series.coefficient(k) == oracle_partition_counts(k)

    def test_partition_counts_for_any_sewing_points(self):
        for z1, z2 in ((Fraction(2), Fraction(1, 2)), (Fraction(-5), Fraction(7, 3))):
            series = Sewn(Sphere(), SewingData(zeta1=z1, zeta2=z2), 6).evaluate([]).data
            for k in range(6):
                assert series.coefficient(k) == oracle_partition_counts(k), (z1, z2, k)

    def test_vacuum_term_is_input(self):
        # rho^0 term: vacuum pair insertion, Y(1,z) = Id
        ins = [(A_VECTOR, Fraction(3)), (A_VECTOR, Fraction(5))]
        base = sphere_value(ins, dressed=False)
        series = Sewn(Sphere(), SewingData(), 3).evaluate(ins).data
        assert series.coefficient(0) == base

    def test_one_point_of_a_vanishes_every_order(self):
        series = Sewn(Sphere(), SewingData(), 6).evaluate([(A_VECTOR, Fraction(4))]).data
        assert series.is_zero()

    def test_linearity(self):
        ins_a = [(A_VECTOR, Fraction(3)), (A_VECTOR, Fraction(7))]
        ins_b = [(FockVector.basis(1, 1), Fraction(3)), (A_VECTOR, Fraction(7))]
        combo = [
            (A_VECTOR + FockVector.basis(1, 1).scale(Fraction(2, 3)), Fraction(3)),
            (A_VECTOR, Fraction(7)),
        ]
        sd = SewingData()
        lhs = Sewn(Sphere(), sd, 5).evaluate(combo).data
        rhs_a = Sewn(Sphere(), sd, 5).evaluate(ins_a).data
        rhs_b = Sewn(Sphere(), sd, 5).evaluate(ins_b).data
        for k in range(5):
            assert lhs.coefficient(k) == rhs_a.coefficient(k) + Fraction(2, 3) * rhs_b.coefficient(k)

    def test_two_point_correspondence_at_leading_orders(self):
        # measured rho <-> q correspondence for insertions: torus
        # coordinate mu(x) = (x - zeta2)/(x - zeta1) with d log mu
        # dressing; exact at orders rho^0 and rho^1, after which the
        # displayed fixed-pair prescription departs from a single
        # geometric gluing (chart drift), which we document rather than
        # hide
        z1, z2 = Fraction(-2), Fraction(2)
        x1, x2 = Fraction(1, 2), Fraction(-1, 3)
        ins = [(A_VECTOR, x1), (A_VECTOR, x2)]
        sewn = Sewn(Sphere(), SewingData(zeta1=z1, zeta2=z2), 2).evaluate(ins).data

        def mu(x):
            return (x - z2) / (x - z1)

        def dlogmu(x):
            d = ((x - z1) - (x - z2)) / (x - z1) ** 2
            return d / mu(x)

        torus = torus_qseries([(A_VECTOR, mu(x1)), (A_VECTOR, mu(x2))], 2)
        factor = dlogmu(x1) * dlogmu(x2)
        for k in range(2):
            assert sewn.coefficient(k) == factor * torus.coefficient(k), k


class TestSewTorus:
    def test_degeneration_to_input(self):
        ins = [(A_VECTOR, Fraction(2)), (A_VECTOR, Fraction(3))]
        base = torus_qseries(ins, 5)
        sd = SewingData(zeta1=Fraction(5), zeta2=Fraction(7))
        series = Sewn(Trace(5), sd, 2).evaluate(ins).data
        assert series.coefficient(0).compare(base).deviation == 0

    def test_partition_two_handles_smoke(self):
        sd = SewingData(zeta1=Fraction(5), zeta2=Fraction(7))
        series = Sewn(Trace(4), sd, 2).evaluate([]).data
        # rho^0 coefficient is the genus-1 partition q-series
        q0 = series.coefficient(0)
        for k in range(4):
            assert q0.coefficient(k) == oracle_partition_counts(k)


class TestGenusGPartition:
    def base_sd(self, genus=1, **kw):
        if genus == 1:
            return SchottkyData(genus=1, rho=(0.01,), points=(Fraction(-1), Fraction(1)), **kw)
        return SchottkyData(
            genus=2,
            rho=(0.01, 0.02),
            points=(Fraction(-1), Fraction(1), Fraction(-3), Fraction(3)),
            **kw,
        )

    def test_order_zero_is_one(self):
        series = genus_g_partition(self.base_sd(), [1])
        assert series.coefficient(0) == 1

    def test_genus1_partition_counts(self):
        series = genus_g_partition(self.base_sd(), [6])
        for k in range(6):
            assert series.coefficient(k) == oracle_partition_counts(k)

    def test_matches_sew_sphere(self):
        sd = self.base_sd()
        series = genus_g_partition(sd, [6])
        sewing = SewingData(zeta1=sd.point(-1), zeta2=sd.point(1))
        sewn = Sewn(Sphere(), sewing, 6).evaluate([]).data
        for k in range(6):
            assert series.coefficient(k) == sewn.coefficient(k), k

    def test_genus2_degeneration(self):
        sd2 = self.base_sd(2)
        series = genus_g_partition(sd2, [5, 3])
        g1 = genus_g_partition(self.base_sd(), [5])
        rho2_zero = series.coefficient(0)
        for k in range(5):
            assert rho2_zero.coefficient(k) == g1.coefficient(k), k

    def test_distinct_points_required(self):
        with pytest.raises(SewingError):
            SchottkyData(genus=1, rho=(0.1,), points=(Fraction(1), Fraction(1)))

    def test_npoint_degenerates_to_partition(self):
        sd = self.base_sd()
        npt = genus_g_npoint(sd, [], [4])
        part = genus_g_partition(sd, [4])
        for k in range(4):
            assert npt.coefficient(k) == part.coefficient(k)

    def test_npoint_one_a_insertion_vanishes(self):
        sd = self.base_sd()
        npt = genus_g_npoint(sd, [(A_VECTOR, Fraction(5))], [5])
        assert npt.is_zero()


def flat_genus2_sum(sd, insertions, rho_orders, mode=None):
    """The genus-2 basis sums as one flat double sum: every pair of
    paired terms of the two handles, coefficient c1 c2, pairs in handle
    order, and the mode v(ell) on the positive-point state of handle a."""
    handles = [(sd.point(-h), sd.point(h)) for h in (1, 2)]
    outer = {}
    for k2 in range(rho_orders[1]):
        inner = {}
        for k1 in range(rho_orders[0]):
            total = 0
            for terms in product(paired_handle_terms(*handles[0], k1),
                                 paired_handle_terms(*handles[1], k2)):
                pairs, c = [], 1
                for (zeta1, zeta2), (c_h, bbar, b) in zip(handles, terms):
                    pairs += [(bbar, zeta1), (b, zeta2)]
                    c = c * c_h
                if mode is not None:
                    a, v, ell = mode
                    state, point = pairs[2 * a - 1]
                    moved = apply_state_mode(v, ell, state)
                    if moved.is_zero():
                        continue
                    pairs[2 * a - 1] = (moved, point)
                total = total + sphere_value([*insertions, *pairs]) * c
            inner[k1] = total
        outer[k2] = TruncatedSeries("rho1", inner, rho_orders[0])
    return TruncatedSeries("rho2", outer, rho_orders[1])


class TestNestedSewingSum:
    # handle 2 sews handle 1 which sews the sphere: the nested sums must
    # equal the flat double sum exactly, coefficient for coefficient
    HANDLES = (Fraction(-1), Fraction(1), Fraction(-3), Fraction(3))

    def schottky(self, swapped):
        points = self.HANDLES[2:] + self.HANDLES[:2] if swapped else self.HANDLES
        return SchottkyData(genus=2, points=points)

    def assert_same(self, nested, flat):
        for k2 in range(3):
            for k1 in range(3):
                got = nested.coefficient(k2)
                want = flat.coefficient(k2)
                got = got.coefficient(k1) if isinstance(got, TruncatedSeries) else got
                want = want.coefficient(k1) if isinstance(want, TruncatedSeries) else want
                assert got == want, (k1, k2)
        assert nested == flat

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize(
        "insertions", [(), ((A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(7)))]
    )
    def test_matches_flat_double_sum(self, swapped, insertions):
        sd = self.schottky(swapped)
        nested = genus_g_npoint(sd, insertions, (3, 3))
        assert not nested.is_zero()
        self.assert_same(nested, flat_genus2_sum(sd, insertions, (3, 3)))

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("insertions", [(), ((A_VECTOR, Fraction(5)),)])
    def test_mode_block_matches_flat_double_sum(self, a, ell, insertions):
        # a(0) annihilates every state; a(1) removes one leg, so only an
        # odd number of inserted legs leaves a nonzero sum
        sd = self.schottky(False)
        mode = (a, A_VECTOR, ell)
        nested = _genus_g_sum(sd, insertions, (3, 3), mode)
        flat = flat_genus2_sum(sd, insertions, (3, 3), mode)
        assert nested.is_zero() == (ell == 0 or not insertions)
        self.assert_same(nested, flat)


class TestPsi0:
    def test_no_f_terms(self):
        assert psi0(3, 2.0, 1.0) == 1.0

    def test_spec_example(self):
        # p=1, f0(x) = 1/x: psi(2,1) = 1 + 1/2 = 3/2
        val = psi0(1, 2.0, 1.0, [{-1: 1}])
        assert val == pytest.approx(1.5)

    def test_antisymmetry_defect(self):
        # psi(x,y) + psi(y,x) = sum f_l(x) y^l + sum f_l(y) x^l
        f = [{-1: 1.0, 1: 0.5}]
        x, y = 2.0, 3.0
        lhs = psi0(1, x, y, f) + psi0(1, y, x, f)
        want = (1 / x + 0.5 * x) + (1 / y + 0.5 * y)
        assert lhs == pytest.approx(want)

    def test_pole(self):
        with pytest.raises(SewingError):
            psi0(1, 1.0, 1.0)


class TestBuildR:
    def test_rho_to_zero_gives_zero_R(self):
        sd = SchottkyData(genus=1, rho=(1e-30,), points=(Fraction(-1), Fraction(1)),
                          mode_cutoff=3)
        forms = build_R(sd)
        assert np.max(np.abs(forms.R)) < 1e-14
        neu = neumann_inverse(forms, 4)
        assert np.allclose(neu.matrix, np.eye(len(forms.index)))

    def test_f_zero_kills_diagonal_block(self):
        sd = SchottkyData(genus=1, rho=(0.1,), points=(Fraction(-2), Fraction(2)),
                          mode_cutoff=3)
        forms = build_R(sd)
        for i, (a, m) in enumerate(forms.index):
            for j, (b, n) in enumerate(forms.index):
                if a == -b:
                    assert forms.R[i, j] == 0

    def test_entries_against_derivative_oracle(self):
        # g=1, p=1, f=0, M=2: entries are normalized derivatives of
        # 1/(w_{-a} - w_b); oracle by high-order finite differences
        rho = 0.04
        w_m, w_p = -1.5, 2.5
        sd = SchottkyData(genus=1, rho=(rho,), points=(w_m, w_p), mode_cutoff=2)
        forms = build_R(sd)

        def psi_plain(x, y):
            return 1.0 / (x - y)

        h = 1e-4

        def d1(axis_vals):
            return (
                -axis_vals[2] + 8 * axis_vals[1] - 8 * axis_vals[-1] + axis_vals[-2]
            ) / (12 * h)

        def num_deriv(m, n, x, y):
            vals = {}
            for i in (-2, -1, 0, 1, 2):
                for j in (-2, -1, 0, 1, 2):
                    vals[(i, j)] = psi_plain(x + i * h, y + j * h)
            if (m, n) == (0, 0):
                return vals[(0, 0)]
            if (m, n) == (1, 0):
                return d1({i: vals[(i, 0)] for i in (-2, -1, 0, 1, 2)})
            if (m, n) == (0, 1):
                return d1({j: vals[(0, j)] for j in (-2, -1, 0, 1, 2)})
            if (m, n) == (1, 1):
                rows = {}
                for i in (-2, -1, 0, 1, 2):
                    rows[i] = d1({j: vals[(i, j)] for j in (-2, -1, 0, 1, 2)})
                return d1(rows)
            raise NotImplementedError

        for i, (a, m) in enumerate(forms.index):
            for j, (b, n) in enumerate(forms.index):
                if a == -b:
                    continue
                x = w_m if a == 1 else w_p  # w_{-a}
                y = w_p if b == 1 else w_m  # w_b
                want = (
                    (-1)
                    * complex(rho) ** ((m + 1) / 2)
                    * complex(rho) ** (n / 2)
                    * num_deriv(m, n, x, y)
                    / (math.factorial(m) * math.factorial(n))
                )
                assert forms.R[i, j] == pytest.approx(want, rel=1e-6), (a, m, b, n)


class TestNeumann:
    def forms(self, rho=0.01, M=3):
        sd = SchottkyData(
            genus=1, rho=(rho,), points=(Fraction(-1), Fraction(1)),
            mode_cutoff=M, p=1,
            f_coeffs=({0: 0.3, -1: 0.1},),
        )
        return build_R(sd)

    def test_K_one(self):
        forms = self.forms()
        neu = neumann_inverse(forms, 1)
        assert np.allclose(neu.matrix, np.eye(len(forms.index)) + forms.R_tilde)

    def test_residual_equals_omitted_term(self):
        # (I - R~) sum_{k<=K} R~^k = I - R~^{K+1} identically
        forms = self.forms()
        for K in (0, 1, 2, 4):
            neu = neumann_inverse(forms, K)
            assert neu.residual == pytest.approx(neu.omitted_term_norm, rel=1e-9)

    def test_residual_monotone_decrease(self):
        for rho in (0.01, 0.02):
            forms = self.forms(rho=rho)
            res = [neumann_inverse(forms, K).residual for K in range(6)]
            assert all(res[i + 1] < res[i] for i in range(len(res) - 1))

    def test_divergence_flagged(self):
        forms = self.forms()
        big = GenusLike(forms.sd, forms.index, forms.R * 1e4, forms.Delta)
        neu = neumann_inverse(big, 6)
        assert neu.divergence_flag


class TestDivergentNeumann:
    def divergent_forms(self):
        sd = SchottkyData(genus=2, rho=(4, 4),
                          points=(Fraction(-1), Fraction(1), Fraction(-4), Fraction(4)))
        return build_R(sd)

    def test_kernels_refuse_a_divergent_series(self):
        forms = self.divergent_forms()
        assert neumann_inverse(forms, forms.sd.neumann_order).divergence_flag
        with pytest.raises(SewingError, match="diverges"):
            psi_p(forms, 0.5, 0.7)
        with pytest.raises(SewingError, match="diverges"):
            psi_p_deriv_y(forms, 0.5, 0.7, 1)
        with pytest.raises(SewingError, match="diverges"):
            chi_vector(forms, 0.5)
        with pytest.raises(SewingError, match="diverges"):
            theta_vector(forms, 1, 0.5)


class GenusLike:
    def __init__(self, sd, index, R, Delta):
        self.sd = sd
        self.index = index
        self.R = R
        self.Delta = Delta

    @property
    def R_tilde(self):
        return self.R @ self.Delta


class TestPsiP:
    def test_reduces_to_psi0_at_small_rho(self):
        sd = SchottkyData(
            genus=1, rho=(1e-12,), points=(Fraction(-1), Fraction(1)),
            mode_cutoff=3, p=2, f_coeffs=({0: 0.2}, {1: 0.1}, {0: 0.05}),
        )
        forms = build_R(sd)
        x, y = 0.3, 0.7
        full = psi_p(forms, x, y)
        base = psi0(2, x, y, [sd.f_laurent(l) for l in range(3)])
        assert abs(full - base) < 1e-10

    def test_composed_limit_is_pole_kernel(self):
        sd = SchottkyData(genus=1, rho=(1e-12,), points=(Fraction(-1), Fraction(1)),
                          mode_cutoff=3, p=3)
        forms = build_R(sd)
        assert psi_p(forms, 0.4, 0.9) == pytest.approx(1 / (0.4 - 0.9), abs=1e-10)

    def test_against_dense_matrix_oracle(self):
        sd = SchottkyData(
            genus=1, rho=(0.02,), points=(Fraction(-1), Fraction(1)),
            mode_cutoff=4, p=1, f_coeffs=({0: 0.4, 1: -0.2},),
            neumann_order=60,
        )
        forms = build_R(sd)
        x, y = 0.25, 0.6
        got = psi_p(forms, x, y)
        # oracle: dense solve instead of the Neumann sum
        rt = forms.R_tilde
        solve = np.linalg.solve(np.eye(rt.shape[0]) - rt, q_vector(forms, y))
        want = psi0(1, x, y, [sd.f_laurent(0)]) + (
            p_vector(forms, x) @ forms.Delta
        ) @ solve
        assert got == pytest.approx(complex(want), rel=1e-12)

    def test_pole_at_sewing_point(self):
        sd = SchottkyData(genus=1, rho=(0.02,), points=(Fraction(-1), Fraction(1)),
                          mode_cutoff=2)
        forms = build_R(sd)
        with pytest.raises(SewingError):
            psi_p(forms, 1.0, 0.5)


class TestThetaChi:
    def make_forms(self, p=2):
        f = tuple({0: 0.1 * (l + 1), -1: 0.05} for l in range(2 * p - 1))
        sd = SchottkyData(
            genus=1, rho=(0.03,), points=(Fraction(-1), Fraction(1)),
            mode_cutoff=2 * p, p=p, f_coeffs=f,
        )
        return build_R(sd)

    def test_theta_combines_chi(self):
        forms = self.make_forms()
        p = forms.sd.p
        x = 0.4
        chi = chi_vector(forms, x)
        theta = theta_vector(forms, 1, x)
        rho = forms.sd.rho_a(1)
        for ell in range(2 * p - 1):
            want = chi[(1, ell)] + (-1) ** p * complex(rho) ** (p - 1 - ell) * chi[
                (-1, 2 * p - 2 - ell)
            ]
            assert theta[ell] == pytest.approx(want)

    def test_form_degrees_metadata(self):
        forms = self.make_forms(p=2)
        val = big_psi_p(forms, 0.4, 0.7)
        assert dict(val.degrees) == {"dx": 2, "dy": -1}
        assert complex(val) == pytest.approx(psi_p(forms, 0.4, 0.7))
