"""Tests for sewing operators and the genus-g basis sums."""

import math
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from references import (
    _assert_identical,
    child_env,
    dense_gram_inverse,
    dense_pairing_terms,
    genus_g_sum,
    partition_qseries,
    sewn_series,
    sphere_terms,
    torus_qseries,
)

from voachain import correlators, schottky, voa
from voachain.complexes import (
    ComplexError,
    InsertionTuple,
    Sphere,
    Trace,
    _element,
    apply_Dn,
    element_from_insertions,
)
from voachain.correlators import sphere_value
from voachain.schottky import (
    SchottkyData,
    SewingData,
    SewingError,
    _gram_inverse,
    _pairing_terms,
    _sewn_handle,
    handle_pairing,
)
from voachain.series import ExactComplex, SeriesError, TruncatedSeries, points_coincide
from voachain.voa import (
    A_STATE,
    A_VECTOR,
    FockState,
    FockVector,
    apply_state_mode,
    weight_basis,
)


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

    @pytest.mark.parametrize("z1, z2", [
        (Fraction(1), Fraction(-1)), (Fraction(5), Fraction(-4)), (Fraction(2, 3), Fraction(-7, 5)),
    ])
    def test_matches_full_gram_inverse(self, z1, z2):
        # the block inverse of the point-free Gram matrix, scaled, against
        # the full p(k) x p(k) inverse at the points
        for k in range(10):
            basis, hinv = handle_pairing(z1, z2, k)
            assert hinv == _full_gram_inverse(z1, z2, k), k

    def test_gaussian_points_get_gaussian_entries(self):
        # at i and -i the scale (2i)^2k is (-4)^k: the entries are the
        # rational ones at 2 and 0, times (-1)^k, as ExactComplex values
        for k in range(1, 5):
            basis, hinv = handle_pairing(ExactComplex(0, 1), ExactComplex(0, -1), k)
            assert all(type(c) is ExactComplex for row in hinv for c in row), k
            _, rational = handle_pairing(2, 0, k)
            assert hinv == tuple(tuple((-1) ** k * c for c in row) for row in rational), k


    @pytest.mark.parametrize("z1, z2", [
        (3, -2), (Fraction(2, 3), Fraction(-7, 5)), (ExactComplex(1, 1), -2),
        (ExactComplex(0, 1), ExactComplex(Fraction(1, 2), -1)),
    ], ids=["int", "rational", "gaussian", "gaussian-both"])
    def test_pairing_terms_match_the_dense_scan(self, z1, z2):
        # read block by block, the terms are the dense scan's: values,
        # types and order
        for k in range(10):
            got, want = _pairing_terms(z1, z2, k), dense_pairing_terms(z1, z2, k)
            assert got == want, k
            assert [type(c) for c, _, _ in got] == [type(c) for c, _, _ in want], k

    def test_points_of_other_types_get_entries_of_their_own_type(self):
        # 6 and ExactComplex(6) are equal and hash equal, but are cached
        # apart: a Gaussian pairing met first does not make the rational
        # sums at the same values Gaussian
        handle_pairing.cache_clear()
        gaussian = SchottkyData(genus=1, points=(ExactComplex(6), ExactComplex(-6)))
        rational = SchottkyData(genus=1, points=(6, -6))
        types = {k: type(c) for k, c in sewn_sphere(gaussian, [], [3]).coefficients.items()}
        assert types == {0: Fraction, 1: ExactComplex, 2: ExactComplex}
        for k in range(3):
            _, hinv = handle_pairing(6, -6, k)
            assert all(type(c) is Fraction for row in hinv for c in row), k
        assert all(type(c) is Fraction for c in sewn_sphere(rational, [], [3]).coefficients.values())


class TestGramInverse:
    @pytest.mark.parametrize("k", range(9))
    def test_inverts_the_virasoro_form(self, k):
        # G_k = (-1)^k D_k S_k with no Wick engine: D_k = diag((-1)^len z_lambda),
        # the inverse of dual_coefficient, and column j of S_k is
        # sum_j' L(-1)^j' L(1)^j' / (j'!)^2 of the j-th basis state
        basis = weight_basis(k)
        columns = []
        for state in basis:
            image, lowered, j = FockVector(), FockVector({state: 1}), 0
            while not lowered.is_zero():
                raised = lowered
                for _ in range(j):
                    raised = voa.virasoro_mode(-1, raised)
                image = image + raised.scale(Fraction(1, math.factorial(j) ** 2))
                lowered, j = voa.virasoro_mode(1, lowered), j + 1
            columns.append(image)
        gram = [[(-1) ** k * column.coefficient(row) / voa.dual_coefficient(row)
                 for column in columns] for row in basis]
        inverse = dense_gram_inverse(k)
        n = len(basis)
        for i in range(n):
            for j in range(n):
                assert sum(inverse[i][r] * gram[r][j] for r in range(n)) == (1 if i == j else 0), (i, j)

    @pytest.mark.parametrize("k", range(13))
    def test_blocks_are_int_rows_over_a_positive_determinant(self, k):
        # one block per partition length, by first basis index, each a
        # square of int rows over a positive int determinant
        lengths = {}
        for i, state in enumerate(weight_basis(k)):
            lengths.setdefault(state.length, []).append(i)
        blocks = _gram_inverse(k)
        assert [list(block) for block, _, _ in blocks] == list(lengths.values())
        for block, rows, det in blocks:
            assert type(det) is int and det > 0
            assert len(rows) == len(block) and all(len(row) == len(block) for row in rows)
            assert all(type(x) is int for row in rows for x in row)

    @pytest.mark.parametrize("k", range(13))
    def test_blocks_are_symmetric(self, k):
        # _pairing_terms reads bbar's row for the entries pairing it, which
        # are its column: the orientation of the pairing rests on this
        for _, rows, _ in _gram_inverse(k):
            assert all(row[j] == rows[j][i] for i, row in enumerate(rows)
                       for j in range(len(rows))), k

    def test_an_inversion_evicts_no_sum_context(self):
        # the Gram context is built on the shared two-point tables, not
        # through the sums' two-entry context cache
        _gram_inverse.cache_clear()
        before = correlators._wick_context.cache_info()
        _gram_inverse(6)
        assert correlators._wick_context.cache_info() == before


def _full_gram_inverse(z1, z2, k):
    """Gauss-Jordan on the whole weight-k Gram matrix at the points."""
    basis = weight_basis(k)
    n = len(basis)
    aug = [
        [Fraction(sphere_value([(FockVector({bi: 1}), z1), (FockVector({bj: 1}), z2)]))
         for bj in basis] + [Fraction(int(i == j)) for j in range(n)]
        for i, bi in enumerate(basis)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class TestSewSphere:
    def test_partition_series_matches_trace_oracle(self):
        # sewing the bare sphere reproduces the graded dimensions: the
        # trace oracle gives sum p(k) q^k and sewing must agree with
        # rho identified with q
        series = Sphere().sew(SewingData(), 7).evaluate([]).data
        oracle = partition_qseries(7)
        for k in range(7):
            assert series.coefficient(k) == oracle.coefficient(k), k
            assert series.coefficient(k) == oracle_partition_counts(k)

    def test_partition_counts_for_any_sewing_points(self):
        for z1, z2 in ((Fraction(2), Fraction(1, 2)), (Fraction(-5), Fraction(7, 3))):
            series = Sphere().sew(SewingData(zeta1=z1, zeta2=z2), 6).evaluate([]).data
            for k in range(6):
                assert series.coefficient(k) == oracle_partition_counts(k), (z1, z2, k)

    def test_vacuum_term_is_input(self):
        # rho^0 term: vacuum pair insertion, Y(1,z) = Id
        ins = [(A_VECTOR, Fraction(3)), (A_VECTOR, Fraction(5))]
        base = sphere_value(ins)
        series = Sphere().sew(SewingData(), 3).evaluate(ins).data
        assert series.coefficient(0) == base

    def test_one_point_of_a_vanishes_every_order(self):
        series = Sphere().sew(SewingData(), 6).evaluate([(A_VECTOR, Fraction(4))]).data
        assert series.is_zero()

    def test_linearity(self):
        ins_a = [(A_VECTOR, Fraction(3)), (A_VECTOR, Fraction(7))]
        ins_b = [(FockVector.basis(1, 1), Fraction(3)), (A_VECTOR, Fraction(7))]
        combo = [
            (A_VECTOR + FockVector.basis(1, 1).scale(Fraction(2, 3)), Fraction(3)),
            (A_VECTOR, Fraction(7)),
        ]
        sd = SewingData()
        lhs = Sphere().sew(sd, 5).evaluate(combo).data
        rhs_a = Sphere().sew(sd, 5).evaluate(ins_a).data
        rhs_b = Sphere().sew(sd, 5).evaluate(ins_b).data
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
        sewn = Sphere().sew(SewingData(zeta1=z1, zeta2=z2), 2).evaluate(ins).data

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
        series = Trace(5).sew(sd, 2).evaluate(ins).data
        assert series.coefficient(0).compare(base).deviation == 0

    def test_partition_two_handles_smoke(self):
        sd = SewingData(zeta1=Fraction(5), zeta2=Fraction(7))
        series = Trace(4).sew(sd, 2).evaluate([]).data
        # rho^0 coefficient is the genus-1 partition q-series
        q0 = series.coefficient(0)
        for k in range(4):
            assert q0.coefficient(k) == oracle_partition_counts(k)


def _sewn_onto(base, points, orders):
    surface = base
    for (zeta1, zeta2), order in zip(points, orders):
        surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
    return surface


class TestSewnHandles:
    # a trace and the sphere take handles by one rule: the first is rho,
    # one sewn on top of g others rho{g+1}, and each handle's paired terms
    # are fetched once per order
    @pytest.mark.parametrize("base", [Sphere(), Trace(3)], ids=["sphere", "trace"])
    def test_each_level_has_its_own_variable(self, base):
        series = _sewn_onto(base, ((2, 3), (5, 6), (9, 10)), (2, 2, 2)).evaluate(()).data
        variables = []
        while isinstance(series, TruncatedSeries) and series.variable != "q":
            variables.append(series.variable)
            series = series.coefficient(0)
        assert variables == ["rho3", "rho2", "rho"]

    @pytest.mark.parametrize("base, points, orders, calls", [
        (Trace(3), ((2, 3), (5, 7)), (3, 3), 6),
        (Sphere(), ((ExactComplex(2, 1), 3), (5, 7)), (4, 4), 8),
    ], ids=["trace", "sphere-at-gaussian-points"])
    def test_one_pairing_call_per_handle_order(self, monkeypatch, base, points, orders, calls):
        # nested per-term sums: the inner handle's terms are not fetched
        # again for each outer term
        counted = []
        pairing = schottky.handle_pairing
        monkeypatch.setattr(schottky, "handle_pairing",
                            lambda *args: counted.append(args) or pairing(*args))
        value = _sewn_onto(base, points, orders).evaluate(())
        assert value.genus == base.genus + 2
        assert len(counted) == calls == sum(orders)


def sewn_sphere(sd, insertions, rho_orders):
    """The genus-g value at the insertions: the sphere sewn with the
    handles of ``sd``, each point checked on that surface."""
    ins = InsertionTuple(tuple(insertions))
    return _element(ins, Sphere(sd.handles(rho_orders))).value.data


class TestGenusGPartition:
    def base_sd(self, genus=1, **kw):
        if genus == 1:
            return SchottkyData(genus=1, points=(Fraction(-1), Fraction(1)), **kw)
        return SchottkyData(
            genus=2,
            points=(Fraction(-1), Fraction(1), Fraction(-3), Fraction(3)),
            **kw,
        )

    def test_order_zero_is_one(self):
        series = sewn_sphere(self.base_sd(), [], [1])
        assert series.coefficient(0) == 1

    @pytest.mark.parametrize("rational", [True, False],
                             ids=["rational-points", "gaussian-points"])
    @pytest.mark.parametrize("orders", [[0, 3], [3, 0]])
    def test_a_handle_to_order_zero_leaves_no_coefficient_known(self, rational, orders):
        # rational and Gaussian handle points alike
        points = (-1, 1, -3, 3) if rational else (-1, 1, -3, ExactComplex(3, 1))
        sd = SchottkyData(genus=2, points=points)
        for insertions in ([], [(A_VECTOR, 5), (A_VECTOR, 7)]):
            series = sewn_sphere(sd, insertions, orders)
            assert (series.variable, series.coefficients, series.truncation) == ("rho2", {}, 0)

    def test_genus1_partition_counts(self):
        series = sewn_sphere(self.base_sd(), [], [6])
        for k in range(6):
            assert series.coefficient(k) == oracle_partition_counts(k)

    def test_matches_sew_sphere(self):
        sd = self.base_sd()
        series = sewn_sphere(sd, [], [6])
        sewing = SewingData(zeta1=sd.point(-1), zeta2=sd.point(1))
        sewn = Sphere().sew(sewing, 6).evaluate([]).data
        for k in range(6):
            assert series.coefficient(k) == sewn.coefficient(k), k

    def test_genus2_degeneration(self):
        sd2 = self.base_sd(2)
        series = sewn_sphere(sd2, [], [5, 3])
        g1 = sewn_sphere(self.base_sd(), [], [5])
        rho2_zero = series.coefficient(0)
        for k in range(5):
            assert rho2_zero.coefficient(k) == g1.coefficient(k), k

    def test_distinct_points_required(self):
        with pytest.raises(SewingError):
            SchottkyData(genus=1, points=(Fraction(1), Fraction(1)))

    def test_point_names_a_handle(self):
        sd = SchottkyData(genus=2, points=(-1, 1, -3, 3))
        assert [sd.point(a) for a in (-1, 1, -2, 2)] == [-1, 1, -3, 3]
        for a in (0, 3, -3):
            with pytest.raises(SewingError, match="handle index"):
                sd.point(a)

    @pytest.mark.parametrize("twin", [Fraction(7), ExactComplex(7)])
    def test_equal_points_of_other_types_coincide(self, twin):
        with pytest.raises(SewingError, match="pairwise distinct"):
            SchottkyData(genus=1, points=(7, twin))
        sd = SchottkyData(genus=1, points=(7, -7))
        with pytest.raises(ComplexError, match="insertion points must differ from the "
                                               "handle points"):
            sewn_sphere(sd, [(A_VECTOR, twin)], [2])

    @pytest.mark.parametrize("point", [7.5, 7 + 1j], ids=["float", "complex"])
    def test_float_and_complex_points_are_refused(self, point):
        with pytest.raises(SeriesError, match="is not exact"):
            SchottkyData(genus=1, points=(-7, point))
        with pytest.raises(SeriesError, match="is not exact"):
            SewingData(zeta1=point, zeta2=-7)
        sd = SchottkyData(genus=1, points=(7, -7))
        with pytest.raises(SeriesError, match="is not exact"):
            sewn_sphere(sd, [(A_VECTOR, point)], [2])

    def test_close_large_points_are_told_apart(self):
        # 10**17 and 10**17 + 1 round to one complex; compared exactly they
        # are a handle, and an insertion next to a handle point
        big = 10**17
        sd = SchottkyData(genus=1, points=(big, big + 1))
        assert sewn_sphere(sd, [], [3]).coefficient(2) == 2
        sd = SchottkyData(genus=1, points=(big, -big))
        npt = sewn_sphere(sd, [(A_VECTOR, big + 1), (A_VECTOR, big + 2)], [1])
        assert npt.coefficient(0) == 1

    def test_npoint_one_a_insertion_vanishes(self):
        sd = self.base_sd()
        npt = sewn_sphere(sd, [(A_VECTOR, Fraction(5))], [5])
        assert npt.is_zero()


def _a_pairing_sum(points):
    """<1', a(z1)...a(zn) 1> on the sphere: the sum over the perfect
    matchings of the points of prod (zi - zj)^-2, 0 at an odd count."""
    if not points:
        return 1
    first, *rest = points
    return sum(_a_pairing_sum(rest[:j] + rest[j + 1:]) / Fraction(first - z) ** 2
               for j, z in enumerate(rest))


def _at(series, handle_orders):
    """The coefficient of rho1^k1 ... rhog^kg, given as (k1, ..., kg), of a
    nested series summed outermost handle first; a zero stays a zero."""
    for k in reversed(handle_orders):
        if isinstance(series, TruncatedSeries):
            series = series.coefficient(k)
    return series


class TestGenusThree:
    # handles 1, 2, 3 at (7, -9), (5, -4), (-2, 1): the sphere sewn with
    # three handles, summed as it is at genus 1 and 2
    PAIRS = ((7, -9), (5, -4), (-2, 1))
    A_PAIR = ((A_VECTOR, 3), (A_VECTOR, Fraction(1, 2)))

    def schottky(self, pairs=PAIRS):
        return SchottkyData(genus=len(pairs), points=tuple(z for pair in pairs for z in pair))

    @pytest.mark.parametrize("perm", [(1, 0, 2), (0, 2, 1), (2, 0, 1)],
                             ids=["swap-1-2", "swap-2-3", "cycle"])
    @pytest.mark.parametrize("insertions", [(), A_PAIR], ids=["partition", "a-a"])
    def test_permuting_the_handles_permutes_the_orders(self, perm, insertions):
        # handle a of the permuted surface is handle perm[a] of this one
        value = sewn_sphere(self.schottky(), insertions, (3, 3, 3))
        moved = sewn_sphere(self.schottky(tuple(self.PAIRS[p] for p in perm)), insertions,
                            (3, 3, 3))
        assert not moved.is_zero()
        for ks in product(range(3), repeat=3):
            here = [0] * 3
            for a, p in enumerate(perm):
                here[p] = ks[a]
            assert _at(moved, ks) == _at(value, here), ks

    @pytest.mark.parametrize("insertions", [(), A_PAIR], ids=["partition", "a-a"])
    def test_rho3_zero_slice_is_the_genus2_sum(self, insertions):
        genus3 = sewn_sphere(self.schottky(), insertions, (3, 2, 2))
        genus2 = sewn_sphere(self.schottky(self.PAIRS[:2]), insertions, (3, 2))
        assert genus3.variable == "rho3"
        assert genus3.coefficient(0) == genus2

    @pytest.mark.parametrize("insertions", [(), A_PAIR], ids=["partition", "a-a"])
    def test_weight_one_corners_are_the_closed_form(self, insertions):
        # at weight one the inverse Gram matrix is (w_-a - w_a)^2, so a
        # corner is one sphere function of a-fields
        series = sewn_sphere(self.schottky(), insertions, (2, 2, 2))
        for ks in product((0, 1), repeat=3):
            scale, points = 1, [z for _, z in insertions]
            for k, (wm, w) in zip(ks, self.PAIRS):
                if k:
                    scale *= (wm - w) ** 2
                    points += [wm, w]
            assert _at(series, ks) == scale * _a_pairing_sum(points), ks

    @pytest.mark.parametrize("pairs", [PAIRS, ((7, -9), (5, -4), (-2, ExactComplex(1, 1)))],
                             ids=["rational", "gaussian-handle"])
    def test_reduction_equals_the_sum_and_the_per_term_sums(self, pairs):
        sd = self.schottky(pairs)
        aa = FockVector({FockState((1, 1)): 1})
        entries = [(A_VECTOR, 3), (aa, Fraction(1, 2)), (A_VECTOR, -6)]
        oracle = sewn_sphere(sd, entries, (2, 2, 2))
        elem = element_from_insertions(InsertionTuple(()), 3, sd, rho_orders=(2, 2, 2))
        for entry in entries:
            elem = apply_Dn(entry, elem)
        want = genus_g_sum(sd.handles((2, 2, 2)), entries, sphere_terms)
        assert not want.is_zero()
        assert elem.value.genus == 3
        assert oracle == elem.value.data == want


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
            for terms in product(_pairing_terms(*handles[0], k1),
                                 _pairing_terms(*handles[1], k2)):
                pairs, c = [], 1
                for (zeta1, zeta2), (c_h, bbar, b) in zip(handles, terms):
                    pairs += [(FockVector({bbar: 1}), zeta1), (FockVector({b: 1}), zeta2)]
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
        nested = sewn_sphere(sd, insertions, (3, 3))
        assert not nested.is_zero()
        self.assert_same(nested, flat_genus2_sum(sd, insertions, (3, 3)))

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("insertions", [(), ((A_VECTOR, Fraction(5)),)])
    def test_mode_block_matches_flat_double_sum(self, a, ell, insertions):
        # an innermost term that moves the positive-point state of handle
        # a by v(ell): a(0) annihilates every state; a(1) removes one leg,
        # so only an odd number of inserted legs leaves a nonzero sum
        sd = self.schottky(False)
        mode = (a, A_VECTOR, ell)
        slot = len(insertions) + 2 * (2 - a) + 1  # handle 2 is summed outermost

        def moved_sphere(points):
            state, point = points[slot]
            moved = apply_state_mode(A_VECTOR, ell, state)
            if moved.is_zero():
                return 0
            return sphere_value([*points[:slot], (moved, point), *points[slot + 1:]])

        nested = genus_g_sum(sd.handles((3, 3)), insertions, lambda points: [moved_sphere(points)])
        flat = flat_genus2_sum(sd, insertions, (3, 3), mode)
        assert nested.is_zero() == (ell == 0 or not insertions)
        self.assert_same(nested, flat)


# -- the sewn-sphere kernel against the per-term sums -------------------

# every exact point kind
KINDS = (int, Fraction, ExactComplex)
PARTS = ((), (1,), (2,), (1, 1), (3,), (2, 1))

# coefficients rational and Gaussian, a real ExactComplex among them: a
# state moved by an ExactComplex coefficient makes the pairing entries of
# its handle terms Gaussian at rational points
vectors = st.dictionaries(
    st.sampled_from(PARTS),
    st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 4)]
                    + [ExactComplex(0, 1), ExactComplex(1, -1), ExactComplex(Fraction(1, 2), 2),
                       ExactComplex(-2)]),
    min_size=1, max_size=2,
).map(lambda terms: FockVector({FockState(p): c for p, c in terms.items()}))


def _point(kind, num, den, im):
    if kind is int:
        return num
    re = Fraction(num, den)
    if kind is Fraction:
        return re
    return ExactComplex(re, im)


def _twin(z):
    # a point equal to z, of another type where there is one
    if isinstance(z, (int, Fraction)):
        return ExactComplex(z)
    return z.re if z.im == 0 else z


@st.composite
def sewn_cases(draw, min_order=0):
    """Handles (sewing points, rho order) and insertions, the points of
    one kind or of mixed kinds, pairwise distinct."""
    orders = draw(st.lists(st.integers(min_order, 4), min_size=1, max_size=2))
    states = draw(st.lists(vectors, max_size=3))
    n = len(states) + 2 * len(orders)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    if draw(st.booleans()):
        kinds = [kinds[0]] * n
    raw = draw(st.lists(st.tuples(st.sampled_from((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)),
                                  st.sampled_from((1, 2, 3)),
                                  st.integers(-2, 2)), min_size=n, max_size=n))
    points = [_point(kind, *r) for kind, r in zip(kinds, raw)]
    assume(not points_coincide(points))
    insertions = list(zip(states, points))
    handles = [(points[len(states) + 2 * h], points[len(states) + 2 * h + 1], order)
               for h, order in enumerate(orders)]
    return insertions, handles


def _schottky(handles):
    return SchottkyData(genus=len(handles), points=tuple(z for h in handles for z in h[:2]))


def _sewn_chain(handles):
    # handles innermost first, sewn onto the sphere as apply_Dg sews them;
    # the last is the outermost
    surface = Sphere()
    for zeta1, zeta2, order in handles:
        surface = surface.sew(SewingData(zeta1=zeta1, zeta2=zeta2), order)
    return surface


def _one_pass(handles, insertions):
    # the sewn sums as Sphere.evaluate takes them on the sphere, every
    # handle at once
    return Sphere(tuple(handles)).evaluate(tuple(insertions)).data


def _per_term_sewn(handles, entries):
    # each handle's sewn_series over the Sphere evaluator, outermost first;
    # a handle to order 0 leaves no coefficient of the sums known
    if any(order == 0 for _, _, order, _ in handles):
        return TruncatedSeries.zero(handles[0][3], 0)
    if not handles:
        return Sphere().evaluate(entries).data
    (zeta1, zeta2, order, variable), *inner = handles
    return sewn_series(_sewn_handle(zeta1, zeta2, order, variable),
                       lambda pairs: _per_term_sewn(inner, (*entries, *pairs)))


class TestSewnSphereSeries:
    @settings(max_examples=60, deadline=None)
    @given(sewn_cases())
    def test_genus_g_sum_matches_per_term_sums(self, case):
        insertions, handles = case
        sewn = _schottky(handles).handles([order for _, _, order in handles])
        want = genus_g_sum(sewn, insertions, sphere_terms)
        _assert_identical(_one_pass(sewn, insertions), want)

    @settings(max_examples=40, deadline=None)
    @given(sewn_cases())
    def test_sewn_sphere_matches_per_term_sums(self, case):
        insertions, handles = case
        surface = _sewn_chain(handles)
        want = _per_term_sewn(surface.handles, tuple(insertions))
        _assert_identical(surface.evaluate(tuple(insertions)).data, want)

    @settings(max_examples=30, deadline=None)
    @given(sewn_cases(min_order=1).filter(lambda case: case[0]), st.data())
    def test_a_coincident_point_is_a_validation_error(self, case, data):
        insertions, handles = case
        others = [z for _, z in insertions[1:]] + [z for h in handles for z in h[:2]]
        twin = _twin(data.draw(st.sampled_from(others)))
        insertions = [(insertions[0][0], twin), *insertions[1:]]
        sewn = _schottky(handles).handles([order for _, _, order in handles])
        with pytest.raises(ValueError, match="pairwise distinct"):
            genus_g_sum(sewn, insertions, sphere_terms)
        with pytest.raises(ValueError, match="pairwise distinct"):
            _one_pass(sewn, insertions)
        with pytest.raises(ValueError, match="pairwise distinct"):
            _sewn_chain(handles).evaluate(tuple(insertions))

    def test_every_exact_sum_runs_in_the_kernel(self):
        # a Gaussian point, coefficient or sewing point is summed in one
        # pass like a rational one, with the per-term values and types;
        # a coincident point and an inexact point or coefficient are refused
        handle = _sewn_handle(Fraction(-1), 1, 3, "rho")
        a3 = (A_VECTOR, 3)
        gaussian = ExactComplex(2, 1)
        sewn = correlators.sewn_sphere_series([(1, [(A_VECTOR, Fraction(2)), a3], [handle])])
        assert sewn.coefficient(0) == 1 and type(sewn.coefficient(1)) is Fraction
        for insertions, handles in (([(A_VECTOR, gaussian), a3], [(-1, 1, 3, "rho")]),
                                    ([(FockVector({A_STATE: gaussian}), 2), a3],
                                     [(-1, 1, 3, "rho")]),
                                    ([(A_VECTOR, 2), a3], [(-1, gaussian, 3, "rho")])):
            _assert_identical(_one_pass(handles, insertions),
                              genus_g_sum(handles, insertions, sphere_terms))
        with pytest.raises(ValueError, match="pairwise distinct"):
            correlators.sewn_sphere_series([(1, [(A_VECTOR, ExactComplex(1)), a3], [handle])])
        with pytest.raises(SeriesError, match="is not exact"):
            correlators.sewn_sphere_series([(1, [(A_VECTOR, 2.0), a3], [handle])])
        with pytest.raises(SeriesError, match="is not exact"):
            correlators.sewn_sphere_series([(1, [(A_VECTOR.scale(0.5), 2), a3], [handle])])

    def test_sphere_term_reads_the_kernel_memo(self, monkeypatch):
        # the sewn sums number the fields as the bare sphere sum does, so a
        # term of them, insertions permuted, is one memo hit
        points = (Fraction(-1), Fraction(1), Fraction(-3), Fraction(3))
        insertions = [(A_VECTOR, Fraction(5)), (A_VECTOR, Fraction(7))]
        sewn_sphere(SchottkyData(genus=2, points=points), insertions, (3, 3))
        _, bbar1, b1 = _pairing_terms(points[0], points[1], 2)[-1]
        _, bbar2, b2 = _pairing_terms(points[2], points[3], 1)[0]
        term = [(A_STATE, Fraction(5)), (A_STATE, Fraction(7)),
                (bbar1, points[0]), (b1, points[1]), (bbar2, points[2]), (b2, points[3])]
        points = tuple(z for _, z in term)
        ctx = correlators._wick_context(
            (False,) * len(points), tuple(points[i] for i in correlators._canonical_order(points)))
        memo_size = len(ctx.memo)
        calls = []
        wick = correlators._wick

        def counted(fields, ctx):
            calls.append(ctx)
            return wick(fields, ctx)

        monkeypatch.setattr(correlators, "_wick", counted)
        value = sphere_value([(FockVector({s: 1}), z) for s, z in term[::-1]])
        assert calls == [ctx]
        assert len(ctx.memo) == memo_size
        assert value != 0 and value == sphere_value(
            [(FockVector({s: 1}), z) for s, z in term])


@pytest.mark.parametrize("module", sorted(
    "voachain." + path.stem for path in Path(voa.__file__).parent.glob("*.py")
    if path.stem != "__init__"))
def test_no_module_imports_numpy(module):
    # everything is exact: no float apparatus rides on any module
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=child_env(),
    )
    assert proc.stdout.strip() == "False"
