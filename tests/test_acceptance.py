"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with its runtime; run with
``pytest -s tests/test_acceptance.py`` to see the lines directly.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import sympy

from voachain.complexes import (
    DifferentialDescriptor,
    InsertionTuple,
    ProbeComplex,
    Sphere,
    apply_Dg,
    apply_Dn,
    check_chain_conditions,
    cohomology_ranks,
    element_from_insertions,
    reduce_to_zero_point,
)
from references import corr_deviation, torus_qseries

from voachain.elliptic import eisenstein, pm_lambert
from voachain.schottky import SchottkyData, SewingData
from voachain.voa import (
    A_VECTOR,
    OMEGA_VECTOR,
    VACUUM_VECTOR,
    FockVector,
    adjoint_mode,
    apply_state_mode,
    bilinear_form,
    fock_basis,
    heisenberg_mode,
    vertex_matrix_element,
    virasoro_mode,
)

AA = FockVector.basis(1, 1)
POOL = {"1": VACUUM_VECTOR, "a": A_VECTOR, "aa": AA}


class Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def oracle_divisor_sum(n, p):
    return sum(d**p for d in range(1, n + 1) if n % d == 0)


def oracle_bernoulli(k):
    table = [Fraction(1)]
    for n in range(1, k + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * table[j]
        table.append(-acc / (n + 1))
    return table[k]


def test_criterion_1_eisenstein_oracle():
    with Criterion(1, "Eisenstein series match the divisor-sum oracle exactly", 1.0):
        for k in (2, 4, 6, 8):
            series = eisenstein(k, 20)
            assert series.coefficient(0) == -oracle_bernoulli(k) / math.factorial(k)
            for n in range(1, 20):
                want = Fraction(2, math.factorial(k - 1)) * oracle_divisor_sum(n, k - 1)
                assert series.coefficient(n) == want, (k, n)


def test_criterion_2_weierstrass_quasi_periodicity():
    with Criterion(2, "P_1(z + 2 pi i tau) = P_1(z) - 1 to 1e-9 at tau = 2i", 1.0):
        tau = 2j
        q = cmath.exp(2j * cmath.pi * tau)
        rng = random.Random(42)
        for _ in range(10):
            mod = rng.uniform(math.log(abs(q)) + 0.5, -0.5)
            arg = rng.uniform(0.0, 2 * math.pi)
            q_z = cmath.exp(complex(mod, arg))
            lhs = pm_lambert(1, q_z * q, q, terms=40)
            rhs = pm_lambert(1, q_z, q, terms=40)
            assert abs(lhs - rhs + 1) < 1e-9


def test_criterion_3_genus0_oracle_equivalence():
    with Criterion(3, "genus-0 iterated reduction equals the matrix-element "
                      "oracle exactly for n <= 3", 10.0):
        weight_cutoff = 8
        points = (Fraction(3), Fraction(1), Fraction(-2))
        names = list(POOL)
        count = 0
        for n in range(1, 4):
            for combo in _tuples(names, n):
                elem = element_from_insertions(InsertionTuple(()), 0)
                for i, name in enumerate(combo):
                    elem = apply_Dn((POOL[name], points[i]), elem)
                direct = element_from_insertions(
                    InsertionTuple(tuple((POOL[c], points[i]) for i, c in enumerate(combo))), 0
                )
                assert elem.value.data == direct.value.data, combo
                count += 1
        assert count == 3 + 9 + 27
        # the insertion pool stays far below the stated weight cutoff
        assert all(
            max((s.weight for s in v.terms), default=0) < weight_cutoff
            for v in POOL.values()
        )


def _tuples(names, n):
    if n == 0:
        yield ()
        return
    for head in names:
        for rest in _tuples(names, n - 1):
            yield (head,) + rest


def test_criterion_4_genus1_oracle_equivalence():
    with Criterion(4, "genus-1 reduction equals the brute-force trace "
                      "through q-order 8", 60.0):
        q_order = 8
        x1, x2 = Fraction(5), Fraction(2)
        for name1 in ("1", "a"):
            base = element_from_insertions(InsertionTuple(()), 1, q_order=q_order)
            one = apply_Dn((POOL[name1], x1), base)
            direct1 = element_from_insertions(InsertionTuple(((POOL[name1], x1),)), 1,
                                              q_order=q_order)
            assert corr_deviation(one.value, direct1.value) < 1e-9, name1
            for name2 in ("1", "a"):
                two = apply_Dn((POOL[name2], x2), direct1)
                direct2 = element_from_insertions(
                    InsertionTuple(((POOL[name1], x1), (POOL[name2], x2))), 1, q_order=q_order)
                dev = corr_deviation(two.value, direct2.value)
                assert dev < 1e-9, (name1, name2, dev)


def test_criterion_5_sewing_consistency():
    with Criterion(5, "sewing the genus-0 partition gives the genus-1 "
                      "partition counts through order 6", 10.0):
        base = element_from_insertions(InsertionTuple(()), 0)
        sewn = apply_Dg(base, SewingData(), 7)
        oracle = torus_qseries([], 7)  # independent trace oracle
        expected = [1, 1, 2, 3, 5, 7, 11]
        for k in range(7):
            assert oracle.coefficient(k) == expected[k]
            assert sewn.value.data.coefficient(k) == expected[k], k


def test_criterion_6_genus2_degeneration():
    with Criterion(6, "genus-2 partition at rho2 = 0 equals the genus-1 "
                      "partition through order 4", 60.0):
        sd2 = SchottkyData(
            genus=2,
            points=(Fraction(-1), Fraction(1), Fraction(-3), Fraction(3)),
        )
        sd1 = SchottkyData(genus=1, points=(Fraction(-1), Fraction(1)))
        g2 = Sphere(sd2.handles([5, 2])).evaluate(()).data
        g1 = Sphere(sd1.handles([5])).evaluate(()).data
        rho2_zero = g2.coefficient(0)
        for k in range(5):
            assert rho2_zero.coefficient(k) == g1.coefficient(k), k


def test_criterion_7_chain_condition_suite():
    with Criterion(7, "vacuum chain-condition residuals exactly zero; "
                      "nontrivial insertions reported", 30.0):
        elem0 = element_from_insertions(
            InsertionTuple(((A_VECTOR, Fraction(7)), (A_VECTOR, Fraction(9)))), 0
        )
        elem1 = element_from_insertions(InsertionTuple(((A_VECTOR, Fraction(7)),)), 1, q_order=5)
        vacuum_suite = [
            {"kind": "n", "element": elem0,
             "x1": (VACUUM_VECTOR, Fraction(11)), "x2": (VACUUM_VECTOR, Fraction(13))},
            {"kind": "n", "element": elem1,
             "x1": (VACUUM_VECTOR, Fraction(11)), "x2": (VACUUM_VECTOR, Fraction(13))},
            {"kind": "g", "element": elem0, "rho_order": 3},
            {"kind": "gn", "element": elem0,
             "x": (VACUUM_VECTOR, Fraction(11)), "rho_order": 3},
            {"kind": "total",
             "elements": {(0, 1): element_from_insertions(
                 InsertionTuple(((A_VECTOR, Fraction(7)),)), 0)},
             "descriptors": {
                 (0, 1): DifferentialDescriptor(VACUUM_VECTOR, Fraction(11), SewingData()),
                 (0, 2): DifferentialDescriptor(VACUUM_VECTOR, Fraction(13)),
                 (1, 1): DifferentialDescriptor(VACUUM_VECTOR, Fraction(13)),
             },
             "rho_order": 2},
        ]
        for rep in check_chain_conditions(vacuum_suite):
            assert rep.residual == 0, rep.kind
        nontrivial = [
            {"kind": "n", "element": elem0,
             "x1": (A_VECTOR, Fraction(11)), "x2": (AA, Fraction(13))},
            {"kind": "gn", "element": elem0,
             "x": (A_VECTOR, Fraction(11)), "rho_order": 3},
            {"kind": "n", "element": elem1,
             "x1": (A_VECTOR, Fraction(3)), "x2": (A_VECTOR, Fraction(4))},
        ]
        reports = check_chain_conditions(nontrivial)
        assert len(reports) == 3
        for rep in reports:
            assert rep.residual == rep.residual  # finite, not NaN


def test_criterion_8_algebraic_identity_suite():
    with Criterion(8, "Virasoro, commutator-formula, and adjoint/form "
                      "identities exact at weight cutoff 10", 30.0):
        cutoff = 10
        # Virasoro relations for |m|, |n| <= 4 on weight < cutoff - 4
        for m in range(-4, 5):
            for n in range(-4, 5):
                for s in fock_basis(cutoff - 4):
                    v = FockVector({s: 1})
                    lhs = virasoro_mode(m, virasoro_mode(n, v)) - virasoro_mode(
                        n, virasoro_mode(m, v)
                    )
                    rhs = virasoro_mode(m + n, v).scale(m - n)
                    if m + n == 0:
                        rhs = rhs + v.scale(Fraction(m**3 - m, 12))
                    assert lhs == rhs, (m, n, s)
        # commutator formula for u, v in {a, omega} on random pairs
        rng = random.Random(8)
        basis = fock_basis(6)
        for u in (A_VECTOR, OMEGA_VECTOR):
            for v in (A_VECTOR, OMEGA_VECTOR):
                for k in (-2, -1, 0, 1, 2):
                    for _ in range(4):
                        u_in = rng.choice(basis)
                        u_out = rng.choice(basis)
                        _assert_commutator_formula(u, v, k, u_out, u_in)
        # adjoint identity for quasiprimary u = a on all basis pairs
        basis5 = fock_basis(6)
        for n in range(-2, 3):
            adj = adjoint_mode(A_VECTOR, n)
            for sa in basis5:
                for sb in basis5:
                    va, vb = FockVector({sa: 1}), FockVector({sb: 1})
                    assert bilinear_form(heisenberg_mode(n, va), vb) == bilinear_form(
                        va, adj(vb)
                    )
        # form normalization and weight orthogonality
        assert bilinear_form(VACUUM_VECTOR, VACUUM_VECTOR) == 1
        assert bilinear_form(FockVector.basis(1), FockVector.basis(2)) == 0


def _assert_commutator_formula(u, v, k, u_out, u_in):
    # u(k) Y(v,z) - Y(v,z) u(k) = sum_j C(k,j) Y(u(j)v, z) z^{k-j}
    w = FockVector({u_in: 1})
    lhs = {}
    for wt, comp in v.homogeneous_components().items():
        u_wt = u.weight_if_homogeneous()
        m = u_in.weight + wt - (k + 1 - u_wt) - u_out.weight - 1
        term1 = apply_state_mode(u, k, apply_state_mode(comp, m, w))
        term2 = apply_state_mode(comp, m, apply_state_mode(u, k, w))
        c = term1.coefficient(u_out) - term2.coefficient(u_out)
        if c:
            lhs[-m - 1] = lhs.get(-m - 1, 0) + c
    rhs = {}
    for j in range(0, 10):
        uv = apply_state_mode(u, j, v)
        if uv.is_zero():
            continue
        term = vertex_matrix_element(uv, u_out, u_in, 12)
        for e, c in term.coefficients.items():
            coeff = c * _comb_int(k, j)
            if coeff:
                rhs[e + k - j] = rhs.get(e + k - j, 0) + coeff
    for e in set(lhs) | set(rhs):
        assert lhs.get(e, 0) == rhs.get(e, 0), (u, v, k, u_out, u_in, e)


def _comb_int(k, j):
    out = 1
    for t in range(j):
        out *= k - t
    return out // math.factorial(j)


def test_criterion_9_zero_point_round_trip():
    with Criterion(9, "P * F_0 reproduces F to 1e-10 on the genus-1 "
                      "two-point suite", 30.0):
        pairs = [("a", "a"), ("1", "a"), ("a", "1"), ("1", "1"), ("aa", "aa")]
        for n1, n2 in pairs:
            elem = element_from_insertions(
                InsertionTuple(((POOL[n1], Fraction(5)), (POOL[n2], Fraction(2)))), 1, q_order=8)
            factor, zero_point = reduce_to_zero_point(elem)
            product = factor * zero_point.data
            dev = product.compare(elem.value.data).deviation
            assert dev < 1e-10, (n1, n2, dev)


def test_criterion_10_cohomology_ranks():
    with Criterion(10, "probe cohomology ranks match sympy's exact rank; "
                       "rank-nullity holds", 30.0):
        # genus-0 probe, n <= 2, pool = all states of weight < 4
        pool = tuple(
            "[" + ",".join(map(str, s.partition)) + "]" if s.partition else "1"
            for s in fock_basis(4)
        )
        probe = ProbeComplex(pool=pool, g_max=0, n_max=2)
        for m in range(0, 3):
            mat, dom, _ = probe.matrix(m)
            report = cohomology_ranks(probe, m)
            assert report.rank_dm == sympy.Matrix(mat).rank(), m
            assert report.rank_dm + report.dim_kernel == len(dom), m
        # mixed-genus probe: rank-nullity for every assembled matrix
        probe2 = ProbeComplex(pool=("1", "a", "aa"), g_max=1, n_max=2)
        for m in range(0, 3):
            mat, dom, _ = probe2.matrix(m)
            report = cohomology_ranks(probe2, m)
            assert report.rank_dm == sympy.Matrix(mat).rank(), m
            assert report.rank_dm + report.dim_kernel == len(dom), m
