"""Closed-form values the benchmark checks voachain's reports against.

Nothing here imports voachain: every value is computed from the
formulas below, so a check never compares the program with itself.

- p(k), the number of integer partitions of k; sum p(k) q^k is the
  Heisenberg graded dimension Z(q) (without its q^(-1/24) prefactor).
- P2(x) as a q-series in the exponentiated coordinate x = e^z: the q^0
  coefficient is x/(1-x)^2 and, for N >= 1, the q^N coefficient is
  sum over n | N of n (x^n + x^-n).
- The genus-0 pairing sum of n weight-one fields,
  <a(z1)...a(zn)> = sum over perfect matchings of prod 1/(zi-zj)^2.
- The torus pairing identity for the Heisenberg algebra (Mason-Tuite,
  Torus chiral n-point functions for free boson and lattice VOAs, CMP
  2003): the trace of n fields a is Z(q) times the sum over perfect
  matchings of products of P2(xi/xj).  In the normally ordered square
  aa = a(-1)^2 1 the two fields contract with each other through the
  regular part of P2 at z = 0 shifted by 1/12, which is
  (1 - E2(q))/12 = 2 sum_{N>=1} sigma_1(N) q^N.
"""

from __future__ import annotations

from fractions import Fraction


def partition_counts(n: int) -> list[int]:
    """[p(0), ..., p(n-1)] by the coin-change recurrence."""
    counts = [1] + [0] * max(n - 1, 0)
    for part in range(1, n):
        for total in range(part, n):
            counts[total] += counts[total - part]
    return counts[:n]


def p2_qseries(x: Fraction, q_order: int) -> list[Fraction]:
    """q-coefficients 0..q_order-1 of P2 at the exponentiated point x."""
    x = Fraction(x)
    if x in (0, 1):
        raise ValueError("P2 needs x different from 0 and 1")
    coeffs = [x / (1 - x) ** 2]
    for big_n in range(1, q_order):
        coeffs.append(sum(
            (n * (x ** n + x ** -n) for n in range(1, big_n + 1) if big_n % n == 0),
            Fraction(0),
        ))
    return coeffs


def qseries_mul(a: list, b: list, q_order: int) -> list:
    """Product of two coefficient lists, truncated at q^q_order."""
    out = [Fraction(0)] * q_order
    for i, ai in enumerate(a[:q_order]):
        if ai:
            for j, bj in enumerate(b[: q_order - i]):
                out[i + j] += ai * bj
    return out


def _matchings(n: int):
    """Perfect matchings of range(n) as lists of index pairs (none for
    odd n)."""
    if n == 0:
        yield []
        return
    for partner in range(1, n):
        rest = [i for i in range(1, n) if i != partner]
        for sub in _matchings(len(rest)):
            yield [(0, partner)] + [(rest[i], rest[j]) for i, j in sub]


def pairing_sum(points) -> Fraction:
    """<a(z1)...a(zn)> on the sphere: sum over perfect matchings of
    prod 1/(zi-zj)^2 (zero for odd n)."""
    pts = [Fraction(z) for z in points]
    if len(set(pts)) != len(pts):
        raise ValueError("pairing sum needs distinct points")
    total = Fraction(0)
    for matching in _matchings(len(pts)):
        term = Fraction(1)
        for i, j in matching:
            term /= (pts[i] - pts[j]) ** 2
        total += term
    return total


def torus_a_trace(points, q_order: int) -> list[Fraction]:
    """Trace of the fields a at the exponentiated points: Z(q) times the
    sum over perfect matchings of prod P2(xi/xj), truncated at q_order."""
    pts = [Fraction(x) for x in points]
    total = [Fraction(0)] * q_order
    for matching in _matchings(len(pts)):
        term = [Fraction(1)] + [Fraction(0)] * (q_order - 1)
        for i, j in matching:
            term = qseries_mul(term, p2_qseries(pts[i] / pts[j], q_order), q_order)
        total = [t + s for t, s in zip(total, term)]
    return qseries_mul(partition_counts(q_order), total, q_order)


def torus_aa_a_a_trace(points, q_order: int) -> list[Fraction]:
    """Trace of (aa, a, a) at the exponentiated points x1, x2, x3:
    Z(q) [2 P2(x1/x2) P2(x1/x3) + (1 - E2)/12 * P2(x2/x3)]."""
    x1, x2, x3 = (Fraction(x) for x in points)
    cross = qseries_mul(p2_qseries(x1 / x2, q_order), p2_qseries(x1 / x3, q_order), q_order)
    self_contraction = [Fraction(0)] + [
        Fraction(2 * sum(d for d in range(1, n + 1) if n % d == 0)) for n in range(1, q_order)
    ]
    inner = qseries_mul(self_contraction, p2_qseries(x2 / x3, q_order), q_order)
    return qseries_mul(partition_counts(q_order), [2 * c + s for c, s in zip(cross, inner)], q_order)
