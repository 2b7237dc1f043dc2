"""Genus raising by handle sewing: the inverse-Gram pairing, the handles
of a genus-g surface, and the one sum over them.

The sewing operator attaches a handle through a basis-summed double
insertion weighted by rho^k.  The dual state inserted at the first
sewing point is taken with respect to the pairing that the sphere
two-point geometry itself defines: per weight k, the Gram matrix
H(k)_{bb'} = <1', Y(b, zeta1) Y(b', zeta2) 1> is inverted exactly and
its inverse (integer blocks over their determinants, each entry lowered
once at the points) is the double insertion's coefficient matrix.  This
dual-basis sewing is convention-free: sewing the bare sphere gives the
graded dimension series with rho equal to the nome, at any sewing
points (asserted by tests).

A genus-g function is a nested rho-series whose coefficients are sums of
sphere functions over the paired basis states at the handle points, so
it is linear in the sphere function: any sphere identity, the genus-0
reduction among them, holds term by term inside the sums.  Every point
is exact, and so is everything here.

Every sewn handle, whether one of the g handles of a
:class:`SchottkyData` or one sewn onto an element of any genus, is one
entry (zeta1, zeta2, rho_order, variable) of a handle list, outermost
first, and a surface is :class:`~voachain.complexes.Sphere` or
:class:`~voachain.complexes.Trace` with its handle list: a genus-g
value is ``Sphere(SchottkyData.handles(...))`` evaluated at its
insertions, and the bare sphere and trace have no handle.
:func:`_genus_g_sum` fetches each handle's paired terms once and hands
them to one sum over every handle, both in :mod:`voachain.correlators`:
:func:`~voachain.correlators.sewn_sphere_series` on the sphere (one
point check, one Wick context, one _wick call per paired term), or
:func:`~voachain.correlators.sewn_trace_series` on the trace (one trace
context and one weighted trace sum per rho multi-index), at any exact
points and coefficients.  The reduction on a sewn surface is a few such
sums at the same points, summed in the same call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .series import (Scalar, TruncatedSeries, _FrozenRecord, _GaussInt, _int_power, _lower,
                     _split, points_coincide)
from .correlators import gram_block
from .voa import FockState, weight_basis


class SewingError(ValueError):
    pass


class SewingData(_FrozenRecord):
    """One-handle sewing data: the two insertion points for the basis
    pair.  The sewing parameter rho is the series variable of the sums,
    so it has no value here."""

    __slots__ = ("zeta1", "zeta2")

    def __init__(self, zeta1: Scalar = 1, zeta2: Scalar = -1):
        if points_coincide([zeta1, zeta2]):
            raise SewingError("sewing insertion points must differ")
        self._set_fields(zeta1, zeta2)


@lru_cache(maxsize=None, typed=True)
def handle_pairing(zeta1, zeta2, k: int):
    """Weight-k basis and the exact inverse two-point Gram matrix at the
    sewing points.

    The Gram matrix is H_k(zeta1, zeta2) = (zeta1 - zeta2)^(-2k) G_k,
    with G_k free of the points (translation and scaling covariance of
    the vacuum two-point function), so H_k^-1 is G_k^-1 scaled.  A block
    entry of :func:`_gram_inverse` is its integer times the scale over the
    block's determinant, lowered once; every other entry is one scaled
    Fraction(0).  Entries have the scale's type, and points of other types
    are cached apart (6 and ExactComplex(6) give Fraction and ExactComplex).
    """
    basis = weight_basis(k)
    scale = _int_power(zeta1 - zeta2, 2 * k)
    zero = scale * Fraction(0)
    num, den = _split(scale)
    gaussian = num.__class__ is _GaussInt
    rows = [[zero] * len(basis) for _ in basis]
    for block, inverse, det in _gram_inverse(k):
        for i, row in zip(block, inverse):
            for j, x in zip(block, row):
                rows[i][j] = _lower(x * num, det * den, gaussian)
    return basis, tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _gram_inverse(k: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int], ...]:
    """G_k^-1, with G_k = H_k(1, 0), as its blocks (basis indices, integer
    rows, positive determinant d), by first index: the rows over d are the
    block's entries.  The fields of one insertion never contract, so G_k
    is block-diagonal by partition length; :func:`row_reduce_integer` of
    each block B | I ends as +-d I | +-d B^-1.  The entries of G_k are
    integers, as the fields at 1 contract with those at 0 through powers
    of 1 - 0: each block is one :func:`~voachain.correlators.gram_block`,
    which evicts no context of the sums."""
    basis = weight_basis(k)
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(basis):
        blocks.setdefault(b.length, []).append(i)
    out = []
    for block in blocks.values():
        n = len(block)
        gram = gram_block([basis[i] for i in block])
        rows, rank = row_reduce_integer([row + [int(i == j) for j in range(n)]
                                         for i, row in enumerate(gram)], n)
        if rank < n:
            raise SewingError("degenerate sewing pairing matrix")
        sign = 1 if rows[0][0] > 0 else -1
        out.append((tuple(block), tuple(tuple(sign * x for x in row[n:]) for row in rows),
                    sign * rows[0][0]))
    return tuple(out)


def row_reduce_integer(matrix: Sequence[Sequence[int]], columns: int | None = None
                       ) -> tuple[list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer
    matrix over its first ``columns`` columns (all by default), and the
    number of pivots found there, which is the rank of those columns.

    A column with no pivot below the pivots found so far is skipped.
    Each step divides every other row exactly by the previous pivot, so
    the rows stay integers.  The pivot rows come first, each nonzero in
    its own pivot column and zero in every other pivot column."""
    rows = list(matrix)
    if columns is None:
        columns = len(rows[0]) if rows else 0
    rank = 0
    previous = 1
    for col in range(columns):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pivot = pivot_row[col]
        for r, row in enumerate(rows):
            if r != rank:
                f = row[col]
                rows[r] = [(pivot * x - f * y) // previous for x, y in zip(row, pivot_row)]
        previous = pivot
        rank += 1
    return rows, rank


def _pairing_terms(zeta1, zeta2, k: int) -> list[tuple[Scalar, FockState, FockState]]:
    """Nonzero terms (c, bbar, b) of the weight-k double insertion, as
    basis states: bbar goes to zeta1, b to zeta2, and c is the
    inverse-Gram entry pairing them.  Ordered by bbar, then b, in basis
    order.  Only the entries of bbar's block can be nonzero; the blocks
    are symmetric, so its row there names them."""
    basis, hinv = handle_pairing(zeta1, zeta2, k)
    partners = [()] * len(basis)
    for block, inverse, _ in _gram_inverse(k):
        for i, row in zip(block, inverse):
            partners[i] = [j for j, x in zip(block, row) if x]
    return [(hinv[j][i], bi, basis[j]) for i, bi in enumerate(basis) for j in partners[i]]


def _sewn_handle(zeta1, zeta2, rho_order: int, variable: str) -> tuple:
    """One handle as the one-pass sums take it: the sewing points, every
    order's paired terms and the variable."""
    return zeta1, zeta2, [_pairing_terms(zeta1, zeta2, k) for k in range(rho_order)], variable


# -- genus-g surfaces ---------------------------------------------------


class SchottkyData(_FrozenRecord):
    """Sewing description of a genus-g surface, g >= 1: the pair of sewing
    points (w_-a, w_a) of each handle a, at which its paired basis states
    sit."""

    __slots__ = ("genus", "points")  # points: (w_-1, w_1, w_-2, w_2, ...)

    def __init__(self, genus: int, points: tuple[Scalar, ...] = ()):
        if genus < 1:
            raise SewingError("genus must be >= 1")
        if len(points) != 2 * genus:
            raise SewingError("need two points per handle")
        if points_coincide(points):
            raise SewingError("sewing points must be pairwise distinct")
        self._set_fields(genus, points)

    def point(self, a: int) -> Scalar:
        """w_a with a in {-g..-1, 1..g}; pairs stored as (w_-a, w_a)."""
        if not 1 <= abs(a) <= self.genus:
            raise SewingError(f"handle index {a} is not in ±1..±{self.genus}")
        idx = 2 * (abs(a) - 1) + (1 if a > 0 else 0)
        return self.points[idx]

    def handles(self, rho_orders: Sequence[int]) -> tuple[tuple, ...]:
        """The handles as :func:`_genus_g_sum` takes them, handle g
        (outermost) first: (w_-h, w_h, rho order h, "rho{h}").  The
        sphere with them, ``Sphere(handles)``, is the genus-g surface."""
        if len(rho_orders) != self.genus:
            raise SewingError("one rho order per handle")
        return tuple((self.point(-h), self.point(h), rho_orders[h - 1], f"rho{h}")
                     for h in range(self.genus, 0, -1))


def _genus_g_sum(handles, pieces, summed):
    """Nested rho-series of the basis sums of sewn handles.

    Each handle is (zeta1, zeta2, rho_order, variable), outermost first,
    and sews the handles after it.  ``pieces(sewn)`` gives the sums to
    take over the fetched handles (each handle's paired terms, as
    :func:`_sewn_handle` gives them), and ``summed`` takes them in one
    pass, as :func:`~voachain.correlators.sewn_sphere_series` does.  Each
    handle's paired terms are fetched once, before any sum starts.

    A handle summed to order 0 knows none of its coefficients, so no
    coefficient of the sums is known either: the result is then the
    empty series with truncation 0.
    """
    if any(rho_order == 0 for _, _, rho_order, _ in handles):
        return TruncatedSeries.zero(handles[0][3], 0)
    return summed(pieces([_sewn_handle(*h) for h in handles]))
