"""Raw correlation-function evaluators shared by the sewing and
reduction layers.

Genus 0 is the exact sphere engine; genus 1 is the brute-force graded
trace, exact per q-order because every diagonal matrix element is an
exact rational function of the insertion coordinates.  Torus insertion
points are given in the exponentiated coordinate x = e^z, so rational
points keep the whole computation in rational arithmetic.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from .series import Scalar, TruncatedSeries, _int_power, to_complex
from .voa import (
    VACUUM,
    FockState,
    FockVector,
    fock_basis,
    sphere_matrix_element,
)

Insertion = tuple[FockVector, Scalar]


def sphere_value(
    insertions: Sequence[Insertion],
    u_out: FockState = VACUUM,
    u_in: FockState = VACUUM,
    dressed: bool = False,
) -> Scalar:
    """<u_out', Y(v1,z1)...Y(vn,zn) u_in>, exact.

    With ``dressed`` each insertion is Y(x^{L0} v, x), contributing
    x^{wt} per homogeneous component.
    """
    points = [z for _, z in insertions]
    if len(set(map(to_complex, points))) != len(points):
        raise ValueError("insertion points must be pairwise distinct")
    total = 0
    for states, coeff in _expand_components(insertions, dressed):
        val = sphere_matrix_element(u_out, list(zip(states, points)), u_in)
        total = total + coeff * val
    return total


def _expand_components(insertions, dressed):
    """Multilinear expansion into basis-state insertions with weights."""
    slots = []
    for v, z in insertions:
        options = []
        for s, c in v.terms.items():
            factor = c * _int_power(z, s.weight) if dressed else c
            options.append((s, factor))
        slots.append(options)
    for combo in product(*slots):
        coeff = 1
        for _, c in combo:
            coeff = coeff * c
        yield tuple(s for s, _ in combo), coeff


def torus_qseries(
    insertions: Sequence[Insertion],
    q_order: int,
    left_operator: Callable[[FockVector], FockVector] | None = None,
) -> TruncatedSeries:
    """Brute-force graded trace over the Fock basis, exact per q-order.

    Tr(op . Y(x1^{L0}v1,x1)...Y(xn^{L0}vn,xn) q^{L0}) without the
    q^{-c/24} prefactor, which the caller tracks symbolically.  The q^k
    coefficient sums diagonal sphere elements over the weight-k basis;
    an optional grade-preserving operator is inserted on the left.
    """
    coeffs: dict[int, Scalar] = {}
    for k in range(q_order):
        acc = 0
        for state in fock_basis(k + 1):
            if state.weight != k:
                continue
            if left_operator is None:
                val = sphere_value(insertions, state, state, dressed=True)
            else:
                # <A', op X A> = sum_B <A', op B> <B', X A> over the
                # same-weight bridge basis (op is grade-preserving)
                val = 0
                for bridge in fock_basis(k + 1):
                    if bridge.weight != k:
                        continue
                    c_ab = _dual_component(state, left_operator, bridge)
                    if c_ab == 0:
                        continue
                    val = val + c_ab * sphere_value(
                        insertions, bridge, state, dressed=True
                    )
            acc = acc + val
        coeffs[k] = acc
    return TruncatedSeries("q", coeffs, q_order)


def _dual_component(state, op, bridge):
    """<state', op bridge> for a basis bridge state."""
    img = op(FockVector({bridge: 1}))
    return img.coefficient(state)


def partition_qseries(q_order: int) -> TruncatedSeries:
    """Graded dimension series sum p(k) q^k (no prefactor)."""
    return torus_qseries([], q_order)
