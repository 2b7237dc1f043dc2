"""Rank-one Heisenberg vertex algebra on its charge-zero Fock module.

States are indexed by integer partitions: ``a(-n1)...a(-nk)|0>`` with
``n1 >= ... >= nk >= 1``.  The module implements mode actions, composite
modes via the iterate formula, square-bracket modes, the Sugawara
Virasoro operators at central charge 1, the invariant bilinear form with
adjoint parameter ``alpha``, and the partition numbers p(n).  It is the
algebra only: the correlation functions of its states, and the Wick
engines that compute them, are :mod:`voachain.correlators`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

from .series import (Scalar, TruncatedSeries, _FrozenRecord, _int_power, _scalar_invert,
                     scalar_is_zero)


class FockState(_FrozenRecord):
    """Basis vector a(-n1)...a(-nk)|0>, partition sorted descending."""

    # the hash of the partition is kept: every FockVector dict operation
    # and every mode-action cache lookup hashes the state
    __slots__ = ("partition", "_hash")

    def __init__(self, partition: tuple[int, ...]):
        parts = tuple(sorted((int(n) for n in partition), reverse=True))
        if parts and parts[-1] < 1:
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "partition", parts)
        object.__setattr__(self, "_hash", hash(parts))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.partition == other.partition

    def __hash__(self):
        return self._hash

    @property
    def weight(self) -> int:
        return sum(self.partition)

    @property
    def length(self) -> int:
        return len(self.partition)

    def norm_squared(self) -> int:
        """Fock pairing <u,u>_F = prod(m^{mult_m} mult_m!)."""
        out = 1
        for m in set(self.partition):
            mult = self.partition.count(m)
            out *= m**mult * math.factorial(mult)
        return out

    def __repr__(self):
        return "|0>" if not self.partition else f"|{','.join(map(str, self.partition))}>"


VACUUM = FockState(())


class FockVector:
    """Finite linear combination of Fock basis states."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[FockState, Scalar] | None = None):
        self.terms = {s: c for s, c in (terms or {}).items() if not scalar_is_zero(c)}

    @classmethod
    def basis(cls, *partition: int) -> "FockVector":
        return cls({FockState(tuple(partition)): 1})

    def __add__(self, other: "FockVector") -> "FockVector":
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0) + c
        return FockVector(terms)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "FockVector":
        return FockVector({s: c * v for s, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, state: FockState) -> Scalar:
        return self.terms.get(state, 0)

    def homogeneous_components(self) -> dict[int, "FockVector"]:
        by_weight: dict[int, dict] = {}
        for s, c in self.terms.items():
            by_weight.setdefault(s.weight, {})[s] = c
        return {w: FockVector(t) for w, t in sorted(by_weight.items())}

    def weight_if_homogeneous(self) -> int:
        weights = {s.weight for s in self.terms}
        if len(weights) != 1:
            raise ValueError(f"vector is not homogeneous: weights {sorted(weights)}")
        return weights.pop()

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        body = " + ".join(f"({c})*{s!r}" for s, c in sorted(
            self.terms.items(), key=lambda t: (t[0].weight, t[0].partition)))
        return f"FockVector({body})"


ZERO_VECTOR = FockVector()
VACUUM_VECTOR = FockVector({VACUUM: 1})
# a = a(-1)|0>, the weight-1 generator; omega = (1/2) a(-1)^2 |0>
A_STATE = FockState((1,))
A_VECTOR = FockVector({A_STATE: 1})
OMEGA_VECTOR = FockVector({FockState((1, 1)): Fraction(1, 2)})
CENTRAL_CHARGE = 1


def fock_basis(weight_cutoff: int) -> list[FockState]:
    """All basis states of weight < weight_cutoff, weight-major order,
    lexicographic within a weight."""
    if weight_cutoff < 0:
        raise ValueError("weight_cutoff must be >= 0")
    states = []
    for w in range(weight_cutoff):
        states.extend(weight_basis(w))
    return states


@lru_cache(maxsize=None)
def weight_basis(weight: int) -> tuple[FockState, ...]:
    """The basis states of one weight, lexicographic as in fock_basis."""
    return tuple(FockState(p) for p in sorted(_partitions(weight)))


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=1)
def _partition_table() -> list:
    # p(0), p(1), ...: grown in place by partition_count, and cleared with
    # the other caches
    return [1]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n (0 for n < 0), by Euler's
    pentagonal-number recurrence
    p(m) = sum_{k >= 1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)]:
    O(sqrt m) additions per new entry, and no partition is listed."""
    if n < 0:
        return 0
    table = _partition_table()
    for m in range(len(table), n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = table[m - g] + (table[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        table.append(total)
    return table[n]


# -- elementary mode actions -----------------------------------------


def _mode_on_state(n: int, state: FockState) -> FockVector:
    if n == 0:
        return ZERO_VECTOR
    if n < 0:
        return FockVector({FockState(state.partition + (-n,)): 1})
    mult = state.partition.count(n)
    if mult == 0:
        return ZERO_VECTOR
    parts = list(state.partition)
    parts.remove(n)
    return FockVector({FockState(tuple(parts)): n * mult})


def heisenberg_mode(n: int, v: FockVector) -> FockVector:
    """Apply a(n).  a(-n) appends a part, a(n) annihilates with the
    multiplicity rule, a(0) is zero on the charge-zero module."""
    out: dict[FockState, Scalar] = {}
    for s, c in v.terms.items():
        for t, val in _mode_on_state(n, s).terms.items():
            out[t] = out.get(t, 0) + c * val
    return FockVector(out)


def apply_state_mode(v: FockVector | FockState, m: int, w: FockVector) -> FockVector:
    """Apply the m-th mode v(m) of an arbitrary state v to w.

    Composite states go through the iterate formula
    (a(-n)b)(m) = sum_j (-1)^j C(-n,j) [a(-n-j) b(m+j)
                  - (-1)^n b(m-n-j) a(j)],
    which terminates on any finite-weight target by lower truncation.
    """
    if isinstance(v, FockState):
        v = FockVector({v: 1})
    out = ZERO_VECTOR
    for s, c in v.terms.items():
        out = out + _state_mode_on_vector(s, m, w).scale(c)
    return out


def _state_mode_on_vector(s: FockState, m: int, w: FockVector) -> FockVector:
    out: dict[FockState, Scalar] = {}
    for t, c in w.terms.items():
        for r, val in _state_mode_on_basis(s, m, t).terms.items():
            out[r] = out.get(r, 0) + c * val
    return FockVector(out)


@lru_cache(maxsize=200000)
def _state_mode_on_basis(s: FockState, m: int, target: FockState) -> FockVector:
    if not s.partition:
        # vacuum vertex operator is the identity
        return FockVector({target: 1}) if m == -1 else ZERO_VECTOR
    if s.partition == (1,):
        return _mode_on_state(m, target)
    n = s.partition[0]
    b = FockState(s.partition[1:])
    w = FockVector({target: 1})
    total: dict[FockState, Scalar] = {}

    def acc(vec: FockVector, factor):
        for r, val in vec.terms.items():
            total[r] = total.get(r, 0) + factor * val

    # j bounded: b(m+j) kills target once m+j >= wt(b)+wt(target);
    # a(j) kills it once j > wt(target).
    j_max_1 = b.weight + target.weight - m
    for j in range(0, max(j_max_1, 0) + 1):
        coeff = math.comb(n + j - 1, j)  # C(-n, j) (-1)^j
        inner = _state_mode_on_basis(b, m + j, target)
        if not inner.is_zero():
            acc(heisenberg_mode(-n - j, inner), coeff)
    sign = -((-1) ** n)
    for j in range(0, target.weight + 1):
        aj = _mode_on_state(j, target)
        if aj.is_zero():
            continue
        coeff = sign * math.comb(n + j - 1, j)
        acc(_state_mode_on_vector(b, m - n - j, aj), coeff)
    return FockVector(total)


def zero_mode(v: FockVector) -> Callable[[FockVector], FockVector]:
    """o(v) = v(wt v - 1) per homogeneous component, extended additively."""
    components = v.homogeneous_components()

    def apply(w: FockVector) -> FockVector:
        out = ZERO_VECTOR
        for wt, comp in components.items():
            out = out + apply_state_mode(comp, wt - 1, w)
        return out

    return apply


@lru_cache(maxsize=None)
def _bracket_coeffs(wt: int, i: int) -> tuple[Fraction, ...]:
    # coefficients of x^m in binom(wt-1+x, i)
    poly = [Fraction(1)]
    for t in range(i):
        # multiply by (wt-1-t+x)
        const = Fraction(wt - 1 - t)
        new = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            new[k] += c * const
            new[k + 1] += c
        poly = new
    fact = math.factorial(i)
    return tuple(c / fact for c in poly)


def square_bracket_mode(v: FockVector, m: int) -> Callable[[FockVector], FockVector]:
    """v[m] = m! sum_{i>=m} c(wt v, i, m) v(i) for m >= 0 and homogeneous v."""
    if m < 0:
        raise ValueError("square-bracket conversion implemented for m >= 0")
    wt = v.weight_if_homogeneous()

    def apply(w: FockVector) -> FockVector:
        out = ZERO_VECTOR
        i_max = wt + max((s.weight for s in w.terms), default=0)
        for i in range(m, i_max + 1):
            coeffs = _bracket_coeffs(wt, i)
            c = coeffs[m] if m < len(coeffs) else Fraction(0)
            if c == 0:
                continue
            out = out + apply_state_mode(v, i, w).scale(c * math.factorial(m))
        return out

    return apply


def virasoro_mode(m: int, v: FockVector) -> FockVector:
    """L(m) in Sugawara form (1/2) sum :a(j)a(m-j):, central charge 1."""
    if m == 0:
        return FockVector({s: c * s.weight for s, c in v.terms.items()})
    out: dict[FockState, Scalar] = {}
    for s, c in v.terms.items():
        bound = s.weight + abs(m) + 1
        for j in range(-bound, bound + 1):
            k = m - j
            # normal order: annihilator (larger index) applied first
            first, second = (k, j) if k >= j else (j, k)
            t1 = _mode_on_state(first, s)
            if t1.is_zero():
                continue
            for t, val in heisenberg_mode(second, t1).terms.items():
                out[t] = out.get(t, 0) + c * val * Fraction(1, 2)
    return FockVector(out)


def is_quasiprimary(v: FockVector) -> bool:
    return virasoro_mode(1, v).is_zero()


def adjoint_mode(u: FockVector, n: int, alpha: Scalar = 1) -> Callable[[FockVector], FockVector]:
    """u^dagger(n) = (-1)^wt alpha^(n+1-wt) u(2wt-n-2) for quasiprimary u."""
    if not is_quasiprimary(u):
        raise ValueError("adjoint formula requires a quasiprimary state")
    wt = u.weight_if_homogeneous()
    factor = (-1) ** wt * _int_power(alpha, n + 1 - wt)

    def apply(w: FockVector) -> FockVector:
        return apply_state_mode(u, 2 * wt - n - 2, w).scale(factor)

    return apply


def bilinear_form(u: FockVector, w: FockVector, alpha: Scalar = 1) -> Scalar:
    """Invariant bilinear form normalized by <1,1> = 1.

    Computed by peeling creation modes through the adjoint relation
    a^dagger(-n) = -alpha^(-n) a(n); vanishes across distinct weights.
    """
    total = 0
    for s, c in u.terms.items():
        total = total + c * _form_on_state(s, w, alpha)
    return total


def _form_on_state(s: FockState, w: FockVector, alpha) -> Scalar:
    if not s.partition:
        return w.coefficient(VACUUM)
    n = s.partition[0]
    rest = FockState(s.partition[1:])
    moved = heisenberg_mode(n, w).scale(-_int_power(alpha, -n))
    return _form_on_state(rest, moved, alpha)


def dual_coefficient(state: FockState, alpha: Scalar = 1) -> Scalar:
    """c with bar(state) = c * state dual w.r.t. the alpha-form.

    The form is diagonal on the partition basis:
    <u,u>_alpha = (-1)^len(u) alpha^(-wt u) norm_F(u).
    """
    val = (-1) ** state.length * _int_power(alpha, -state.weight) * state.norm_squared()
    return _scalar_invert(val)


def vertex_matrix_element(
    v: FockVector, u_out: FockState, u_in: FockState, z_order: int
) -> TruncatedSeries:
    """<u_out', Y(v,z) u_in> as an exact Laurent series in z.

    Grading leaves a single mode per homogeneous component of v, so the
    series is a finite sum of monomials; z_order only bounds the
    reported validity range.
    """
    coeffs: dict[int, Scalar] = {}
    min_exp = 0
    for wt, comp in v.homogeneous_components().items():
        m = u_in.weight + wt - u_out.weight - 1
        image = apply_state_mode(comp, m, FockVector({u_in: 1}))
        c = image.coefficient(u_out)
        exp = -m - 1
        if not scalar_is_zero(c):
            coeffs[exp] = coeffs.get(exp, 0) + c
        min_exp = min(min_exp, exp)
    return TruncatedSeries("z", coeffs, z_order, min_exponent=min_exp)
