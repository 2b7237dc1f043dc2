"""Rank-one Heisenberg vertex algebra on its charge-zero Fock module.

States are indexed by integer partitions: ``a(-n1)...a(-nk)|0>`` with
``n1 >= ... >= nk >= 1``.  The module implements mode actions, composite
modes via the iterate formula, square-bracket modes, the Sugawara
Virasoro operators at central charge 1, the invariant bilinear form with
adjoint parameter ``alpha``, and the exact sphere function between
vacua of products of vertex operators, with or without handles sewn on
(:func:`sewn_sphere_series`: resummed pairwise contractions, so values
are honest rational functions of the insertion points rather than
truncated mode sums).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Sequence

from .series import (
    ExactComplex,
    Scalar,
    SeriesError,
    TruncatedSeries,
    _FrozenRecord,
    _GaussInt,
    _int_power,
    _lower,
    _reciprocal,
    _scalar_invert,
    _split,
    points_coincide,
    scalar_is_zero,
)


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
        coeff = _comb_neg(-n, j) * (-1) ** j
        inner = _state_mode_on_basis(b, m + j, target)
        if not inner.is_zero():
            acc(heisenberg_mode(-n - j, inner), coeff)
    sign = -((-1) ** n)
    for j in range(0, target.weight + 1):
        aj = _mode_on_state(j, target)
        if aj.is_zero():
            continue
        coeff = sign * _comb_neg(-n, j) * (-1) ** j
        acc(_state_mode_on_vector(b, m - n - j, aj), coeff)
    return FockVector(total)


def _comb_neg(p: int, j: int) -> int:
    # binomial(p, j) for possibly negative integer p
    out = 1
    for t in range(j):
        out *= p - t
    return out // math.factorial(j)


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


# -- exact sphere functions --------------------------------------------
#
# <1', Y(v1,z1)...Y(vn,zn) 1> for basis states v_i: each v_i is the
# normally ordered product of derivative fields d^(n-1)a/(n-1)! and the
# whole function is a sum over pairings.  Pairwise contractions are
# closed-form rational functions of the points, which is exactly the
# resummation of the infinite intermediate mode sums.
#
# One Wick context serves every evaluation at the same set of points:
# a genus-g sum evaluates all its paired basis terms, vacuum pairs
# included, at the same points, and the same sum with the handles or
# insertions in another order (the chain conditions compose the
# differentials both ways) evaluates the same terms again.  The function
# is symmetric in its insertions, so the context takes the points in one
# canonical order, compared exactly, and numbers the fields in that
# order: any permutation of the insertions gives the same recursion
# states.  A field is its derivative order d and the canonical index i
# of its insertion; fields of one insertion share i and never contract
# (normal ordering), so a sub-sum depends on nothing else and holds for
# every call at these points.  The context is keyed by the points and by
# which of them are ExactComplex: ExactComplex(5) and 5 compare and hash
# equal, but the one computes with Gaussian integers and the other with
# integers.  One context is kept: no workload interleaves two point sets
# that both recur, and a context is freed as soon as it is evicted.
# At two points no table entry depends on the points (below), so every
# two-point context of one ring shares one set of tables, the Gram
# inversions' at 0 and 1 among them.
#
# The recursion divides nothing.  The context scales the points by Q,
# the least common multiple of the denominators of their real and
# imaginary parts, to p_i = Q z_i, and takes delta_ij = p_j - p_i for
# i < j: ints, or Gaussian integers (series._GaussInt) when an
# ExactComplex is among the points.  A state whose fields have total
# weight W_i at point i has the value
# V = Q^W N / prod_{i<j} delta_ij^(W_i + W_j), and the recursion
# computes N, which has no denominator: removing a field (d, i) takes
# prod_{k != i} delta_ik^(d+1) out of the product, so a contraction
# multiplies the sub-state's N by one table entry, the contraction times
# what the product lost, in which the contraction's pole cancels.  The
# memo holds one ring element per state entered (an int, or a _GaussInt
# at a context with an ExactComplex point), and sewn_sphere_series
# lowers each coefficient once, by series._lower.
# Every point of the context enters the products, a vacuum one too; its
# factors cancel, and a value is an ExactComplex exactly when a point
# carrying fields is one.
#
# The recursion carries its state as a string, compact enough to keep
# every sub-sum of a handle sum: one character per field, from the
# context's alphabet, which gives each field (i, d) the next character
# when it is first met.  The alphabet has no fixed stride, so no d is
# too high and no two fields share a character; while a context has at
# most 256 fields, each character is one byte.  A state's fields are
# strung by point in canonical order and by partition order within a
# point, so equal states are equal strings, and the first character is
# always a field of the lowest point that carries one.  The first field
# is contracted once per distinct partner and the term counted by the
# partner's multiplicity (str.count): the branching grows with the number
# of distinct fields, not of fields.  Partners are found, removed and
# counted by str and dict methods, a factor is read from the first
# field's row of contractions (0 for a field at its own point), and a
# sub-state is looked up in the memo, which starts with the empty state,
# before the recursion is entered.  At two points a contraction's product
# over the other points is empty, so every factor, and with it N, is a
# pure number, the same at any two points.


def _require_distinct(points) -> None:
    if points_coincide(points):
        raise ValueError("insertion points must be pairwise distinct")


def _expand_components(insertions):
    """Multilinear expansion into basis-state insertions with weights.
    Every coefficient is exact, as every point is: any other is refused,
    a SeriesError."""
    slots = []
    for v, _ in insertions:
        options = []
        for s, c in v.terms.items():
            if not isinstance(c, (int, Fraction, ExactComplex)):
                raise SeriesError(f"coefficient {c!r} is not exact: give an int, a Fraction "
                                  "or an ExactComplex")
            options.append((s, c))
        slots.append(options)
    for combo in product(*slots):
        coeff = 1
        for _, c in combo:
            coeff = coeff * c
        yield tuple(s for s, _ in combo), coeff


# -- handles sewn onto the sphere ------------------------------------
#
# A sewn handle sums the sphere function over the paired basis states
# of each weight k (bbar at zeta1, b at zeta2), weighted by the pairing
# entry c and counted by rho^k; g handles nest these sums, and with no
# handle the sum is the sphere function itself.  Every term of every
# handle is taken at the same points, so one check, one canonical order
# and one Wick context serve them all, and each paired state is strung
# once per handle slot: a term is one _wick call, which enters only the
# sub-states that no earlier term has met.  The terms of one expansion
# combination, one multi-index (k_1, ..., k_g) and one weight of each
# paired state (the weight k, unless a reduction has moved the state)
# put the same weights W at the points, so their Wick sums share one
# factor: each such sum is one ring element, the pairing entries of the
# group split (series._split) over their least common denominator, and
# Q^W over prod_{i<j} delta_ij^(W_i + W_j) is made once per weights and
# context, as a ring numerator over a positive int.  The sums stay in
# the ring: each multi-index keeps one numerator per denominator, and
# each coefficient is lowered once, over the lcm of its denominators.
# A reduction's sums at one point set (its pieces) run in one call.
#
# The type of a coefficient is decided by its terms, not by its value:
# it is an ExactComplex when an ExactComplex enters one of them (a
# weight, an insertion coefficient, a pairing entry, or a point that
# carries fields in a term with an even number of fields), else a
# Fraction, as a per-term sum gives it.  A group of pairing entries
# notes whether one is an ExactComplex, at rational handle points too: a
# reduction moves states by the new insertion's coefficients.  With no
# handle, a term with an odd number of fields is the 0 of its weight
# times its coefficient (an int 0 when both are ints), as a per-term sum
# of the int 0 gives it.


def sewn_sphere_series(pieces: Sequence[tuple]) -> TruncatedSeries | Scalar:
    """sum over pieces (w, insertions, handles) of w <1', Y(v1,z1)...
    Y(vn,zn) 1> with the handles sewn on, as the nested rho-series of its
    paired basis sums, outermost handle first; with no handles, the
    sphere function between vacua itself, a scalar.

    Each handle is (zeta1, zeta2, terms, variable); terms[k] lists the
    weight-k paired terms (c, bbar, b) of basis states, bbar at zeta1 and
    b at zeta2.  The coefficient of rho_1^k1 ... rho_g^kg sums c_1 ... c_g
    times the sphere function over the weight-(k1, ..., kg) terms.  Every
    piece has the handles and the points of the first, slot for slot (a
    reduction moves states, not points); they are checked first.
    """
    _, insertions, handles = pieces[0]
    points = [z for _, z in insertions]
    for zeta1, zeta2, _, _ in handles:
        points += (zeta1, zeta2)
    _require_distinct(points)
    order = _canonical_order(tuple(points))
    gaussian = tuple(isinstance(points[i], ExactComplex) for i in order)
    ctx = _wick_context(gaussian, tuple(points[i] for i in order))
    position = [0] * len(order)
    for pi, slot in enumerate(order):
        position[slot] = pi
    acc, flags, built = {}, {}, {}
    for piece in pieces:
        _sewn_piece(ctx, gaussian, position, *piece, acc, flags, built)
    if not handles:
        return acc[()]
    values = {}
    for key, sums in acc.items():
        den = math.lcm(*sums)
        num = sum(n * (den // d) for d, n in sums.items())
        if num:
            value = _lower(num, den, flags.get(key, False))
            level = values
            for k in key[:-1]:
                level = level.setdefault(k, {})
            level[key[-1]] = value
    return _as_series(values, [(variable, len(terms)) for _, _, terms, variable in handles])


def _field_chars(state: FockState, pi: int, ctx: _WickContext) -> str:
    """The fields of a basis state at canonical point index pi, as the
    recursion strings them: one character of the context's alphabet per
    field, in partition order."""
    alphabet, chars = ctx.alphabet, []
    for part in state.partition:
        char = alphabet.get((pi, part - 1))
        if char is None:
            char = alphabet[pi, part - 1] = chr(len(ctx.fields))
            ctx.fields.append((pi, part - 1))
        chars.append(char)
    return "".join(chars)


def _sewn_piece(ctx, gaussian, position, weight, insertions, handles, acc, flags, built):
    # one piece's coefficients added into acc, by multi-index, as ring
    # numerators by denominator (with no handle, the sphere function's
    # scalar); where an ExactComplex enters a term, flags marks the
    # multi-index, also when the weight is 0 and no term is summed.
    # built keeps each handle's grouped terms by its terms list and slot:
    # the pieces of a reduction share every handle they do not move
    combos = []
    for states, coeff in _expand_components(insertions):
        scale = weight * coeff
        combos.append((*_split(scale), [(position[i], _field_chars(s, position[i], ctx), s.weight)
                                        for i, s in enumerate(states)],
                       sum(s.length for s in states), scale))
    live = weight != 0
    slots = [""] * len(gaussian)
    weights = [0] * len(gaussian)
    if not handles:
        # the sphere function, one term per expansion combination, each
        # of its own type and lowered on its own
        total = acc.get((), 0)
        for num, den, chars, legs, scale in combos:
            if legs % 2:
                total = total + scale * 0
                continue
            for pi, field, wt in chars:
                slots[pi], weights[pi] = field, wt
            scaled, d = _weight_factor(ctx, weights)
            n, d = (num * _wick("".join(slots), ctx) * scaled, den * d) if live else (0, 1)
            total = total + _lower(n, d, num.__class__ is _GaussInt
                                   or any(g and wt for g, wt in zip(gaussian, weights)))
        acc[()] = total
        return
    levels = []
    for h, (_, _, terms, _) in enumerate(handles):
        slot = len(insertions) + 2 * h
        p1, p2 = position[slot], position[slot + 1]
        by_weight = built.get((id(terms), slot))
        if by_weight is not None:
            levels.append((p1, p2, by_weight))
            continue
        by_weight = built[id(terms), slot] = []
        at1, at2 = ({s: _field_chars(s, p, ctx) for s in dict.fromkeys(
            term[side] for terms_k in terms for term in terms_k)} for side, p in ((1, p1), (2, p2)))
        for terms_k in terms:
            # the weight-k terms grouped by the weights of bbar and b: the
            # group's pairing entries as ring elements over their lcm, whether
            # one is an ExactComplex, and the parities of the field counts
            groups = {}
            for term in terms_k:
                groups.setdefault((term[1].weight, term[2].weight), []).append(term)
            by_weight.append([])
            for (wbar, wb), group in groups.items():
                split = [_split(c) for c, _, _ in group]
                common = math.lcm(*(d for _, d in split))
                gauss = any(n.__class__ is _GaussInt for n, _ in split)
                by_weight[-1].append((wbar, wb, common, gauss,
                                      {(bbar.length + b.length) % 2 for _, bbar, b in group}, [
                    (n * (common // d), at1[bbar], at2[b], bbar.length + b.length)
                    for (n, d), (_, bbar, b) in zip(split, group)]))
        levels.append((p1, p2, by_weight))
    exotic = ctx.gaussian or any(num.__class__ is _GaussInt for num, *_ in combos) or any(
        group[3] for _, _, by_weight in levels for groups in by_weight for group in groups)
    if not (live or exotic):
        return

    # each coefficient (k_outer, ..., k_inner), one term per expansion
    # combination, multi-index and weights of the paired states, added
    # into the coefficient's ring numerator over its denominator
    outer = [[(k, wbar, wb, common, term) for k, groups in enumerate(by_weight)
              for wbar, wb, common, _, _, group in groups for term in group]
             for _, _, by_weight in levels[:-1]]
    pos1, pos2, inner = levels[-1]
    for num0, den0, chars, combo_legs, _ in combos:
        for pi, field, weight in chars:
            slots[pi], weights[pi] = field, weight
        for picked in product(*outer):
            ks, num, den, outer_legs = (), num0, den0, combo_legs
            marked = num0.__class__ is _GaussInt
            for (p1, p2, _), (k, wbar, wb, common, (c, bbar, b, term_legs)) in zip(levels, picked):
                slots[p1], slots[p2] = bbar, b
                weights[p1], weights[p2] = wbar, wb
                ks, outer_legs = ks + (k,), outer_legs + term_legs
                num, den = num * c, den * common
                marked = marked or c.__class__ is _GaussInt
            for k, groups in enumerate(inner):
                for wbar, wb, common, gauss, parities, group in groups:
                    weights[pos1], weights[pos2] = wbar, wb
                    key = ks + (k,)
                    if exotic:
                        flags[key] = flags.get(key) or marked or gauss or (
                            outer_legs % 2 in parities
                            and any(g and w for g, w in zip(gaussian, weights)))
                    if not live:
                        continue
                    total = 0
                    for c, bbar, b, term_legs in group:
                        if (outer_legs + term_legs) % 2:
                            continue
                        slots[pos1], slots[pos2] = bbar, b
                        total += c * _wick("".join(slots), ctx)
                    if total:
                        scaled, d = _weight_factor(ctx, weights)
                        sums, d = acc.setdefault(key, {}), den * common * d
                        sums[d] = sums.get(d, 0) + num * total * scaled


def _as_series(values: dict, shape) -> TruncatedSeries:
    # nested dicts {exponent: coefficient} as nested series
    (variable, order), inner = shape[0], shape[1:]
    return TruncatedSeries(
        variable, {k: _as_series(v, inner) if inner else v for k, v in values.items()}, order)


@lru_cache(maxsize=256)
def _canonical_order(points: tuple) -> tuple[int, ...]:
    """The insertion indices of the points in canonical order: by real
    part, then imaginary part, compared exactly.  Equal points of other
    types have one order, so they may share its cache entry."""

    def key(i):
        z = points[i]
        return (z.re, z.im) if isinstance(z, ExactComplex) else (z, 0)

    return tuple(sorted(range(len(points)), key=key))


class _WickTables:
    """The alphabet, contraction rows and memo of the recursion at one
    point set: a field (canonical point index, derivative order) is one
    character, chr(n) for the n-th field met.  The rows need the scaled
    points and the ring's one."""

    __slots__ = ("alphabet", "fields", "contractions", "memo")

    def __init__(self, scaled: tuple, one):
        self.alphabet: dict = {}  # (point index, d) -> its character
        self.fields: list = []  # the (point index, d) of each character, by ord
        # first field -> partner -> factor
        self.contractions = _Rows(_contraction, (self.fields, scaled, one))
        self.memo: dict = {"": one}  # fields (see _wick) -> N


class _Rows(dict):
    # one row per first field, made when first read; a factor is
    # contraction(*args, first, partner).  The rows hold what a
    # contraction reads (the alphabet's field list, the scaled points),
    # not the tables that hold them: with no cycle, an evicted context's
    # tables are freed at once.  The torus context keeps its rows so too
    __slots__ = ("contraction", "args")

    def __init__(self, contraction, args: tuple):
        self.contraction, self.args = contraction, args

    def __missing__(self, first):
        row = self[first] = _Row(self.contraction, self.args, first)
        return row


class _Row(dict):
    # partner -> the factor of its contraction with the row's field,
    # computed when first read
    __slots__ = ("contraction", "args", "first")

    def __init__(self, contraction, args: tuple, first: str):
        self.contraction, self.args, self.first = contraction, args, first

    def __missing__(self, partner):
        factor = self[partner] = self.contraction(*self.args, self.first, partner)
        return factor


@lru_cache(maxsize=2)
def _two_point_tables(gaussian: bool) -> _WickTables:
    # at two points a contraction's product over the other points is
    # empty, so no table entry depends on the points: every two-point
    # context of one ring shares these
    return _WickTables((0, 1), _GaussInt(1, 0) if gaussian else 1)


class _WickContext:
    """The tables shared by every sphere function at one point set."""

    __slots__ = ("scale", "scaled", "gaussian", "zero", "one", "cofactors", "factors",
                 "alphabet", "fields", "contractions", "memo")

    def __init__(self, points: tuple):
        _require_distinct(points)
        self.scale, self.scaled = _scaled_points(points)
        self.gaussian = any(isinstance(z, ExactComplex) for z in points)
        self.zero, self.one = (_GaussInt(0, 0), _GaussInt(1, 0)) if self.gaussian else (0, 1)
        # prod_{k != i} delta_ik, the factor a unit of weight at i puts
        # into the denominator
        self.cofactors = tuple(_cofactor(self.scaled, i, i) for i in range(len(points)))
        self.factors: dict = {}  # weights -> _weight_factor
        tables = (_two_point_tables(self.gaussian) if len(points) == 2
                  else _WickTables(self.scaled, self.one))
        self.alphabet, self.fields = tables.alphabet, tables.fields
        self.contractions, self.memo = tables.contractions, tables.memo


def _scaled_points(points: tuple) -> tuple:
    """(Q, the points times Q): Q the least common multiple of the
    denominators of the points' real and imaginary parts, so that each
    scaled point is an int, or a _GaussInt at an ExactComplex."""
    parts = [x for z in points for x in ((z.re, z.im) if isinstance(z, ExactComplex) else (z,))]
    q = math.lcm(*(x.denominator for x in parts))
    return q, tuple(_GaussInt(int(z.re * q), int(z.im * q)) if isinstance(z, ExactComplex)
                    else z.numerator * (q // z.denominator) for z in points)


@lru_cache(maxsize=1)
def _wick_context(gaussian: tuple, points: tuple) -> _WickContext:
    # gaussian[i]: whether point i is an ExactComplex
    return _WickContext(points)


def _cofactor(scaled: tuple, i: int, j: int):
    """prod over the points k other than i and j of delta_ik, oriented
    from the lower canonical index to the higher."""
    out = 1
    for k, p in enumerate(scaled):
        if k != i and k != j:
            out = out * (p - scaled[i] if k > i else scaled[i] - p)
    return out


def _weight_factor(ctx: _WickContext, weights) -> tuple:
    """Q^W / prod_{i<j} delta_ij^(W_i + W_j) at the weights W, the
    denominator as prod_i cofactor_i^(W_i), as (ring numerator, positive
    int denominator); made once per weights at a context."""
    key = tuple(weights)
    factor = ctx.factors.get(key)
    if factor is None:
        den = 1
        for cofactor, w in zip(ctx.cofactors, weights):
            if w:
                den = den * _int_power(cofactor, w)
        inverse, den = _reciprocal(den)
        factor = ctx.factors[key] = (inverse * ctx.scale ** sum(weights), den)
    return factor


def _contraction(fields: list, scaled: tuple, one, first: str, partner: str):
    # The factor one contraction of the fields (i, d) and (j, e) puts into
    # N: the normalized derivative contraction d^d_z1 d^e_z2 (z1 - z2)^-2
    # at the scaled points, whose pole delta_ij^(d+e+2) the two fields'
    # factors cancel, times prod_{k != i, j} delta_ik^(d+1) delta_jk^(e+1).
    # Fields of one insertion never contract (normal ordering): 0.
    (i, d), (j, e) = fields[ord(first)], fields[ord(partner)]
    if i == j:
        return 0 * one
    c = (-1) ** d * (d + e + 1) * math.comb(d + e, d)
    if i < j:  # p_i - p_j is -delta_ij, raised to -(d+e+2)
        c = c * (-1) ** (d + e)
    return (c * _int_power(_cofactor(scaled, i, j), d + 1)
            * _int_power(_cofactor(scaled, j, i), e + 1) * one)


def _wick(fields: str, ctx: _WickContext):
    """N of the state ``fields``, one character per field (see
    _field_chars), an element of the context's ring."""
    hit = ctx.memo.get(fields)
    return hit if hit is not None else _wick_sum(fields, ctx)


def _wick_sum(fields: str, ctx: _WickContext):
    # A state not in the memo: the first field contracts with each
    # distinct partner.  Contracting any copy of a partner leaves the
    # same sub-state, so the term is counted by the partner's
    # multiplicity; a sub-state is looked up before the recursion is
    # entered.  A lone field has no partner: its state is 0.
    memo = ctx.memo
    row = ctx.contractions[fields[0]]
    rest = fields[1:]
    total = ctx.zero
    for partner in dict.fromkeys(rest):
        factor = row[partner]
        if not factor:  # a field of the first one's insertion
            continue
        sub = rest.replace(partner, "", 1)
        sn = memo.get(sub)
        if sn is None:
            sn = _wick_sum(sub, ctx)
        if sn:
            term = factor * sn
            count = rest.count(partner)
            total = total + (term if count == 1 else count * term)
    memo[fields] = total
    return total
