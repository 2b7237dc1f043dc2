"""Genus raising by handle sewing and the genus-g form apparatus.

The sewing operator attaches a handle through a basis-summed double
insertion weighted by rho^k.  The dual state inserted at the first
sewing point is taken with respect to the pairing that the sphere
two-point geometry itself defines: per weight k, the Gram matrix
H(k)_{bb'} = <1', Y(b, zeta1) Y(b', zeta2) 1> is inverted exactly and
its inverse is the coefficient matrix of the double insertion.  This
reading of dual-basis sewing is convention-free: sewing the bare sphere
reproduces the graded dimension series with rho equal to the nome on
the nose, for any choice of sewing points (asserted by tests).

The numeric side implements the genus-g generalized kernels: the
two-case moment matrix R, the shift Delta, its truncated Neumann
inverse, and the psi/chi/theta families built from them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .correlators import Insertion, sphere_value
from .series import Scalar, TruncatedSeries, to_complex
from .voa import FockVector, apply_state_mode, weight_basis


class SewingError(ValueError):
    pass


@dataclass(frozen=True)
class SewingData:
    """One-handle sewing data: parameter rho with |rho| <= r1 r2 and the
    two insertion points for the basis pair."""

    rho: complex | None = None
    zeta1: Scalar = 1
    zeta2: Scalar = -1
    disk_radii: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.zeta1 == self.zeta2:
            raise SewingError("sewing insertion points must differ")
        r1, r2 = self.disk_radii
        if self.rho is not None and abs(complex(self.rho)) > r1 * r2:
            raise SewingError("|rho| must not exceed r1*r2")


@lru_cache(maxsize=None)
def handle_pairing(zeta1, zeta2, k: int):
    """Weight-k basis and the inverse two-point Gram matrix at the
    sewing points; exact whenever the points are exact scalars."""
    basis = weight_basis(k)
    gram = [
        [
            sphere_value(
                [(FockVector({bi: 1}), zeta1), (FockVector({bj: 1}), zeta2)],
                dressed=False,
            )
            for bj in basis
        ]
        for bi in basis
    ]
    return basis, _invert_exact(gram)


def _invert_exact(matrix):
    n = len(matrix)
    aug = [
        [_fractionize(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SewingError("degenerate sewing pairing matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _fractionize(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def paired_handle_terms(zeta1, zeta2, k: int) -> list[tuple[Scalar, FockVector, FockVector]]:
    """Nonzero terms (c, bbar, b) of the weight-k double insertion:
    bbar goes to zeta1, b to zeta2, and c is the inverse-Gram entry
    pairing them.  Ordered by bbar, then b, in basis order."""
    basis, hinv = handle_pairing(zeta1, zeta2, k)
    return [
        (hinv[j][i], FockVector({bi: 1}), FockVector({bj: 1}))
        for i, bi in enumerate(basis)
        for j, bj in enumerate(basis)
        if hinv[j][i] != 0
    ]


def _sewn_series(zeta1, zeta2, rho_order: int, evaluate, variable: str) -> TruncatedSeries:
    """One sewn handle: the rho^k coefficient sums c * evaluate(pairs)
    over the weight-k paired terms, with pairs = [(bbar, zeta1), (b, zeta2)].

    ``evaluate`` may return None to drop a term.  Every order's terms are
    fetched before the sum starts: a Gram inversion evaluates spheres at
    the sewing points alone and would replace the Wick context the sum
    runs in.
    """
    terms = [paired_handle_terms(zeta1, zeta2, k) for k in range(rho_order)]
    coeffs = {}
    for k, terms_k in enumerate(terms):
        total = 0
        for c, bbar, b in terms_k:
            value = evaluate([(bbar, zeta1), (b, zeta2)])
            if value is not None:
                total = total + value * c
        coeffs[k] = total
    return TruncatedSeries(variable, coeffs, rho_order)


# -- direct genus-g partition sums -------------------------------------


@dataclass(frozen=True)
class SchottkyData:
    """Sewing description of a genus-g surface: one (rho_a, w_-a, w_a)
    triple per handle, plus the kernel weight p, optional Laurent
    coefficient functions f_l, and the matrix truncations."""

    genus: int
    rho: tuple[complex, ...] = ()
    points: tuple[Scalar, ...] = ()  # (w_-1, w_1, w_-2, w_2, ...)
    p: int = 1
    f_coeffs: tuple[dict, ...] | None = None
    mode_cutoff: int = 4
    neumann_order: int = 12

    def __post_init__(self):
        if self.genus < 1:
            raise SewingError("genus must be >= 1")
        if len(self.points) != 2 * self.genus:
            raise SewingError("need two points per handle")
        keys = [to_complex(w) for w in self.points]
        if len(set(keys)) != len(keys):
            raise SewingError("sewing points must be pairwise distinct")
        if self.rho and any(r == 0 for r in self.rho):
            raise SewingError("rho parameters must be nonzero")
        if self.p < 1:
            raise SewingError("kernel weight p must be >= 1")

    def point(self, a: int) -> Scalar:
        """w_a with a in {-g..-1, 1..g}; pairs stored as (w_-a, w_a)."""
        idx = 2 * (abs(a) - 1) + (1 if a > 0 else 0)
        return self.points[idx]

    def rho_a(self, a: int) -> complex:
        return self.rho[abs(a) - 1]

    def f_laurent(self, ell: int) -> dict:
        if self.f_coeffs is None:
            return {}
        return self.f_coeffs[ell] if ell < len(self.f_coeffs) else {}


def genus_g_partition(
    sd: SchottkyData, rho_orders: Sequence[int]
) -> TruncatedSeries:
    """Nested rho-series of the genus-g partition function.

    Coefficient of rho_g^{k_g} ... rho_1^{k_1} sums the 2g-point sphere
    function over inverse-Gram-paired basis pairs at the handle points;
    desk scale supports g in {1, 2}.
    """
    return genus_g_npoint(sd, [], rho_orders)


def genus_g_npoint(
    sd: SchottkyData, insertions: Sequence[Insertion], rho_orders: Sequence[int]
) -> TruncatedSeries:
    """Genus-g n-point sum: extra insertions ride along in every paired
    basis term (points in the sphere coordinate)."""
    if sd.genus not in (1, 2):
        raise SewingError("partition sums implemented for genus 1 and 2")
    if len(rho_orders) != sd.genus:
        raise SewingError("one rho order per handle")
    handle_points = {to_complex(w) for w in sd.points}
    if any(to_complex(z) in handle_points for _, z in insertions):
        raise SewingError("insertion points must differ from the handle points")
    return _genus_g_sum(sd, insertions, rho_orders)


def _genus_g_sum(sd: SchottkyData, insertions, rho_orders, mode=None):
    """Nested rho-series (rho_g outermost) of the genus-g basis sums.

    Handle h sews the handles inside it, so handle g is the outermost
    sum and the sphere, innermost, sees [*insertions, *pairs_1, ...,
    *pairs_g].  With ``mode = (a, v, ell)`` the mode v(ell) acts on the
    paired state at the positive point of handle a, and terms it
    annihilates drop out (the zero-mode block of the genus-g reduction).
    """

    def sewn(h, outer_pairs):
        if h == 0:
            return sphere_value([*insertions, *outer_pairs], dressed=False)

        def evaluate(pairs):
            if mode is not None and mode[0] == h:
                _, v, ell = mode
                b, zeta2 = pairs[1]
                moved = apply_state_mode(v, ell, b)
                if moved.is_zero():
                    return None
                pairs = [pairs[0], (moved, zeta2)]
            return sewn(h - 1, pairs + outer_pairs)

        return _sewn_series(sd.point(-h), sd.point(h), rho_orders[h - 1], evaluate, f"rho{h}")

    return sewn(len(rho_orders), [])


# -- generalized elliptic apparatus ------------------------------------


def _norm_deriv_pole(m: int, n: int, x: complex, y: complex) -> complex:
    # normalized derivative d^(m)_x d^(n)_y 1/(x-y)
    if x == y:
        raise SewingError("pole at coincident arguments")
    return (-1) ** m * math.comb(m + n, m) * (x - y) ** (-(m + n + 1))


def _laurent_eval(f: dict, x: complex) -> complex:
    return sum(complex(c) * complex(x) ** e for e, c in f.items())


def _laurent_norm_deriv(f: dict, m: int, x: complex) -> complex:
    # d^(m)/m! of sum c_e x^e, integer (possibly negative) exponents
    total = 0j
    for e, c in f.items():
        fall = 1
        for t in range(m):
            fall *= e - t
        total += complex(c) * fall * complex(x) ** (e - m) / math.factorial(m)
    return total


def psi0(p: int, x: complex, y: complex, f_coeffs: Sequence[dict] | None = None) -> complex:
    """psi_p^(0)(x,y) = 1/(x-y) + sum_{l=0}^{2p-2} f_l(x) y^l."""
    if x == y:
        raise SewingError("psi0 pole at x = y")
    total = 1 / (complex(x) - complex(y))
    if f_coeffs:
        for ell in range(2 * p - 1):
            f = f_coeffs[ell] if ell < len(f_coeffs) else {}
            if f:
                total += _laurent_eval(f, x) * complex(y) ** ell
    return total


def _psi0_deriv(sd: SchottkyData, m: int, n: int, x, y) -> complex:
    """Normalized mixed derivative of psi_p^(0) at the Taylor convention."""
    total = _norm_deriv_pole(m, n, to_complex(x), to_complex(y))
    for ell in range(2 * sd.p - 1):
        f = sd.f_laurent(ell)
        if not f:
            continue
        if n <= ell:
            total += _laurent_norm_deriv(f, m, to_complex(x)) * math.comb(
                ell, n
            ) * to_complex(y) ** (ell - n)
    return total


def _e_mn(sd: SchottkyData, m: int, n: int, y) -> complex:
    total = 0j
    for ell in range(2 * sd.p - 1):
        f = sd.f_laurent(ell)
        if not f or n > ell:
            continue
        total += _laurent_norm_deriv(f, m, to_complex(y)) * math.comb(
            ell, n
        ) * to_complex(y) ** (ell - n)
    return total


def _half_power(rho: complex, half_exponent: int) -> complex:
    """rho^(half_exponent/2) on the principal branch; exact for even
    exponents, sqrt-based otherwise (positive real rho recommended)."""
    z = complex(rho)
    if half_exponent % 2 == 0:
        return z ** (half_exponent // 2)
    return cmath.sqrt(z) ** half_exponent


@dataclass
class GenusGForms:
    """Assembled moment matrices for one SchottkyData configuration."""

    sd: SchottkyData
    index: list[tuple[int, int]]
    R: np.ndarray
    Delta: np.ndarray

    @property
    def R_tilde(self) -> np.ndarray:
        return self.R @ self.Delta

    def labels(self) -> list[str]:
        return [f"a={a},m={m}" for a, m in self.index]


def build_R(sd: SchottkyData) -> GenusGForms:
    """Two-case moment matrix R_ab(m,n) and the shift Delta at the mode
    cutoff, with the m-th-derivative-over-m-factorial convention."""
    if sd.mode_cutoff < 1:
        raise SewingError("mode_cutoff must be >= 1")
    if not sd.rho:
        raise SewingError("numeric rho parameters required for R")
    axes = sorted(range(-sd.genus, sd.genus + 1), key=lambda a: (abs(a), a))
    axes = [a for a in axes if a != 0]
    index = [(a, m) for a in axes for m in range(sd.mode_cutoff)]
    size = len(index)
    R = np.zeros((size, size), dtype=complex)
    Delta = np.zeros((size, size), dtype=complex)
    sign = (-1) ** sd.p
    for i, (a, m) in enumerate(index):
        for j, (b, n) in enumerate(index):
            if a != -b:
                val = sign * _half_power(sd.rho_a(a), m + 1) * _half_power(
                    sd.rho_a(b), n
                ) * _psi0_deriv(sd, m, n, sd.point(-a), sd.point(b))
            else:
                val = sign * _half_power(sd.rho_a(a), m + n + 1) * _e_mn(
                    sd, m, n, sd.point(-a)
                )
            R[i, j] = val
            if a == b and m == n + 2 * sd.p - 1:
                Delta[i, j] = 1.0
    return GenusGForms(sd=sd, index=index, R=R, Delta=Delta)


def neumann_inverse(forms: GenusGForms, order: int) -> "NeumannResult":
    """sum_{k<=order} R_tilde^k with the first omitted term as the error
    proxy; non-decreasing term norms flag divergence."""
    if order < 0:
        raise SewingError("Neumann order must be >= 0")
    rt = forms.R_tilde
    size = rt.shape[0]
    acc = np.eye(size, dtype=complex)
    term = np.eye(size, dtype=complex)
    norms = [1.0]
    for _ in range(order):
        term = term @ rt
        acc = acc + term
        norms.append(float(np.linalg.norm(term)))
    omitted = float(np.linalg.norm(term @ rt))
    diverging = (
        len(norms) >= 3 and norms[-1] > 1e-14 and norms[-1] >= norms[-2]
    )
    residual = float(np.linalg.norm((np.eye(size) - rt) @ acc - np.eye(size)))
    return NeumannResult(acc, omitted, residual, bool(diverging))


@dataclass
class NeumannResult:
    matrix: np.ndarray
    omitted_term_norm: float
    residual: float
    divergence_flag: bool


def _convergent_neumann(forms: GenusGForms, neumann_order: int | None) -> np.ndarray:
    """(I - R~)^{-1} at the truncation, refused when the series diverges."""
    order = forms.sd.neumann_order if neumann_order is None else neumann_order
    neu = neumann_inverse(forms, order)
    if neu.divergence_flag:
        raise SewingError(
            f"Neumann series for (I - R~)^-1 diverges at order {order} "
            f"(rho {forms.sd.rho}, omitted-term norm {neu.omitted_term_norm:.3g})"
        )
    return neu.matrix


def p_vector(forms: GenusGForms, x) -> np.ndarray:
    sd = forms.sd
    out = np.zeros(len(forms.index), dtype=complex)
    for i, (a, m) in enumerate(forms.index):
        out[i] = _half_power(sd.rho_a(a), m) * _psi0_deriv(sd, 0, m, x, sd.point(a))
    return out


def q_vector(forms: GenusGForms, y) -> np.ndarray:
    sd = forms.sd
    sign = (-1) ** sd.p
    out = np.zeros(len(forms.index), dtype=complex)
    for i, (a, m) in enumerate(forms.index):
        out[i] = sign * _half_power(sd.rho_a(a), m + 1) * _psi0_deriv(
            sd, m, 0, sd.point(-a), y
        )
    return out


def psi_p(forms: GenusGForms, x, y, neumann_order: int | None = None) -> complex:
    """psi_p(x,y) = psi_p^(0)(x,y) + p~(x) (I - R~)^{-1} q(y) at truncation."""
    sd = forms.sd
    for a in range(-sd.genus, sd.genus + 1):
        if a and (to_complex(x) == to_complex(sd.point(a)) or to_complex(y) == to_complex(sd.point(a))):
            raise SewingError("evaluation at a sewing point")
    inverse = _convergent_neumann(forms, neumann_order)
    base = psi0(sd.p, to_complex(x), to_complex(y),
                [sd.f_laurent(ell) for ell in range(2 * sd.p - 1)])
    p_t = p_vector(forms, x) @ forms.Delta
    correction = p_t @ inverse @ q_vector(forms, y)
    return base + complex(correction)


def psi_p_deriv_y(
    forms: GenusGForms, x, y, j: int, neumann_order: int | None = None
) -> complex:
    """Normalized y-derivative d^(0,j) psi_p(x,y): the pole and f parts
    differentiate in closed form and the correction differentiates
    through q(y)."""
    sd = forms.sd
    inverse = _convergent_neumann(forms, neumann_order)
    base = _psi0_deriv(sd, 0, j, x, y)
    dq = np.zeros(len(forms.index), dtype=complex)
    sign = (-1) ** sd.p
    for i, (a, m) in enumerate(forms.index):
        dq[i] = sign * _half_power(sd.rho_a(a), m + 1) * _psi0_deriv(
            sd, m, j, sd.point(-a), y
        )
    p_t = p_vector(forms, x) @ forms.Delta
    return base + complex(p_t @ inverse @ dq)


def chi_vector(forms: GenusGForms, x, neumann_order: int | None = None) -> dict:
    """chi_a(x; l) = rho_a^{-l/2} (p(x) + p~(x)(I-R~)^{-1} R)_a(l)."""
    sd = forms.sd
    inverse = _convergent_neumann(forms, neumann_order)
    vec = p_vector(forms, x)
    combined = vec + (vec @ forms.Delta) @ inverse @ forms.R
    out = {}
    for i, (a, m) in enumerate(forms.index):
        if m <= 2 * sd.p - 2:
            out[(a, m)] = complex(combined[i]) * _half_power(sd.rho_a(a), -m)
    return out


def theta_vector(forms: GenusGForms, a: int, x, neumann_order: int | None = None) -> dict:
    """theta_a(x; l) = chi_a(x;l) + (-1)^p rho_a^{p-1-l} chi_{-a}(x; 2p-2-l)."""
    if a <= 0:
        raise SewingError("theta is indexed by positive handles")
    sd = forms.sd
    chi = chi_vector(forms, x, neumann_order)
    sign = (-1) ** sd.p
    out = {}
    for ell in range(2 * sd.p - 1):
        partner = chi.get((-a, 2 * sd.p - 2 - ell), 0j)
        out[ell] = chi.get((a, ell), 0j) + sign * complex(
            sd.rho_a(a)
        ) ** (sd.p - 1 - ell) * partner
    return out


@dataclass(frozen=True)
class FormValue:
    """A numeric value with its differential-form degrees as metadata."""

    value: complex
    degrees: tuple[tuple[str, object], ...] = ()

    def __complex__(self):
        return complex(self.value)


def big_psi_p(forms: GenusGForms, x, y, neumann_order: int | None = None) -> FormValue:
    return FormValue(psi_p(forms, x, y, neumann_order),
                     (("dx", forms.sd.p), ("dy", 1 - forms.sd.p)))

