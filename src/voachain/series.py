"""Truncated formal series with explicit validity ranges.

A :class:`TruncatedSeries` is a Laurent-type series in a single named
variable where exponents at or beyond ``truncation`` are *unknown* rather
than zero.  Every arithmetic operation propagates the truncation so a
result never claims coefficients it cannot know.  Coefficients are exact
by default: plain integers, :class:`fractions.Fraction`, or
:class:`ExactComplex` (Gaussian rationals).  Float and ``complex``
coefficients live only in the numeric evaluators of
:mod:`voachain.elliptic`; every point and every value elsewhere is exact.

Coefficients may themselves be TruncatedSeries in another variable; that
nesting is how the multi-handle series of a sewn surface are represented.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping, Union


class _Record:
    """Base of the package's records: plain ``__slots__`` classes whose
    fields are the names in ``__slots__``, in order.

    Equality compares the fields, and only against a record of the same
    class.  The repr is ``Name(field=value, ...)``, and :meth:`_replace`
    copies a record with some fields changed, through its constructor.
    A record is mutable and unhashable; a :class:`_FrozenRecord` is
    hashable and refuses assignment.  Each subclass writes its own
    ``__init__`` with its signature, defaults and checks, and stores its
    fields with :meth:`_set_fields` (or ``object.__setattr__``, where
    records are built in loops).  The records are written out rather
    than generated at import: a class generator that imports ``inspect``
    and runs an ``exec`` per class would cost more than half of what
    importing the CLI takes.
    """

    __slots__ = ()

    def _set_fields(self, *fields):
        # the fields in __slots__ order, frozen or not
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def _replace(self, **changes):
        fields = {name: getattr(self, name) for name in self.__slots__}
        return self.__class__(**{**fields, **changes})


class _FrozenRecord(_Record):
    """A :class:`_Record` that is hashed by its fields and whose fields
    cannot be assigned or deleted after ``__init__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class ExactComplex:
    """Gaussian rational: re + im*i with Fraction components.

    Closed under +, -, *, and division by a nonzero ExactComplex.  Mixes
    freely with int and Fraction; mixing with float/complex must go
    through :func:`to_complex` explicitly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return _gaussian(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gaussian(self.re * other, self.im * other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return _gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero ExactComplex")
        return _gaussian(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _as_exact(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"

    def __str__(self):
        # re±imj, as cli.parse_scalar reads it back
        sign = "-" if self.im < 0 else "+"
        return f"{_frac_str(self.re)}{sign}{_frac_str(abs(self.im))}j"


class _GaussInt:
    """A Gaussian integer re + im*i with int parts, the ring of the sums
    where an ExactComplex enters: +, - and * (with one another or an int)
    and a truth value.  :func:`_split` and :func:`_lower` convert."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        if other.__class__ is _GaussInt:
            return _GaussInt(self.re + other.re, self.im + other.im)
        return _GaussInt(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is _GaussInt:
            return _GaussInt(self.re - other.re, self.im - other.im)
        return _GaussInt(self.re - other, self.im)

    def __rsub__(self, other):
        return _GaussInt(other - self.re, -self.im)

    def __mul__(self, other):
        if other.__class__ is _GaussInt:
            a, b, c, d = self.re, self.im, other.re, other.im
            return _GaussInt(a * c - b * d, a * d + b * c)
        return _GaussInt(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)


def _split(x) -> tuple:
    """An exact scalar as (ring numerator, positive int denominator); any
    other scalar is refused, a SeriesError."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, ExactComplex):
        den = math.lcm(x.re.denominator, x.im.denominator)
        return _GaussInt(x.re.numerator * (den // x.re.denominator),
                         x.im.numerator * (den // x.im.denominator)), den
    raise SeriesError(f"{x!r} is not exact: give an int, a Fraction or an ExactComplex")


def _reciprocal(num) -> tuple:
    """1/num for a nonzero ring element as (ring numerator, positive int
    denominator): conj(N) / |N|^2 for a Gaussian integer N."""
    if num.__class__ is _GaussInt:
        return _GaussInt(num.re, -num.im), num.re * num.re + num.im * num.im
    return (1, num) if num > 0 else (-1, -num)


def _lower(num, den, gaussian: bool):
    """num / den for a ring element num and den a positive int: an
    ExactComplex when ``gaussian``, else a Fraction (num must then be
    real)."""
    re, im = (num.re, num.im) if num.__class__ is _GaussInt else (num, 0)
    if gaussian:
        return _gaussian(Fraction(re, den), Fraction(im, den))
    if im:
        raise ValueError(f"({re} + {im}i)/{den} is not real")
    return Fraction(re, den)


def _gaussian(re: Fraction, im: Fraction) -> ExactComplex:
    # an ExactComplex from two Fractions, which need no conversion
    z = object.__new__(ExactComplex)
    z.re, z.im = re, im
    return z


def _as_exact(x):
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x)
    return NotImplemented


# float and complex scalars live only in elliptic's numeric evaluators
Scalar = Union[int, Fraction, ExactComplex, complex, float]


def to_complex(x) -> complex:
    """Numeric value of any scalar, collapsing exact types to complex."""
    return complex(x)


def points_coincide(points) -> bool:
    """Whether two of the points are one point.

    Every point is exact (an int, a Fraction or an ExactComplex) and
    compared exactly, so points that differ are told apart however close
    or large they are; equal values of different types (5, Fraction(5),
    ExactComplex(5)) are one point.  Any other point, a float or a
    complex among them, is refused: a SeriesError.
    """
    for z in points:
        if not isinstance(z, (int, Fraction, ExactComplex)):
            raise SeriesError(f"point {z!r} is not exact: give an int, a Fraction "
                              "or an ExactComplex")
    # the three compare and hash exactly across types
    return len(set(points)) != len(points)


def scalar_abs(x) -> float:
    """|x| as a float, or of a series its largest coefficient's: inf
    where an exact value is past the float range."""
    if isinstance(x, TruncatedSeries):
        return x.max_abs()
    try:
        return abs(to_complex(x))
    except OverflowError:
        return math.inf


def scalar_is_zero(x) -> bool:
    if isinstance(x, TruncatedSeries):
        return all(scalar_is_zero(c) for c in x.coefficients.values())
    return x == 0


class SeriesError(ValueError):
    """Rejected input: tag mismatch, singular inversion, and the like."""


class TruncatedSeries:
    """Formal series sum_{e} c_e * var^e known on [min_exponent, truncation).

    ``coefficients`` maps exponent to scalar; absent exponents inside the
    validity range are exactly zero.  Instances are immutable in use: all
    operations return new series.
    """

    __slots__ = ("variable", "coefficients", "truncation", "min_exponent")

    def __init__(
        self,
        variable: str,
        coefficients: Mapping[int, Scalar],
        truncation: int,
        min_exponent: int | None = None,
    ):
        # exponents at or past the truncation are unknown by definition;
        # supplying them is a no-op rather than an error
        coeffs = {
            int(e): c
            for e, c in coefficients.items()
            if e < truncation and not scalar_is_zero(c)
        }
        if min_exponent is None:
            min_exponent = min(coeffs, default=0)
            min_exponent = min(min_exponent, 0)
        bad = [e for e in coeffs if e < min_exponent]
        if bad:
            raise SeriesError(
                f"exponents {sorted(bad)} below declared min_exponent "
                f"{min_exponent}"
            )
        self.variable = variable
        self.coefficients = coeffs
        self.truncation = int(truncation)
        self.min_exponent = int(min_exponent)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variable: str, value: Scalar, truncation: int) -> "TruncatedSeries":
        return cls(variable, {0: value} if not scalar_is_zero(value) else {}, truncation, min_exponent=0)

    @classmethod
    def zero(cls, variable: str, truncation: int) -> "TruncatedSeries":
        return cls(variable, {}, truncation, min_exponent=0)

    # -- helpers ------------------------------------------------------

    def coefficient(self, exponent: int) -> Scalar:
        if exponent >= self.truncation:
            raise SeriesError(
                f"coefficient at {self.variable}^{exponent} is beyond "
                f"truncation {self.truncation}"
            )
        return self.coefficients.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self.coefficients

    def max_abs(self) -> float:
        return max((scalar_abs(c) for c in self.coefficients.values()), default=0.0)

    def _check_tag(self, other: "TruncatedSeries"):
        if self.variable != other.variable:
            raise SeriesError(
                f"variable mismatch: {self.variable!r} vs {other.variable!r}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            coeffs = {0: other} if (not scalar_is_zero(other) and self.truncation > 0) else {}
            other = TruncatedSeries(self.variable, coeffs, self.truncation, min(0, self.min_exponent))
        self._check_tag(other)
        trunc = min(self.truncation, other.truncation)
        coeffs = dict(self.coefficients)
        for e, c in other.coefficients.items():
            coeffs[e] = coeffs.get(e, 0) + c
        coeffs = {e: c for e, c in coeffs.items() if e < trunc}
        return TruncatedSeries(
            self.variable, coeffs, trunc, min(self.min_exponent, other.min_exponent)
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.variable,
            {e: -c for e, c in self.coefficients.items()},
            self.truncation,
            self.min_exponent,
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.variable, other, self.truncation)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            # scalar multiple keeps the validity range
            return TruncatedSeries(
                self.variable,
                {e: c * other for e, c in self.coefficients.items()},
                self.truncation,
                self.min_exponent,
            )
        self._check_tag(other)
        # Cauchy product; unknown tails limit the result through the
        # partner's lowest possible exponent.
        trunc = min(
            self.truncation + other.min_exponent,
            other.truncation + self.min_exponent,
        )
        coeffs: dict[int, Scalar] = {}
        for e1, c1 in self.coefficients.items():
            for e2, c2 in other.coefficients.items():
                e = e1 + e2
                if e < trunc:
                    coeffs[e] = coeffs.get(e, 0) + c1 * c2
        return TruncatedSeries(
            self.variable, coeffs, trunc, self.min_exponent + other.min_exponent
        )

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to truncation.

        Requires a nonzero coefficient at the lowest known exponent;
        otherwise the leading behaviour is unknown and inversion is
        refused as singular.
        """
        if self.is_zero():
            raise SeriesError("cannot invert the zero series")
        low = min(self.coefficients)
        lead = self.coefficients[low]
        n_terms = self.truncation - low
        # a = lead * x^low * (1 + u); 1/a = lead^-1 x^-low sum (-u)^k
        lead_inv = _scalar_invert(lead)
        u = {
            e - low: c * lead_inv for e, c in self.coefficients.items() if e != low
        }
        # accumulate geometric series of -u to n_terms
        result = {0: 1}
        power = {0: 1}
        for _ in range(1, n_terms):
            new_power: dict[int, Scalar] = {}
            for e1, c1 in power.items():
                for e2, c2 in u.items():
                    e = e1 + e2
                    if e < n_terms:
                        new_power[e] = new_power.get(e, 0) - c1 * c2
            power = new_power
            if not power:
                break
            for e, c in power.items():
                result[e] = result.get(e, 0) + c
        coeffs = {e - low: c * lead_inv for e, c in result.items()}
        return TruncatedSeries(self.variable, coeffs, self.truncation - 2 * low, -low)

    def differentiate(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.variable,
            {e - 1: c * e for e, c in self.coefficients.items() if e != 0},
            self.truncation - 1,
            self.min_exponent - 1,
        )

    def evaluate(self, value: Scalar) -> Scalar:
        """Sum the known terms at a concrete value of the variable."""
        total = 0
        for e, c in sorted(self.coefficients.items()):
            total = total + c * _int_power(value, e)
        return total

    # -- comparison ----------------------------------------------------

    def compare(self, other: "TruncatedSeries") -> "SeriesComparison":
        """Max absolute coefficient deviation over the shared known range,
        and whether every difference there is exactly 0.  An inner block
        that shares no known range with its counterpart is refused: it
        compares nothing."""
        self._check_tag(other)
        lo = max(self.min_exponent, other.min_exponent)
        hi = min(self.truncation, other.truncation)
        if lo >= hi:
            return SeriesComparison(float("nan"), lo, hi, comparable=False, vanishes=False)
        dev, vanishes = 0.0, True
        for e in range(lo, hi):
            a = self.coefficients.get(e, 0)
            b = other.coefficients.get(e, 0)
            if isinstance(a, TruncatedSeries) or isinstance(b, TruncatedSeries):
                if not isinstance(a, TruncatedSeries):
                    a = TruncatedSeries.constant(b.variable, a, b.truncation)
                if not isinstance(b, TruncatedSeries):
                    b = TruncatedSeries.constant(a.variable, b, a.truncation)
                inner = a.compare(b)
                if not inner.comparable:
                    raise SeriesError(
                        f"the {self.variable}^{e} blocks share no known range: "
                        f"{a.known_range()} and {b.known_range()}")
                dev = max(dev, inner.deviation)
                vanishes = vanishes and inner.vanishes
            else:
                diff = a - b
                dev = max(dev, scalar_abs(diff))
                vanishes = vanishes and scalar_is_zero(diff)
        return SeriesComparison(dev, lo, hi, comparable=True, vanishes=vanishes)

    def known_range(self) -> str:
        """The exponents known, as ``var^[low, high)``."""
        return f"{self.variable}^[{self.min_exponent}, {self.truncation})"

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.truncation == other.truncation
            and self.min_exponent == other.min_exponent
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(
            (self.variable, self.truncation, tuple(sorted(self.coefficients)))
        )

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = []
        for e in sorted(self.coefficients):
            c = self.coefficients[e]
            if isinstance(c, TruncatedSeries):
                coeffs.append([e, c.to_json_dict()])
            else:
                coeffs.append([e, *_scalar_json_parts(c)])
        return {
            "variable": self.variable,
            "min_exponent": self.min_exponent,
            "truncation": self.truncation,
            "coeffs": coeffs,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        coeffs = {}
        for entry in data["coeffs"]:
            if len(entry) == 2 and isinstance(entry[1], dict):
                coeffs[entry[0]] = cls.from_json_dict(entry[1])
            else:
                e, re, im = entry
                coeffs[e] = _scalar_from_json_parts(re, im)
        return cls(
            data["variable"], coeffs, data["truncation"], data["min_exponent"]
        )

    def __repr__(self):
        if not self.coefficients:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coefficients):
                c = self.coefficients[e]
                if e == 0:
                    parts.append(f"{c!r}" if isinstance(c, TruncatedSeries) else f"{c}")
                else:
                    parts.append(f"({c})*{self.variable}^{e}")
            body = " + ".join(parts)
        return f"<{body} + O({self.variable}^{self.truncation})>"


class SeriesComparison:
    """Outcome of :meth:`TruncatedSeries.compare`."""

    __slots__ = ("deviation", "low", "high", "comparable", "vanishes")

    def __init__(self, deviation: float, low: int, high: int, comparable: bool,
                 vanishes: bool):
        self.deviation = deviation
        self.low = low
        self.high = high
        self.comparable = comparable
        # exact: a deviation reads 0.0 below about 1e-308, a verdict does not
        self.vanishes = vanishes

    def __repr__(self):
        if not self.comparable:
            return "<incomparable: empty shared range>"
        return f"<deviation {self.deviation} on [{self.low}, {self.high})>"


def _scalar_invert(c):
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, ExactComplex):
        return ExactComplex(1) / c
    if isinstance(c, TruncatedSeries):
        return c.invert()
    return 1.0 / c


def _int_power(base, k: int):
    if k == 0:
        return 1
    if isinstance(base, (int, Fraction)):
        # native powers; a negative power of an int must stay exact
        return Fraction(base) ** k if k < 0 else base ** k
    if k > 0:
        # repeated products keep float and complex results bit-identical
        out = 1
        for _ in range(k):
            out = out * base
        return out
    return _scalar_invert(_int_power(base, -k))


def _int_str(n: int) -> str:
    """The decimal digits of n, however many: str(n) refuses more than
    sys.get_int_max_str_digits(), so a longer n is split in halves."""
    limit = sys.get_int_max_str_digits()
    # bit_length * log10(2) + 1 bounds the number of digits from above
    if not limit or n.bit_length() * 0.30103 + 1 < limit:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**half)
    return _int_str(high) + _int_str(low).zfill(half)


def _frac_str(f: Fraction) -> str:
    num = _int_str(f.numerator)
    return f"{num}/{_int_str(f.denominator)}" if f.denominator != 1 else num


def _parse_int(text: str) -> int:
    """The int whose decimal digits are text, the inverse of
    :func:`_int_str`: int() refuses more than sys.get_int_max_str_digits()
    digits, so a longer string is split in halves."""
    limit = sys.get_int_max_str_digits()
    digits = text.lstrip("-")
    if not limit or len(digits) <= limit:
        return int(text)
    if text.startswith("-"):
        return -_parse_int(digits)
    half = len(digits) // 2
    return _parse_int(digits[:-half]) * 10**half + _parse_int(digits[-half:])


def _parse_frac(text: str) -> Fraction:
    """The inverse of :func:`_frac_str`."""
    num, _, den = text.partition("/")
    return Fraction(_parse_int(num), _parse_int(den) if den else 1)


def _scalar_json_parts(c):
    if isinstance(c, (int, Fraction)):
        return [_frac_str(Fraction(c)), "0"]
    if isinstance(c, ExactComplex):
        return [_frac_str(c.re), _frac_str(c.im)]
    z = complex(c)
    return [z.real, z.imag]


def _scalar_from_json_parts(re, im):
    if isinstance(re, str):
        re_f, im_f = _parse_frac(re), _parse_frac(im)
        if im_f == 0:
            return re_f
        return ExactComplex(re_f, im_f)
    if im == 0:
        return float(re)
    return complex(re, im)
