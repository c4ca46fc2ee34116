"""Exact scalars and polynomials, and the kernels every module computes with.

Gaussian rationals (a pair of arbitrary-precision rationals) are the
exact output carrier: the entries of exact state operators and the
coefficients of symbolically evolved ones.  The time dependence of every
evolved quantity is exp(rate*t) * p(t) with p a polynomial, so that
shape gets its own type.  Only what the package reads is kept:
construction, comparison, sums and products of scalars, and evaluation.

The kernels run on Gaussian integers (re, im) over one common
denominator, and their readers take those integers as they come: only
the state operators and their symbolic evolution build the objects above
from them, with _over.  Each kernel is defined here once for every
module: _lift, _gmul, _turn, _exact_at, _horner, _exp_decay and
_exp_exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "Polynomial",
    "ExpPolynomial",
    "binom",
]


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binom: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _lift(pairs) -> tuple:
    """Gaussian rationals (re, im) as Gaussian integers over one common denominator."""
    den = math.lcm(*(q.denominator for pair in pairs for q in pair))
    return [tuple(q.numerator * (den // q.denominator) for q in pair) for pair in pairs], den


def _gmul(a, b) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _turn(a, q: int) -> tuple:
    """a * i**q."""
    re, im = a
    return ((re, im), (-im, re), (-re, -im), (im, -re))[q % 4]


def _exact_at(coeffs, t: float) -> tuple:
    """(re, im, scale) with sum_d coeffs[d] t**d = (re + i im) / scale exactly
    at the float t, for Gaussian integers coeffs (re, im), lowest first."""
    num, scale_step = float(t).as_integer_ratio()
    re, im = coeffs[-1]
    scale = 1
    for cr, ci in reversed(coeffs[:-1]):
        scale *= scale_step
        re = re * num + cr * scale
        im = im * num + ci * scale
    return re, im, scale


def _horner(coeffs, t):
    """sum_d coeffs[d] t**d by Horner's rule, lowest power first; 0 for
    no coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _exp_exact(re: Fraction, im: Fraction) -> complex:
    """exp(re + i im) for exact rationals: the float value of each part
    plus its first-order remainder, so large arguments lose no digits."""
    hi_re, hi_im = float(re), float(im)
    lo_re, lo_im = float(re - Fraction(hi_re)), float(im - Fraction(hi_im))
    return cmath.exp(complex(hi_re, hi_im)) * complex(1.0 + lo_re, lo_im)


def _exp_decay(width: float, t: float) -> float:
    """exp(-width t) from the exact product: width t = hi + lo with hi the
    rounded float product and lo its exact remainder, below half an ulp of
    hi, so exp(-hi - lo) = e - e lo with e = exp(-hi) to far below an ulp."""
    hi = width * t
    e = math.exp(-hi)
    if not e:
        # nothing to correct, and an infinite hi has no integer ratio
        return e
    a, b = width.as_integer_ratio()
    c, d = float(t).as_integer_ratio()
    p, q = hi.as_integer_ratio()
    lo = (a * c * q - p * b * d) / (b * d * q)
    return e - e * lo


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Sums and products do not round; int and Fraction operands coerce,
    floats are rejected so the exact path cannot degrade silently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _over(re: int, im: int, den: int) -> GaussianRational:
    """The Gaussian integer re + i im over the int den."""
    return GaussianRational(Fraction(re, den), Fraction(im, den))


class Polynomial:
    """Dense univariate polynomial in the time variable.

    coeffs[i] is the coefficient of t**i; trailing zeros are trimmed so the
    representation is canonical.  Coefficients may be any ring scalar that
    supports + and * (GaussianRational in practice).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        if i < 0:
            raise ValueError("coefficient index must be nonnegative")
        if i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def __call__(self, t):
        coeffs = self.coeffs
        if isinstance(t, (float, complex)):
            coeffs = [complex(c) if isinstance(c, GaussianRational) else c for c in coeffs]
        return _horner(coeffs, t)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"


class ExpPolynomial:
    """The map t -> exp(rate * t) * poly(t)."""

    __slots__ = ("rate", "poly")

    def __init__(self, rate, poly: Polynomial):
        self.rate = rate
        self.poly = poly

    @property
    def is_zero(self) -> bool:
        return not self.poly.coeffs

    def __call__(self, t) -> complex:
        value = self.poly(t)
        if isinstance(value, GaussianRational):
            value = complex(value)
        return cmath.exp(complex(self.rate) * t) * value

    def __eq__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.rate == other.rate and self.poly == other.poly

    def __repr__(self):
        return f"ExpPolynomial({self.rate!r}, {self.poly!r})"

