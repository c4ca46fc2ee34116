"""Scalar and polynomial arithmetic underlying the toolkit.

Two coefficient carriers run through one polynomial interface: exact
Gaussian rationals (a pair of arbitrary-precision rationals) for
certification work, and complex floats for time-series numerics.  The
time dependence of every evolved quantity in this package is of the form
exp(rate*t) * p(t) with p a polynomial, so that shape gets its own type.
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
    "monomial_product",
]


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binom: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Supports field arithmetic without rounding; int and Fraction operands
    coerce, floats are rejected so the exact path cannot degrade silently.
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

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return GaussianRational(1) / self ** (-exponent)
        out = GaussianRational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GaussianRational.ZERO = GaussianRational(0)
GaussianRational.ONE = GaussianRational(1)
GaussianRational.I = GaussianRational(0, 1)


class Polynomial:
    """Dense univariate polynomial in the time variable.

    coeffs[i] is the coefficient of t**i; trailing zeros are trimmed so the
    representation is canonical.  Coefficients may be any ring scalar that
    supports + and * (complex floats or GaussianRational in practice).
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

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return Polynomial([other * c for c in self.coeffs])

    def __call__(self, t):
        coeffs = self.coeffs
        if isinstance(t, (float, complex)):
            coeffs = tuple(
                complex(c) if isinstance(c, GaussianRational) else c for c in coeffs
            )
        acc = 0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"


class ExpPolynomial:
    """The map t -> exp(rate * t) * poly(t).

    Products add rates and multiply polynomials; sums require equal rates
    (a sum of different exponentials is not of this form).  rate and the
    polynomial coefficients should share a carrier: both exact or both
    floating.
    """

    __slots__ = ("rate", "poly")

    def __init__(self, rate, poly):
        if not isinstance(poly, Polynomial):
            poly = Polynomial([poly])
        self.rate = rate
        self.poly = poly

    @property
    def is_zero(self) -> bool:
        return not self.poly.coeffs

    def __mul__(self, other):
        if isinstance(other, ExpPolynomial):
            return ExpPolynomial(self.rate + other.rate, self.poly * other.poly)
        return ExpPolynomial(self.rate, self.poly * other)

    def __rmul__(self, other):
        return ExpPolynomial(self.rate, other * self.poly)

    def __add__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.rate != other.rate:
            raise ValueError("cannot add ExpPolynomials with different rates")
        return ExpPolynomial(self.rate, self.poly + other.poly)

    __radd__ = __add__

    def __neg__(self):
        return ExpPolynomial(self.rate, -self.poly)

    def __sub__(self, other):
        return self + (-other)

    def derivative(self) -> "ExpPolynomial":
        return ExpPolynomial(self.rate, self.rate * self.poly + self.poly.derivative())

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

    def __hash__(self):
        return hash((self.rate, self.poly))

    def __repr__(self):
        return f"ExpPolynomial({self.rate!r}, {self.poly!r})"


# Powers of the imaginary unit as exact Gaussian rationals.
_I_CYCLE = (
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
)


def monomial_product(a: int, b: int) -> Polynomial:
    """Exact product (-i t)**a * (i t)**b as a Gaussian-rational polynomial.

    These monomials are the building blocks of the ket and bra sides of the
    evolved dyads, so getting their i-power bookkeeping exactly right here
    keeps every downstream cancellation exact.
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    coeff = _I_CYCLE[(a + b) % 4]
    if a % 2:
        coeff = -coeff
    zeros = [GaussianRational(0)] * (a + b)
    return Polynomial(zeros + [coeff])

