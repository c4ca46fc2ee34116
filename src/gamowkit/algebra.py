"""Exact arithmetic kernels, each defined here once for every module.

The kernels run on Gaussian integers (re, im) over one int denominator,
the format of every exact quantity of the package: _lift, _gmul, _turn,
_convolve, _exact_at, _horner, _exp_exact, and the one reading of
exp(-Gamma t) times an exact value: _exp_decay returns the factor as
mantissa and exponent, _scaled rounds an exact quotient or its square
root once, scaled by a power of two, _exact_reading so rounds |P(t)|**2
over a denominator from the exact P(t), and _ldexp applies the carried
exponents.  _check_times rejects the times that have no such value, and
_ket_row holds the ket weights w(k, p) of the semigroup T(t).

Ball series (coeffs, e, rad) are Gaussian integers over a power of two,
each part within rad of the exact one (van der Hoeven's ball arithmetic):
_trim, _ball_quotient, _ball_product, _ball_aligned and _ball_chain
build them; every radius of smatrix's ball jets comes from these five,
each checked alone against exact Fractions, or is an exact int multiple
of one.  _rounded_part rounds a part where both ends of its ball agree.
_horner_bounds reads a ball polynomial at every t of a grid by one
fixed-point Horner pass, into a small interval, and _fixed_readings
rounds |P(t)|**2 over a denominator off that interval by two int
divisions, where both ends round to one float (Ziv's test): there it is
_exact_reading's value.

_Frozen is the base of the package's immutable value classes (the pole,
its subspace, the S-matrix model and its parts, the state operator).

No package path uses the classes GaussianRational, Polynomial and
ExpPolynomial.  They stay only because the benchmark times them for its
algebra.gr_*_ns and algebra.poly_*_us metrics, until those metrics time
the kernels instead.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import NegativeTimeError

__all__ = [
    "GaussianRational",
    "Polynomial",
    "ExpPolynomial",
    "binom",
]


class _Frozen:
    """Base of the immutable value classes of the package: each __init__
    stores its fields, named in __slots__, with self._set(name, value), and
    a later assignment or deletion of a field raises AttributeError."""

    __slots__ = ()
    _set = object.__setattr__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 for k outside 0..n."""
    if n < 0:
        raise ValueError(f"binom: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _ket_row(derivative: bool, k: int) -> tuple:
    """(row, lift) with row[p] / lift = w(k, p) for p <= k, the weight of |p>
    in T(t)|k> = exp(-i z t) sum_p w(k, p) (-i t)**(k-p) |p>: the ints
    binom(k, p) over 1 (derivative normalization), or perm(k, p) = k! /
    (k-p)! over k!, that is 1 / (k-p)! (factorial normalization)."""
    weight = math.comb if derivative else math.perm
    return [weight(k, p) for p in range(k + 1)], 1 if derivative else math.factorial(k)


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


def _convolve(a, b, order: int) -> list:
    """The first order coefficients of the product of the series a and b of
    Gaussian integers (re, im), lowest first; both have >= order terms."""
    out = []
    for k in range(order):
        re = im = 0
        for j in range(k + 1):
            (ar, ai), (br, bi) = a[k - j], b[j]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out.append((re, im))
    return out


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


# ln 2 to 128 bits, over 2**128: for k < 2**17 the error of k ln 2 is below
# 2**-111.  Beyond 2**17 ln 2, exp(-x) < 2**-131072 reads every product as 0:
# the values it scales stay far below 2**130000 (norms below 2**34000).
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
_EXP_CUTOFF = 2**17 * math.log(2)


# Veltkamp's splitter: c a - (c a - a) keeps the high 26 bits of a float a.
_SPLITTER = 2.0**27 + 1


def _exp_decay(width: float, t: float) -> tuple:
    """(m, e), m in [1/2, 1), with exp(-x) = m 2**e for the exact product x
    of the floats width and t; (0.0, 0) beyond _EXP_CUTOFF.  Up to 700, x
    is split as hi + lo, hi the rounded float product and lo its exact
    remainder, so exp(-x) = f - f lo with f = exp(-hi) to far below an ulp;
    above, the exact x - k ln 2 is split alike and 2**-k carried.

    lo is a float.  Where hi > 2**-960 and both factors are below 2**990,
    Dekker's product of the Veltkamp halves of width and t gives it in
    floats: no split overflows, and every partial product is a multiple
    of 2**-1065, so none rounds.  Elsewhere (t = 0, hi > 700, products
    near or below the subnormals, huge factors) it is the exact rational
    remainder, rounded once, which is the same float where both apply."""
    hi, k = width * t, 0
    if 2.0**-960 < hi <= 700 and width < 2.0**990 and t < 2.0**990:
        c, d = _SPLITTER * width, _SPLITTER * t
        a1, b1 = c - (c - width), d - (d - t)
        a2, b2 = width - a1, t - b1
        lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    else:
        if not hi <= _EXP_CUTOFF:
            return 0.0, 0
        (a, b), (c, d) = width.as_integer_ratio(), float(t).as_integer_ratio()
        num, den = a * c, b * d
        if hi > 700:
            k = ((num << 129) + den * _LN2) // (2 * den * _LN2)  # round(x / ln 2)
            num, den = (num << 128) - k * _LN2 * den, den << 128
            hi = num / den
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)
    f = math.exp(-hi)
    m, e = math.frexp(f - f * lo)
    return m, e - k


def _quotient(nums, den: int, k: int) -> list:
    """[num / (den 2**k)] for ints num >= 0 and den > 0, each rounded once."""
    up, den = max(-k, 0), den << max(k, 0)
    return [(num << up) / den for num in nums]


def _scaled(num: int, den: int, root: bool = False) -> tuple:
    """(m, k) with m 2**k = num / den, or its square root, for ints num >= 0
    and den > 0, m rounded once; k from the bit lengths keeps m in [1/2, 2),
    so m rounds like the unscaled value wherever that is a normal float (a
    value just below 2 that rounds up to it reads as 1 and k + 1).  The
    root is taken in integers to 64 bits, with a sticky last bit where
    inexact, so it too is correctly rounded."""
    if not root:
        k = num.bit_length() - den.bit_length()
        (m,) = _quotient([num], den, k)
    else:
        k = (num.bit_length() - den.bit_length()) // 2
        shift = 128 - 2 * k
        q, rest = divmod(num << max(shift, 0), den << max(-shift, 0))
        s = math.isqrt(q)
        m = math.ldexp(s | (rest > 0 or s * s != q), -64)
    return (m, k) if m < 2 else (1.0, k + 1)


def _horner_bounds(lows, width: int, scale: int, times) -> list:
    """[(re, im, B)] at each float t >= 0 of times: each part of
    P(t 2**scale) 2**-s lies in [re, re + B] and [im, im + B], for P whose
    coefficients c_d have parts lows[d] <= c_d 2**-s <= lows[d] + width.

    One fixed-point Horner pass per t: with t 2**scale = num / 2**e, acc =
    (acc num >> e) + lows[d], and B = (width + f) n ceil(t 2**scale)**(n-1)
    for n coefficients, f = 1 where e > 0 floors: each step multiplies the
    error by t 2**scale and adds at most width and a floor below 1.  At
    t = 0 the pass is lows[0] itself, and B = width."""
    n, last, rest = len(lows), lows[-1], lows[-2::-1]
    out = []
    for t in times:
        num, step = float(t).as_integer_ratio()
        e = step.bit_length() - 1 - scale
        if not num:
            out.append((*lows[0], width))
            continue
        re, im = last
        if e > 0:
            for cr, ci in rest:
                re, im = (re * num >> e) + cr, (im * num >> e) + ci
            top = -(-num >> e)
        else:
            num <<= -e
            for cr, ci in rest:
                re, im = re * num + cr, im * num + ci
            top = num
        out.append((re, im, (width + (e > 0)) * n * top ** (n - 1)))
    return out


def _fixed_readings(lows, width: int, den_low: int, den_high: int, scale: int, times) -> list:
    """[(m, k) or None] at each t of times: _scaled(|P(t 2**scale)|**2, den)
    where Ziv's test decides it, and None elsewhere, for P as
    _horner_bounds reads it and den_low <= den <= den_high, both in the
    units of P squared.  The ends of the interval that |P|**2 / den then
    lies in are two int true divisions (_rounded_between); where they
    round to one float, so does the quotient, as rounding is monotone."""
    return [_rounded_between(*_norm_bounds(re, im, bound), den_low, den_high)
            for re, im, bound in _horner_bounds(lows, width, scale, times)]


def _norm_bounds(re: int, im: int, width: int) -> tuple:
    """(low, high), the least and the largest x**2 + y**2 over x in
    [re, re + width] and y in [im, im + width]."""
    low = high = 0
    for part in (re, im):
        end = part + width
        if part >= 0:
            low, high = low + part * part, high + end * end
        elif end <= 0:
            low, high = low + end * end, high + part * part
        else:
            high += max(part * part, end * end)
    return low, high


def _exact_reading(coeffs, den: int, t: float) -> tuple:
    """_scaled(|P(t)|**2, den) from the exact value of P(t), the reading
    _fixed_readings gives where it decides one."""
    re, im, scale = _exact_at(coeffs, t)
    return _scaled(re * re + im * im, den * scale * scale)


def _rounded_between(low: int, high: int, den_low: int, den_high: int):
    """(m, k) as _scaled(num, den) gives it for every quotient
    low / den_high <= num / den <= high / den_low, or None where the two
    ends round to different floats (Ziv's test)."""
    k = low.bit_length() - den_high.bit_length()
    up, down = max(-k, 0), max(k, 0)
    m = (low << up) / (den_high << down)
    try:
        return (m, k) if m == (high << up) / (den_low << down) else None
    except OverflowError:
        # an interval so wide that its high end, so scaled, leaves the floats
        return None


def _check_times(times, what: str) -> None:
    """NegativeTimeError for a t of times that is negative or nan, where
    what is not defined, and OverflowError naming what and t for t = inf,
    where exp(-Gamma t) times a polynomial in t has no float value."""
    for t in times:
        if not t >= 0:
            raise NegativeTimeError(f"{what} is defined for t >= 0, got {t}")
        if t == math.inf:
            raise OverflowError(f"{what} leaves the float range at t = {t!r}")


def _ldexp(values, exponents, what: str, times) -> list:
    """[v 2**x] with each carried exponent applied once; OverflowError
    naming what and the first t whose value leaves the float range
    (ldexp(inf, x) itself does not raise)."""
    try:
        out = list(map(math.ldexp, values, exponents))
        if math.inf not in out:
            return out
    except OverflowError:
        pass
    for v, x, t in zip(values, exponents, times):
        if v == math.inf or v and math.frexp(v)[1] + x > 1024:
            raise OverflowError(f"{what} leaves the float range at t = {t!r}")


# ------------------------------------------------------------ balls
#
# A ball series (coeffs, e, rad) holds Gaussian integers (re, im) over one
# power of two, each within a radius: each part of the exact coefficient d
# lies in 2**e [c - rad, c + rad] for the same part c of coeffs[d].  A
# scalar is a series of one term.


def _trim(coeffs, e: int, rad: int, p: int) -> tuple:
    """The ball series (coeffs, e, rad) with its largest part cut to p bits
    by a floor shift, which moves every centre by less than 1 unit."""
    drop = max(max(abs(re), abs(im)) for re, im in coeffs).bit_length() - p
    if drop <= 0:
        return coeffs, e, rad
    return [(re >> drop, im >> drop) for re, im in coeffs], e + drop, (rad >> drop) + 2


def _ball_quotient(num, den: int, e: int, p: int) -> tuple:
    """The scalar num 2**e / den to p bits, num a Gaussian integer, den > 0."""
    shift = p + den.bit_length() - max(abs(num[0]), abs(num[1])).bit_length()
    if shift >= 0:
        return [((num[0] << shift) // den, (num[1] << shift) // den)], e - shift, 1
    # floor(floor(x) / den) = floor(x / den), so radius 1 holds here too
    return [((num[0] >> -shift) // den, (num[1] >> -shift) // den)], e - shift, 1


def _ball_product(a, b, order: int, p: int) -> tuple:
    """The first order terms of the product of the ball series a and b, each
    of at least order terms, to p bits.  Each part of a term of the exact
    product is off the centre by at most order (|a| rb + |b| ra + 2 ra rb),
    |x| the largest |re| + |im| of x's centres."""
    (ca, ea, ra), (cb, eb, rb) = a, b
    size_a = max(abs(re) + abs(im) for re, im in ca)
    size_b = max(abs(re) + abs(im) for re, im in cb)
    rad = order * (size_a * rb + size_b * ra + 2 * ra * rb)
    return _trim(_convolve(ca, cb, order), ea + eb, rad, p)


def _ball_chain(first, ratio, factors, p: int) -> tuple:
    """The ball series t_0 = first, t_k = t_(k-1) ratio num_k / den_k, for
    scalar balls first and ratio and int pairs (num_k >= 0, den_k > 0) of
    factors, every t_k at first's exponent, with the widest of their radii.
    The ratio is cut to 2**-p; each step floors t_(k-1) ratio, off by at
    most |t| r_ratio + |ratio| r_t + 2 r_t r_ratio, to that exponent, then
    its product by num_k over den_k, each floor (and the cut) moving a
    centre by less than 1 unit."""
    ([(cr, ci)], e, rad), ([(zr, zi)], shift, z_rad) = first, ratio
    shift += p
    if shift >= 0:
        zr, zi, z_rad = zr << shift, zi << shift, z_rad << shift
    else:
        zr, zi, z_rad = zr >> -shift, zi >> -shift, (z_rad >> -shift) + 2
    z_size = abs(zr) + abs(zi)
    coeffs, widest = [(cr, ci)], rad
    for num, den in factors:
        rad = (((abs(cr) + abs(ci)) * z_rad + z_size * rad + 2 * rad * z_rad) >> p) + 2
        cr, ci = (cr * zr - ci * zi) >> p, (cr * zi + ci * zr) >> p
        cr, ci, rad = cr * num // den, ci * num // den, rad * num // den + 2
        coeffs.append((cr, ci))
        # the terms may fall with k, and their radii with them
        widest = max(widest, rad)
    return coeffs, e, widest


def _ball_aligned(series) -> list:
    """The ball series of the list, all at the largest exponent among them,
    each shift a floor with its radius raised to cover it."""
    top = max(e for _, e, _ in series)
    out = []
    for coeffs, e, rad in series:
        drop = top - e
        if drop:
            coeffs, rad = [(re >> drop, im >> drop) for re, im in coeffs], (rad >> drop) + 2
        out.append((coeffs, top, rad))
    return out


def _rounded_part(c: int, rad: int, e: int, den: int):
    """float(x) for every x in 2**e [c - rad, c + rad] / den, den > 0, when
    both ends round to one float, sign of zero included; math.inf or -inf
    when both overflow; None elsewhere (Ziv's test)."""
    ends = []
    for end in (c - rad, c + rad):
        try:
            ends.append((end << e) / den if e >= 0 else end / (den << -e))
        except OverflowError:
            ends.append(math.inf if end > 0 else -math.inf)
    low, high = ends
    if low == high and math.copysign(1.0, low) == math.copysign(1.0, high):
        return low
    return None


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

