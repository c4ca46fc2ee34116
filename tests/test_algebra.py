"""Tests for the exact scalar and polynomial layer."""

import cmath
import math
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit import algebra
from gamowkit.algebra import (
    _EXP_CUTOFF,
    _LN2,
    ExpPolynomial,
    GaussianRational,
    Polynomial,
    _ball_aligned,
    _ball_product,
    _ball_quotient,
    _convolve,
    _exact_at,
    _exp_decay,
    _ldexp,
    _quotient,
    _quotients_at,
    _scaled,
    _trim,
    binom,
)

from expansion import gmul, monomial_product

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=64)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
gaussian_polys = st.lists(gaussians, max_size=5).map(Polynomial)


class TestGaussianRational:
    def test_parts_are_fractions(self):
        x = GaussianRational(Fraction(1, 3), 2)
        assert x.re == Fraction(1, 3)
        assert x.im == Fraction(2)
        assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)

    def test_float_operand_is_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(1) + 0.5
        with pytest.raises(TypeError):
            0.5 * GaussianRational(1)

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_complex_conversion_and_abs(self):
        x = GaussianRational(3, 4)
        assert complex(x) == complex(3.0, 4.0)
        assert abs(complex(x)) == 5.0


class TestBinom:
    def test_row_five(self):
        assert [binom(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]

    def test_outside_range_is_zero(self):
        assert binom(4, -1) == 0
        assert binom(4, 5) == 0
        assert binom(0, 0) == 1

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            binom(-1, 0)

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=41))
    def test_pascal_identity(self, n, k):
        assert binom(n + 1, k) == binom(n, k) + binom(n, k - 1)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).coeffs == ()

    def test_degree(self):
        assert Polynomial().degree == -1
        assert Polynomial([7]).degree == 0
        assert Polynomial([0, 0, 3]).degree == 2

    def test_coefficient_access(self):
        p = Polynomial([1, 2])
        assert p.coefficient(0) == 1
        assert p.coefficient(5) == 0
        with pytest.raises(ValueError):
            p.coefficient(-1)

    def test_product_against_hand_expansion(self):
        # (1 + 2t)(3 + t) = 3 + 7t + 2t^2
        assert Polynomial([1, 2]) * Polynomial([3, 1]) == Polynomial([3, 7, 2])

    def test_horner_matches_power_sum(self):
        p = Polynomial([2.0, -1.0, 0.5, 3.0])
        for t in (0.0, 0.3, 1.7, -2.2):
            direct = sum(c * t**i for i, c in enumerate(p.coeffs))
            assert p(t) == pytest.approx(direct, rel=1e-15)

    def test_float_argument_converts_exact_coefficients(self):
        p = Polynomial([GaussianRational(1), GaussianRational(0, 1)])
        value = p(0.5)
        assert isinstance(value, complex)
        assert value == pytest.approx(1 + 0.5j)

    def test_exact_argument_stays_exact(self):
        p = Polynomial([GaussianRational(Fraction(1, 2)), GaussianRational(1)])
        value = p(Fraction(2))
        assert value == GaussianRational(Fraction(5, 2))

    @given(gaussian_polys, gaussian_polys, small_fractions)
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)


class TestMonomialProduct:
    """The single-term oracle the conjugation tests expand with."""

    def test_low_orders(self):
        assert monomial_product(0, 0) == {0: (1, 0)}
        assert monomial_product(1, 0) == {1: (0, -1)}
        assert monomial_product(0, 1) == {1: (0, 1)}
        assert monomial_product(1, 1) == {2: (1, 0)}
        assert monomial_product(2, 0) == {2: (-1, 0)}

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            monomial_product(-1, 0)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_exponent_additivity(self, a, b, c, d):
        ((p, x),), ((q, y),) = monomial_product(a, b).items(), monomial_product(c, d).items()
        assert {p + q: gmul(x, y)} == monomial_product(a + c, b + d)

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_single_term_of_unit_modulus(self, a, b):
        ((degree, (re, im)),) = monomial_product(a, b).items()
        assert degree == a + b
        assert re * re + im * im == 1


class TestExpPolynomial:
    def test_zero_maps_are_equal_at_any_rate(self):
        zero = ExpPolynomial(9, Polynomial())
        assert zero.is_zero
        assert zero == ExpPolynomial(2, Polynomial([0, 0]))
        assert zero != ExpPolynomial(9, Polynomial([1]))

    def test_call_matches_direct_formula(self):
        f = ExpPolynomial(-1.0 + 2.0j, Polynomial([1.0, 3.0]))
        t = 0.8
        assert f(t) == pytest.approx(cmath.exp((-1.0 + 2.0j) * t) * (1.0 + 3.0 * t))


gaussian_ints = st.tuples(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))


class TestConvolve:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), order=st.integers(min_value=0, max_value=8))
    def test_matches_the_double_sum(self, data, order):
        # both series have at least order terms; terms beyond order are ignored
        a = data.draw(st.lists(gaussian_ints, min_size=order, max_size=order + 2))
        b = data.draw(st.lists(gaussian_ints, min_size=order, max_size=order + 2))
        want = [[0, 0] for _ in range(order)]
        for i in range(order):
            for j in range(order - i):
                (ar, ai), (br, bi) = a[i], b[j]
                want[i + j][0] += ar * br - ai * bi
                want[i + j][1] += ar * bi + ai * br
        assert _convolve(a, b, order) == [tuple(c) for c in want]


class TestExpDecay:
    def test_ln2_constant_is_ln2_to_128_bits(self):
        with mpmath.workprec(300):
            assert abs(_LN2 - mpmath.ln(2) * 2**128) <= 0.5

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        width=st.floats(min_value=1e-3, max_value=1e3)
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        t=st.floats(min_value=0.0, max_value=1e5) | st.floats(min_value=0.0, allow_infinity=False),
    )
    # the product is not a float, and exp of the rounded product was 8 ulp off
    @example(width=0.9137, t=7.3)
    # both sides of the switch to the reduced argument, and of the cutoff
    @example(width=1.0, t=700.0)
    @example(width=1.0, t=700.0000000000001)
    @example(width=1.0, t=_EXP_CUTOFF)
    @example(width=0.9137, t=99431.3)
    @example(width=1.7e308, t=1.7e308)
    def test_mantissa_and_exponent_within_one_ulp(self, width, t):
        m, e = _exp_decay(width, t)
        with mpmath.workprec(200):
            exact = mpmath.exp(-mpmath.mpf(width) * mpmath.mpf(t))
            if width * t > _EXP_CUTOFF:
                assert (m, e) == (0.0, 0)
                assert exact < mpmath.mpf(2) ** -131000
                return
            assert 0.5 <= m < 1
            # one ulp of the mantissa, 2**-53, at the carried exponent
            assert abs(mpmath.ldexp(m, e) - exact) <= mpmath.ldexp(1, e - 53)

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None)
    @given(
        width=st.floats(min_value=0.05, max_value=3.0)
        | st.floats(min_value=1e-300, max_value=1e300)
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        t=st.floats(min_value=0.0, max_value=200.0)
        | st.floats(min_value=1e-300, max_value=1e300)
        | st.floats(min_value=0.0, allow_infinity=False),
    )
    # both sides of each guard of the float remainder: t = 0, the 700
    # boundary, a product at 2**-960 and a factor at 2**990
    @example(width=0.9137, t=0.0)
    @example(width=1.0, t=700.0)
    @example(width=0.9137, t=700.0 / 0.9137)
    @example(width=0.9137, t=math.nextafter(700.0 / 0.9137, 0.0))
    @example(width=2.0**-480, t=2.0**-480)
    @example(width=math.nextafter(2.0**-480, 1.0), t=2.0**-480)
    @example(width=1.3, t=math.nextafter(2.0**-960 / 1.3, 0.0))
    @example(width=2.0**990, t=2.0**-985)
    @example(width=math.nextafter(2.0**990, 0.0), t=2.0**-985)
    @example(width=2.0**-985, t=math.nextafter(2.0**990, 0.0))
    # a factor whose Veltkamp split would overflow
    @example(width=1.7e308, t=1e-306)
    # a subnormal width under a product well inside the range
    @example(width=5e-324, t=2.0**980)
    @example(width=1.7e-310, t=3.3e300)
    def test_float_remainder_is_the_exact_one(self, width, t):
        # below 700 the reading is f - f lo with f = exp(-hi) and lo the
        # remainder of the product, rounded once from its exact value;
        # Dekker's product must give that same float
        hi = width * t
        if not hi <= 700:
            return
        lo = float(Fraction(width) * Fraction(t) - Fraction(hi))
        f = math.exp(-hi)
        assert _exp_decay(width, t) == math.frexp(f - f * lo)

    def test_carried_exponent_names_the_value_beyond_the_float_range(self):
        assert _ldexp([0.75, 0.5], [-1074, 1024], "w0_norm", [3.0, 4.0]) == [5e-324, 2.0**1023]
        for value, exponent in ((0.75, 1025), (math.inf, -5)):
            with pytest.raises(OverflowError, match=r"^w0_norm leaves the float range at t = 4\.0$"):
                _ldexp([0.5, value], [0, exponent], "w0_norm", [3.0, 4.0])


# the midpoint between the largest float and 2**1024: from here on a value rounds to inf
OVERFLOW = Fraction(2) ** 1024 - Fraction(2) ** 970


def sized(low: int):
    """Ints from low to 2**3000, the bit length drawn first, so that every
    size, and every ratio of two draws, comes up."""
    return st.integers(0, 3000).flatmap(lambda bits: st.integers(low, max(low, 2**bits)))


def rounds_to(value: float, exact: Fraction, root: bool = False) -> bool:
    """Whether value is exact (or its square root) rounded to nearest, ties
    to even: exact lies between the midpoints to both float neighbours (or
    their squares), on a midpoint only where value is even."""
    below, above = math.nextafter(value, -math.inf), math.nextafter(value, math.inf)
    above = Fraction(above) if above < math.inf else Fraction(2) ** 1024
    low, high = (Fraction(below) + Fraction(value)) / 2, (Fraction(value) + above) / 2
    if root:
        low, high = max(low, 0) ** 2, high**2
    even = value / math.ulp(value) % 2 == 0
    return low < exact < high or even and low <= exact <= high


class TestScaledReading:
    """_scaled and _quotient against the exact quotient, rounded by the
    midpoints of its float neighbours."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(num=sized(0), den=sized(1))
    @example(num=0, den=1)
    @example(num=2**3000, den=1)
    @example(num=1, den=2**3000)
    # a square of a 54-bit odd mantissa: the root is a tie, which goes to even
    @example(num=(2**53 + 1) ** 2, den=2**106)
    @example(num=(2**53 + 3) ** 2, den=2**106)
    def test_quotient_and_root_round_once(self, num, den):
        m, k = _scaled(num, den)
        root, half = _scaled(num, den, root=True)
        exact = Fraction(num, den)
        assert rounds_to(m, exact / Fraction(2) ** k)
        assert rounds_to(root, exact / Fraction(4) ** half, root=True)
        # k from the bit lengths keeps both near 1
        if num:
            assert 0.5 <= m < 2 and 0.5 <= root < 2

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(nums=st.lists(sized(0), min_size=1, max_size=3), den=sized(1),
           offset=st.integers(-1200, 1200))
    def test_quotient_rounds_every_value_once(self, nums, den, offset):
        # k near the bit lengths' difference reaches the subnormals, 0 and
        # values beyond the float range, which raise
        k = nums[0].bit_length() - den.bit_length() + offset
        exact = [Fraction(num, den) / Fraction(2) ** k for num in nums]
        if max(exact) >= OVERFLOW:
            with pytest.raises(OverflowError):
                _quotient(nums, den, k)
            return
        for value, want in zip(_quotient(nums, den, k), exact):
            assert rounds_to(value, want)


class TestExactAt:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(coeffs=st.lists(gaussian_ints, min_size=1, max_size=9),
           t=st.floats(allow_nan=False, allow_infinity=False))
    def test_value_over_scale_is_the_exact_sum(self, coeffs, t):
        re, im, scale = _exact_at(coeffs, t)
        x = Fraction(t)
        assert Fraction(re, scale) == sum(c[0] * x**d for d, c in enumerate(coeffs))
        assert Fraction(im, scale) == sum(c[1] * x**d for d, c in enumerate(coeffs))


def wide_polys(max_len: int = 6):
    """Gaussian-integer coefficient lists whose parts run to 2**bits, the
    bit length drawn first from 1 to 6000, so that the cut to _CUT bits
    drops from none to thousands of bits."""
    return st.integers(1, 6000).flatmap(lambda bits: st.lists(
        st.tuples(st.integers(-(2**bits), 2**bits), st.integers(-(2**bits), 2**bits)),
        min_size=1, max_size=max_len))


def square_norm(coeffs) -> list:
    """The coefficients (c, 0) of |P(t)|**2 for real t: a polynomial whose
    real part is >= 0 for every t, with cancelling terms."""
    out = [0] * (2 * len(coeffs) - 1)
    for i, (a, b) in enumerate(coeffs):
        for j, (c, d) in enumerate(coeffs):
            out[i + j] += a * c + b * d
    return [(c, 0) for c in out]


# (coeffs, norm): any coefficients read as |P(t)|**2, or those of a square
# norm read as the real part of P(t)
readable = (wide_polys().map(lambda c: (c, True))
            | wide_polys(4).map(lambda c: (square_norm(c), False)))


class TestQuotientsAt:
    """_quotients_at against the exact Fraction value of each reading,
    rounded by the midpoints of its float neighbours, with the readings
    that fall back to the exact value counted."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(poly=readable, den=st.integers(0, 12000).flatmap(lambda bits: st.integers(1, 2**bits)),
           times=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=3),
           root=st.booleans(), falls_back=st.just(False))
    # within 2**-130 of the midpoint between 1 and its successor
    @example(poly=([(2**400 + 2**347 + 2**270, 0)], False), den=2**400, times=[1.0],
             root=False, falls_back=True)
    # a root within 2**-150 of that midpoint
    @example(poly=([(2**412 + 2**360 + 2**306 + 2**260, 0)], False), den=2**412, times=[1.0],
             root=True, falls_back=True)
    # the cut remainders of both coefficients sum to more than 2**s, which
    # lifts P(1) = 2**401 + 2**348 + 2 just past a midpoint
    @example(poly=([(2**400 + 2**272 + 1, 0), (2**400 + 2**348 - 2**272 + 1, 0)], False), den=1,
             times=[1.0], root=False, falls_back=True)
    # the cut of den drops nearly 2**-127 of it, which takes the quotient of
    # 2**400 + 2**347 + 2**273 just below a midpoint
    @example(poly=([(2**400 + 2**347 + 2**273, 0)], False), den=2**800 + 2**673 - 1,
             times=[1.0], root=False, falls_back=True)
    # cancellation leaves P(1) = 5 2**171 between 2**173 and 2**174 on the
    # cut, two ends of one mantissa and different exponents
    @example(poly=([(2**300, 0), (-(2**300) + 2**173 + 2**171, 0)], False), den=1,
             times=[1.0], root=False, falls_back=True)
    # P(1) = 0 exactly, where the cut interval holds 0
    @example(poly=([(3**3000, 0), (-(3**3000), 0)], True), den=7, times=[1.0],
             root=False, falls_back=True)
    @example(poly=([(3**3000, 5**2000), (-(3**3000), -(5**2000))], True), den=3**6000,
             times=[1.0], root=True, falls_back=True)
    # the floors of the Horner pass, with the cut exact (s = 0): at t = 1.5
    # the exact P(t) = c0 + 1.5 c1 lies 1/2 below the midpoint M =
    # 2**128 + 2**127 + 2**126 + 2**75, the pass reads [M - 1, M + 3]
    @example(poly=([(2**128 + 2**75 - 2, 0), (2**127 + 1, 0)], False), den=1, times=[1.5],
             root=False, falls_back=True)
    # two floors drop 1/2 and 3/4, so that the pass starts 5/4 below the
    # exact P(1.5), which lies 1/4 above a midpoint M: the floors alone put
    # M in the interval, and read at its low end P would round down
    @example(poly=([(2**127 + 2**76 - 2, 0), (2**127, 0), (2**127 + 1, 0)], False), den=1,
             times=[1.5], root=False, falls_back=True)
    def test_every_reading_rounds_once(self, poly, den, times, root, falls_back):
        coeffs, norm = poly
        fallbacks = []

        def counted(*args):
            reading = rounded_between(*args)
            fallbacks.append(reading is None)
            return reading

        rounded_between = algebra._rounded_between
        with mock.patch.object(algebra, "_rounded_between", counted):
            readings = _quotients_at(coeffs, den, times, norm, root)
        assert len(readings) == len(fallbacks) == len(times)
        if falls_back:
            assert all(fallbacks)
        for t, (m, k) in zip(times, readings):
            x = Fraction(t)
            re = sum(c_re * x**d for d, (c_re, _) in enumerate(coeffs))
            im = sum(c_im * x**d for d, (_, c_im) in enumerate(coeffs))
            exact = (re * re + im * im if norm else re) / den
            assert rounds_to(m, exact / Fraction(4 if root else 2) ** k, root)
            # k from the bit lengths keeps m near 1
            assert m == 0 or 0.5 <= m <= 2


# ball centres and radii of every size up to 100 bits, the bit length drawn
# first; the exact value sits on either edge of its ball as often as inside
centres = st.integers(0, 100).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
radii = st.integers(0, 100).flatmap(lambda bits: st.integers(0, 2**bits))
sides = st.sampled_from([-1, 1]) | st.integers(-(2**16), 2**16).map(lambda n: Fraction(n, 2**16))


def ball_at(coeffs, e, rad, signs=(1, 1)):
    """The ball series (coeffs, e, rad) and the exact series at signs * rad
    from its centres, one sign for the re and one for the im part of every
    term."""
    exact = [tuple((c + sign * rad) * Fraction(2) ** e for c, sign in zip(pair, signs))
             for pair in coeffs]
    return (coeffs, e, rad), exact


@st.composite
def balls(draw, size):
    """A ball series of size terms and an exact series inside it."""
    coeffs = [(draw(centres), draw(centres)) for _ in range(size)]
    e, rad = draw(st.integers(-80, 80)), draw(radii)
    exact = [tuple((c + draw(sides) * rad) * Fraction(2) ** e for c in pair) for pair in coeffs]
    return (coeffs, e, rad), exact


def contains(ball, exact) -> bool:
    """Whether each part of every exact term lies in 2**e [c - rad, c + rad]
    for the same part c of the ball's term."""
    coeffs, e, rad = ball
    unit = Fraction(2) ** e
    return len(coeffs) == len(exact) and all(
        abs(x / unit - c) <= rad for pair, centre in zip(exact, coeffs)
        for x, c in zip(pair, centre))


def exact_product(a, b, order: int) -> list:
    return [(sum(a[k - j][0] * b[j][0] - a[k - j][1] * b[j][1] for j in range(k + 1)),
             sum(a[k - j][0] * b[j][1] + a[k - j][1] * b[j][0] for j in range(k + 1)))
            for k in range(order)]


class TestBallPrimitives:
    """Each ball primitive alone against exact Fractions: its output ball
    holds the exact value of every input in its input balls, at low
    precisions where each term of a radius matters.  The examples put the
    exact value on a ball's edge and make every floor drop almost a unit."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(case=st.integers(1, 4).flatmap(balls), p=st.integers(8, 32))
    # the two floor shifts by 8 bits each drop 255/256, the value at +rad
    @example(case=ball_at([(2**16 - 1, -1)], 0, 2**8 - 1), p=8)
    @example(case=ball_at([(5, -(2**40) - 1), (-(2**20) + 3, 2**41 - 1)], -7, 2**20 - 1), p=32)
    def test_trim_holds_the_exact_value(self, case, p):
        ball, exact = case
        out = _trim(*ball, p)
        assert contains(out, exact)
        if out[1] > ball[1]:
            assert max(max(abs(re), abs(im)) for re, im in out[0]).bit_length() <= p + 1

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(num=st.tuples(centres, centres), den=radii.map(lambda d: d + 1),
           e=st.integers(-80, 80), p=st.integers(8, 32))
    # shift -4: the shift drops 15/16 and the division by 3 another 2/3
    @example(num=(8207, -8209), den=3, e=0, p=8)
    # shift 0: the division alone drops 2/3
    @example(num=(512, -514), den=3, e=5, p=8)
    def test_quotient_holds_the_exact_value(self, num, den, e, p):
        exact = [tuple(Fraction(x) * Fraction(2) ** e / den for x in num)]
        assert contains(_ball_quotient(num, den, e, p), exact)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=st.integers(1, 4).flatmap(lambda order: st.tuples(
               st.just(order), st.integers(order, order + 2).flatmap(balls),
               st.integers(order, order + 2).flatmap(balls))),
           p=st.integers(8, 32))
    # equal real centres, (8 + 3i)(8 - 3i) in every product: each of the
    # three terms of the last coefficient is off by |a| rb + |b| ra + 2 ra rb,
    # so its error is the whole radius, and no trim adds slack
    @example(case=(3, ball_at([(5, 0)] * 3, 0, 3), ball_at([(5, 0)] * 3, 0, 3, (1, -1))), p=32)
    @example(case=(2, ball_at([(5, 0)] * 2, -9, 3), ball_at([(7, 0)] * 2, 4, 2, (1, -1))), p=8)
    def test_product_holds_the_exact_value(self, case, p):
        order, (a, exact_a), (b, exact_b) = case
        assert contains(_ball_product(a, b, order, p), exact_product(exact_a, exact_b, order))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=st.lists(st.integers(1, 3).flatmap(balls), min_size=1, max_size=4))
    # aligned 4 bits up, the floors drop 15/16 and the value sits at +rad
    @example(case=[ball_at([(2**8 - 1, -1)], 0, 2**4 - 1), ball_at([(1, 1)], 4, 0)])
    def test_aligned_holds_every_exact_value(self, case):
        out = _ball_aligned([ball for ball, _ in case])
        top = max(e for (_, e, _), _ in case)
        assert [e for _, e, _ in out] == [top] * len(case)
        for ball, (_, exact) in zip(out, case):
            assert contains(ball, exact)
