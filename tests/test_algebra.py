"""Tests for the exact scalar and polynomial layer."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit.algebra import (
    _EXP_CUTOFF,
    _LN2,
    ExpPolynomial,
    GaussianRational,
    Polynomial,
    _ball_aligned,
    _ball_chain,
    _ball_product,
    _ball_quotient,
    _convolve,
    _exact_at,
    _exact_reading,
    _exp_decay,
    _fixed_readings,
    _horner_bounds,
    _ket_row,
    _ldexp,
    _norm_bounds,
    _quotient,
    _rounded_part,
    _scaled,
    _trim,
    binom,
)
from gamowkit.cli import R_CAP

from expansion import gmul, monomial_product, weight

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


class TestKetRow:
    """_ket_row against the Fraction ket weights w(k, p) of the oracle
    expansion, for every ket of a pole up to the cap on r."""

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_row_over_lift_is_the_ket_weight(self, normalization):
        derivative = normalization == "derivative"
        for k in range(R_CAP + 1):
            row, lift = _ket_row(derivative, k)
            assert lift == (1 if derivative else math.factorial(k))
            assert all(type(x) is int for x in row)
            assert [Fraction(x, lift) for x in row] == [weight(normalization, k, p)
                                                         for p in range(k + 1)]


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
    """Ints from low to 2**3000, the bit length drawn first and kept, so
    that every size, and every ratio of two draws, comes up."""
    return st.integers(0, 3000).flatmap(
        lambda bits: st.integers(max(low, 2**bits >> 1), max(low, 2**bits)))


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
    # roots just above the tie S = 2**64 + 2**11 at 64 bits: only the sticky
    # bit rounds them up, set by an inexact root of an exact quotient (S**2
    # + 4), and by an exact root of an inexact one (S**2, remainder 1)
    @example(num=(2**63 + 2**10) ** 2 + 1, den=1)
    @example(num=4 * (2**64 + 2**11) ** 2 + 1, den=1)
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


# ball centres and radii of every size up to 100 bits, the bit length drawn
# first and kept (a draw of st.integers(0, 2**bits) is most often small);
# the exact value sits on either edge of its ball as often as inside
radii = st.integers(0, 100).flatmap(lambda bits: st.integers(2**bits >> 1, 2**bits))
centres = radii | radii.map(lambda x: -x)
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


def exact_chain(first, ratio, factors) -> list:
    """t_0 = first, t_k = t_(k-1) ratio num_k / den_k, exactly."""
    out = [first]
    for num, den in factors:
        x, y = gmul(out[-1], ratio)
        out.append((x * num / den, y * num / den))
    return out


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
    # shift -12: both parts sit 1 - 2**-12 / den above their floors, just
    # under the radius of 1 that floor(floor(x) / den) = floor(x / den) gives
    @example(num=(200 * 2**12 * (2**20 - 1) - 1, -150 * 2**12 * (2**20 - 1) - 1),
             den=2**20 - 1, e=-3, p=8)
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

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(first=balls(1), ratio=balls(1),
           factors=st.lists(st.tuples(st.integers(0, 64), st.integers(1, 64)), max_size=6),
           p=st.integers(8, 32))
    # every centre positive and every exact value at +rad: the cut of the
    # ratio, the floor of the step and that of the division by 8 all drop
    # their centres below the exact value, 0.69 units inside the radius
    @example(first=ball_at([(369, 105)], -1, 8), ratio=ball_at([(14214, 10973)], -12, 3),
             factors=[(1, 8)], p=8)
    # edge cases that each break some narrowed radius: a ratio cut by one
    # bit, a cut by two over four steps, and a ratio shifted up by two bits
    @example(first=ball_at([(4, -4)], 3, 2), ratio=ball_at([(8906, -13519)], -12, 12, (-1, -1)),
             factors=[(5, 2)], p=11)
    @example(first=ball_at([(7, -808)], 3, 4), ratio=ball_at([(2, -1)], -10, 7),
             factors=[(7, 3), (5, 2), (7, 3), (6, 9)], p=8)
    @example(first=ball_at([(478, 371)], 4, 0, (-1, -1)),
             ratio=ball_at([(592, 1800)], -8, 3, (1, -1)), factors=[(9, 5)], p=10)
    def test_chain_holds_the_exact_series(self, first, ratio, factors, p):
        (ball, (exact,)), (ratio_ball, (exact_ratio,)) = first, ratio
        out = _ball_chain(ball, ratio_ball, factors, p)
        assert out[1] == ball[1]
        assert contains(out, exact_chain(exact, exact_ratio, factors))


# a Horner pass at t = 2047/1024: with every acc = 1 (mod 1024), each floor
# of acc 2047 / 1024 drops 1023/1024, and the value lies 14.97 units above
# the pass, beyond the bound n = 5 that floor(t) would give
FLOORED = [(1039, 1039), (1031, 1031), (1027, 1027), (1025, 1025), (1025, 1025)]

# where an exact part sits in [low, low + width], as a share of width
shares = st.sampled_from([0, 1]) | st.integers(0, 2**16).map(lambda n: Fraction(n, 2**16))


class TestHornerBounds:
    """_horner_bounds alone against exact Fractions: each part of
    P(t 2**scale) lies in its interval [acc, acc + B] for every exact P
    whose coefficients lie in [lows, lows + width], with the exact
    coefficients on either edge as often as inside; at t = 0 the interval
    is the ball of the constant term itself."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(lows=st.lists(st.tuples(centres, centres), min_size=1, max_size=6),
           width=radii, shares=st.lists(st.tuples(shares, shares), min_size=6, max_size=6),
           scale=st.integers(-64, 64),
           times=st.lists(st.just(0.0) | st.integers(1, 2**20).map(float)
                          | st.floats(0.0, 1.0) | st.floats(0.0, 1e300), min_size=1, max_size=4))
    # t = 0, where the interval is the constant term's, of width 4 and not n 4
    @example(lows=[(5, -3), (7, 1), (-2, 9)], width=4, shares=[(1, 1)] * 6, scale=-3,
             times=[0.0])
    # t 2**scale = 3/4: one floor, and a bound from ceil(3/4) = 1
    @example(lows=[(0, 0), (1, 1)], width=0, shares=[(1, 1)] * 6, scale=0, times=[0.75])
    @example(lows=FLOORED, width=0, shares=[(1, 1)] * 6, scale=0, times=[2047 / 1024])
    # integer t 2**scale: 2047 / 1024 again, and 3 / 1024
    @example(lows=FLOORED, width=3, shares=[(1, 1)] * 6, scale=-10, times=[2047.0, 3.0])
    # t near 1e300, and t 2**scale far above and below 1
    @example(lows=[(2**90 - 1, -(2**90) + 1)] * 4, width=2**80, shares=[(1, 0)] * 6,
             scale=7, times=[1e300, 9.999999999999999e299])
    @example(lows=[(1, -1)] * 3, width=1, shares=[(1, 0)] * 6, scale=-1100, times=[1e300])
    def test_each_part_lies_in_its_interval(self, lows, width, shares, scale, times):
        out = _horner_bounds(lows, width, scale, times)
        assert len(out) == len(times)
        exact = [tuple(low + share * width for low, share in zip(pair, pair_shares))
                 for pair, pair_shares in zip(lows, shares)]
        for t, (re, im, bound) in zip(times, out):
            x = Fraction(t) * Fraction(2) ** scale
            value = [sum(c[part] * x**d for d, c in enumerate(exact)) for part in (0, 1)]
            assert re <= value[0] <= re + bound
            assert im <= value[1] <= im + bound
            if t == 0:
                assert (re, im, bound) == (*lows[0], width)


# S = (2**27 - 1) 2**j: S**2 = (2**54 - 2**28 + 1) 4**j is the midpoint
# between two floats, so |P|**2 rounds down below S and up above it
def midpoint_root(j: int) -> int:
    return (2**27 - 1) << j


# P's coefficients sit at offset / 2**16 of the width above lows
offsets = st.sampled_from([0, 2**16]) | st.integers(0, 2**16)
# ints of every bit length up to 200, the length drawn first and kept (a
# draw of st.integers(0, 2**bits) is most often small): against widths of
# up to 100 bits, readings are decided about as often as not
magnitudes = st.integers(0, 200).flatmap(lambda bits: st.integers(2**bits >> 1, 2**bits))
long_ints = magnitudes | magnitudes.map(lambda x: -x)


class TestFixedReadings:
    """_fixed_readings and _exact_reading against the exact Fraction value
    of |P(t 2**scale)|**2 / den, rounded by the midpoints of its float
    neighbours, for an exact P whose Gaussian-integer coefficients lie in
    the ball [lows, lows + width] and an int den in [den_low, den_high]:
    every decided reading is that rounding, and so is every exact one."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(lows=st.lists(st.tuples(long_ints, long_ints), min_size=1, max_size=6), width=radii,
           offsets=st.lists(st.tuples(offsets, offsets), min_size=6, max_size=6),
           den_low=magnitudes.map(lambda d: d + 1),
           den_width=radii, den_offset=offsets, scale=st.integers(-64, 64),
           times=st.lists(st.just(0.0) | st.integers(1, 2**20).map(float)
                          | st.floats(0.0, 1.0) | st.floats(0.0, 1e300), min_size=1, max_size=4),
           decided=st.none())
    # the floors of the Horner pass: at t = 1.5 the exact P(t) = c0 + 1.5 c1
    # = S - 1/2 lies 1/2 below the root S of a midpoint, the pass reads
    # [S - 1, S + 3]
    @example(lows=[(midpoint_root(101) - 3 * 2**126 - 2, 0), (2**127 + 1, 0)], width=0,
             offsets=[(0, 0)] * 6, den_low=1, den_width=0, den_offset=0, scale=0, times=[1.5],
             decided=False)
    # two floors drop 1/2 and 3/4, so that the pass starts 5/4 below the
    # exact P(1.5) = S + 1/4, just above the root S of a midpoint: the
    # floors alone put S in the interval, and read at its low end |P|**2
    # would round down
    @example(lows=[(midpoint_root(102) - 15 * 2**125 - 2, 0), (2**127, 0), (2**127 + 1, 0)],
             width=0, offsets=[(0, 0)] * 6, den_low=1, den_width=0, den_offset=0, scale=0,
             times=[1.5], decided=False)
    # cancellation leaves P(1) = 5 2**171 (1 + i) in a ball whose norm
    # bounds are 2**347 and 2**349, two ends of one mantissa and different
    # exponents
    @example(lows=[(2**300, 2**300), (-(2**300) + 2**173, -(2**300) + 2**173)], width=2**172,
             offsets=[(2**15, 2**15)] + [(0, 0)] * 5, den_low=1, den_width=0, den_offset=0,
             scale=0, times=[1.0], decided=False)
    # every width 0 and t an integer: each interval is a point, which
    # decides, with |P|**2 = 25 shorter than den, so the low end is lifted
    @example(lows=[(3, 4), (1, -2)], width=0, offsets=[(0, 0)] * 6, den_low=2**80 + 1,
             den_width=0, den_offset=0, scale=0, times=[0.0, 2.0], decided=True)
    # P(1) = 0 exactly, where the ball of P(1) holds 0
    @example(lows=[(3**3000, 5**2000), (-(3**3000), -(5**2000))], width=1, offsets=[(0, 0)] * 6,
             den_low=7, den_width=0, den_offset=0, scale=0, times=[1.0], decided=False)
    def test_every_reading_rounds_once(self, lows, width, offsets, den_low, den_width, den_offset,
                                       scale, times, decided):
        exact = [(re + a * width // 2**16, im + b * width // 2**16)
                 for (re, im), (a, b) in zip(lows, offsets)]
        den_high = den_low + den_width
        den = den_low + den_offset * den_width // 2**16
        readings = _fixed_readings(lows, width, den_low, den_high, scale, times)
        assert len(readings) == len(times)
        if decided is not None:
            assert [reading is not None for reading in readings] == [decided] * len(times)
        # P(t 2**scale) as a polynomial in t with int coefficients, over
        # 2**lift
        lift = max(-scale, 0) * (len(exact) - 1)
        shifted = [(re << d * scale + lift, im << d * scale + lift)
                   for d, (re, im) in enumerate(exact)]
        for t, reading in zip(times, readings):
            x = Fraction(t) * Fraction(2) ** scale
            re = sum(c[0] * x**d for d, c in enumerate(exact))
            im = sum(c[1] * x**d for d, c in enumerate(exact))
            value = (re * re + im * im) / den
            m, k = _exact_reading(shifted, den << 2 * lift, t)
            assert rounds_to(m, value / Fraction(2) ** k)
            if reading is not None:
                # the same float, which k from the bit lengths keeps near 1
                assert Fraction(reading[0]) * Fraction(2) ** (reading[1] - k) == m
                assert reading[0] == 0 or 0.5 <= reading[0] <= 2


class TestNormBounds:
    """_norm_bounds alone: the least and the largest x**2 + y**2 over the
    box [re, re + width] x [im, im + width], the least where each side
    comes nearest 0 (0 clipped to the side), the largest at a corner."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(re=centres, im=centres, width=radii)
    # one side spans 0, the other ends on it, and a box of width 0
    @example(re=-3, im=5, width=7)
    @example(re=-9, im=-4, width=4)
    @example(re=-9, im=4, width=0)
    def test_bounds_are_the_extremes_of_the_box(self, re, im, width):
        sides = [(re, re + width), (im, im + width)]
        least = sum(min(max(0, a), b) ** 2 for a, b in sides)
        largest = max(x * x + y * y for x in sides[0] for y in sides[1])
        assert _norm_bounds(re, im, width) == (least, largest)


def _float_of(x: Fraction) -> float:
    """x rounded to the nearest float, inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class TestRoundedPart:
    """_rounded_part alone against exact Fractions: where it returns a
    float, both ends of the ball 2**e [c - rad, c + rad] / den round to it,
    with the sign of zero of each end; inf where both ends pass the largest
    float; None only where the ends round to different floats or zeros."""

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(c=centres, rad=radii, e=st.integers(-1250, 1100),
           den=st.integers(0, 100).flatmap(lambda bits: st.integers(1, 2**bits)))
    # a ball about 0 below the subnormals: the ends are -0.0 and 0.0
    @example(c=0, rad=1, e=-1200, den=1)
    # a negative ball below the subnormals reads -0.0, one ending on 0 reads 0.0
    @example(c=-2, rad=1, e=-1200, den=3)
    @example(c=1, rad=1, e=-1200, den=1)
    # the ends are the largest float and 2**1024, and then both past it
    @example(c=2**54 - 1, rad=1, e=970, den=1)
    @example(c=-(2**54) - 1, rad=1, e=970, den=1)
    # e = -1, the first exponent read by a shift of den
    @example(c=3, rad=1, e=-1, den=1)
    # 2**1024, the smallest value of an end of 1 to overflow
    @example(c=1, rad=0, e=1024, den=1)
    # the ends are 1 and its successor, over a den that the shift lifts
    @example(c=2**53 + 1, rad=1, e=-60, den=2**7)
    def test_a_read_part_is_every_value_of_its_ball(self, c, rad, e, den):
        got = _rounded_part(c, rad, e, den)
        ends = [Fraction(end) * Fraction(2) ** e / den for end in (c - rad, c + rad)]
        floats = [_float_of(x) for x in ends]
        same = floats[0] == floats[1] and math.copysign(1, floats[0]) == math.copysign(1, floats[1])
        if got is None:
            assert not same
            return
        assert same
        for x in ends:
            assert math.copysign(1, got) == (-1 if x < 0 else 1)
            if math.isinf(got):
                assert abs(x) >= OVERFLOW
            else:
                assert rounds_to(got, x)
