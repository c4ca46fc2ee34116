"""Tests for the exact scalar and polynomial layer."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamowkit.algebra import ExpPolynomial, GaussianRational, Polynomial, binom

from expansion import monomial_product

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
        one, minus_one = GaussianRational(1), GaussianRational(-1)
        i, minus_i = GaussianRational(0, 1), GaussianRational(0, -1)
        assert monomial_product(0, 0) == Polynomial([one])
        assert monomial_product(1, 0) == Polynomial([0, minus_i])
        assert monomial_product(0, 1) == Polynomial([0, i])
        assert monomial_product(1, 1) == Polynomial([0, 0, one])
        assert monomial_product(2, 0) == Polynomial([0, 0, minus_one])

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
        assert monomial_product(a, b) * monomial_product(c, d) == monomial_product(
            a + c, b + d
        )

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
    def test_single_term_of_unit_modulus(self, a, b):
        p = monomial_product(a, b)
        assert p.degree == a + b
        assert sum(1 for c in p.coeffs if c) == 1
        assert abs(complex(p.coeffs[-1])) == 1.0


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
