"""Tests for the exact scalar and polynomial layer."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamowkit.algebra import (
    ExpPolynomial,
    GaussianRational,
    Polynomial,
    binom,
    monomial_product,
)

small_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=64)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_gaussians = gaussians.filter(bool)
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

    @given(gaussians, nonzero_gaussians)
    def test_division_inverts_multiplication(self, a, b):
        assert (a / b) * b == a

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    @given(gaussians, gaussians)
    def test_conjugation_is_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    @given(nonzero_gaussians, st.integers(min_value=-6, max_value=6))
    def test_integer_powers(self, a, n):
        reference = GaussianRational(1)
        for _ in range(abs(n)):
            reference = reference * a
        if n < 0:
            reference = GaussianRational(1) / reference
        assert a**n == reference

    def test_complex_conversion_and_abs(self):
        x = GaussianRational(3, 4)
        assert complex(x) == complex(3.0, 4.0)
        assert abs(x) == 5.0

    def test_string_forms(self):
        assert str(GaussianRational(Fraction(3, 2), Fraction(1, 3))) == "3/2+1/3i"
        assert str(GaussianRational(2, -1)) == "2-1i"
        assert str(GaussianRational(0, -2)) == "-2i"
        assert str(GaussianRational(5)) == "5"

    def test_unit_constants(self):
        assert GaussianRational.I * GaussianRational.I == -GaussianRational.ONE
        assert GaussianRational.ZERO + GaussianRational.ONE == GaussianRational.ONE
        assert not GaussianRational.ZERO
        assert GaussianRational.I


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

    def test_scalar_operations(self):
        p = Polynomial([1, 1])
        assert 2 * p == Polynomial([2, 2])
        assert p * 2 == Polynomial([2, 2])
        assert p + 1 == Polynomial([2, 1])
        assert 1 - p == Polynomial([0, -1])

    def test_cancellation_in_subtraction(self):
        p = Polynomial([1, 3])
        assert (p - p).degree == -1

    def test_derivative(self):
        assert Polynomial([5, 3, 2]).derivative() == Polynomial([3, 4])
        assert Polynomial([5]).derivative() == Polynomial()
        assert Polynomial().derivative() == Polynomial()

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
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


class TestMonomialProduct:
    def test_low_orders(self):
        one = GaussianRational(1)
        i = GaussianRational(0, 1)
        assert monomial_product(0, 0) == Polynomial([one])
        assert monomial_product(1, 0) == Polynomial([0, -i])
        assert monomial_product(0, 1) == Polynomial([0, i])
        assert monomial_product(1, 1) == Polynomial([0, 0, one])
        assert monomial_product(2, 0) == Polynomial([0, 0, -one])

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
        assert abs(p.coeffs[-1]) == 1.0


class TestExpPolynomial:
    def test_product_adds_rates(self):
        f = ExpPolynomial(2, Polynomial([1, 1]))
        g = ExpPolynomial(3, Polynomial([0, 1]))
        h = f * g
        assert h.rate == 5
        assert h.poly == Polynomial([0, 1, 1])

    def test_sum_requires_equal_rates(self):
        f = ExpPolynomial(2, Polynomial([1]))
        g = ExpPolynomial(3, Polynomial([1]))
        with pytest.raises(ValueError):
            f + g

    def test_adding_zero_ignores_rate(self):
        f = ExpPolynomial(2, Polynomial([1, 4]))
        zero = ExpPolynomial(9, Polynomial())
        assert f + zero == f
        assert zero + f == f
        assert zero.is_zero

    def test_symbolic_derivative(self):
        # d/dt exp(rt) p = exp(rt) (r p + p')
        f = ExpPolynomial(GaussianRational(-1), Polynomial([GaussianRational(2), GaussianRational(1)]))
        df = f.derivative()
        assert df.rate == GaussianRational(-1)
        assert df.poly == Polynomial([GaussianRational(-1), GaussianRational(-1)])

    def test_derivative_matches_difference_quotient(self):
        f = ExpPolynomial(-0.7 + 0.2j, Polynomial([1.0, -2.0, 0.5]))
        df = f.derivative()
        t, h = 1.3, 1e-6
        numeric = (f(t + h) - f(t - h)) / (2 * h)
        assert df(t) == pytest.approx(numeric, rel=1e-8)

    def test_call_matches_direct_formula(self):
        f = ExpPolynomial(-1.0 + 2.0j, Polynomial([1.0, 3.0]))
        t = 0.8
        assert f(t) == pytest.approx(cmath.exp((-1.0 + 2.0j) * t) * (1.0 + 3.0 * t))
