"""Tests for the decaying operator families and their observables.

The load-bearing facts: every member of the binomial anti-diagonal
family evolves as a pure exponential (exactly, on the symbolic carrier),
plain dyads do not, and both detector-style pairings see the same
things.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gamowkit.algebra import GaussianRational, Polynomial
from gamowkit.errors import EmptyGridError, IndexOutOfRangeError, NegativeTimeError
from gamowkit.jordan import GamowSubspace, OperatorOnM, as_complex_matrix, evolution_matrix
from gamowkit.smatrix import (
    ResonancePole,
    SMatrixModel,
    TestFunction,
    TestFunctionPair,
    _exp_decay,
)
from gamowkit.states import (
    StateOperator,
    decay_deviation,
    detector_probability,
    dyad_operator,
    evolve_operator_symbolic,
    evolved_norm_squared,
    pole_term_probability,
    w_n,
    w_total,
)

RNG_SEED = 20260823


def float_evolution(W, t):
    """Reference T(t) A T(t)^dagger as complex matrix products (BLAS)."""
    ket = evolution_matrix(W.space, t).matrix
    return ket @ as_complex_matrix(W.op.matrix) @ ket.conj().T


def float_deviation(W, t_grid):
    """Reference decay deviation: max_t ||T A T^dagger - exp(-Gamma t) A|| / ||A||."""
    mat0 = as_complex_matrix(W.op.matrix)
    norm0 = np.linalg.norm(mat0)
    return max(
        np.linalg.norm(float_evolution(W, t) - math.exp(-W.space.pole.Gamma * t) * mat0) / norm0
        for t in t_grid
    )


def random_operator(space, rng):
    r = space.dimension
    return StateOperator(OperatorOnM(space, rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))))


@pytest.fixture
def space():
    return GamowSubspace(ResonancePole(2.0, 1.0, 3), "derivative")


@pytest.fixture
def pair():
    return TestFunctionPair.from_params(
        [(1.0, 1, 1.0), (2.0, 2, 0.5j)], [(1.5, 1, 1.0)]
    )


class TestOperatorConstruction:
    def test_w0_is_ground_dyad(self, space):
        mat = w_n(space, 0).op.matrix
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.array_equal(mat, want)

    def test_w2_binomial_anti_diagonal(self, space):
        # (Gamma^2/2) * (|0><2| + 2 |1><1| + |2><0|)
        mat = w_n(space, 2).op.matrix
        assert mat[0, 2] == pytest.approx(0.5)
        assert mat[1, 1] == pytest.approx(1.0)
        assert mat[2, 0] == pytest.approx(0.5)
        assert np.count_nonzero(mat) == 3

    def test_factorial_normalization_flattens_weights(self):
        space = GamowSubspace(ResonancePole(2.0, 0.5, 3), "factorial")
        mat = w_n(space, 2).op.matrix
        for k in range(3):
            assert mat[k, 2 - k] == pytest.approx(0.25)

    def test_index_out_of_range(self, space):
        with pytest.raises(IndexOutOfRangeError):
            w_n(space, 3)
        with pytest.raises(IndexOutOfRangeError):
            dyad_operator(space, 3)

    def test_exact_entries_match_float_entries(self, space):
        # the float carrier is the exact operator with each entry rounded
        # once; 0.9137 is not dyadic, so its powers do not round alike
        wide = GamowSubspace(ResonancePole(2.0, 0.9137, 8), "derivative")
        for sp, n in [(space, 2)] + [(wide, n) for n in range(8)]:
            exact = w_n(sp, n, exact=True).op.matrix
            floats = w_n(sp, n).op.matrix
            assert all(f == complex(e) for f, e in zip(floats.flat, exact.flat))

    def test_star_import_provides_constructors(self):
        namespace = {}
        exec("from gamowkit import *", namespace)
        assert {"w_n", "w_total", "dyad_operator"} <= namespace.keys()

    def test_total_is_weighted_sum(self, space):
        total = w_total(space).op.matrix
        acc = np.zeros((3, 3), dtype=complex)
        for n in range(3):
            acc += math.comb(3, n + 1) * (-1j) ** n * w_n(space, n).op.matrix
        np.testing.assert_allclose(total, 2.0 * math.pi * 1.0 * acc, rtol=1e-15)

    def test_exact_total_cycles_through_powers_of_minus_i(self):
        # r = 6 reaches (-i)**n for every residue of n mod 4
        space = GamowSubspace(ResonancePole(2.0, 0.75, 6))
        total = w_total(space, exact=True).op.matrix
        units = [(1, 0), (0, -1), (-1, 0), (0, 1)]
        for n in range(6):
            re, im = units[n % 4]
            member = w_n(space, n, exact=True).op.matrix
            for k in range(n + 1):
                value = math.comb(6, n + 1) * member[k, n - k].re
                assert total[k, n - k] == GaussianRational(re * value, im * value)

    def test_exact_total_drops_two_pi_gamma(self, space):
        exact = as_complex_matrix(w_total(space, exact=True).op.matrix)
        floats = w_total(space).op.matrix
        np.testing.assert_allclose(
            floats, 2.0 * math.pi * space.pole.Gamma * exact, rtol=1e-14
        )


class TestEvolution:
    def test_negative_time_rejected(self, space):
        with pytest.raises(NegativeTimeError):
            decay_deviation(w_n(space, 0), [0.0, 1.0, -1.0])
        zero = StateOperator(OperatorOnM(space, np.zeros((3, 3))))
        with pytest.raises(NegativeTimeError):
            decay_deviation(zero, [-0.5])

    def test_time_zero_is_identity_map(self, space):
        # float entries enter at their exact value, so t = 0 gives them back bit for bit
        W = w_total(space)
        sym = evolve_operator_symbolic(W).matrix
        evolved = np.array([[entry(0.0) for entry in row] for row in sym])
        assert np.array_equal(evolved, W.op.matrix)

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_family_decays_purely_exponentially(self, r, normalization):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        grid = np.linspace(0.0, 10.0, 21)
        for n in range(r):
            assert decay_deviation(w_n(space, n), grid) <= 1e-12
        assert decay_deviation(w_total(space), grid) <= 1e-12

    def test_evolved_family_member_stays_hermitian(self, space):
        sym = evolve_operator_symbolic(w_n(space, 2)).matrix
        for i in range(3):
            for j in range(3):
                mirrored = [GaussianRational(c.re, -c.im) for c in sym[j, i].poly.coeffs]
                assert sym[i, j].poly.coeffs == tuple(mirrored)

    def test_numeric_and_symbolic_paths_agree(self, space):
        # a float input reproduces the float matrix-product reference
        rng = np.random.default_rng(RNG_SEED)
        W = random_operator(space, rng)
        sym = evolve_operator_symbolic(W).matrix
        for entry in sym.flat:
            assert entry.rate == GaussianRational(-1)
            assert all(isinstance(c, GaussianRational) for c in entry.poly.coeffs)
        for t in (0.0, 0.8, 2.5):
            numeric = float_evolution(W, t)
            for i in range(3):
                for j in range(3):
                    assert sym[i, j](t) == pytest.approx(numeric[i, j], abs=1e-12)

    def test_symbolic_family_member_has_no_polynomial_tail(self, space):
        # the strong form of the decay law: zero remainder, not small
        for n in range(3):
            W = w_n(space, n, exact=True)
            sym = evolve_operator_symbolic(W).matrix
            for i in range(3):
                for j in range(3):
                    entry = sym[i, j]
                    assert entry.rate == GaussianRational(-1)
                    assert entry.poly.degree <= 0
                    assert entry.poly.coefficient(0) == W.op.matrix[i, j]

    def test_symbolic_evolution_is_linear(self, space):
        a = GaussianRational(2)
        b = GaussianRational(0, 1)
        A = dyad_operator(space, 1, 2, exact=True).op.matrix
        B = dyad_operator(space, 0, 0, exact=True).op.matrix
        combo = np.empty((3, 3), dtype=object)
        for idx in np.ndindex(3, 3):
            combo[idx] = a * A[idx] + b * B[idx]
        lhs = evolve_operator_symbolic(
            StateOperator(OperatorOnM(space, combo))
        ).matrix
        sym_a = evolve_operator_symbolic(StateOperator(OperatorOnM(space, A))).matrix
        sym_b = evolve_operator_symbolic(StateOperator(OperatorOnM(space, B))).matrix
        for idx in np.ndindex(3, 3):
            # a P_a(t) + b P_b(t), summed by power of t
            p_a, p_b = sym_a[idx].poly, sym_b[idx].poly
            top = max(p_a.degree, p_b.degree)
            combined = [a * p_a.coefficient(d) + b * p_b.coefficient(d) for d in range(top + 1)]
            assert lhs[idx].poly == Polynomial(combined)


class TestDyadContamination:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corner_entry_grows_like_t_to_the_2k(self, k):
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        sym = evolve_operator_symbolic(dyad_operator(space, k, exact=True)).matrix
        corner = sym[0, 0].poly
        assert corner.degree == 2 * k
        assert corner.coefficient(2 * k) == GaussianRational(1)

    def test_dyad_deviation_is_large_by_five_lifetimes(self):
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        grid = np.linspace(0.0, 5.0, 11)
        assert decay_deviation(dyad_operator(space, 2), grid) > 1e-3


def _exact_abs_squared(value):
    if isinstance(value, GaussianRational):
        return value.re**2 + value.im**2
    return Fraction(value.real) ** 2 + Fraction(value.imag) ** 2


class TestEvolvedNormSquared:
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize(
        "gamma,r,exact",
        # exact entries cancel for any width; float entries only while the
        # rounded anti-diagonal stays proportional to its binomial row
        [(0.8, 6, True), (1.0, 3, False)],
    )
    def test_family_member_norm_is_constant(self, normalization, gamma, r, exact):
        space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
        for W in [w_n(space, n, exact=exact) for n in range(r)] + [w_total(space, exact=exact)]:
            coeffs = evolved_norm_squared(W)
            assert len(coeffs) == 1
            assert coeffs[0] == sum(_exact_abs_squared(v) for v in W.op.matrix.flat)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_dyad_norm_is_square_of_weight_sum(self, k):
        # T~ |k><k| T~^dagger = v v^dagger with v_p = binom(k, p) (-i t)**(k-p)
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        inner = Polynomial(
            [math.comb(k, k - d // 2) ** 2 if d % 2 == 0 else 0 for d in range(2 * k + 1)]
        )
        assert evolved_norm_squared(dyad_operator(space, k)) == (inner * inner).coeffs

    def test_matches_float_evolution(self, space):
        W = StateOperator(OperatorOnM(space, np.arange(9).reshape(3, 3) * (1 - 0.5j)))
        coeffs = [float(c) for c in evolved_norm_squared(W)]
        for t in (0.0, 0.7, 3.0):
            value = math.sqrt(sum(c * t**d for d, c in enumerate(coeffs)))
            expected = np.linalg.norm(float_evolution(W, t)) * math.exp(space.pole.Gamma * t)
            assert value == pytest.approx(expected, rel=1e-12)


class TestDecayDeviation:
    def test_empty_grid_rejected(self, space):
        with pytest.raises(EmptyGridError):
            decay_deviation(w_n(space, 0), [])

    def test_zero_operator_has_zero_deviation(self, space):
        zero = StateOperator(OperatorOnM(space, np.zeros((3, 3))))
        assert decay_deviation(zero, [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_exact_family_members_deviate_by_exactly_zero(self, normalization):
        space = GamowSubspace(ResonancePole(2.0, 0.8, 6), normalization)
        grid = np.linspace(0.0, 10.0, 21)
        for W in [w_n(space, n, exact=True) for n in range(6)] + [w_total(space, exact=True)]:
            assert decay_deviation(W, grid) == 0.0

    @pytest.mark.parametrize("t,tail", [(5.0, 675.0), (9.0, 6723.0)])
    def test_exponential_factor_is_the_split_product(self, t, tail):
        # |1><1| leaves the tail i t|1><0| - i t|0><1| + t**2|0><0| of
        # squared norm 2 t**2 + t**4, exact in floats at these times; the
        # factor is the one exp(-Gamma t) that decay-curve uses too
        width = 0.9137
        space = GamowSubspace(ResonancePole(2.0, width, 2))
        deviation = decay_deviation(dyad_operator(space, 1), [t])
        assert deviation == _exp_decay(width, t) * math.sqrt(tail)

    def test_scale_beyond_float_range_raises(self):
        # 2 pi Gamma overflows: the float carrier refuses to build W (it
        # held inf+nanj entries), and the exact carrier, unscaled, still works
        space = GamowSubspace(ResonancePole(2.0, 1e308, 2))
        with pytest.raises(OverflowError, match="float range"):
            w_total(space)
        assert decay_deviation(w_total(space, exact=True), [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_matches_float_reference_on_random_operators(self, r, normalization):
        rng = np.random.default_rng(RNG_SEED + r)
        space = GamowSubspace(ResonancePole(2.0, 0.7, r), normalization)
        grid = np.linspace(0.0, 4.0, 9)
        for _ in range(3):
            W = random_operator(space, rng)
            assert decay_deviation(W, grid) == pytest.approx(float_deviation(W, grid), rel=1e-12)


class TestPoleTermProbability:
    def test_negative_time_rejected(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
        with pytest.raises(NegativeTimeError):
            pole_term_probability(pair, model, -0.5)

    def test_simple_pole_follows_exponential_law(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
        p0 = pole_term_probability(pair, model, 0.0)
        for t in np.linspace(0.0, 10.0, 11):
            ratio = pole_term_probability(pair, model, float(t)) / p0
            assert ratio == pytest.approx(math.exp(-1.0 * t), rel=1e-10)

    def test_double_pole_departs_from_exponential(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 2))
        p0 = pole_term_probability(pair, model, 0.0)
        t = 5.0
        ratio = pole_term_probability(pair, model, t) / p0
        assert abs(ratio / math.exp(-t) - 1.0) > 1e-6


class TestDetectorProbability:
    @pytest.fixture
    def model(self):
        return SMatrixModel(ResonancePole(2.0, 1.0, 3))

    @pytest.fixture
    def psi(self):
        return TestFunction(((1.0, 1, 1.0), (2.0, 2, 0.5j)))

    def test_pole_mismatch_rejected(self, space, psi):
        other = SMatrixModel(ResonancePole(3.0, 1.0, 3))
        with pytest.raises(ValueError):
            detector_probability(w_n(space, 0), psi, other, 1.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_family_detector_ratio_is_exponential(self, space, psi, model, n):
        W = w_n(space, n)
        p0 = detector_probability(W, psi, model, 0.0)
        assert p0 != 0.0
        for t in (0.5, 2.0, 5.0):
            ratio = detector_probability(W, psi, model, t) / p0
            assert ratio == pytest.approx(math.exp(-t), rel=1e-9)

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_exact_family_detector_is_exponential_to_the_last_bit(self, psi, n, normalization):
        # the t-terms of the exact detector polynomial cancel, so the value
        # at t is exp(-Gamma t) times the value at 0 with nothing rounded in
        # between; written as a product, because a quotient of two rounded
        # floats need not give the factor back exactly
        width = 0.9137
        model = SMatrixModel(ResonancePole(2.0, width, 4))
        W = w_n(GamowSubspace(model.pole, normalization), n, exact=True)
        p0 = detector_probability(W, psi, model, 0.0)
        assert p0 != 0.0
        for t in (0.5, 2.0, 7.3, 40.0):
            assert detector_probability(W, psi, model, t) == _exp_decay(width, t) * p0

    def test_factorial_basis_is_rescaled_derivative_basis(self, psi):
        # |k> of the factorial basis is |k> / k! of the derivative basis, so
        # A there is A_kl / (k! l!) here; both values are the same exact
        # number rounded once
        rng = random.Random(RNG_SEED)
        pole = ResonancePole(2.0, 0.9137, 4)
        model = SMatrixModel(pole)
        fact = np.empty((4, 4), dtype=object)
        deriv = np.empty((4, 4), dtype=object)
        for k, l in np.ndindex(4, 4):
            value = GaussianRational(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)),
            )
            fact[k, l] = value
            scale = Fraction(1, math.factorial(k) * math.factorial(l))
            deriv[k, l] = value * GaussianRational(scale)
        in_fact = StateOperator(OperatorOnM(GamowSubspace(pole, "factorial"), fact))
        in_deriv = StateOperator(OperatorOnM(GamowSubspace(pole, "derivative"), deriv))
        for t in (0.0, 0.5, 3.0, 7.3):
            got = detector_probability(in_fact, psi, model, t)
            assert got == detector_probability(in_deriv, psi, model, t)

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_matches_closed_form_legs(self, psi, normalization):
        # leg k is the k-th derivative of exp(-i w t) psi(w) at z (over k!
        # in the factorial basis), by the product rule on closed-form
        # derivatives of psi; the phases of the two legs leave exp(-Gamma t)
        pole = ResonancePole(2.0, 0.9137, 4)
        model = SMatrixModel(pole)
        z = pole.z_R
        W = random_operator(GamowSubspace(pole, normalization), np.random.default_rng(RNG_SEED))
        derivs = [
            sum(
                c * (-1) ** j * math.perm(m + j - 1, j) * (z - 1j * a) ** (-m - j)
                for a, m, c in psi.terms
            )
            for j in range(4)
        ]
        for t in (0.0, 0.5, 3.0):
            legs = []
            for k in range(4):
                leg = sum(math.comb(k, m) * (-1j * t) ** m * derivs[k - m] for m in range(k + 1))
                scale = math.factorial(k) if normalization == "factorial" else 1
                legs.append(cmath.exp(-1j * z * t) * leg / scale)
            want = sum(
                W.op.matrix[k, l] * legs[k] * legs[l].conjugate() for k, l in np.ndindex(4, 4)
            ).real
            assert detector_probability(W, psi, model, t) == pytest.approx(want, rel=1e-12)

    def test_dyad_detector_ratio_is_not_exponential(self, space, psi, model):
        W = dyad_operator(space, 1)
        p0 = detector_probability(W, psi, model, 0.0)
        t = 5.0
        ratio = detector_probability(W, psi, model, t) / p0
        assert abs(ratio / math.exp(-t) - 1.0) > 1e-2
