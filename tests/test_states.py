"""Tests for the decaying operator families and their observables.

The load-bearing facts: every member of the binomial anti-diagonal
family evolves as a pure exponential (exactly, on the symbolic carrier),
plain dyads do not, and the pole-term pairing sees the same thing.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gamowkit.algebra import GaussianRational, Polynomial, _exp_decay
from gamowkit.cli import R_CAP
from gamowkit.errors import EmptyGridError, IndexOutOfRangeError, NegativeTimeError
from gamowkit.jordan import GamowSubspace, evolution_matrix
from gamowkit.smatrix import ResonancePole, SMatrixModel, TestFunctionPair
from gamowkit.states import (
    StateOperator,
    decay_deviation,
    dyad_operator,
    evolve_operator_symbolic,
    evolved_norm_squared,
    pole_term_probability,
    w_n,
    w_total,
)

RNG_SEED = 20260823


def dense(W):
    """W as a complex matrix, 0 on every absent dyad."""
    r = W.space.dimension
    return np.array([[complex(W.entries.get((k, l), 0)) for l in range(r)] for k in range(r)])


def float_evolution(W, t):
    """Reference T(t) A T(t)^dagger as complex matrix products (BLAS)."""
    ket = np.array(evolution_matrix(W.space, t))
    return ket @ dense(W) @ ket.conj().T


def float_deviation(W, t_grid):
    """Reference decay deviation: max_t ||T A T^dagger - exp(-Gamma t) A|| / ||A||."""
    mat0 = dense(W)
    norm0 = np.linalg.norm(mat0)
    return max(
        np.linalg.norm(float_evolution(W, t) - math.exp(-W.space.pole.Gamma * t) * mat0) / norm0
        for t in t_grid
    )


def rounded(W):
    """W with each exact entry rounded once to a complex float."""
    return StateOperator(W.space, {kl: complex(v) for kl, v in W.entries.items()})


def random_operator(space, rng):
    r = space.dimension
    raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return StateOperator(space, dict(np.ndenumerate(raw)))


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
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.array_equal(dense(w_n(space, 0)), want)

    def test_w2_binomial_anti_diagonal(self, space):
        # (Gamma^2/2) * (|0><2| + 2 |1><1| + |2><0|)
        W = w_n(space, 2)
        assert W.entries.get((0, 2), 0) == GaussianRational(Fraction(1, 2))
        assert W.entries.get((1, 1), 0) == GaussianRational(1)
        assert W.entries.get((2, 0), 0) == GaussianRational(Fraction(1, 2))
        assert np.count_nonzero(dense(W)) == 3

    def test_factorial_normalization_flattens_weights(self):
        space = GamowSubspace(ResonancePole(2.0, 0.5, 3), "factorial")
        W = w_n(space, 2)
        for k in range(3):
            assert W.entries.get((k, 2 - k), 0) == GaussianRational(Fraction(1, 4))

    def test_index_out_of_range(self, space):
        with pytest.raises(IndexOutOfRangeError):
            w_n(space, 3)
        with pytest.raises(IndexOutOfRangeError):
            dyad_operator(space, 3)

    def test_entries_outside_the_square_rejected(self, space):
        with pytest.raises(IndexOutOfRangeError):
            StateOperator(space, {(0, 3): 1.0})

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("gamma", [0.9137, 1e-300, 1e308])
    def test_entries_match_the_closed_forms(self, gamma, normalization):
        # oracle: Gamma**n / n! * binom(n, k) (or Gamma**n) at the exact value
        # of the float Gamma, the weights binom(r, n+1) (-i)**n of W / (2 pi
        # Gamma) as complex integers, and 1 on the dyad; 1e308 is where the
        # 2 pi Gamma scale leaves the float range
        units = [(1, 0), (0, -1), (-1, 0), (0, 1)]
        members = []
        for n in range(R_CAP):
            power = Fraction(gamma) ** n
            if normalization == "derivative":
                row = [power * math.comb(n, k) / math.factorial(n) for k in range(n + 1)]
            else:
                row = [power] * (n + 1)
            members.append({(k, n - k): value for k, value in enumerate(row)})
        # W(n) does not depend on r beyond n < r
        top = GamowSubspace(ResonancePole(2.0, gamma, R_CAP), normalization)
        for n, member in enumerate(members):
            got = {kl: (v.re, v.im) for kl, v in w_n(top, n).entries.items()}
            assert got == {kl: (value, 0) for kl, value in member.items()}
        for r in range(1, R_CAP + 1):
            space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
            want = {}
            for n in range(r):
                re, im = units[n % 4]
                weight = math.comb(r, n + 1)
                want.update(
                    (kl, (re * weight * v, im * weight * v)) for kl, v in members[n].items()
                )
            assert {kl: (v.re, v.im) for kl, v in w_total(space).entries.items()} == want
            for k in range(r):
                assert dyad_operator(space, k).entries == {(k, k): GaussianRational(1)}

    def test_star_import_provides_constructors(self):
        namespace = {}
        exec("from gamowkit import *", namespace)
        assert {"w_n", "w_total", "dyad_operator"} <= namespace.keys()

    def test_total_is_weighted_sum(self, space):
        total = dense(w_total(space))
        acc = np.zeros((3, 3), dtype=complex)
        for n in range(3):
            member = dense(w_n(space, n))
            acc += math.comb(3, n + 1) * (-1j) ** n * member
        np.testing.assert_allclose(total, acc, rtol=1e-15)

    def test_exact_total_cycles_through_powers_of_minus_i(self):
        # r = 6 reaches (-i)**n for every residue of n mod 4
        space = GamowSubspace(ResonancePole(2.0, 0.75, 6))
        total = w_total(space).entries
        units = [(1, 0), (0, -1), (-1, 0), (0, 1)]
        for n in range(6):
            re, im = units[n % 4]
            member = w_n(space, n).entries
            for k in range(n + 1):
                value = math.comb(6, n + 1) * member[k, n - k].re
                assert total[k, n - k] == GaussianRational(re * value, im * value)


class TestEvolution:
    def test_negative_time_rejected(self, space):
        with pytest.raises(NegativeTimeError):
            decay_deviation(w_n(space, 0), [0.0, 1.0, -1.0])
        zero = StateOperator(space, {})
        with pytest.raises(NegativeTimeError):
            decay_deviation(zero, [-0.5])

    def test_time_zero_is_identity_map(self, space):
        # float entries enter at their exact value, so t = 0 gives them back bit for bit
        W = rounded(w_total(space))
        sym = evolve_operator_symbolic(W)
        evolved = np.array([[entry(0.0) for entry in row] for row in sym])
        assert np.array_equal(evolved, dense(W))

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_family_decays_purely_exponentially(self, r, normalization):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        grid = np.linspace(0.0, 10.0, 21)
        for n in range(r):
            assert decay_deviation(rounded(w_n(space, n)), grid) <= 1e-12
        assert decay_deviation(rounded(w_total(space)), grid) <= 1e-12

    def test_evolved_family_member_stays_hermitian(self, space):
        sym = evolve_operator_symbolic(w_n(space, 2))
        for i in range(3):
            for j in range(3):
                mirrored = [GaussianRational(c.re, -c.im) for c in sym[j][i].poly.coeffs]
                assert sym[i][j].poly.coeffs == tuple(mirrored)

    def test_numeric_and_symbolic_paths_agree(self, space):
        # a float input reproduces the float matrix-product reference
        rng = np.random.default_rng(RNG_SEED)
        W = random_operator(space, rng)
        sym = evolve_operator_symbolic(W)
        for entry in (entry for row in sym for entry in row):
            assert entry.rate == GaussianRational(-1)
            assert all(isinstance(c, GaussianRational) for c in entry.poly.coeffs)
        for t in (0.0, 0.8, 2.5):
            numeric = float_evolution(W, t)
            for i in range(3):
                for j in range(3):
                    assert sym[i][j](t) == pytest.approx(numeric[i, j], abs=1e-12)

    def test_symbolic_family_member_has_no_polynomial_tail(self, space):
        # the strong form of the decay law: zero remainder, not small
        for n in range(3):
            W = w_n(space, n)
            sym = evolve_operator_symbolic(W)
            for i in range(3):
                for j in range(3):
                    entry = sym[i][j]
                    assert entry.rate == GaussianRational(-1)
                    assert entry.poly.degree <= 0
                    assert entry.poly.coefficient(0) == W.entries.get((i, j), 0)

    def test_symbolic_evolution_is_linear(self, space):
        a = GaussianRational(2)
        b = GaussianRational(0, 1)
        A = {(1, 2): GaussianRational(1)}
        B = dyad_operator(space, 0).entries
        combo = {kl: a * A.get(kl, 0) + b * B.get(kl, 0) for kl in A.keys() | B.keys()}
        lhs = evolve_operator_symbolic(StateOperator(space, combo))
        sym_a = evolve_operator_symbolic(StateOperator(space, A))
        sym_b = evolve_operator_symbolic(StateOperator(space, B))
        for i, j in np.ndindex(3, 3):
            # a P_a(t) + b P_b(t), summed by power of t
            p_a, p_b = sym_a[i][j].poly, sym_b[i][j].poly
            top = max(p_a.degree, p_b.degree)
            combined = [a * p_a.coefficient(d) + b * p_b.coefficient(d) for d in range(top + 1)]
            assert lhs[i][j].poly == Polynomial(combined)


class TestDyadContamination:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corner_entry_grows_like_t_to_the_2k(self, k):
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        sym = evolve_operator_symbolic(dyad_operator(space, k))
        corner = sym[0][0].poly
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
        # exact entries cancel for any width; rounded entries only while the
        # rounded anti-diagonal stays proportional to its binomial row
        [(0.8, 6, True), (1.0, 3, False)],
    )
    def test_family_member_norm_is_constant(self, normalization, gamma, r, exact):
        space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
        for W in [w_n(space, n) for n in range(r)] + [w_total(space)]:
            W = W if exact else rounded(W)
            coeffs, den = evolved_norm_squared(W)
            assert len(coeffs) == 1
            norm0 = sum(_exact_abs_squared(v) for v in W.entries.values())
            assert Fraction(coeffs[0], den) == norm0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_dyad_norm_is_square_of_weight_sum(self, k):
        # T~ |k><k| T~^dagger = v v^dagger with v_p = binom(k, p) (-i t)**(k-p)
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        inner = Polynomial(
            [math.comb(k, k - d // 2) ** 2 if d % 2 == 0 else 0 for d in range(2 * k + 1)]
        )
        coeffs, den = evolved_norm_squared(dyad_operator(space, k))
        assert [Fraction(c, den) for c in coeffs] == list((inner * inner).coeffs)

    def test_matches_float_evolution(self, space):
        entries = {(k, l): (3 * k + l) * (1 - 0.5j) for k in range(3) for l in range(3)}
        W = StateOperator(space, entries)
        coeffs, den = evolved_norm_squared(W)
        coeffs = [c / den for c in coeffs]
        for t in (0.0, 0.7, 3.0):
            value = math.sqrt(sum(c * t**d for d, c in enumerate(coeffs)))
            expected = np.linalg.norm(float_evolution(W, t)) * math.exp(space.pole.Gamma * t)
            assert value == pytest.approx(expected, rel=1e-12)


class TestDecayDeviation:
    def test_empty_grid_rejected(self, space):
        with pytest.raises(EmptyGridError):
            decay_deviation(w_n(space, 0), [])

    def test_zero_operator_has_zero_deviation(self, space):
        zero = StateOperator(space, {})
        assert decay_deviation(zero, [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_exact_family_members_deviate_by_exactly_zero(self, normalization):
        space = GamowSubspace(ResonancePole(2.0, 0.8, 6), normalization)
        grid = np.linspace(0.0, 10.0, 21)
        for W in [w_n(space, n) for n in range(6)] + [w_total(space)]:
            assert decay_deviation(W, grid) == 0.0

    @pytest.mark.parametrize("t,tail", [(5.0, 675.0), (9.0, 6723.0)])
    def test_exponential_factor_is_the_split_product(self, t, tail):
        # |1><1| leaves the tail i t|1><0| - i t|0><1| + t**2|0><0| of
        # squared norm 2 t**2 + t**4, exact in floats at these times; the
        # factor is the one exp(-Gamma t) that decay-curve uses too
        width = 0.9137
        space = GamowSubspace(ResonancePole(2.0, width, 2))
        deviation = decay_deviation(dyad_operator(space, 1), [t])
        assert deviation == math.ldexp(*_exp_decay(width, t)) * math.sqrt(tail)

    def test_total_at_the_top_of_the_float_range_decays_exactly(self):
        # 2 pi Gamma leaves the float range, but W / (2 pi Gamma) is exact
        space = GamowSubspace(ResonancePole(2.0, 1e308, 2))
        assert decay_deviation(w_total(space), [0.0, 1.0]) == 0.0

    def test_tail_beyond_float_range_is_the_finite_value(self):
        # |1><1| has D(t) = 2 t**2 + t**4: at t = 1e80, t**4 leaves the float
        # range, but the deviation exp(-Gamma t) sqrt(D(t)) is about 1e160
        space = GamowSubspace(ResonancePole(2.0, 1e-100, 2))
        got = decay_deviation(dyad_operator(space, 1), [1.0, 1e80])
        with mpmath.workdps(50):
            t = mpmath.mpf(1e80)
            want = mpmath.exp(-mpmath.mpf(1e-100) * t) * mpmath.sqrt(2 * t**2 + t**4)
            assert abs(got - want) <= 2.0**-51 * want

    def test_deviation_where_the_exponential_underflows(self):
        # exp(-800) is below the float range; |7><7| leaves the tail of
        # squared norm s_7(t)**2 - 1, s_7(t) = sum_p binom(7, p)**2 t**(14-2p)
        space = GamowSubspace(ResonancePole(2.0, 1.0, 8))
        got = decay_deviation(dyad_operator(space, 7), [800.0])
        with mpmath.workdps(40):
            t = mpmath.mpf(800)
            s = sum(math.comb(7, p) ** 2 * t ** (14 - 2 * p) for p in range(8))
            want = mpmath.exp(-t) * mpmath.sqrt(s * s - 1)
            assert abs(got - want) <= 2.0**-51 * want
        assert got == pytest.approx(1.6133e-307, rel=1e-4)

    def test_deviation_beyond_float_range_raises(self):
        # the true deviation at t = 1e160 is about 1e320
        space = GamowSubspace(ResonancePole(2.0, 1e-300, 2))
        with pytest.raises(OverflowError, match=r"t = 1e\+160"):
            decay_deviation(dyad_operator(space, 1), [1.0, 1e160])

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_matches_float_reference_on_random_operators(self, r, normalization):
        rng = np.random.default_rng(RNG_SEED + r)
        space = GamowSubspace(ResonancePole(2.0, 0.7, r), normalization)
        grid = np.linspace(0.0, 4.0, 9)
        for _ in range(3):
            W = random_operator(space, rng)
            assert decay_deviation(W, grid) == pytest.approx(float_deviation(W, grid), rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda space, pair: evolution_matrix(space, math.nan),
        lambda space, pair: decay_deviation(dyad_operator(space, 1), [math.nan]),
        lambda space, pair: decay_deviation(w_n(space, 1), [math.nan]),
        lambda space, pair: pole_term_probability(pair, SMatrixModel(space.pole), math.nan),
    ],
    ids=["evolution_matrix", "dyad_deviation", "family_deviation", "pole_term_probability"],
)
def test_nan_time_is_invalid_input(space, pair, call):
    # nan is no time t >= 0: invalid input, not an overflow or a failed conversion
    with pytest.raises(NegativeTimeError):
        call(space, pair)


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

