"""Tests for the Jordan-block subspace and its semigroup evolution.

Rank statements are checked against an SVD oracle, the generator against
both a central difference and the exact symbolic derivative, and the two
normalizations against each other by exact diagonal conjugation.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gamowkit.algebra import GaussianRational
from gamowkit.errors import NegativeTimeError
from gamowkit.jordan import (
    GamowSubspace,
    OperatorOnM,
    conjugation_polys,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_power,
)
from gamowkit.smatrix import ResonancePole
from gamowkit.states import StateOperator, dyad_operator, evolve_operator_symbolic

from expansion import expand

RNG_SEED = 20260823


def numeric_rank(mat: np.ndarray) -> int:
    """Rank via singular values; entries here are small integers."""
    s = np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))


@pytest.fixture
def space():
    return GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")


@pytest.fixture
def space_factorial():
    return GamowSubspace(ResonancePole(2.0, 1.0, 4), "factorial")


class TestStructures:
    def test_dimension_tracks_pole_order(self):
        for r in (1, 3, 8):
            assert GamowSubspace(ResonancePole(2.0, 1.0, r)).dimension == r

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError):
            GamowSubspace(ResonancePole(2.0, 1.0, 2), "orthonormal")

    def test_operator_shape_checked(self, space):
        with pytest.raises(ValueError):
            OperatorOnM(space, np.zeros((2, 2)))

    def test_operator_matrix_is_frozen(self, space):
        op = hamiltonian_matrix(space)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.0

    def test_operator_norm_is_frobenius(self, space):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 1] = 3.0
        mat[2, 3] = 4.0j
        assert OperatorOnM(space, mat).norm() == pytest.approx(5.0)


class TestHamiltonian:
    def test_pairing_layout_is_lower_jordan(self, space):
        mat = hamiltonian_matrix(space).matrix
        z = space.pole.z_R
        for k in range(4):
            assert mat[k, k] == z
            if k > 0:
                assert mat[k, k - 1] == k
        assert np.count_nonzero(mat) == 4 + 3

    def test_factorial_subdiagonal_is_ones(self, space_factorial):
        mat = hamiltonian_matrix(space_factorial).matrix
        for k in range(1, 4):
            assert mat[k, k - 1] == 1.0

    def test_action_layout_is_transpose(self, space):
        lower = hamiltonian_matrix(space).matrix
        upper = hamiltonian_action_matrix(space).matrix
        assert np.array_equal(upper, lower.T)


class TestNilpotentPowers:
    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_rank_drops_by_one_per_power(self, r, normalization):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        for k in range(r + 1):
            assert numeric_rank(nilpotent_power(space, k).matrix) == r - k

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_r_th_power_is_exactly_zero(self, r):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r))
        assert nilpotent_power(space, r).norm() == 0.0

    def test_huge_exponent_is_still_zero(self, space):
        assert nilpotent_power(space, 10**9).norm() == 0.0

    def test_negative_exponent_rejected(self, space):
        with pytest.raises(ValueError):
            nilpotent_power(space, -1)

    def test_first_power_entries(self, space):
        # column k of (H - z) holds the lowering weight on |k-1>
        nil = nilpotent_power(space, 1).matrix
        for k in range(1, 4):
            assert nil[k - 1, k] == k


class TestEvolutionMatrix:
    def test_negative_time_rejected(self, space):
        with pytest.raises(NegativeTimeError):
            evolution_matrix(space, -0.1)

    def test_time_zero_is_identity(self, space):
        assert np.array_equal(evolution_matrix(space, 0.0).matrix, np.eye(4))

    def test_phase_beyond_float_range_raises(self):
        # E_R t overflows, so exp(-i z t) has no float value
        space = GamowSubspace(ResonancePole(1e308, 0.5, 2))
        with pytest.raises(OverflowError, match="float range"):
            evolution_matrix(space, 2.0)

    def test_entries_match_hand_formula(self, space):
        t = 0.7
        z = space.pole.z_R
        mat = evolution_matrix(space, t).matrix
        phase = np.exp(-1j * z * t)
        for k in range(4):
            for p in range(4):
                if p > k:
                    assert mat[p, k] == 0.0
                else:
                    want = phase * math.comb(k, p) * (-1j * t) ** (k - p)
                    assert mat[p, k] == pytest.approx(want, rel=1e-15)

    def test_factorial_entries(self, space_factorial):
        t = 0.7
        mat = evolution_matrix(space_factorial, t).matrix
        phase = np.exp(-1j * space_factorial.pole.z_R * t)
        for k in range(4):
            for p in range(k + 1):
                want = phase * (-1j * t) ** (k - p) / math.factorial(k - p)
                assert mat[p, k] == pytest.approx(want, rel=1e-15)

    def test_bra_is_conjugate_transpose(self, space):
        # T |0><k| T^dagger = |0> (T |k>)^dagger: row 0 of the conjugated
        # dyad, with the ket phase exp(-i z t) put back, is the conjugate of
        # column k of T(t)
        z = space.pole.z_R
        for k in range(4):
            sym = evolve_operator_symbolic(dyad_operator(space, 0, k)).matrix
            for t in (0.0, 0.4, 2.3):
                ket = evolution_matrix(space, t).matrix
                for p in range(4):
                    bra = sym[0, p](t) * np.exp(1j * z * t)
                    assert bra == pytest.approx(np.conj(ket[p, k]), rel=1e-13, abs=1e-15)

    def test_semigroup_property(self, space):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            t1, t2 = rng.uniform(0.0, 3.0, size=2)
            lhs = evolution_matrix(space, t1).matrix @ evolution_matrix(space, t2).matrix
            rhs = evolution_matrix(space, t1 + t2).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_generator_by_central_difference(self, space):
        # t = 0 sits on the boundary of the semigroup domain, so the
        # difference quotient is centred at an interior time instead:
        # (T(h+d) - T(h-d)) / 2d  ==  -i H T(h)
        h, d = 0.5, 1e-6
        lhs = (evolution_matrix(space, h + d).matrix - evolution_matrix(space, h - d).matrix) / (
            2.0 * d
        )
        rhs = -1j * hamiltonian_action_matrix(space).matrix @ evolution_matrix(space, h).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def _ket_column(normalization, k):
    """Column k of T~(t), read off the conjugated dyad |k><0|: for each p
    the single power of t and its exact coefficient."""
    polys, denominator = conjugation_polys(normalization, {(k, 0): GaussianRational(1)})
    column = {}
    for (p, q), poly in polys.items():
        assert q == 0 and len(poly) == 1
        ((d, (re, im)),) = poly.items()
        column[p] = (d, GaussianRational(Fraction(re, denominator), Fraction(im, denominator)))
    return column


class TestEvolutionPolys:
    def test_degrees_and_triangularity(self):
        for k in range(4):
            column = _ket_column("derivative", k)
            assert sorted(column) == list(range(k + 1))
            for p, (d, _) in column.items():
                assert d == k - p

    def test_exact_coefficients_are_gaussian(self):
        polys, denominator = conjugation_polys("derivative", {(3, 0): GaussianRational(1)})
        # binom(3, 0) * (-i)^3 = i
        assert denominator == 1
        assert polys[0, 0] == {3: (0, 1)}

    def test_bra_polys_transpose_with_conjugate_units(self):
        # |0><k| spreads along row 0 with (i t) where |k><0| has (-i t)
        for k in range(4):
            ket, ket_den = conjugation_polys("derivative", {(k, 0): GaussianRational(1)})
            bra, bra_den = conjugation_polys("derivative", {(0, k): GaussianRational(1)})
            assert bra_den == ket_den
            assert sorted(bra) == [(0, p) for p in range(k + 1)]
            for p in range(k + 1):
                ((d, (re, im)),) = ket[p, 0].items()
                sign = (-1) ** d
                assert bra[0, p] == {d: (sign * re, sign * im)}

    def test_normalizations_conjugate_by_factorials(self):
        # T_factorial == D^-1 T_derivative D with D = diag(1/k!)
        for k in range(5):
            deriv = _ket_column("derivative", k)
            fact = _ket_column("factorial", k)
            assert sorted(fact) == sorted(deriv)
            for p in deriv:
                scale = Fraction(math.factorial(p), math.factorial(k))
                assert fact[p] == (deriv[p][0], deriv[p][1] * GaussianRational(scale))


class TestConjugationPolys:
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 2, 4, 6])
    def test_matches_sum_of_monomial_products(self, normalization, r):
        # reference: every dyad |k><l| expanded monomial by monomial,
        # w(k, i) w(l, j) (-i t)**(k-i) (i t)**(l-j) onto |i><j|, and summed
        # by power of t
        rng = random.Random(RNG_SEED + r)
        for _ in range(3):
            entries = {}
            for k in range(r):
                for l in range(r):
                    if rng.random() < 0.6:
                        entries[k, l] = GaussianRational(
                            Fraction(rng.randrange(-7, 8), rng.randrange(1, 6)),
                            Fraction(rng.randrange(-7, 8), rng.randrange(1, 6)),
                        )
            polys, denominator = conjugation_polys(normalization, entries)
            got = {}
            for ij, poly in polys.items():
                got[ij] = {}
                for d, (re, im) in poly.items():
                    assert re or im
                    got[ij][d] = GaussianRational(
                        Fraction(re, denominator), Fraction(im, denominator)
                    )
            assert got == expand(normalization, entries)

    def test_degree_zero_part_is_the_operator(self):
        entries = {(2, 1): GaussianRational(Fraction(1, 3), -2), (0, 3): GaussianRational(5)}
        polys, denominator = conjugation_polys("factorial", entries)
        for ij, value in entries.items():
            re, im = polys[ij][0]
            assert GaussianRational(Fraction(re, denominator), Fraction(im, denominator)) == value

    def test_empty_operator_has_no_terms(self):
        assert conjugation_polys("derivative", {}) == ({}, 1)


class TestSymbolicEvolution:
    def test_rate_is_minus_i_z(self):
        # the ket side of T |k><l| T^dagger carries exp(-i z t), the bra side
        # exp(i conj(z) t); their shared rate -Gamma is held at the exact
        # rational value of the float width
        space = GamowSubspace(ResonancePole(2.0, 0.3, 3))
        sym = evolve_operator_symbolic(dyad_operator(space, 2, 1)).matrix
        for entry in sym.flat:
            assert entry.rate == GaussianRational(-Fraction(0.3))
        z = space.pole.z_R
        ket_rate = complex(sym[0, 0].rate) - 1j * z.conjugate()
        assert ket_rate == pytest.approx(-1j * z, rel=1e-15)

    def test_matches_numeric_evolution(self, space):
        # T |k><0| T^dagger = T|k> exp(i conj(z) t) <0|
        z = space.pole.z_R
        for k in range(4):
            sym = evolve_operator_symbolic(dyad_operator(space, k, 0)).matrix
            for t in (0.0, 0.9, 3.7):
                numeric = evolution_matrix(space, t).matrix
                for p in range(4):
                    column = sym[p, 0](t) * np.exp(-1j * z.conjugate() * t)
                    assert column == pytest.approx(numeric[p, k], abs=1e-13)

    def test_symbolic_derivative_is_generator_applied(self, space):
        # entrywise: d/dt (T A T^dagger) == -i H (T A T^dagger) + i (T A T^dagger) H^dagger
        rng = np.random.default_rng(RNG_SEED)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sym = evolve_operator_symbolic(StateOperator(OperatorOnM(space, raw))).matrix
        h_action = hamiltonian_action_matrix(space).matrix
        h_dagger = h_action.conj().T
        t = 1.3
        values = np.array([[sym[p, q](t) for q in range(4)] for p in range(4)])
        applied = -1j * h_action @ values + 1j * values @ h_dagger
        for p in range(4):
            for q in range(4):
                # d/dt exp(rate t) P(t) = exp(rate t) (rate P(t) + P'(t))
                entry = sym[p, q]
                rate = complex(entry.rate)
                coeffs = entry.poly.coeffs
                slope = sum(d * complex(c) * t ** (d - 1) for d, c in enumerate(coeffs) if d)
                derived = np.exp(rate * t) * (rate * entry.poly(t) + slope)
                assert derived == pytest.approx(applied[p, q], rel=1e-12, abs=1e-12)
