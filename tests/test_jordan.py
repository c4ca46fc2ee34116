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
from hypothesis import given, settings
from hypothesis import strategies as st

from gamowkit.cli import R_CAP
from gamowkit.errors import NegativeTimeError
from gamowkit.jordan import (
    GamowSubspace,
    conjugation_polys,
    evolution_matrix,
    hamiltonian_action_matrix,
    hamiltonian_matrix,
    nilpotent_norm,
    nilpotent_power,
)
from gamowkit.smatrix import ResonancePole
from gamowkit.states import StateOperator

from expansion import expand

RNG_SEED = 20260823


def numeric_rank(mat: np.ndarray) -> int:
    """Rank via singular values; entries here are small integers."""
    s = np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))


def rounds_root(value: float, square: Fraction) -> bool:
    """Whether value is sqrt(square) rounded to the nearest float: square
    lies between the squares of the midpoints to both float neighbours."""
    below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
    low, high = (Fraction(below) + Fraction(value)) / 2, (Fraction(value) + Fraction(above)) / 2
    return low * low <= square <= high * high


def polys_at(space, entries, denominator, t):
    """(P(t), P'(t)) as complex matrices, P the conjugation polynomials of
    the operator with the Gaussian integers entries over denominator."""
    r = space.dimension
    polys, den = conjugation_polys(space.normalization, entries, denominator)
    values, slopes = np.zeros((r, r), dtype=complex), np.zeros((r, r), dtype=complex)
    for ij, poly in polys.items():
        coeffs = {d: complex(re / den, im / den) for d, (re, im) in poly.items()}
        values[ij] = sum(c * t**d for d, c in coeffs.items())
        slopes[ij] = sum(d * c * t ** (d - 1) for d, c in coeffs.items() if d)
    return values, slopes


def evolved(space, entries, t):
    """T(t) A T(t)^dagger for the integer entries of A, read off
    conjugation_polys with the shared phase exp(-Gamma t) put back."""
    return np.exp(-space.pole.Gamma * t) * polys_at(space, entries, 1, t)[0]


def exact_entries(entries: dict) -> tuple:
    """Entries (re, im) in Fractions as Gaussian integers over their least common denominator."""
    den = math.lcm(*(q.denominator for v in entries.values() for q in v))
    return {kl: (int(re * den), int(im * den)) for kl, (re, im) in entries.items()}, den


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


class TestHamiltonian:
    def test_pairing_layout_is_lower_jordan(self, space):
        mat = hamiltonian_matrix(space)
        z = space.pole.z_R
        for k in range(4):
            assert mat[k][k] == z
            if k > 0:
                assert mat[k][k - 1] == k
        assert np.count_nonzero(mat) == 4 + 3

    def test_factorial_subdiagonal_is_ones(self, space_factorial):
        mat = hamiltonian_matrix(space_factorial)
        for k in range(1, 4):
            assert mat[k][k - 1] == 1.0

    def test_action_layout_is_transpose(self, space):
        lower = np.array(hamiltonian_matrix(space))
        upper = np.array(hamiltonian_action_matrix(space))
        assert np.array_equal(upper, lower.T)


class TestNilpotentPowers:
    @pytest.mark.parametrize("r", [1, 2, 4, 8])
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_rank_drops_by_one_per_power(self, r, normalization):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        for k in range(r + 1):
            assert numeric_rank(nilpotent_power(space, k)) == r - k

    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_r_th_power_is_exactly_zero(self, r):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r))
        assert not any(map(any, nilpotent_power(space, r)))

    def test_huge_exponent_is_still_zero(self, space):
        assert not any(map(any, nilpotent_power(space, 10**9)))

    def test_negative_exponent_rejected(self, space):
        with pytest.raises(ValueError):
            nilpotent_power(space, -1)

    def test_first_power_entries(self, space):
        # column k of (H - z) holds the lowering weight on |k-1>
        nil = nilpotent_power(space, 1)
        for k in range(1, 4):
            assert nil[k - 1][k] == k

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_entries_and_norms_are_correctly_rounded_up_to_the_cap(self, normalization):
        # oracle: integer powers of the integer lowering matrix N, built one
        # factor at a time as (P N)[i][j] = P[i][j-1] w_j, each entry rounded
        # once; nilpotent_norm is the root of the exact sum of squares of
        # the integers
        for r in range(1, R_CAP + 1):
            space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
            weight = [m if normalization == "derivative" else 1 for m in range(r)]
            power = [[int(i == j) for j in range(r)] for i in range(r)]
            for k in range(r + 1):
                assert nilpotent_power(space, k) == [[float(x) for x in row] for row in power]
                exact = sum(x * x for row in power for x in row)
                assert rounds_root(nilpotent_norm(space, k), Fraction(exact))
                power = [[row[j - 1] * weight[j] if j else 0 for j in range(r)] for row in power]


class TestEvolutionMatrix:
    def test_negative_time_rejected(self, space):
        with pytest.raises(NegativeTimeError):
            evolution_matrix(space, -0.1)

    def test_time_zero_is_identity(self, space):
        assert np.array_equal(evolution_matrix(space, 0.0), np.eye(4))

    def test_phase_beyond_float_range_raises(self):
        # E_R t overflows, so exp(-i z t) has no float value
        space = GamowSubspace(ResonancePole(1e308, 0.5, 2))
        with pytest.raises(OverflowError, match="float range"):
            evolution_matrix(space, 2.0)

    def test_power_of_t_beyond_float_range_names_t(self):
        # exp(-i z t) is finite at t = 1e300, but (-i t)**2 is not
        space = GamowSubspace(ResonancePole(2.0, 1e-300, 3))
        with pytest.raises(
            OverflowError, match=r"^the evolution matrix leaves the float range at t = 1e\+300$"
        ):
            evolution_matrix(space, 1e300)

    def test_entries_match_hand_formula(self, space):
        t = 0.7
        z = space.pole.z_R
        mat = evolution_matrix(space, t)
        phase = np.exp(-1j * z * t)
        for k in range(4):
            for p in range(4):
                if p > k:
                    assert mat[p][k] == 0.0
                else:
                    want = phase * math.comb(k, p) * (-1j * t) ** (k - p)
                    assert mat[p][k] == pytest.approx(want, rel=1e-15)

    def test_factorial_entries(self, space_factorial):
        t = 0.7
        mat = evolution_matrix(space_factorial, t)
        phase = np.exp(-1j * space_factorial.pole.z_R * t)
        for k in range(4):
            for p in range(k + 1):
                want = phase * (-1j * t) ** (k - p) / math.factorial(k - p)
                assert mat[p][k] == pytest.approx(want, rel=1e-15)

    def test_bra_is_conjugate_transpose(self, space):
        # T |0><k| T^dagger = |0> (T |k>)^dagger: row 0 of the conjugated
        # dyad, with the ket phase exp(-i z t) put back, is the conjugate of
        # column k of T(t)
        z = space.pole.z_R
        for k in range(4):
            for t in (0.0, 0.4, 2.3):
                row = evolved(space, {(0, k): (1, 0)}, t)[0]
                ket = evolution_matrix(space, t)
                for p in range(4):
                    bra = row[p] * np.exp(1j * z * t)
                    assert bra == pytest.approx(np.conj(ket[p][k]), rel=1e-13, abs=1e-15)

    def test_semigroup_property(self, space):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            t1, t2 = rng.uniform(0.0, 3.0, size=2)
            lhs = np.array(evolution_matrix(space, t1)) @ np.array(evolution_matrix(space, t2))
            rhs = np.array(evolution_matrix(space, t1 + t2))
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_generator_by_central_difference(self, space):
        # t = 0 sits on the boundary of the semigroup domain, so the
        # difference quotient is centred at an interior time instead:
        # (T(h+d) - T(h-d)) / 2d  ==  -i H T(h)
        h, d = 0.5, 1e-6
        def T(t):
            return np.array(evolution_matrix(space, t))

        lhs = (T(h + d) - T(h - d)) / (2.0 * d)
        rhs = -1j * np.array(hamiltonian_action_matrix(space)) @ T(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestEvolutionMatrixBytes:
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_entries_are_the_numpy_form_bit_for_bit(self, normalization):
        # reference: the dense numpy form exp(-i z t) * M at jordan-info's
        # sample t = 1/Gamma, M holding w(k, p) (-i t)**(k-p) in column k;
        # both parts are compared by hex, so signed zeros count too
        rng = random.Random(RNG_SEED)
        for width in [10.0**e for e in range(-5, 6)]:
            energy = 10.0 ** rng.uniform(-5, 5)
            t = 1.0 / width
            for r in range(1, R_CAP + 1):
                space = GamowSubspace(ResonancePole(energy, width, r), normalization)
                mat = np.zeros((r, r), dtype=complex)
                for k in range(r):
                    for p in range(k + 1):
                        if normalization == "derivative":
                            weight = math.comb(k, p)
                        else:
                            weight = 1 / math.factorial(k - p)
                        mat[p, k] = weight * (-1j * t) ** (k - p)
                want = np.exp(-1j * space.pole.z_R * t) * mat
                got = evolution_matrix(space, t)
                for p in range(r):
                    for k in range(r):
                        parts = (got[p][k].real.hex(), got[p][k].imag.hex())
                        assert parts == (want[p, k].real.hex(), want[p, k].imag.hex())


def _ket_column(normalization, k):
    """Column k of T~(t), read off the conjugated dyad |k><0|: for each p
    the single power of t and its exact coefficient."""
    polys, denominator = conjugation_polys(normalization, {(k, 0): (1, 0)}, 1)
    column = {}
    for (p, q), poly in polys.items():
        assert q == 0 and len(poly) == 1
        ((d, (re, im)),) = poly.items()
        column[p] = (d, (Fraction(re, denominator), Fraction(im, denominator)))
    return column


class TestEvolutionPolys:
    def test_degrees_and_triangularity(self):
        for k in range(4):
            column = _ket_column("derivative", k)
            assert sorted(column) == list(range(k + 1))
            for p, (d, _) in column.items():
                assert d == k - p

    def test_exact_coefficients_are_gaussian(self):
        polys, denominator = conjugation_polys("derivative", {(3, 0): (1, 0)}, 1)
        # binom(3, 0) * (-i)^3 = i
        assert denominator == 1
        assert polys[0, 0] == {3: (0, 1)}

    def test_bra_polys_transpose_with_conjugate_units(self):
        # |0><k| spreads along row 0 with (i t) where |k><0| has (-i t)
        for k in range(4):
            ket, ket_den = conjugation_polys("derivative", {(k, 0): (1, 0)}, 1)
            bra, bra_den = conjugation_polys("derivative", {(0, k): (1, 0)}, 1)
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
                assert fact[p] == (deriv[p][0], tuple(part * scale for part in deriv[p][1]))


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
                        entries[k, l] = (
                            Fraction(rng.randrange(-7, 8), rng.randrange(1, 6)),
                            Fraction(rng.randrange(-7, 8), rng.randrange(1, 6)),
                        )
            polys, denominator = conjugation_polys(normalization, *exact_entries(entries))
            got = {}
            for ij, poly in polys.items():
                got[ij] = {}
                for d, (re, im) in poly.items():
                    assert re or im
                    got[ij][d] = (Fraction(re, denominator), Fraction(im, denominator))
            assert got == expand(normalization, entries)

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), normalization=st.sampled_from(["derivative", "factorial"]),
           r=st.integers(min_value=1, max_value=12), dense=st.booleans(),
           denominator=st.integers(min_value=1, max_value=2**64))
    def test_matches_the_oracle_on_drawn_operators(self, data, normalization, r, dense,
                                                   denominator):
        # every layer of the translation divides exactly by its power d;
        # Gaussian entries up to 2**200, over a denominator not reduced
        # against them, on a sparse or a full square up to r = 12
        part = st.integers(min_value=-2**200, max_value=2**200)
        if dense:
            values = data.draw(st.lists(st.tuples(part, part), min_size=r * r, max_size=r * r))
            entries = {(k, l): values[k * r + l] for k in range(r) for l in range(r)}
        else:
            index = st.integers(min_value=0, max_value=r - 1)
            entries = data.draw(st.dictionaries(st.tuples(index, index), st.tuples(part, part),
                                                max_size=r))
        polys, den = conjugation_polys(normalization, entries, denominator)
        got = {ij: {d: (Fraction(re, den), Fraction(im, den)) for d, (re, im) in poly.items()}
               for ij, poly in polys.items()}
        exact = {kl: (Fraction(re, denominator), Fraction(im, denominator))
                 for kl, (re, im) in entries.items()}
        assert got == expand(normalization, exact)

    def test_degree_zero_part_is_the_operator(self):
        entries = {(2, 1): (Fraction(1, 3), -2), (0, 3): (5, 0)}
        polys, denominator = conjugation_polys("factorial", *exact_entries(entries))
        for ij, value in entries.items():
            re, im = polys[ij][0]
            assert (Fraction(re, denominator), Fraction(im, denominator)) == value

    def test_empty_operator_has_no_terms(self):
        assert conjugation_polys("derivative", {}, 1) == ({}, 1)


class TestSymbolicEvolution:
    def test_rate_is_minus_i_z(self):
        # the ket side of T |k><l| T^dagger carries exp(-i z t), the bra side
        # exp(i conj(z) t); the polynomials leave out only their shared rate
        # -Gamma, so putting it back gives the matrix product
        space = GamowSubspace(ResonancePole(2.0, 0.3, 3))
        A = np.zeros((3, 3), dtype=complex)
        A[2, 1] = 1.0
        for t in (0.0, 0.6, 4.1):
            ket = np.array(evolution_matrix(space, t))
            want = ket @ A @ ket.conj().T
            np.testing.assert_allclose(evolved(space, {(2, 1): (1, 0)}, t), want, rtol=1e-14,
                                       atol=1e-15)

    def test_matches_numeric_evolution(self, space):
        # T |k><0| T^dagger = T|k> exp(i conj(z) t) <0|
        z = space.pole.z_R
        for k in range(4):
            for t in (0.0, 0.9, 3.7):
                numeric = evolution_matrix(space, t)
                values = evolved(space, {(k, 0): (1, 0)}, t)
                for p in range(4):
                    column = values[p, 0] * np.exp(-1j * z.conjugate() * t)
                    assert column == pytest.approx(numeric[p][k], abs=1e-13)

    def test_symbolic_derivative_is_generator_applied(self, space):
        # entrywise: d/dt (T A T^dagger) == -i H (T A T^dagger) + i (T A T^dagger) H^dagger
        rng = np.random.default_rng(RNG_SEED)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        W = StateOperator.lift(space, dict(np.ndenumerate(raw)))
        h_action = np.array(hamiltonian_action_matrix(space))
        h_dagger = h_action.conj().T
        t, rate = 1.3, -space.pole.Gamma
        poly, slope = polys_at(space, W.entries, W.denominator, t)
        values = np.exp(rate * t) * poly
        applied = -1j * h_action @ values + 1j * values @ h_dagger
        # d/dt exp(rate t) P(t) = exp(rate t) (rate P(t) + P'(t))
        derived = np.exp(rate * t) * (rate * poly + slope)
        for p in range(4):
            for q in range(4):
                assert derived[p, q] == pytest.approx(applied[p, q], rel=1e-12, abs=1e-12)
