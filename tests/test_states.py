"""Tests for the decaying operator families and their observables.

The load-bearing facts: every member of the binomial anti-diagonal
family evolves as a pure exponential (exactly, in the integers of its
conjugation polynomials), plain dyads do not, and the pole-term pairing
sees the same thing.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamowkit import states
from gamowkit.algebra import _exp_decay, _gmul, _turn
from gamowkit.cli import R_CAP, RunConfig, main, parse_config_text
from gamowkit.errors import EmptyGridError, IndexOutOfRangeError, NegativeTimeError
from gamowkit.jordan import GamowSubspace, conjugation_polys, evolution_matrix
from gamowkit.smatrix import ResonancePole, SMatrixModel, TestFunction, pole_jet
from gamowkit.states import (
    StateOperator,
    _evolved_norm_squared,
    _sum_of_squares,
    decay_deviation,
    decay_table,
    dyad_operator,
    w_n,
    w_total,
)

RNG_SEED = 20260823


def exact_values(W):
    """W's entries as {(k, l): (re, im)} in Fractions."""
    return {kl: (Fraction(re, W.denominator), Fraction(im, W.denominator))
            for kl, (re, im) in W.entries.items()}


def dense(W):
    """W as a complex matrix, each entry rounded once, 0 on every absent dyad."""
    r = W.space.dimension
    values = {kl: complex(re / W.denominator, im / W.denominator)
              for kl, (re, im) in W.entries.items()}
    return np.array([[values.get((k, l), 0j) for l in range(r)] for k in range(r)])


def conjugated(W):
    """conjugation_polys of W."""
    return conjugation_polys(W.space.normalization, W.entries, W.denominator)


def general_norm_squared(W):
    """N(t) of W from the full conjugation, for every operator alike."""
    polys, den = conjugated(W)
    return _sum_of_squares(polys), den**2


def evolved(W, t):
    """exp(-Gamma t) times the conjugation polynomials at t, as a complex matrix."""
    r = W.space.dimension
    polys, den = conjugated(W)
    out = np.zeros((r, r), dtype=complex)
    for ij, poly in polys.items():
        out[ij] = sum(complex(re / den, im / den) * t**d for d, (re, im) in poly.items())
    return math.exp(-W.space.pole.Gamma * t) * out


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
    return StateOperator.lift(W.space, dict(np.ndenumerate(dense(W))))


def random_operator(space, rng):
    r = space.dimension
    raw = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return StateOperator.lift(space, dict(np.ndenumerate(raw)))


# a dyadic rational p / 2**e, exactly a float
dyadics = st.builds(
    lambda p, e: Fraction(p, 2**e),
    st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1),
    st.integers(min_value=0, max_value=80),
)


def exact_forms(re, im):
    """The forms of the exact value re + i im, for dyadic Fractions re and
    im: complex and numpy complex, and for im == 0 also Fraction, float,
    numpy float and, where integral, int."""
    z = complex(re, im)
    forms = [z, np.complex128(z)]
    if im == 0:
        forms += [re, float(re), np.float64(re)] + ([int(re)] if re.denominator == 1 else [])
    return forms


@pytest.fixture
def space():
    return GamowSubspace(ResonancePole(2.0, 1.0, 3), "derivative")


@pytest.fixture
def pair():
    return TestFunction(((1.0, 1, 1.0), (2.0, 2, 0.5j))), TestFunction(((1.5, 1, 1.0),))


class TestOperatorConstruction:
    def test_w0_is_ground_dyad(self, space):
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.array_equal(dense(w_n(space, 0)), want)

    def test_w2_binomial_anti_diagonal(self, space):
        # (Gamma^2/2) * (|0><2| + 2 |1><1| + |2><0|)
        W = w_n(space, 2)
        assert W.entries == {(0, 2): (1, 0), (1, 1): (2, 0), (2, 0): (1, 0)}
        assert W.denominator == 2

    def test_factorial_normalization_flattens_weights(self):
        space = GamowSubspace(ResonancePole(2.0, 0.5, 3), "factorial")
        W = w_n(space, 2)
        assert (W.entries, W.denominator) == ({(k, 2 - k): (1, 0) for k in range(3)}, 4)

    def test_index_out_of_range(self, space):
        with pytest.raises(IndexOutOfRangeError):
            w_n(space, 3)
        with pytest.raises(IndexOutOfRangeError):
            dyad_operator(space, 3)

    def test_entries_outside_the_square_rejected(self, space):
        # r = 3: an index past either edge, with the value in every form
        for kl in [(0, 3), (3, 0), (-1, 0), (0, -1)]:
            for value in exact_forms(Fraction(1), Fraction(0)):
                with pytest.raises(IndexOutOfRangeError):
                    StateOperator.lift(space, {kl: value})
            with pytest.raises(IndexOutOfRangeError):
                StateOperator(space, {kl: (1, 0)}, 1)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_lift_reads_every_exact_form_alike(self, r, data):
        # oracle: the nonzero values as Gaussian integers over the lcm of
        # their denominators; every form of each value must give exactly that
        space = GamowSubspace(ResonancePole(2.0, 1.0, r))
        parts = st.one_of(st.just(Fraction(0)), dyadics)
        cells = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1))
        values = data.draw(st.dictionaries(cells, st.tuples(parts, parts)))
        nonzero = {kl: v for kl, v in values.items() if any(v)}
        den = math.lcm(*(q.denominator for v in nonzero.values() for q in v))
        want = ({kl: (int(re * den), int(im * den)) for kl, (re, im) in nonzero.items()}, den)
        forms = {kl: exact_forms(*v) for kl, v in values.items()}
        for i in range(6):
            W = StateOperator.lift(space, {kl: f[i % len(f)] for kl, f in forms.items()})
            assert (W.entries, W.denominator) == want

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
        # each denominator is the least common one of the member's values
        for n, member in enumerate(members):
            W = w_n(top, n)
            assert exact_values(W) == {kl: (value, 0) for kl, value in member.items()}
            assert W.denominator == math.lcm(*(v.denominator for v in member.values()))
        for r in range(1, R_CAP + 1):
            space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
            want = {}
            for n in range(r):
                re, im = units[n % 4]
                weight = math.comb(r, n + 1)
                want.update(
                    (kl, (re * weight * v, im * weight * v)) for kl, v in members[n].items()
                )
            W = w_total(space)
            assert exact_values(W) == want
            assert W.denominator == math.lcm(*(q.denominator for v in want.values() for q in v))
            for k in range(r):
                dyad = dyad_operator(space, k)
                assert (dyad.entries, dyad.denominator) == ({(k, k): (1, 0)}, 1)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(normalization=st.sampled_from(["derivative", "factorial"]),
           gamma=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
           r=st.integers(min_value=1, max_value=R_CAP))
    def test_direct_build_is_the_lift_of_the_closed_forms(self, normalization, gamma, r):
        # w_n and w_total build their integers from Gamma's integer ratio;
        # oracle: StateOperator.lift of the Fraction values, the weighted
        # sum of w_total lifted real and then turned by (-i)**n, as its
        # entries lie on one anti-diagonal each
        space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
        members = []
        for n in range(r):
            power = Fraction(gamma) ** n
            if normalization == "derivative":
                power /= math.factorial(n)
            weights = [math.comb(n, k) if normalization == "derivative" else 1
                       for k in range(n + 1)]
            members.append({(k, n - k): power * w for k, w in enumerate(weights)})
        for n, member in enumerate(members):
            W, want = w_n(space, n), StateOperator.lift(space, member)
            assert (W.entries, W.denominator) == (want.entries, want.denominator)
            assert W.denominator == math.lcm(*(v.denominator for v in member.values()))
        total = {kl: math.comb(r, n + 1) * v for n, member in enumerate(members)
                 for kl, v in member.items()}
        lifted = StateOperator.lift(space, total)
        W = w_total(space)
        assert W.entries == {kl: _turn(v, 3 * sum(kl)) for kl, v in lifted.entries.items()}
        assert W.denominator == lifted.denominator
        assert W.denominator == math.lcm(*(v.denominator for v in total.values()))

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
        total = exact_values(w_total(space))
        units = [(1, 0), (0, -1), (-1, 0), (0, 1)]
        for n in range(6):
            re, im = units[n % 4]
            member = exact_values(w_n(space, n))
            for k in range(n + 1):
                value = math.comb(6, n + 1) * member[k, n - k][0]
                assert total[k, n - k] == (re * value, im * value)


class TestEvolution:
    def test_negative_time_rejected(self, space):
        with pytest.raises(NegativeTimeError):
            decay_deviation(w_n(space, 0), [0.0, 1.0, -1.0])
        zero = StateOperator.lift(space, {})
        with pytest.raises(NegativeTimeError):
            decay_deviation(zero, [-0.5])

    def test_time_zero_is_identity_map(self, space):
        # float entries enter at their exact value, so t = 0 gives them back bit for bit
        W = rounded(w_total(space))
        assert np.array_equal(evolved(W, 0.0), dense(W))

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_family_decays_purely_exponentially(self, r, normalization):
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        grid = np.linspace(0.0, 10.0, 21)
        for n in range(r):
            assert decay_deviation(rounded(w_n(space, n)), grid) <= 1e-12
        assert decay_deviation(rounded(w_total(space)), grid) <= 1e-12

    def test_evolved_family_member_stays_hermitian(self, space):
        polys, _ = conjugated(w_n(space, 2))
        for i in range(3):
            for j in range(3):
                mirrored = {d: (re, -im) for d, (re, im) in polys.get((j, i), {}).items()}
                assert polys.get((i, j), {}) == mirrored

    def test_numeric_and_symbolic_paths_agree(self, space):
        # a float input reproduces the float matrix-product reference
        rng = np.random.default_rng(RNG_SEED)
        W = random_operator(space, rng)
        polys, den = conjugated(W)
        assert type(den) is int
        assert all(type(part) is int
                   for poly in polys.values() for pair in poly.values() for part in pair)
        for t in (0.0, 0.8, 2.5):
            np.testing.assert_allclose(evolved(W, t), float_evolution(W, t), rtol=0, atol=1e-12)

    def test_symbolic_family_member_has_no_polynomial_tail(self, space):
        # the strong form of the decay law: zero remainder, not small
        for n in range(3):
            W = w_n(space, n)
            assert conjugated(W) == ({kl: {0: v} for kl, v in W.entries.items()}, W.denominator)

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    def test_family_has_no_tail_at_every_order(self, normalization):
        # (d_y - d_x)(x + y)**n = 0: each W(n) and w_total comes back as its
        # own entries at power 0, over its denominator times the square of
        # the lift of the ket weights, at every order up to the cap
        for gamma in (0.9137, 1e-300, 1e300):
            for r in range(1, R_CAP + 1):
                space = GamowSubspace(ResonancePole(2.0, gamma, r), normalization)
                for W in [w_n(space, n) for n in range(r)] + [w_total(space)]:
                    top = max(max(kl) for kl in W.entries)
                    lift = math.factorial(top) if normalization == "factorial" else 1
                    square = lift * lift
                    want = {kl: {0: (re * square, im * square)}
                            for kl, (re, im) in W.entries.items()}
                    assert conjugated(W) == (want, W.denominator * square)

    def test_symbolic_evolution_is_linear(self, space):
        # 2 |1><2| + i |0><0| against 2 P_A(t) + i P_B(t), summed by power of t
        a, b = (2, 0), (0, 1)
        A, B = StateOperator.lift(space, {(1, 2): 1}), dyad_operator(space, 0)
        lhs, lhs_den = conjugated(StateOperator.lift(space, {(1, 2): 2, (0, 0): 1j}))
        (p_a, den_a), (p_b, den_b) = conjugated(A), conjugated(B)
        assert lhs_den == den_a == den_b == 1
        combined = {}
        for scale, polys in [(a, p_a), (b, p_b)]:
            for ij, poly in polys.items():
                for d, value in poly.items():
                    old = combined.setdefault(ij, {}).get(d, (0, 0))
                    re, im = _gmul(scale, value)
                    combined[ij][d] = (old[0] + re, old[1] + im)
        assert lhs == combined


class TestDyadContamination:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corner_entry_grows_like_t_to_the_2k(self, k):
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        polys, denominator = conjugated(dyad_operator(space, k))
        assert max(polys[0, 0]) == 2 * k
        assert polys[0, 0][2 * k] == (denominator, 0)

    def test_dyad_deviation_is_large_by_five_lifetimes(self):
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), "derivative")
        grid = np.linspace(0.0, 5.0, 11)
        assert decay_deviation(dyad_operator(space, 2), grid) > 1e-3


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
            coeffs, den = _evolved_norm_squared(W)
            assert len(coeffs) == 1
            norm0 = sum(re**2 + im**2 for re, im in exact_values(W).values())
            assert Fraction(coeffs[0], den) == norm0

    @pytest.mark.parametrize(
        "k,normalization",
        [pytest.param(k, "derivative", id=str(k)) for k in (0, 1, 3)]
        + [pytest.param(k, "factorial", id=f"{k}-factorial") for k in (0, 1, 3)],
    )
    def test_dyad_norm_is_square_of_weight_sum(self, k, normalization):
        # T~ |k><k| T~^dagger = v v^dagger with v_p = w(k, p) (-i t)**(k-p),
        # w(k, p) = binom(k, p), or 1 / (k-p)! in the factorial normalization
        space = GamowSubspace(ResonancePole(2.0, 1.0, 4), normalization)
        if normalization == "derivative":
            weights = [Fraction(math.comb(k, d)) for d in range(k + 1)]
        else:
            weights = [Fraction(1, math.factorial(d)) for d in range(k + 1)]
        inner = [weights[d // 2] ** 2 if d % 2 == 0 else 0 for d in range(2 * k + 1)]
        coeffs, den = _evolved_norm_squared(dyad_operator(space, k))
        assert [Fraction(c, den) for c in coeffs] == np.convolve(inner, inner).tolist()

    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        r=st.integers(min_value=1, max_value=12),
        re=st.integers(min_value=-(2**70), max_value=2**70),
        im=st.integers(min_value=-(2**70), max_value=2**70),
        den=st.integers(min_value=1, max_value=2**40),
    )
    # every dyad (k, l) with k, l < 12, of a real and of a complex value
    @example(r=12, re=1, im=0, den=1)
    @example(r=12, re=-3, im=5, den=7)
    def test_rank_one_norm_is_the_general_one(self, normalization, r, re, im, den):
        # a single dyad reads N off the norms of its two evolved kets; the
        # same rational coefficients come out of the full conjugation
        space = GamowSubspace(ResonancePole(2.0, 1.0, r), normalization)
        for k, l in itertools.product(range(r), repeat=2):
            W = StateOperator(space, {(k, l): (re, im)}, den)
            coeffs, denominator = _evolved_norm_squared(W)
            want, want_den = general_norm_squared(W)
            assert [Fraction(c, denominator) for c in coeffs] == [Fraction(c, want_den) for c in want]

    def test_matches_float_evolution(self, space):
        entries = {(k, l): (3 * k + l) * (1 - 0.5j) for k in range(3) for l in range(3)}
        W = StateOperator.lift(space, entries)
        coeffs, den = _evolved_norm_squared(W)
        coeffs = [c / den for c in coeffs]
        for t in (0.0, 0.7, 3.0):
            value = math.sqrt(sum(c * t**d for d, c in enumerate(coeffs)))
            expected = np.linalg.norm(float_evolution(W, t)) * math.exp(space.pole.Gamma * t)
            assert value == pytest.approx(expected, rel=1e-12)


def decay_header(r: int) -> list:
    """The columns of decay-curve at order r, in the order it prints them."""
    family = [f"w{n}" for n in range(r)] + ["wsum"]
    return (["t"] + [f"{name}_{c}" for name in family for c in ("norm", "exp_law", "deviation")]
            + [f"dyad{k}_{c}" for k in range(r) for c in ("norm", "deviation")])


class TestDecayTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("normalization", ["derivative", "factorial"])
    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_the_table_is_what_decay_curve_prints(self, tmp_path, r, normalization, exact, fmt):
        # t up to 300 reads both the unshifted points and those at t = s 2**8
        config = (f"E_R = 2.0\nGamma = 0.9137\nr = {r}\nnormalization = {normalization}\n"
                  "t_min = 0.0\nt_max = 300.0\nt_steps = 13\n")
        path = tmp_path / "decay.conf"
        path.write_text(config)
        grid = RunConfig(parse_config_text(config)).grid("t", minimum_allowed=0.0)
        table = decay_table(GamowSubspace(ResonancePole(2.0, 0.9137, r), normalization), grid, exact)
        assert list(table) == decay_header(r)
        assert table["t"] == grid
        args = ["decay-curve", "--config", str(path), "--format", fmt] + ["--exact"] * exact
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        rows = list(zip(*table.values()))
        if fmt == "csv":
            header, *lines = result.output.splitlines()
            assert header == ",".join(table)
            assert lines == [",".join(f"{v:.17g}" for v in row) for row in rows]
        else:
            assert json.loads(result.output) == {"columns": list(table), "rows": list(map(list, rows))}

    @pytest.mark.parametrize("exact", [False, True])
    def test_columns_of_one_reading_are_one_tuple(self, exact):
        # each member's N is constant, so its norm is its exp_law and its
        # deviation 0; decay-curve formats each column object once, and a
        # caller cannot change one column through another
        r = 4
        table = decay_table(GamowSubspace(ResonancePole(2.0, 0.9137, r)), [0.0, 1.0, 300.0], exact)
        assert all(type(column) is tuple for key, column in table.items() if key != "t")
        members = [f"w{n}" for n in range(r)] + ["wsum", "dyad0"]
        for name in members[:-1]:
            assert table[f"{name}_norm"] is table[f"{name}_exp_law"]
        zeros = {id(table[f"{name}_deviation"]) for name in members}
        assert len(zeros) == 1 and table["w0_deviation"] == (0.0,) * 3
        # t, one tuple per member, the zeros, dyad0_norm and two per other dyad
        assert len({id(column) for column in table.values()}) == 1 + (r + 1) + 1 + 1 + 2 * (r - 1)

    @pytest.mark.parametrize(
        "normalization,edge",
        # the largest float t at which no column leaves the float range;
        # at the next float dyad31_deviation (about t**62) does
        [("derivative", 93723.8780346082), ("factorial", 1163813.019327225)],
    )
    def test_dyad_columns_at_the_cap_are_those_of_the_general_norm(
        self, monkeypatch, normalization, edge
    ):
        # the rank-one N is the same rational as the conjugation's, so every
        # float read off it is the same, up to the overflow edge and on the
        # t = s 2**j points from 128 on
        space = GamowSubspace(ResonancePole(2.0, 0.5, R_CAP), normalization)
        grid = [0.0, 0.25, 3.0, 127.5, 128.0, 300.0, 4096.0, 65537.5, edge]
        beyond = [0.0, 128.0, math.nextafter(edge, math.inf)]
        fast = decay_table(space, grid)
        with pytest.raises(OverflowError) as fast_error:
            decay_table(space, beyond)
        monkeypatch.setattr(states, "_evolved_norm_squared", general_norm_squared)
        assert decay_table(space, grid) == fast
        with pytest.raises(OverflowError) as general_error:
            decay_table(space, beyond)
        assert str(fast_error.value) == str(general_error.value)
        assert str(fast_error.value).startswith("dyad31_deviation leaves the float range at t = ")

    @pytest.mark.parametrize("r", [1, 2, 5, 16])
    def test_no_dyad_is_conjugated(self, monkeypatch, r):
        # every dyad, W(0) = |0><0| among them, reads its norm off its
        # rank-one factorization: the conjugation runs for W(1)..W(r-1) and
        # wsum alone, each of more than one dyad
        calls = []

        def counting(normalization, entries, denominator):
            calls.append(entries)
            return conjugation_polys(normalization, entries, denominator)

        monkeypatch.setattr(states, "conjugation_polys", counting)
        space = GamowSubspace(ResonancePole(2.0, 0.9137, r))
        decay_table(space, [0.0, 1.0, 300.0])
        expected = [w_n(space, n) for n in range(1, r)] + [w_total(space)] * (r > 1)
        assert calls == [W.entries for W in expected]
        assert all(len(entries) > 1 for entries in calls)

    def test_a_value_beyond_the_float_range_names_its_column(self):
        # ||W||**2 ~ Gamma**30 leaves the float range at r = 16
        space = GamowSubspace(ResonancePole(2.0, 1e20, 16))
        with pytest.raises(OverflowError, match=r" leaves the float range at t = 0\.0$") as info:
            decay_table(space, [0.0])
        assert str(info.value).split(" ")[0] in decay_header(16)


class TestDecayDeviation:
    def test_empty_grid_rejected(self, space):
        with pytest.raises(EmptyGridError):
            decay_deviation(w_n(space, 0), [])

    def test_zero_operator_has_zero_deviation(self, space):
        zero = StateOperator.lift(space, {})
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


# the times each operator is read at, alone and as one grid: from 0
# through the tails that leave the float range near 1e80 and 1e160
PIN_TIMES = [0.0, 2.0**-30, 0.3, 1.0, 2.5, 7.0, 40.0, 800.0, 1e5, 1e20, 1e40, 1e80, 1e100,
             1e160, 1e300]
PIN_ORDERS = [1, 2, 3, 5, 8, 13, 21, 32]


def _pin_operators(space, rng):
    """The dyads |k><k| at the ends and the middle of the pole subspace, and
    three lifts of three entries each off the family, with an int, a
    Fraction and a complex value."""
    r = space.dimension
    ops = [dyad_operator(space, k) for k in sorted({0, 1, r // 2, r - 1} & set(range(r)))]
    for _ in range(3):
        values = {}
        for kind in ("int", "fraction", "complex"):
            kl = rng.randrange(r), rng.randrange(r)
            if kind == "int":
                values[kl] = rng.randrange(-9, 10) or 1
            elif kind == "fraction":
                values[kl] = Fraction(rng.randrange(-999, 1000) or 1, rng.randrange(1, 1000))
            else:
                values[kl] = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        ops.append(StateOperator.lift(space, values))
    return ops


def _deviation_digest(normalization: str, width: float) -> str:
    """sha256 of the repr of decay_deviation, or of its OverflowError
    message, for each pinned operator at each pinned t alone and on the
    whole grid."""
    rng, lines = random.Random(RNG_SEED), []
    for r in PIN_ORDERS:
        space = GamowSubspace(ResonancePole(2.0, width, r), normalization)
        for W in _pin_operators(space, rng):
            for grid in [[t] for t in PIN_TIMES] + [PIN_TIMES]:
                try:
                    lines.append(repr(decay_deviation(W, grid)))
                except OverflowError as error:
                    lines.append(f"OverflowError: {error}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded from the reading of D(t) on its coefficients cut to 128 bits,
# with the exact value where that could not decide the rounding
DEVIATION_SHA256 = {
    ("derivative", 0.7): "78f24fd985f0425d6a213e8354a27c2acdb71c8c2dfb6b82adde00dc3c5390ad",
    ("derivative", 1e-100): "36632e9737b2ec0ff8d2f0f281fdc58416a63dbc5f82715d73b3b08ab9ae2a32",
    ("derivative", 1e-300): "166de128bdd1cffb5eec47842173028495b1c38c02f923e3a142eda981824fa9",
    ("factorial", 0.7): "5cf8b0a4e1ac1501292426cfbad370e6023a89f38acbf28d1b7e25290eb23d70",
    ("factorial", 1e-100): "3a8e82704f63d400f020c150a7bcd53ff7e079105ee206cc7cc560a806139cec",
    ("factorial", 1e-300): "dd540026c79ba704e767ec11bffb25af275b3d23b22bcc84fb886f05f4e98df8",
}


class TestDecayDeviationBytes:
    @pytest.mark.parametrize("normalization,width", sorted(DEVIATION_SHA256))
    def test_deviation_readings_are_pinned(self, normalization, width):
        assert _deviation_digest(normalization, width) == DEVIATION_SHA256[normalization, width]


@pytest.mark.parametrize(
    "call",
    [
        lambda space, pair: evolution_matrix(space, math.nan),
        lambda space, pair: decay_deviation(dyad_operator(space, 1), [math.nan]),
        lambda space, pair: decay_deviation(w_n(space, 1), [math.nan]),
        lambda space, pair: decay_table(space, [0.0, math.nan]),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).amplitude(math.nan),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).probability(math.nan),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).ratios([0.0, math.nan]),
    ],
    ids=["evolution_matrix", "dyad_deviation", "family_deviation", "decay_table",
         "pole_jet_amplitude", "pole_jet_probability", "pole_jet_ratios"],
)
def test_nan_time_is_invalid_input(space, pair, call):
    # nan is no time t >= 0: invalid input, not an overflow or a failed conversion
    with pytest.raises(NegativeTimeError):
        call(space, pair)


@pytest.mark.parametrize(
    "call",
    [
        lambda space, pair: evolution_matrix(space, math.inf),
        lambda space, pair: decay_table(space, [0.0, 1.0, math.inf]),
        lambda space, pair: decay_deviation(dyad_operator(space, 1), [math.inf]),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).amplitude(math.inf),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).probability(math.inf),
        lambda space, pair: pole_jet(*pair, SMatrixModel(space.pole)).ratios([0.0, math.inf]),
    ],
    ids=["evolution_matrix", "decay_table", "decay_deviation", "pole_jet_amplitude",
         "pole_jet_probability", "pole_jet_ratios"],
)
def test_infinite_time_overflows_naming_t(space, pair, call):
    # exp(-Gamma t) times a polynomial in t has no value at t = inf: an
    # OverflowError that names t, not a nan column or a failed conversion
    with pytest.raises(OverflowError, match=r" leaves the float range at t = inf$"):
        call(space, pair)


@pytest.mark.parametrize("t", [-1.0, -800.0])
def test_negative_time_is_invalid_input(space, pair, t):
    # the semigroup is defined for t >= 0 only: exp(-Gamma t) would grow
    # without bound, and beyond -700 it leaves the float range
    with pytest.raises(NegativeTimeError):
        decay_table(space, [0.0, t])
    with pytest.raises(NegativeTimeError):
        pole_jet(*pair, SMatrixModel(space.pole)).amplitude(t)


class TestPoleTermProbability:
    def test_negative_time_rejected(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
        with pytest.raises(NegativeTimeError):
            pole_jet(*pair, model).probability(-0.5)
        with pytest.raises(NegativeTimeError):
            pole_jet(*pair, model).ratios([0.0, -1.0])

    def test_simple_pole_follows_exponential_law(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
        jet = pole_jet(*pair, model)
        p0 = jet.probability(0.0)
        for t in np.linspace(0.0, 10.0, 11):
            ratio = jet.probability(float(t)) / p0
            assert ratio == pytest.approx(math.exp(-1.0 * t), rel=1e-10)

    def test_double_pole_departs_from_exponential(self, pair):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 2))
        jet = pole_jet(*pair, model)
        p0 = jet.probability(0.0)
        t = 5.0
        ratio = jet.probability(t) / p0
        assert abs(ratio / math.exp(-t) - 1.0) > 1e-6

