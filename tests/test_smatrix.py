"""Tests for the S-matrix model, derivative extraction and pole term.

Expected values come from independent routes: closed-form derivatives of
the rational test functions, a direct contour integral of the pairing
integrand, and hand-derived special cases like the value on resonance.
"""

import cmath
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gamowkit import smatrix
from gamowkit.cli import R_CAP, RunConfig, parse_config_text
from gamowkit.errors import NoConvergenceError, PoleEvaluationError, VanishingPoleTermError
from gamowkit.jordan import GamowSubspace
from gamowkit.smatrix import (
    BackgroundPhase,
    PoleJet,
    ResonancePole,
    SMatrixModel,
    TestFunction,
    _phase_jet,
    analytic_derivatives,
    lineshape,
    pole_expansion_coeffs,
    pole_jet,
    s_matrix_eval,
)
from gamowkit.states import w_total

from expansion import gmul

RNG_SEED = 20260823


def rational_derivatives(terms, z: complex, n_max: int) -> np.ndarray:
    """Closed-form derivatives of sum c / (w - i a)**m at z.

    d^k/dw^k (w - i a)**(-m) = (-1)**k (m+k-1)!/(m-1)! (w - i a)**(-(m+k))
    """
    out = np.zeros(n_max + 1, dtype=complex)
    for k in range(n_max + 1):
        acc = 0j
        for a, m, c in terms:
            rising = math.factorial(m + k - 1) // math.factorial(m - 1)
            acc += c * (-1) ** k * rising * (z - 1j * a) ** (-(m + k))
        out[k] = acc
    return out


def contour_pole_term(psi, phi, model, radius=None, nodes=4096) -> complex:
    """Independent pole term: minus the circle integral of psi * S * phi.

    Uses a different radius and a fixed node count so it shares nothing
    with the adaptive extraction inside the implementation.  When the
    gauge is not absorbed the phase factor is divided back out of S.
    """
    pole = model.pole
    z = pole.z_R
    rho = radius if radius is not None else pole.Gamma / 3.0
    total = 0j
    for jn in range(nodes):
        theta = 2.0 * math.pi * jn / nodes
        w = z + rho * cmath.exp(1j * theta)
        s = s_matrix_eval(model, w)
        if not model.absorb_gauge:
            s /= model.phase_factor(w)
        total += psi.value(w) * s * phi.value(w) * 1j * rho * cmath.exp(1j * theta)
    return -total * (2.0 * math.pi / nodes)


@pytest.fixture
def pair():
    return TestFunction(((1.0, 1, 1.0), (2.0, 2, 0.5j))), TestFunction(((1.5, 1, 1.0),))


class TestModelValidation:
    def test_pole_parameters_must_be_physical(self):
        with pytest.raises(ValueError):
            ResonancePole(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            ResonancePole(2.0, 0.0, 1)
        with pytest.raises(ValueError):
            ResonancePole(2.0, 1.0, 0)

    def test_pole_position(self):
        pole = ResonancePole(2.0, 0.5, 3)
        assert pole.z_R == complex(2.0, -0.25)

    def test_phase_kinds(self):
        with pytest.raises(ValueError):
            BackgroundPhase("fourier", (1.0,))
        with pytest.raises(ValueError):
            BackgroundPhase("constant", (1.0, 2.0))
        assert BackgroundPhase("polynomial", (0.1, 0.2)).value(2.0) == pytest.approx(0.5)

    def test_test_function_validation(self):
        with pytest.raises(ValueError):
            TestFunction(((-1.0, 1, 1.0),))
        with pytest.raises(ValueError):
            TestFunction(((1.0, 0, 1.0),))
        assert TestFunction().value(1.0) == 0j

    @pytest.mark.parametrize(
        "E_R,Gamma", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)]
    )
    def test_non_finite_pole_rejected(self, E_R, Gamma):
        with pytest.raises(ValueError, match="finite"):
            ResonancePole(E_R, Gamma, 3)

    @pytest.mark.parametrize(
        "term",
        [
            (math.inf, 1, 1.0),
            (math.nan, 1, 1.0),
            (1.0, 1, complex(math.inf, 0.0)),
            (1.0, 1, complex(0.0, math.nan)),
        ],
    )
    def test_non_finite_test_function_rejected(self, term):
        with pytest.raises(ValueError, match="finite"):
            TestFunction((term,))


class TestSMatrixValues:
    def test_on_resonance_value_is_sign_of_order(self):
        for r in range(1, 6):
            model = SMatrixModel(ResonancePole(2.0, 1.0, r))
            assert s_matrix_eval(model, 2.0) == pytest.approx((-1) ** r, abs=1e-12)

    def test_on_resonance_with_constant_phase(self):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 2), BackgroundPhase("constant", (0.3,)))
        assert s_matrix_eval(model, 2.0) == pytest.approx(cmath.exp(0.6j), abs=1e-12)

    def test_unitary_on_real_axis(self):
        model = SMatrixModel(
            ResonancePole(2.0, 0.7, 3), BackgroundPhase("polynomial", (0.1, 0.05))
        )
        rng = np.random.default_rng(RNG_SEED)
        for energy in rng.uniform(0.1, 10.0, size=200):
            assert abs(abs(s_matrix_eval(model, float(energy))) - 1.0) < 1e-12

    def test_evaluation_at_pole_rejected(self):
        model = SMatrixModel(ResonancePole(2.0, 1.0, 1))
        with pytest.raises(PoleEvaluationError):
            s_matrix_eval(model, model.pole.z_R)

    def test_partial_fraction_expansion_matches_closed_form(self):
        # ((w - z*)/(w - z))**r == 1 + sum_l c_l / (w - z)**l
        pole = ResonancePole(2.0, 1.0, 4)
        model = SMatrixModel(pole)
        coeffs = pole_expansion_coeffs(pole)
        z = pole.z_R
        rng = np.random.default_rng(RNG_SEED)
        checked = 0
        while checked < 200:
            w = complex(rng.uniform(-5, 9), rng.uniform(-5, 5))
            if abs(w - z) < 0.1 * pole.Gamma or abs(w - z.conjugate()) < 0.1 * pole.Gamma:
                continue
            closed = s_matrix_eval(model, w)
            summed = 1.0 + sum(c / (w - z) ** (l + 1) for l, c in enumerate(coeffs))
            assert abs(closed - summed) < 1e-11 * max(1.0, abs(closed))
            checked += 1

    def test_expansion_coefficients_small_orders(self):
        # r = 1: c_1 = -i Gamma;  r = 2: c_1 = -2i Gamma, c_2 = -Gamma**2
        assert pole_expansion_coeffs(ResonancePole(2.0, 0.5, 1)) == [pytest.approx(-0.5j)]
        c = pole_expansion_coeffs(ResonancePole(2.0, 0.5, 2))
        assert c[0] == pytest.approx(-1.0j)
        assert c[1] == pytest.approx(-0.25)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    width=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    r=st.integers(1, R_CAP),
)
def test_expansion_coefficients_are_correctly_rounded(width, r):
    # c_l = binom(r, l) (-i Gamma)**l with Gamma at its exact binary value,
    # each part rounded once; the first c_l beyond the float range is named
    pole = ResonancePole(2.0, width, r)
    want = []
    for l in range(1, r + 1):
        value = math.comb(r, l) * Fraction(width) ** l
        re, im = ((value, 0), (0, -value), (-value, 0), (0, value))[l % 4]
        try:
            want.append(complex(float(re), float(im)))
        except OverflowError:
            with pytest.raises(OverflowError, match=f"^c_{l} leaves the float range$"):
                pole_expansion_coeffs(pole)
            return
    assert pole_expansion_coeffs(pole) == want


class TestAnalyticDerivatives:
    def test_matches_closed_form_for_rational_functions(self):
        terms = ((1.0, 1, 1.0), (2.0, 3, 0.5 - 0.25j))
        fn = TestFunction(terms)
        z0 = complex(2.0, -0.5)
        got = analytic_derivatives(fn.value, z0, 6, 0.6)
        want = rational_derivatives(terms, z0, 6)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_matches_closed_form_for_exponential(self):
        z0 = complex(1.0, -0.3)
        got = analytic_derivatives(lambda w: cmath.exp(0.3j * w), z0, 5, 0.5)
        want = np.array([(0.3j) ** k * cmath.exp(0.3j * z0) for k in range(6)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_zeroth_order_is_plain_evaluation(self):
        fn = TestFunction(((1.0, 2, 1.5),))
        z0 = complex(0.7, -0.2)
        got = analytic_derivatives(fn.value, z0, 0, 0.1)
        assert got[0] == pytest.approx(fn.value(z0), rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            analytic_derivatives(lambda w: w, 0j, -1, 0.1)
        with pytest.raises(ValueError):
            analytic_derivatives(lambda w: w, 0j, 1, 0.0)

    def test_singularity_on_contour_raises(self):
        z0 = 0j
        radius = 0.5
        # pole essentially on the sampling circle at an angle no node hits
        w_bad = z0 + radius * cmath.exp(0.5j) * (1.0 + 1e-9)
        with pytest.raises(NoConvergenceError):
            analytic_derivatives(lambda w: 1.0 / (w - w_bad), z0, 3, radius)


class TestPoleTerm:
    def test_simple_pole_closed_form(self, pair):
        # r = 1 collapses to -2 pi Gamma psi(z) phi(z)
        pole = ResonancePole(2.0, 1.0, 1)
        model = SMatrixModel(pole)
        z = pole.z_R
        psi, phi = pair
        want = -2.0 * math.pi * pole.Gamma * psi.value(z) * phi.value(z)
        assert pole_jet(psi, phi, model).amplitude() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_against_contour_oracle(self, pair, r):
        model = SMatrixModel(
            ResonancePole(2.0, 1.0, r), BackgroundPhase("polynomial", (0.1, 0.02))
        )
        got = pole_jet(*pair, model).amplitude()
        want = contour_pole_term(*pair, model)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("r", [1, 3])
    def test_against_contour_oracle_without_gauge(self, pair, r):
        model = SMatrixModel(
            ResonancePole(2.0, 1.0, r),
            BackgroundPhase("polynomial", (0.1, 0.02)),
            absorb_gauge=False,
        )
        got = pole_jet(*pair, model).amplitude()
        want = contour_pole_term(*pair, model)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_constant_gauge_shifts_by_a_phase(self, pair):
        pole = ResonancePole(2.0, 1.0, 2)
        phase = BackgroundPhase("constant", (0.4,))
        with_gauge = pole_jet(*pair, SMatrixModel(pole, phase, absorb_gauge=True)).amplitude()
        without = pole_jet(*pair, SMatrixModel(pole, phase, absorb_gauge=False)).amplitude()
        assert with_gauge == pytest.approx(cmath.exp(0.8j) * without, rel=1e-10)

    def test_gauge_off_drops_phase_entirely(self, pair):
        pole = ResonancePole(2.0, 1.0, 2)
        phase = BackgroundPhase("polynomial", (0.1, 0.3))
        bare = pole_jet(*pair, SMatrixModel(pole)).amplitude()
        without = pole_jet(*pair, SMatrixModel(pole, phase, absorb_gauge=False)).amplitude()
        assert without == pytest.approx(bare, rel=1e-12)


gaussian = st.tuples(st.integers(-(2**80), 2**80), st.integers(-(2**80), 2**80))


class TestPoleJetRatio:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        coeffs=st.lists(gaussian, min_size=1, max_size=6).filter(lambda c: c[0] != (0, 0)),
        t=st.floats(min_value=0.0, max_value=1e300),
        width=st.floats(min_value=1e-3, max_value=1e3)
        | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    @example(coeffs=[(1, 0), (0, 0), (0, 0), (2**40, 0)], t=1e100, width=1.0)
    # a subnormal reference that the quotient lifts into the normal range
    @example(coeffs=[(1, 0), (3, 0)], t=2.0**400, width=744.0 * 2.0**-400)
    # the quotient overflows, exp(-Gamma t) is near 2**-800
    @example(coeffs=[(1, 0), (1, 1)], t=2.0**600, width=554.5 * 2.0**-600)
    # exp(-Gamma t) = exp(-1200) underflows, the product is near 2**-931
    @example(coeffs=[(1, 0), (0, 0), (1, 0)], t=2.0**200, width=1200.0 * 2.0**-200)
    def test_ratio_rounds_as_the_unscaled_product(self, coeffs, t, width):
        jet = PoleJet(width, 1 + 0j, tuple(coeffs), 7, ())
        # |Q(t)/Q(0)|**2 exactly, at the exact value of the float t
        x = Fraction(t)
        re = sum(c_re * x**d for d, (c_re, _) in enumerate(coeffs))
        im = sum(c_im * x**d for d, (_, c_im) in enumerate(coeffs))
        quotient = (re * re + im * im) / (coeffs[0][0] ** 2 + coeffs[0][1] ** 2)
        with mpmath.workprec(200):
            decay = mpmath.exp(-mpmath.mpf(width) * mpmath.mpf(t))
            exact = decay * mpmath.mpf(quotient.numerator) / quotient.denominator
        if exact > sys.float_info.max:
            with pytest.raises(OverflowError, match="ratio"):
                jet.ratios([t])
            return
        ((got, reference),) = jet.ratios([t])
        assert abs(reference - decay) <= max(math.ulp(float(decay)), 2.0**-1074)
        try:
            unscaled = reference * float(quotient)
        except OverflowError:
            unscaled = None
        if reference >= sys.float_info.min and unscaled is not None and unscaled >= sys.float_info.min:
            # the rounded quotient times the reference, wherever both are
            # normal floats
            assert got == unscaled
        elif exact >= sys.float_info.min:
            assert abs(got - exact) <= exact * 2**-51
        else:
            # below the normal range: at most one subnormal step off, 0 included
            assert abs(got - exact) <= 2 * 5e-324

    def test_vanishing_pole_term_has_no_ratios(self):
        jet = PoleJet(1.0, 1 + 0j, ((0, 0), (1, 0)), 1, ())
        with pytest.raises(VanishingPoleTermError, match="vanishes at t = 0"):
            jet.ratios([0.0, 1.0])


class TestPoleJetExact:
    """The exact Q that pole_jet reads (_exact_jets) against a sympy series
    of the translated pairing.

    With u = w - z, the pole sum of the pairing with the observable
    exp(-i w t) psi(w) (times exp(2i gamma(w)) when the gauge is absorbed)
    is 2 pi exp(2i gamma(z)) exp(-i z t) Q(t) with

        Q(t) = -i sum_n binom(r, n+1) (-i Gamma)**(n+1) [u**n] F(u),
        F(u) = exp(-i u t) psi(z+u) phi(z+u) exp(2i (gamma(z+u) - gamma(z))),

    the last factor only with the gauge.  The Taylor coefficients of each
    factor are sympy derivatives at u = 0, and every float enters sympy at
    its exact binary value, so the comparison is exact.
    """

    PSI = ((1.0, 1, 1.0), (2.0, 2, 0.5j))
    PHI = ((1.5, 1, 1.0), (0.7, 3, 0.25 - 0.5j))

    @pytest.mark.parametrize("gauge", [True, False])
    @pytest.mark.parametrize("gamma", [(0.4,), (0.1, 0.02, -0.03)])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_coefficients_match_sympy_series(self, r, gamma, gauge):
        sympy = pytest.importorskip("sympy")
        I = sympy.I

        def exact(x):
            return sympy.Rational(*x.real.as_integer_ratio()) + I * sympy.Rational(
                *x.imag.as_integer_ratio()
            )

        pole = ResonancePole(2.0, 0.9137, r)
        kind = "constant" if len(gamma) == 1 else "polynomial"
        model = SMatrixModel(pole, BackgroundPhase(kind, gamma), absorb_gauge=gauge)
        got, got_den = smatrix._exact_jets(TestFunction(self.PSI), TestFunction(self.PHI),
                                           model)[:2]

        u, t = sympy.symbols("u t")
        z = exact(complex(pole.z_R))
        width = exact(complex(pole.Gamma))

        def leg(terms):
            return sum(exact(c) / (z + u - I * exact(complex(a))) ** m for a, m, c in terms)

        def phase(w):
            return sum(exact(complex(p)) * w**i for i, p in enumerate(gamma))

        def taylor(f):
            # [u**n] f for n < r, from sympy derivatives at u = 0
            out = []
            for n in range(r):
                out.append(sympy.expand(f.subs(u, 0)) / math.factorial(n))
                f = sympy.diff(f, u)
            return out

        factors = [sympy.exp(-I * u * t), leg(self.PSI), leg(self.PHI)]
        if gauge:
            factors.append(sympy.exp(2 * I * (phase(z + u) - phase(z))))
        F = [sympy.Integer(1)] + [sympy.Integer(0)] * (r - 1)
        for coeffs in map(taylor, factors):
            F = [sympy.expand(sum(F[j] * coeffs[n - j] for j in range(n + 1))) for n in range(r)]
        Q = sympy.expand(
            -I * sum(math.comb(r, n + 1) * (-I * width) ** (n + 1) * F[n] for n in range(r))
        )
        # (coeffs, denominator) in lowest terms is unique: the least common
        # denominator of the parts, and each part lifted to it
        parts = [(sympy.re(c), sympy.im(c)) for c in (Q.coeff(t, m) for m in range(r))]
        den = sympy.ilcm(1, *(x.q for pair in parts for x in pair))
        assert got_den == den
        assert got == tuple((int(re * den), int(im * den)) for re, im in parts)


class TestPhaseJetInLowestTerms:
    """The phase shift jet reaches the series product in lowest terms: no
    integer factor common to its denominator and all its parts."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        r=st.integers(1, 8),
        E_R=st.floats(0.25, 4.0),
        width=st.floats(0.05, 3.0),
        gamma=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
    )
    @example(r=8, E_R=2.0, width=0.5, gamma=[0.3])
    def test_gcd_of_the_shift_is_one(self, r, E_R, width, gamma):
        z = Fraction(E_R), Fraction(width) / -2
        kind = "constant" if len(gamma) == 1 else "polynomial"
        _, (shift, top) = _phase_jet(BackgroundPhase(kind, gamma), z, r)
        assert len(shift) == r and math.gcd(top, *(x for c in shift for x in c)) == 1
        if len(gamma) == 1:
            # a flat phase shifts by exactly 1
            assert (shift, top) == ([(1, 0)] + [(0, 0)] * (r - 1), 1)


dyadic = st.integers(1, 48).map(lambda n: n / 16)
quarter = st.integers(-8, 8).map(lambda n: n / 4)
rational_leg = st.lists(
    st.tuples(dyadic, st.integers(1, 3), st.builds(complex, quarter, quarter)), min_size=1,
    max_size=2,
)


class TestPoleTermIsThePairingWithW:
    """The pole term is the pairing with the state operator W.

    For every power of t, in exact rationals,

        Q(t) = -Gamma sum_(k,l) w[k,l] sum_(p<=k) binom(k,p) (-i t)**(k-p) psi^(p)(z) phi^(l)(z)

    with Q the exact polynomial that pole_jet reads (_exact_jets) and w
    the entries of w_total (W over 2 pi Gamma) in the derivative
    normalization.  The inner sum is column k of the semigroup T~(t) of
    jordan acting on the observable leg, so this is the chain from the
    S-matrix pole through the Gamow jets and W to the semigroup.  In the factorial normalization the derivatives
    become Taylor coefficients and binom(k, p) becomes 1 / (k-p)!.  With
    the gauge absorbed, psi is times exp(2i (gamma(w) - gamma(z))).  The
    derivatives are sympy's, of the closed-form legs, with every float at
    its exact binary value: nothing is shared with the jets of smatrix.
    """

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        r=st.integers(1, 6),
        E_R=st.floats(0.25, 4.0),
        width=st.floats(0.05, 3.0),
        psi=rational_leg,
        phi=rational_leg,
        gamma=st.lists(st.integers(-4, 4).map(lambda n: n / 32), min_size=1, max_size=4),
        gauge=st.booleans(),
    )
    def test_pole_term_is_minus_gamma_psi_t_w_phi(self, r, E_R, width, psi, phi, gamma, gauge):
        sympy = pytest.importorskip("sympy")
        I = sympy.I

        def exact(x):
            x = complex(x)
            return sympy.Rational(*x.real.as_integer_ratio()) + I * sympy.Rational(
                *x.imag.as_integer_ratio()
            )

        kind = "constant" if len(gamma) == 1 else "polynomial"
        pole = ResonancePole(E_R, width, r)
        model = SMatrixModel(pole, BackgroundPhase(kind, gamma), absorb_gauge=gauge)
        coeffs, denominator = smatrix._exact_jets(TestFunction(tuple(psi)),
                                                  TestFunction(tuple(phi)), model)[:2]

        w, t = sympy.symbols("w t")
        z, Gamma = exact(pole.z_R), exact(width)

        def leg(terms):
            return sum(exact(c) / (w - I * exact(a)) ** m for a, m, c in terms)

        def derivatives(f):
            out = []
            for _ in range(r):
                out.append(sympy.expand(f.subs(w, z)))
                f = sympy.diff(f, w)
            return out

        observable = leg(psi)
        if gauge:
            phase = sum(exact(p) * w**i for i, p in enumerate(gamma))
            observable *= sympy.exp(2 * I * (phase - phase.subs(w, z)))
        psi_d, phi_d = derivatives(observable), derivatives(leg(phi))
        got = [sympy.Rational(re, denominator) + I * sympy.Rational(im, denominator)
               for re, im in coeffs]
        assert len(got) == r

        for normalization in ("derivative", "factorial"):
            W = w_total(GamowSubspace(pole, normalization))
            if normalization == "derivative":
                x, y, weight = psi_d, phi_d, math.comb
            else:
                x = [d / math.factorial(k) for k, d in enumerate(psi_d)]
                y = [d / math.factorial(k) for k, d in enumerate(phi_d)]

                def weight(k, p):
                    return sympy.Rational(1, math.factorial(k - p))

            Q = sympy.expand(-Gamma * sum(
                (sympy.Rational(re, W.denominator) + I * sympy.Rational(im, W.denominator))
                * sum(weight(k, p) * (-I * t) ** (k - p) * x[p] for p in range(k + 1)) * y[l]
                for (k, l), (re, im) in W.entries.items()
            ))
            for m in range(r):
                assert sympy.expand(Q.coeff(t, m) - got[m]) == 0, (normalization, m)



def _inside(exact: Fraction, centre: int, rad: int, e: int) -> bool:
    """Whether exact lies in 2**e [centre - rad, centre + rad]."""
    return abs(exact / Fraction(2) ** e - centre) <= rad


wide_leg = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.integers(1, 3),
              st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))),
    min_size=1, max_size=2,
)


class TestBallJets:
    """Every exact coefficient of Q and of v = Gamma W phi lies in its ball.

    The ball build holds v_k 2**-(s k) and Q_m 2**-(s m) (r-1)!, with
    2**s <= Gamma < 2**(s+1), as Gaussian integers over 2**e, each part
    within rad of its exact value; the exact values are those of the exact
    build, which TestPoleJetExact and TestPoleTermIsThePairingWithW certify.
    The order runs to the cap with E_R and Gamma of moderate size, and to 8
    with both from the whole range, where the exact build of the oracle
    stays fast: at r = 32 with E_R = 1e300 and Gamma = 1e-300 it takes
    about 35 s.
    """

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        pole=st.tuples(st.integers(1, R_CAP), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
        | st.tuples(st.integers(1, 8), st.floats(0.0, exclude_min=True, allow_infinity=False),
                    st.floats(0.0, exclude_min=True, allow_infinity=False)),
        psi=wide_leg,
        phi=wide_leg,
        gamma=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
        gauge=st.booleans(),
        p=st.sampled_from(smatrix._PRECISIONS),
    )
    # both ends of the range at once, with E_R / Gamma moderate
    @example(pole=(32, 1e300, 3e299), psi=[(1e300, 2, 1 + 1j)], phi=[(2e299, 3, 0.5)],
             gamma=[0.1, 2e-300], gauge=True, p=160)
    @example(pole=(32, 1e-300, 4e-300), psi=[(1e-300, 1, 1j)], phi=[(3e-300, 2, 1.0)],
             gamma=[0.3, 1e299], gauge=True, p=160)
    def test_exact_coefficients_lie_in_their_balls(self, pole, psi, phi, gamma, gauge, p):
        r, E_R, width = pole
        kind = "constant" if len(gamma) == 1 else "polynomial"
        model = SMatrixModel(ResonancePole(E_R, width, r), BackgroundPhase(kind, gamma),
                             absorb_gauge=gauge)
        legs = TestFunction(tuple(psi)), TestFunction(tuple(phi))
        coeffs, den, v, v_den = smatrix._exact_jets(*legs, model)
        z = Fraction(E_R), Fraction(width) / -2
        taylor = smatrix._taylor_shift(model.gamma, z) if gauge else None
        (vc, ve, v_rad), (qc, qe, q_rad), s = smatrix._ball_jets(*legs, model, taylor, p)
        lift = math.factorial(r - 1)
        for k in range(r):
            scale = Fraction(2) ** (-s * k)
            for exact, centre in zip(v[k], vc[k]):
                assert _inside(Fraction(exact, v_den) * scale, centre, v_rad, ve), ("v", k)
            for exact, centre in zip(coeffs[k], qc[k]):
                assert _inside(Fraction(exact, den) * scale * lift, centre, q_rad, qe), ("Q", k)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        pole=st.tuples(st.integers(1, R_CAP), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
        | st.tuples(st.integers(1, 8), st.floats(0.0, exclude_min=True, allow_infinity=False),
                    st.floats(0.0, exclude_min=True, allow_infinity=False)),
        psi=wide_leg,
        phi=wide_leg,
        gamma=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
        gauge=st.booleans(),
        times=st.lists(st.floats(0.0, 1e3) | st.floats(0.0, allow_infinity=False), min_size=1,
                       max_size=4),
    )
    # zero legs at a huge width: balls of 0 whose ends both leave the float
    # range, one each way, decide nothing
    @example(pole=(3, 1.0, 6.52844545570324e274), psi=[(1.0, 1, 0j)], phi=[(1.0, 1, 0j)],
             gamma=[0.0], gauge=False, times=[0.0])
    # an empty leg is the zero function: a pole term of exact zeros
    @example(pole=(3, 2.0, 1.0), psi=[], phi=[(1.0, 1, 1.0)], gamma=[0.1, 0.2], gauge=True,
             times=[0.0, 1.0])
    @example(pole=(3, 2.0, 1.0), psi=[(1.0, 1, 1.0)], phi=[], gamma=[0.1], gauge=False,
             times=[0.0, 1.0])
    def test_balls_read_what_the_exact_build_reads(self, pole, psi, phi, gamma, gauge, times):
        # every value a jet prints, the amplitude and the probability at
        # each t, and each one's error, read off the balls and off the exact
        # Q alone: the same floats, signs of zero included
        r, E_R, width = pole
        kind = "constant" if len(gamma) == 1 else "polynomial"
        model = SMatrixModel(ResonancePole(E_R, width, r), BackgroundPhase(kind, gamma),
                             absorb_gauge=gauge)

        def read(value):
            try:
                return repr(value())
            except (OverflowError, VanishingPoleTermError) as exc:
                return repr(exc)

        def readings():
            try:
                jet = pole_jet(TestFunction(tuple(psi)), TestFunction(tuple(phi)), model)
            except OverflowError as exc:
                return [repr(exc)]
            out = [repr(jet.expansion_coeffs), jet.vanishes, read(jet.amplitude)]
            out += [read(lambda: jet.probability(0.0)), read(lambda: jet.ratios(times))]
            for t in times:
                out += [read(lambda: jet.amplitude(t)), read(lambda: jet.probability(t))]
            return out

        balls = readings()
        with mock.patch.object(smatrix, "_PRECISIONS", ()):
            assert readings() == balls

def exact_leg(terms, z, order: int, s: int) -> list:
    """The Taylor coefficients at z of sum c / (w - i a)**m in u =
    (w - z) 2**-s, exactly: c delta**m binom(m+k-1, k) zeta**k with
    delta = 1 / (z - i a) and zeta = -2**s delta."""
    out = [(Fraction(0), Fraction(0))] * order
    for a, m, c in terms:
        x, y = z[0], z[1] - Fraction(a)
        delta = (x / (x * x + y * y), -y / (x * x + y * y))
        zeta = (-delta[0] * Fraction(2) ** s, -delta[1] * Fraction(2) ** s)
        term = (Fraction(c.real), Fraction(c.imag))
        for _ in range(m):
            term = gmul(term, delta)
        for k in range(order):
            weight = math.comb(m + k - 1, k)
            out[k] = (out[k][0] + weight * term[0], out[k][1] + weight * term[1])
            term = gmul(term, zeta)
    return out


def exact_shift(shifted, g_den: int, order: int, s: int) -> list:
    """The series of exp(2i (gamma(z + 2**s u) - gamma(z))) in u, exactly,
    with gamma(z + v) - gamma(z) = sum_(j>=1) shifted[j] v**j / g_den: the
    recurrence e_k = (1/k) sum_j 2i j g_j 2**(s j) e_(k-j) of the power-series
    exponential."""
    g = [gmul((0, 2), (Fraction(re, g_den), Fraction(im, g_den))) for re, im in shifted]
    e = [(Fraction(1), Fraction(0))]
    for k in range(1, order):
        re = im = Fraction(0)
        for j in range(1, min(k, len(shifted) - 1) + 1):
            x, y = gmul(g[j], e[k - j])
            re += j * x * Fraction(2) ** (s * j)
            im += j * y * Fraction(2) ** (s * j)
        e.append((re / k, im / k))
    return e


def inside_ball(exact, ball) -> bool:
    """Whether each part of every exact term lies in 2**e [c - rad, c + rad]
    for the same part c of the ball series (coeffs, e, rad)."""
    coeffs, e, rad = ball
    return len(coeffs) == len(exact) and all(
        _inside(x, c, rad, e) for pair, centre in zip(exact, coeffs) for x, c in zip(pair, centre))


class TestBallLegAndShift:
    """_ball_leg and _ball_shift alone against exact Fractions, at p = 8 to
    32, where each term of a radius matters: the ball series of a leg's jet
    and of the phase shift's hold the exact series.  The legs sit at the
    poles of the CLI's range, or at any point off a leg's poles; the
    examples put the floors of every step on one side of the exact value."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        pole=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
        | st.tuples(st.floats(0.0, exclude_min=True, allow_infinity=False),
                    st.floats(0.0, exclude_min=True, allow_infinity=False)),
        terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(1, 4),
                                 st.builds(complex, st.floats(-4.0, 4.0),
                                           st.floats(-4.0, 4.0))), max_size=3),
        order=st.integers(1, 12),
        p=st.integers(8, 32),
    )
    # E_R far above Gamma: |zeta| is small, so the radius of J_k falls
    # with k, and the one radius of the series must be J_1's, not J_7's
    @example(pole=(38.0, 1.0), terms=[(0.5, 4, -1j)], order=8, p=8)
    # the zero function: a series of exact zeros
    @example(pole=(2.0, 1.0), terms=[], order=3, p=8)
    def test_leg_holds_the_exact_jet(self, pole, terms, order, p):
        E_R, width = pole
        z, s = (Fraction(E_R), Fraction(width) / -2), math.frexp(width)[1] - 1
        fn = TestFunction(tuple(terms))
        assert inside_ball(exact_leg(fn.terms, z, order, s),
                           smatrix._ball_leg(fn, z, order, s, p))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        z=st.tuples(st.integers(-(2**12), 2**12), st.integers(-(2**12), 2**12)).filter(
            lambda z: z != (0, 0)),
        den=st.integers(0, 12),
        terms=st.lists(st.tuples(st.integers(1, 2**8).map(lambda n: n / 64), st.integers(1, 4),
                                 st.builds(complex, st.integers(-64, 64), st.integers(-64, 64))),
                       min_size=1, max_size=2),
        order=st.integers(1, 12),
        s=st.integers(-6, 6),
        p=st.integers(8, 32),
    )
    # z - i a = -259/8: every J_k is real and positive, so every floor
    # drops its centre below the exact value, and the errors add up
    @example(z=(-259, 4), den=3, terms=[(0.5, 4, 1 + 0j)], order=5, s=-3, p=10)
    # |zeta| ~ 0.1: each J_k past J_0 is little more than its floors, so
    # the series radius rests on the + 2 of each step
    @example(z=(-107, -2556), den=5, terms=[(0.625, 1, -1j)], order=4, s=3, p=12)
    def test_leg_holds_the_exact_jet_anywhere(self, z, den, terms, order, s, p):
        # z anywhere off the poles i a of the leg, on a grid of 2**-den
        z = Fraction(z[0], 2**den), Fraction(z[1], 2**den)
        fn = TestFunction(tuple(terms))
        assume(all(z != (0, Fraction(a)) for a, _, _ in fn.terms))
        assert inside_ball(exact_leg(fn.terms, z, order, s), smatrix._ball_leg(fn, z, order, s, p))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        shifted=st.lists(st.tuples(st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)),
                         min_size=1, max_size=5),
        g_den=st.integers(0, 40).map(lambda n: 2**n) | st.integers(1, 2**40),
        order=st.integers(1, 12),
        s=st.integers(-20, 20),
        p=st.integers(8, 32),
    )
    # a steep phase whose e_k pass 2 p bits: the series is cut, and each
    # cut must widen the radii it shifts
    @example(shifted=[(0, 0), (-52, 0), (4826, 108), (58115, 30550), (-112, 44)], g_den=1,
             order=11, s=1, p=8)
    def test_shift_holds_the_exact_series(self, shifted, g_den, order, s, p):
        assert inside_ball(exact_shift(shifted, g_den, order, s),
                           smatrix._ball_shift(shifted, g_den, order, s, p))


class TestExpansionCoeffs:
    def test_simple_pole_coefficient(self, pair):
        pole = ResonancePole(2.0, 1.0, 1)
        model = SMatrixModel(pole)
        psi, phi = pair
        b = pole_jet(psi, phi, model).expansion_coeffs
        want = -2.0 * math.pi * pole.Gamma * phi.value(pole.z_R)
        assert b[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_contraction_reproduces_pole_term(self, pair, r):
        # the pole term == sum_k b_k psi^(k)(z) with the bare observable leg
        pole = ResonancePole(2.0, 1.0, r)
        model = SMatrixModel(pole)
        b = pole_jet(*pair, model).expansion_coeffs
        psi_d = rational_derivatives(pair[0].terms, pole.z_R, r - 1)
        contracted = sum(b[k] * psi_d[k] for k in range(r))
        want = pole_jet(*pair, model).amplitude()
        assert abs(contracted - want) < 1e-11 * max(1.0, abs(want))


positive_float = st.floats(min_value=1e-3, max_value=1e3) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False
)
finite_float = st.floats(min_value=-1e3, max_value=1e3) | st.floats(
    allow_nan=False, allow_infinity=False
)


class TestLineshape:
    def test_peak_normalized_to_one(self):
        pole = ResonancePole(2.0, 1.0, 2)
        grid = np.linspace(0.0, 4.0, 801)
        for n in range(2):
            vals = np.asarray(lineshape(pole, grid)[n])
            assert vals.max() == pytest.approx(1.0)
            assert vals[np.argmax(vals)] == vals[400]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        E_R=positive_float,
        Gamma=positive_float,
        ends=st.lists(finite_float, min_size=2, max_size=2),
        steps=st.integers(min_value=1, max_value=12),
        r=st.integers(min_value=1, max_value=R_CAP),
        data=st.data(),
    )
    # Gamma / 2 and every distance below the normal range
    @example(E_R=1e-323, Gamma=1e-323, ends=[0.0, 2e-323], steps=5, r=1, data=None)
    # Gamma / 2 is 0 in floats, and E_R lies on the grid
    @example(E_R=2.0, Gamma=5e-324, ends=[1.0, 3.0], steps=3, r=2, data=None)
    # E - z overflows at both ends
    @example(E_R=1e308, Gamma=1.0, ends=[-1.7e308, -1e308], steps=4, r=3, data=None)
    def test_within_the_stated_bound_of_mpmath(self, E_R, Gamma, ends, steps, r, data):
        # each value is within (n + 2) * 2**-53 relative of the exact
        # (D_min / D)**(n+1), D = |E - z|**2, and within 2**-1074 below
        # the normal range
        lo, hi = sorted(ends)
        config = f"e_min = {lo!r}\ne_max = {hi!r}\ne_steps = {steps}\n"
        grid = RunConfig(parse_config_text(config)).grid("e")
        n = r - 1 if data is None else data.draw(st.integers(min_value=0, max_value=r - 1))
        got = lineshape(ResonancePole(E_R, Gamma, r), grid)[n]
        with mpmath.workprec(150):
            squared = [(mpmath.mpf(e) - E_R) ** 2 + (mpmath.mpf(Gamma) / 2) ** 2 for e in grid]
            nearest = min(squared)
            for value, d in zip(got, squared):
                want = (nearest / d) ** (n + 1)
                assert abs(value - want) <= (n + 2) * 2.0**-53 * want + 2.0**-1074

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_full_width_at_half_maximum(self, n):
        # half-max abscissas solve (E - E_R)^2 + Gamma^2/4 = 2^(1/(n+1)) Gamma^2/4
        gamma_width = 0.8
        pole = ResonancePole(2.0, gamma_width, 3)
        grid = np.linspace(0.0, 4.0, 160001)
        vals = np.asarray(lineshape(pole, grid)[n])
        above = vals >= 0.5
        left = np.argmax(above)
        right = len(vals) - np.argmax(above[::-1]) - 1
        # linear interpolation at both crossings
        e_left = np.interp(
            0.5, [vals[left - 1], vals[left]], [grid[left - 1], grid[left]]
        )
        e_right = np.interp(
            0.5, [vals[right + 1], vals[right]], [grid[right + 1], grid[right]]
        )
        measured = e_right - e_left
        predicted = gamma_width * math.sqrt(2.0 ** (1.0 / (n + 1)) - 1.0)
        assert measured == pytest.approx(predicted, rel=1e-6)
        if n == 0:
            assert predicted == pytest.approx(gamma_width)
