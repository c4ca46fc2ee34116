"""Second-sheet S-matrix model with one resonance pole of order r.

The model is S(w) = ((w - z*)/(w - z))**r * exp(2i gamma(w)), with
z = E_R - i Gamma/2 the position of jordan's ResonancePole on the lower
half of the second sheet and gamma a real background phase.  Pushing a
pairing integral through the partial fractions of the pole factor gives
the pole term of a resonance amplitude: -2 pi Gamma <psi|W|phi>, with W
the state operator of states without its 2 pi Gamma scale (w_total),
whose entry (k, l) in the factorial normalization is
h_(k+l) = binom(r, k+l+1) (-i Gamma)**(k+l), and the Taylor coefficients
of the legs at z as their coordinates.

Every leg has a closed-form Taylor series at z (the rational test
functions, the phase exp(2i gamma) after a Taylor shift of gamma to z,
and the time shift exp(-i w t)), so the jets are exact Gaussian integers
over a common denominator, every input float at its exact value.  The
pole term of the pairing with the observable translated by t is
2 pi exp(2i gamma(z)) exp(-i z t) Q(t), Q an exact polynomial of degree
< r.  pole_jet, the one entry point to it, pairs the observable jet with
W phi; its PoleJet reads the amplitude and the survival probability at
any t >= 0, and the ratio table of a whole grid in one call.  Every
value is read off p-bit balls of the jets where Ziv's test decides it,
and off the exact jets only where no ball of up to 5120 bits decides
it.  Only the benchmark's smatrix.derivative_* metrics and acceptance
criterion 5 read analytic_derivatives (contour quadrature), until ROADMAP
item 3.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .algebra import _Frozen, _ball_aligned, _ball_product, _ball_quotient, _convolve, _exact_at
from .algebra import _check_times, _exact_reading, _exp_decay, _exp_exact, _fixed_readings, _gmul
from .algebra import _horner, _horner_bounds, _ldexp, _lift, _norm_bounds, _rounded_part, _trim
from .algebra import _turn, binom
from .errors import NoConvergenceError, PoleEvaluationError, VanishingPoleTermError
from .jordan import GamowSubspace, ResonancePole
from .states import w_total

__all__ = [
    "BackgroundPhase",
    "SMatrixModel",
    "TestFunction",
    "s_matrix_eval",
    "pole_expansion_coeffs",
    "analytic_derivatives",
    "PoleJet",
    "pole_jet",
    "lineshape",
]

# Evaluation closer to the pole than this multiple of Gamma is rejected.
POLE_EXCLUSION = 1e-14

# Trapezoid node schedule for contour derivatives.
CONTOUR_START_NODES = 64
CONTOUR_MAX_NODES = 4096
CONTOUR_REL_TOL = 1e-12


class BackgroundPhase(_Frozen):
    """Real polynomial background phase gamma(w) = sum params[i] * w**i,
    params stored as a tuple of floats.  Its fields cannot be reassigned;
    there is no field-wise __eq__ (instances compare by identity), __hash__
    or __repr__."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str = "constant", params: tuple = (0.0,)):
        if kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown phase kind {kind!r}")
        params = tuple(float(p) for p in params)
        if kind == "constant" and len(params) != 1:
            raise ValueError("constant phase takes exactly one parameter")
        if not params:
            raise ValueError("phase needs at least one parameter")
        self._set("kind", kind)
        self._set("params", params)

    def value(self, omega: complex) -> complex:
        return _horner(self.params, omega)


class SMatrixModel(_Frozen):
    """Pole data plus background phase (a fresh BackgroundPhase() unless
    given); absorb_gauge selects whether the phase factor exp(2i gamma) is
    folded into the ket-side leg of pairings (on) or dropped from them
    altogether (off).  Its fields cannot be reassigned; there is no
    field-wise __eq__ (instances compare by identity), __hash__ or
    __repr__."""

    __slots__ = ("pole", "gamma", "absorb_gauge")

    def __init__(self, pole: ResonancePole, gamma: BackgroundPhase | None = None,
                 absorb_gauge: bool = True):
        self._set("pole", pole)
        self._set("gamma", BackgroundPhase() if gamma is None else gamma)
        self._set("absorb_gauge", absorb_gauge)

    def phase_factor(self, omega: complex) -> complex:
        return cmath.exp(2j * self.gamma.value(omega))


class TestFunction(_Frozen):
    """Rational function sum_j c_j / (w - i a_j)**m_j with a_j > 0.

    All poles sit in the upper half-plane, so the function is analytic on
    the closed lower half-plane where the resonance pole and the contour
    around it live.  An empty term list is the zero function.  terms
    holds the checked (float a, int m, complex c) triples; it cannot be
    reassigned, and there is no field-wise __eq__ (instances compare by
    identity), __hash__ or __repr__.
    """

    # not a test case despite the name
    __test__ = False
    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        clean = []
        for a, m, c in terms:
            a = float(a)
            m = int(m)
            c = complex(c)
            if not 0 < a < math.inf:
                raise ValueError(f"test-function pole scale a must be positive and finite, got {a}")
            if not cmath.isfinite(c):
                raise ValueError(f"test-function coefficient c must be finite, got {c}")
            if m < 1:
                raise ValueError(f"test-function pole order m must be >= 1, got {m}")
            clean.append((a, m, c))
        self._set("terms", tuple(clean))

    def value(self, omega: complex) -> complex:
        return sum((c / (omega - 1j * a) ** m for a, m, c in self.terms), 0j)


def s_matrix_eval(model: SMatrixModel, omega: complex) -> complex:
    """Closed form ((w - z*)/(w - z))**r * exp(2i gamma(w))."""
    z = model.pole.z_R
    if abs(omega - z) < POLE_EXCLUSION * model.pole.Gamma:
        raise PoleEvaluationError(
            f"evaluation at {omega} is within {POLE_EXCLUSION:g}*Gamma of the pole"
        )
    ratio = (omega - z.conjugate()) / (omega - z)
    return ratio ** model.pole.r * model.phase_factor(omega)


def pole_expansion_coeffs(pole: ResonancePole) -> list:
    """Partial-fraction coefficients c_l of the pole factor.

    ((w - z*)/(w - z))**r = 1 + sum_{l=1}^{r} c_l / (w - z)**l with
    c_l = binom(r, l) (-i Gamma)**l, since z* - z = i Gamma: -i Gamma
    times W's entry (l-1, 0) in the factorial normalization, each part
    rounded once.  OverflowError names a c_l beyond the float range.
    """
    W = w_total(GamowSubspace(pole, "factorial"))
    p, q = pole.Gamma.as_integer_ratio()
    den, column = q * W.denominator, [W.entries[n, 0] for n in range(pole.r)]
    # -i Gamma (re + i im) = Gamma (im - i re)
    return [_complex(p * im, -p * re, den, f"c_{l}") for l, (re, im) in enumerate(column, 1)]


def analytic_derivatives(f, z0: complex, n_max: int, radius: float) -> list:
    """Derivatives f(z0), f'(z0), ..., f^(n_max)(z0) by contour quadrature.

    Samples f on the circle |w - z0| = radius and reads the derivatives off
    the Fourier coefficients of the samples (the trapezoid form of the
    Cauchy integral for f^(k)), each a direct sum over the nodes.  Nodes
    double from 64 until two successive estimate lists agree to 1e-12 in
    the scaled maximum norm; failing at 4096 nodes raises
    NoConvergenceError.  Requires f analytic on a neighbourhood of the
    closed disk.

    The agreement scale for order k is the Cauchy bound k! max|f| / R**k:
    rounding noise in the k-th Fourier coefficient is amplified by exactly
    that factor, so a flat scale would keep high orders from ever settling
    at small radii.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not radius > 0:
        raise ValueError("contour radius must be positive")

    orders = range(n_max + 1)
    factorials = [math.factorial(k) for k in orders]
    powers = [radius**k for k in orders]

    previous = None
    nodes = CONTOUR_START_NODES
    while nodes <= CONTOUR_MAX_NODES:
        circle = [cmath.exp(1j * (2.0 * math.pi * j / nodes)) for j in range(nodes)]
        samples = [complex(f(z0 + radius * u)) for u in circle]
        # node j of coefficient k carries exp(-2 pi i j k / n) = circle[-j k mod n],
        # exactly the weight the k-th derivative needs
        spectrum = [sum(s * circle[-j * k % nodes] for j, s in enumerate(samples)) for k in orders]
        estimate = [a * c / (nodes * p) for a, c, p in zip(factorials, spectrum, powers)]
        if previous is not None:
            sample_peak = max(max(map(abs, samples)), 1e-300)
            scale = [a * sample_peak / p for a, p in zip(factorials, powers)]
            if max(abs(e - q) / c for e, q, c in zip(estimate, previous, scale)) <= CONTOUR_REL_TOL:
                return estimate
        previous = estimate
        nodes *= 2
    raise NoConvergenceError(
        f"contour derivatives did not settle within {CONTOUR_MAX_NODES} nodes"
    )


# ------------------------------------------------------------ Taylor jets
#
# A jet is the list of Taylor coefficients of a function at the pole z,
# held exactly as Gaussian integers (re, im) over one common denominator.
# Every input float enters at its exact binary value, so z, the test
# function data, the phase coefficients and Gamma are all exact.  The
# phase shift jet is returned in lowest terms (_lowest), so that _convolve
# multiplies no factor common to all of it: 375 to 391 bits at r = 8, and
# a flat phase shifts by exactly 1.


def _rational_jet(fn: TestFunction, z, order: int) -> tuple:
    """Taylor coefficients at z of sum c / (w - i a)**m, from the closed form
    c (-1)**k binom(m+k-1, k) (z - i a)**(-m-k)."""
    jet, den = [(0, 0)] * order, 1
    for a, m, c in fn.terms:
        # z - i a = (x + i y) / s, so (z - i a)**-1 = s (x - i y) / norm
        ((x, y),), s = _lift([(z[0], z[1] - Fraction(a))])
        (power,), c_den = _lift([(Fraction(c.real), Fraction(c.imag))])
        step = (s * x, -s * y)
        norm = x * x + y * y
        norms = [1]
        for _ in range(order - 1):
            norms.append(norms[-1] * norm)
        for _ in range(m):
            power = _gmul(power, step)
        coeffs = []
        for k in range(order):
            weight = (-1) ** k * binom(m + k - 1, k) * norms[order - 1 - k]
            coeffs.append((weight * power[0], weight * power[1]))
            power = _gmul(power, step)
        d = c_den * norm ** (m + order - 1)
        jet = [(jr * d + cr * den, ji * d + ci * den) for (jr, ji), (cr, ci) in zip(jet, coeffs)]
        den *= d
    return jet, den


def _taylor_shift(gamma: BackgroundPhase, z) -> tuple:
    """(shifted, g_den): shifted[k] / g_den is the k-th Taylor coefficient
    of gamma at z, as Gaussian integers over one int."""
    params, p_den = _lift([(Fraction(p), Fraction(0)) for p in gamma.params])
    ((zx, zy),), z_den = _lift([z])
    deg = len(params) - 1
    z_pow = [(1, 0)]
    for _ in range(deg):
        z_pow.append(_gmul(z_pow[-1], (zx, zy)))
    shifted = []
    for k in range(deg + 1):
        re = im = 0
        for i in range(k, deg + 1):
            c = params[i][0] * binom(i, k) * z_den ** (deg - i + k)
            re += c * z_pow[i - k][0]
            im += c * z_pow[i - k][1]
        shifted.append((re, im))
    return shifted, p_den * z_den**deg


def _phase_jet(shifted, g_den: int, order: int) -> tuple:
    """The jet of exp(2i (gamma(w) - gamma(z))) at z, from the Taylor shift
    (shifted, g_den) of gamma to z that _taylor_shift makes, by the
    recurrence e' = g' e of the power-series exponential."""
    deg = len(shifted) - 1
    # e_k = (1/k) sum_j j g_j e_{k-j} with g_j = 2i shifted[j] / g_den; every
    # e_k is an integer over top, so each division below is exact
    top = g_den ** (order - 1) * math.factorial(order - 1)
    e = [(top, 0)]
    for k in range(1, order):
        re = im = 0
        for j in range(1, min(k, deg) + 1):
            gr, gi = _gmul(_turn(shifted[j], 1), e[k - j])
            re += 2 * j * gr
            im += 2 * j * gi
        e.append((re // (k * g_den), im // (k * g_den)))
    return _lowest(e, top)


def _lowest(jet, den: int) -> tuple:
    """(jet, den) divided by the gcd of den and every part of jet."""
    common = math.gcd(den, *(x for c in jet for x in c))
    if common == 1:
        return jet, den
    return [(re // common, im // common) for re, im in jet], den // common


def _complex(re: int, im: int, den: int, what: str) -> complex:
    """complex(re / den, im / den), naming what when a part leaves the
    float range (the int division raises OverflowError with no name)."""
    try:
        return complex(re / den, im / den)
    except OverflowError:
        raise OverflowError(f"{what} leaves the float range") from None


def _exact_jets(psi: TestFunction, phi: TestFunction, model: SMatrixModel, taylor) -> tuple:
    """(coeffs, denominator, v, v_den): Q in lowest terms, and v = Gamma W phi
    over v_den, both exact, read off the integers of states.w_total; taylor
    as _ball_jets takes it."""
    pole = model.pole
    r = pole.r
    # z = E_R - i Gamma / 2 as exact rationals (re, im)
    z = Fraction(pole.E_R), Fraction(pole.Gamma) / -2
    W = w_total(GamowSubspace(pole, "factorial"))
    phi_jet, phi_den = _rational_jet(phi, z, r)
    v_re, v_im = [0] * r, [0] * r
    for (k, l), (wr, wi) in W.entries.items():
        xr, xi = phi_jet[l]
        v_re[k] += wr * xr - wi * xi
        v_im[k] += wr * xi + wi * xr
    # Gamma v over v_den, with Gamma = p / q
    p, q = pole.Gamma.as_integer_ratio()
    v, v_den = [(p * x, p * y) for x, y in zip(v_re, v_im)], q * W.denominator * phi_den
    leg, leg_den = _rational_jet(psi, z, r)
    if taylor is not None:
        shift, shift_den = _phase_jet(*taylor, r)
        leg, leg_den = _convolve(leg, shift, r), leg_den * shift_den
    fact = [math.factorial(k) for k in range(r)]
    # coefficient r-1-m of the reversed v times L: sum_{k>=m} v_k L[k-m], lifted by (r-1)! / m!
    sums = _convolve(v[::-1], leg, r)[::-1]
    lifts = [fact[-1] // f for f in fact]
    coeffs = [_turn((-c * x, -c * y), 3 * m) for m, (x, y), c in zip(range(r), sums, lifts)]
    reduced, den = _lowest(coeffs, fact[-1] * v_den * leg_den)
    return tuple(reduced), den, v, v_den


# ------------------------------------------------------------ ball jets
#
# The same jets as balls of algebra (Gaussian integers over a power of two,
# each within a radius), at p bits, in the variable u = (w - z) 2**-s with
# 2**s <= Gamma < 2**(s+1): there every leg coefficient shrinks or grows by
# at most 2 per order, since |z - i a| > Gamma / 2, and W's weights are
# binom(r, n+1) (-i Gamma 2**-s)**n.  Q(t) is then Q'(t 2**s), with
# Q'_m = Q_m 2**-(s m) read by the same kernel as the exact Q.

# Bits of the ball builds of pole_jet, tried in turn before the exact build.
_PRECISIONS = (160, 320, 640, 1280, 2560, 5120)


def _ball_leg(fn: TestFunction, z, order: int, s: int, p: int) -> tuple:
    """The jet of fn at z in u as a ball series at p bits: term k of
    c / (w - i a)**m is J_k = c delta**m binom(m+k-1, k) zeta**k with
    delta = 1 / (z - i a) and zeta = -2**s delta, |zeta| < 2.  J_0 is a
    p-bit scalar, and J_k = J_(k-1) zeta (m+k-1) / k is read at its
    exponent with zeta cut to 2**-p, each step floored, radius carried."""
    terms = []
    for a, m, c in fn.terms:
        ((x, y),), sd = _lift([(z[0], z[1] - Fraction(a))])
        delta = _ball_quotient((sd * x, -sd * y), x * x + y * y, 0, p)
        (c_int,), c_den = _lift([(Fraction(c.real), Fraction(c.imag))])
        # c_den is a power of two
        term = ([c_int], 1 - c_den.bit_length(), 0)
        for _ in range(m):
            term = _ball_product(term, delta, 1, p)
        ((zr, zi),), shift, z_rad = delta[0], delta[1] + s + p, delta[2]
        if shift >= 0:
            zr, zi, z_rad = -zr << shift, -zi << shift, z_rad << shift
        else:
            zr, zi, z_rad = -zr >> -shift, -zi >> -shift, (z_rad >> -shift) + 2
        z_size = abs(zr) + abs(zi)
        (jet, e, rad), widest = term, term[2]
        for k in range(1, order):
            cr, ci = jet[-1]
            rad = (((abs(cr) + abs(ci)) * z_rad + z_size * rad + 2 * rad * z_rad) >> p) + 2
            cr, ci = (cr * zr - ci * zi) >> p, (cr * zi + ci * zr) >> p
            f = m + k - 1
            jet.append((cr * f // k, ci * f // k))
            rad = rad * f // k + 2
            # one radius for the series: J_k's may fall with k where |zeta| is small
            widest = max(widest, rad)
        terms.append((jet, e, widest))
    if not terms:
        return [(0, 0)] * order, 0, 0
    aligned = _ball_aligned(terms)
    coeffs = [tuple(map(sum, zip(*parts))) for parts in zip(*(c for c, _, _ in aligned))]
    return _trim(coeffs, aligned[0][1], sum(rad for _, _, rad in aligned), p)


def _ball_shift(shifted, g_den: int, order: int, s: int, p: int) -> tuple:
    """exp(2i (gamma(z + 2**s u) - gamma(z))) in u as a ball series:
    _phase_jet's recurrence on g_j 2**(s j) cut to 2**-p, each e_k floored,
    the radius of every e_k carried from those it is made of.  The series
    starts at 2**-p and is cut whenever a term passes 2 p bits, so that a
    steep phase does not grow its integers with the order."""
    g = [None]
    for j in range(1, len(shifted)):
        shift = s * j + p
        g.append(tuple((x << shift if shift >= 0 else x >> -shift) // g_den for x in shifted[j]))
    # every g_j within 2 of its exact value
    e, rads, exponent = [(1 << p, 0)], [0], -p
    for k in range(1, order):
        re = im = rad = 0
        for j in range(1, min(k, len(g) - 1) + 1):
            (gr, gi), (er, ei) = g[j], e[k - j]
            # 2 j i g_j e_(k-j)
            re -= 2 * j * (gr * ei + gi * er)
            im += 2 * j * (gr * er - gi * ei)
            size_g, size_e = abs(gr) + abs(gi), abs(er) + abs(ei)
            rad += 2 * j * (size_g * rads[k - j] + 2 * size_e + 4 * rads[k - j])
        d = k << p
        e.append((re // d, im // d))
        rads.append(rad // d + 2)
        drop = max(map(abs, e[-1])).bit_length() - 2 * p
        if drop > 0:
            e, rads = [(x >> drop, y >> drop) for x, y in e], [(x >> drop) + 2 for x in rads]
            exponent += drop
    return e, exponent, max(rads)


def _ball_jets(psi: TestFunction, phi: TestFunction, model: SMatrixModel, taylor, p: int):
    """(v, q, s) at p bits: v the ball series of v_k 2**-(s k), with
    v = Gamma W phi of _exact_jets, and q that of Q'_m (r-1)!, Q'_m the
    coefficients of Q'(t 2**s) = Q(t); taylor is _taylor_shift's gamma at
    z when the gauge is absorbed, else None."""
    pole = model.pole
    r = pole.r
    z = Fraction(pole.E_R), Fraction(pole.Gamma) / -2
    s = math.frexp(pole.Gamma)[1] - 1
    phi_c, phi_e, phi_rad = _ball_leg(phi, z, r, s, p)
    # W's weight binom(r, n+1) (-i)**n (Gamma 2**-s)**n on the anti-diagonal
    # k + l = n, times Gamma = gp / gq, as w[n] over 2**bottom
    gp, gq = pole.Gamma.as_integer_ratio()
    tp, tq = math.ldexp(pole.Gamma, -s).as_integer_ratio()
    w = [gp * binom(r, n + 1) * tp**n * tq ** (r - 1 - n) for n in range(r)]
    bottom = gq.bit_length() - 1 + (r - 1) * (tq.bit_length() - 1)
    v = []
    for k in range(r):
        re = im = 0
        for l in range(r - k):
            x, y = _turn(phi_c[l], 3 * (k + l))
            re += w[k + l] * x
            im += w[k + l] * y
        v.append((re, im))
    v = _trim(v, phi_e - bottom, r * max(w) * phi_rad, p)
    leg = _ball_leg(psi, z, r, s, p)
    if taylor is not None and len(taylor[0]) > 1:
        leg = _ball_product(leg, _ball_shift(*taylor, r, s, p), r, p)
    sums, e, rad = _ball_product((v[0][::-1], v[1], v[2]), leg, r, p)
    lifts = [math.factorial(r - 1) // math.factorial(m) for m in range(r)]
    q = [_turn((-c * x, -c * y), 3 * m) for m, (x, y), c in zip(range(r), sums[::-1], lifts)]
    return v, (q, e, rad * lifts[0]), s


def _ball_part_pair(c, rad: int, e: int, den: int, what: str):
    """complex(x / den, y / den) as _complex rounds it, for the exact (x, y)
    of the ball parts 2**e [c - rad, c + rad], or None where Ziv's test
    cannot decide a part; OverflowError naming what where a part surely
    leaves the float range, as _complex raises it for either part."""
    parts = [_rounded_part(x, rad, e, den) for x in c]
    if any(x is not None and math.isinf(x) for x in parts):
        raise OverflowError(f"{what} leaves the float range")
    return None if None in parts else complex(*parts)


class PoleJet:
    """Pole term of a pairing whose observable is translated by t >= 0.

    The pole term of (psi, S phi) is -2 pi Gamma sum_k (W phi)_k psi_k,
    with psi_k and phi_l the Taylor coefficients of the legs at z, psi
    times the phase factor when the gauge is absorbed, and W = w_total
    of states in the factorial normalization; with psi(w) exp(-i w t) it is

        2 pi exp(2i gamma(z)) exp(-i z t) Q(t)

    with Q a polynomial of degree < r, and phase is exp(2i gamma(z)) in
    floats (1 without the gauge).  expansion_coeffs are the b_k = -2 pi
    Gamma (W phi)_k / k! that Q pairs with the derivatives of the
    observable leg, so that the pole term amplitude() == sum_k b_k
    psi^(k)(z) with the same gauge placement; each part is rounded once
    from its exact value.

    A jet of pole_jet reads every value off one ladder (_read) built from
    its pairing (psi, phi, model, taylor): balls of Q and v (p-bit Gaussian
    integers with a certified radius) at each of _PRECISIONS, then the
    exact build.  The first rung that decides a value under Ziv's test
    gives it: the float that both ends of its ball round to, a ball of
    Q(0) that excludes 0.  Q(t) is read at every t by algebra's
    fixed-point Horner pass, and the constructor reads each
    expansion_coeffs[k] in turn, naming the first that overflows.  A jet
    made from the exact coeffs (Gaussian integers (re, im), lowest power
    first) and denominator of Q reads them alone, with no expansion_coeffs.
    """

    def __init__(self, width: float, phase: complex, coeffs, denominator, pairing=None):
        self.width, self.phase = width, phase
        self._exact = None if coeffs is None else (tuple(coeffs), denominator)
        # (psi, phi, model, taylor) of pole_jet, and its ball builds by bits
        self._pairing, self._balls = pairing, {}

        def ball_read(build, ks):
            (c, e, rad), _, s, _ = build
            return [_ball_part_pair(c[k], rad, e + s * k, math.factorial(k),
                                    f"expansion_coeffs[{k}]") for k in ks]

        # the exact build is (coeffs, denominator, v, v_den)
        def exact_read(exact, k):
            return _complex(*exact[2][k], math.factorial(k) * exact[3], f"expansion_coeffs[{k}]")

        orders = range(pairing[2].pole.r) if pairing else ()
        self.expansion_coeffs = tuple(-2.0 * math.pi * self._read([k], ball_read, exact_read)[0]
                                      for k in orders)

    def _read(self, items, ball_read, exact_read) -> list:
        """[value] for each of items, off the ladder: ball_read(build,
        pending) reads each pending item or None on the ball builds (v, q, s,
        lows) in turn, lows the low ends of q's parts, and exact_read(exact,
        item) the rest off the exact (coeffs, denominator, ...); each build
        is made on first use."""
        values, todo = [None] * len(items), range(len(items))
        for p in _PRECISIONS if self._pairing else ():
            if p not in self._balls:
                v, (c, e, rad), s = _ball_jets(*self._pairing, p)
                self._balls[p] = v, (c, e, rad), s, [(x - rad, y - rad) for x, y in c]
            readings = ball_read(self._balls[p], [items[i] for i in todo])
            for i, value in zip(todo, readings):
                values[i] = value
            if None not in readings:
                return values
            todo = [i for i in todo if values[i] is None]
        if self._exact is None:
            self._exact = _exact_jets(*self._pairing)
        for i in todo:
            values[i] = exact_read(self._exact, items[i])
        return values

    @property
    def vanishes(self) -> bool:
        """Whether Q(0), and with it the pole term, is exactly zero."""
        def ball_read(build, pending):
            (re, im), rad = build[1][0][0], build[1][2]
            return [False if abs(re) > rad or abs(im) > rad else None]

        return self._read([0], ball_read, lambda exact, _: exact[0][0] == (0, 0))[0]

    def amplitude(self, t: float = 0.0) -> complex:
        """2 pi exp(2i gamma(z)) Q(t), for t >= 0; at t = 0 this is the
        pole term.  t = inf raises OverflowError naming t."""
        _check_times([t], "the pole term")
        what = f"pole_term at t = {t!r}"

        def ball_read(build, pending):
            # Q(t) (r-1)! in 2**e [acc, acc + B] = 2**(e-1) [2 acc + B -+ B]
            _, (coeffs, e, rad), s, lows = build
            den = math.factorial(len(coeffs) - 1)
            return [_ball_part_pair((2 * re + b, 2 * im + b), b, e - 1, den, what)
                    for re, im, b in _horner_bounds(lows, 2 * rad, s, pending)]

        def exact_read(exact, t):
            re, im, scale = _exact_at(exact[0], t)
            return _complex(re, im, exact[1] * scale, what)

        return 2.0 * math.pi * self.phase * self._read([t], ball_read, exact_read)[0]

    def probability(self, t: float) -> float:
        """exp(-Gamma t) |amplitude(t)|**2, for t >= 0."""
        value = self.amplitude(t)
        m, e = _exp_decay(self.width, t)
        s, k = math.frexp(value.real * value.real + value.imag * value.imag)
        return _ldexp([m * s], [e + k], "probability", [t])[0]

    def ratios(self, times) -> list:
        """[(ratio, reference)] at each t >= 0 of times: reference =
        exp(-Gamma t) and ratio = reference |Q(t) / Q(0)|**2, the exact
        quotient rounded once, scaled by a power of two, times the mantissa
        of the reference, exponents last: at r = 1 the two agree bit for
        bit.  Each ball build reads the quotients by algebra's
        _fixed_readings, one fixed-point Horner pass per t on the ball of Q
        over the bounds of |Q(0)|**2 its constant term gives, and the exact
        Q (_exact_reading) reads the t no ball decides; both round as
        _scaled does.  NegativeTimeError for a t that is negative or nan,
        OverflowError naming t for t = inf, and VanishingPoleTermError
        where Q(0) = 0."""
        times = list(times)
        _check_times(times, "the ratio")
        if self.vanishes:
            raise VanishingPoleTermError("pole term vanishes at t = 0; ratio table undefined")

        def ball_read(build, pending):
            _, (_, _, rad), s, lows = build
            den_low, den_high = _norm_bounds(*lows[0], 2 * rad)
            if not den_low:
                return [None] * len(pending)
            return _fixed_readings(lows, 2 * rad, den_low, den_high, s, pending)

        quotients = self._read(times, ball_read, lambda exact, t: _exact_reading(
            exact[0], sum(x * x for x in exact[0][0]), t))
        decays = [_exp_decay(self.width, t) for t in times]
        values = [m * q for (m, _), (q, _) in zip(decays, quotients)]
        exponents = [e + k for (_, e), (_, k) in zip(decays, quotients)]
        ratios = _ldexp(values, exponents, "ratio", times)
        return [(ratio, math.ldexp(m, e)) for ratio, (m, e) in zip(ratios, decays)]


def pole_jet(psi: TestFunction, phi: TestFunction, model: SMatrixModel) -> PoleJet:
    """The pole term of the pairing: the jet of the observable leg paired
    with v = W phi, exactly Q of _exact_jets, read off balls of it.

    With L the jet of the observable leg (times exp(2i (gamma(w) - gamma(z)))
    when the gauge is absorbed) and the shift
    exp(-i w t) = exp(-i z t) sum_j (-i t)**j / j! (w - z)**j, the pairing
    is 2 pi exp(2i gamma(z)) exp(-i z t) Q(t) with
    Q_m = -(-i)**m / m! sum_{k>=m} v_k L[k-m], v = Gamma W phi, and the
    expansion_coeffs are -2 pi v_k / k!, each part rounded once, read off
    the ladder of PoleJet as Q is: the balls of v, then the exact v, both
    rungs and the phase from one Taylor shift of gamma to z.
    """
    pole = model.pole
    taylor, phase = None, 1 + 0j
    if model.absorb_gauge:
        z = Fraction(pole.E_R), Fraction(pole.Gamma) / -2
        taylor = _taylor_shift(model.gamma, z)
        (g_re, g_im), g_den = taylor[0][0], taylor[1]
        try:
            # 2i gamma(z) = -2 Im gamma(z) + 2i Re gamma(z)
            phase = _exp_exact(Fraction(-2 * g_im, g_den), Fraction(2 * g_re, g_den))
        except OverflowError:
            raise OverflowError("phase factor exp(2i gamma(z)) leaves the float range") from None
    return PoleJet(pole.Gamma, phase, None, None, (psi, phi, model, taylor))


def lineshape(pole: ResonancePole, e_grid) -> list:
    """|1 / (E - z)**(n+1)|**2 on the grid, scaled to peak at 1: one
    column for each order n = 0..r-1.

    Each value is (D_min / D)**(n+1), with D = |E - z|**2 and D_min its
    smallest value on the grid.  E, E_R and Gamma / 2 are integers over
    one power of two, so every D is an exact integer, and the quotient
    D_min / D <= 1 is rounded once, for all orders: no value overflows, and
    the point nearest the pole reads 1.
    """
    points = [float(e).as_integer_ratio() for e in e_grid]
    center, center_den = pole.E_R.as_integer_ratio()
    width, width_den = pole.Gamma.as_integer_ratio()
    # every denominator is a power of two; lift each value to 2**(top - 1)
    top = max(center_den, 2 * width_den, *(den for _, den in points)).bit_length()
    center <<= top - center_den.bit_length()
    half_width = width << (top - (2 * width_den).bit_length())
    squared = [((e << (top - den.bit_length())) - center) ** 2 + half_width**2 for e, den in points]
    nearest = min(squared, default=0)
    ratios = [nearest / d for d in squared]
    return [[q ** (n + 1) for q in ratios] for n in range(pole.r)]
