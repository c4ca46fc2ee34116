"""Second-sheet S-matrix model with one resonance pole of order r.

The model is S(w) = ((w - z*)/(w - z))**r * exp(2i gamma(w)) with
z = E_R - i Gamma/2 the pole position on the lower half of the second
sheet and gamma a real background phase.  Expanding the pole factor in
partial fractions and pushing a pairing integral through the pole gives
the pole term of a resonance amplitude; the derivative extraction runs
over a circle around z via trapezoid sums, which converge geometrically
for functions analytic on a neighbourhood of the disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import binom
from .errors import NoConvergenceError, PoleEvaluationError

__all__ = [
    "ResonancePole",
    "BackgroundPhase",
    "SMatrixModel",
    "TestFunction",
    "TestFunctionPair",
    "s_matrix_eval",
    "pole_expansion_coeffs",
    "analytic_derivatives",
    "pole_term",
    "expansion_coeffs",
    "lineshape",
]

# Evaluation closer to the pole than this multiple of Gamma is rejected.
POLE_EXCLUSION = 1e-14

# Trapezoid node schedule for contour derivatives.
CONTOUR_START_NODES = 64
CONTOUR_MAX_NODES = 4096
CONTOUR_REL_TOL = 1e-12


@dataclass(frozen=True)
class ResonancePole:
    """Resonance position E_R, width Gamma and pole order r."""

    E_R: float
    Gamma: float
    r: int

    def __post_init__(self):
        if not 0 < self.E_R < math.inf:
            raise ValueError(f"E_R must be positive and finite, got {self.E_R}")
        if not 0 < self.Gamma < math.inf:
            raise ValueError(f"Gamma must be positive and finite, got {self.Gamma}")
        if self.r < 1:
            raise ValueError(f"pole order r must be >= 1, got {self.r}")

    @property
    def z_R(self) -> complex:
        """Pole position E_R - i Gamma / 2."""
        return complex(self.E_R, -0.5 * self.Gamma)


@dataclass(frozen=True)
class BackgroundPhase:
    """Real polynomial background phase gamma(w) = sum params[i] * w**i."""

    kind: str = "constant"
    params: tuple = (0.0,)

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial"):
            raise ValueError(f"unknown phase kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "constant" and len(self.params) != 1:
            raise ValueError("constant phase takes exactly one parameter")
        if not self.params:
            raise ValueError("phase needs at least one parameter")

    def value(self, omega: complex) -> complex:
        acc = 0.0
        for p in reversed(self.params):
            acc = acc * omega + p
        return acc


@dataclass(frozen=True)
class SMatrixModel:
    """Pole data plus background phase; absorb_gauge selects whether the
    phase factor exp(2i gamma) is folded into the ket-side leg of pairings
    (on) or dropped from them altogether (off)."""

    pole: ResonancePole
    gamma: BackgroundPhase = field(default_factory=BackgroundPhase)
    absorb_gauge: bool = True

    def phase_factor(self, omega: complex) -> complex:
        return cmath.exp(2j * self.gamma.value(omega))


@dataclass(frozen=True)
class TestFunction:
    """Rational function sum_j c_j / (w - i a_j)**m_j with a_j > 0.

    All poles sit in the upper half-plane, so the function is analytic on
    the closed lower half-plane where the resonance pole and the contour
    around it live.  An empty term list is the zero function.
    """

    # not a test case despite the name
    __test__ = False

    terms: tuple = ()

    def __post_init__(self):
        clean = []
        for a, m, c in self.terms:
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
        object.__setattr__(self, "terms", tuple(clean))

    def value(self, omega: complex) -> complex:
        return sum((c / (omega - 1j * a) ** m for a, m, c in self.terms), 0j)


@dataclass(frozen=True)
class TestFunctionPair:
    """Observable leg psi and state leg phi of a resonance pairing."""

    __test__ = False

    psi: TestFunction
    phi: TestFunction

    @classmethod
    def from_params(cls, psi_params, phi_params) -> "TestFunctionPair":
        return cls(TestFunction(tuple(psi_params)), TestFunction(tuple(phi_params)))


def s_matrix_eval(model: SMatrixModel, omega: complex) -> complex:
    """Closed form ((w - z*)/(w - z))**r * exp(2i gamma(w))."""
    z = model.pole.z_R
    if abs(omega - z) < POLE_EXCLUSION * model.pole.Gamma:
        raise PoleEvaluationError(
            f"evaluation at {omega} is within {POLE_EXCLUSION:g}*Gamma of the pole"
        )
    ratio = (omega - z.conjugate()) / (omega - z)
    return ratio ** model.pole.r * model.phase_factor(omega)


def pole_expansion_coeffs(model: SMatrixModel) -> list:
    """Partial-fraction coefficients c_l of the pole factor.

    ((w - z*)/(w - z))**r = 1 + sum_{l=1}^{r} c_l / (w - z)**l with
    c_l = binom(r, l) * (-i Gamma)**l, since z* - z = i Gamma.
    """
    gamma_width = model.pole.Gamma
    r = model.pole.r
    return [binom(r, l) * (-1j * gamma_width) ** l for l in range(1, r + 1)]


def analytic_derivatives(f, z0: complex, n_max: int, radius: float) -> np.ndarray:
    """Derivatives f(z0), f'(z0), ..., f^(n_max)(z0) by contour quadrature.

    Samples f on the circle |w - z0| = radius and reads the derivatives off
    the Fourier coefficients of the samples (the trapezoid form of the
    Cauchy integral for f^(k)).  Nodes double from 64 until two successive
    estimate vectors agree to 1e-12 in the scaled maximum norm; failing at
    4096 nodes raises NoConvergenceError.  Requires f analytic on a
    neighbourhood of the closed disk.

    The agreement scale for order k is the Cauchy bound k! max|f| / R**k:
    rounding noise in the k-th Fourier coefficient is amplified by exactly
    that factor, so a flat scale would keep high orders from ever settling
    at small radii.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not radius > 0:
        raise ValueError("contour radius must be positive")

    factorials = np.array([math.factorial(k) for k in range(n_max + 1)])
    powers = radius ** np.arange(n_max + 1)

    previous = None
    nodes = CONTOUR_START_NODES
    while nodes <= CONTOUR_MAX_NODES:
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        points = z0 + radius * np.exp(1j * theta)
        samples = np.array([f(w) for w in points], dtype=complex)
        # FFT index k carries exp(-2 pi i j k / n), exactly the weight the
        # k-th derivative needs.
        spectrum = np.fft.fft(samples)[: n_max + 1]
        estimate = factorials * spectrum / (nodes * powers)
        if previous is not None:
            sample_peak = max(float(np.max(np.abs(samples))), 1e-300)
            scale = factorials * sample_peak / powers
            if float(np.max(np.abs(estimate - previous) / scale)) <= CONTOUR_REL_TOL:
                return estimate
        previous = estimate
        nodes *= 2
    raise NoConvergenceError(
        f"contour derivatives did not settle within {CONTOUR_MAX_NODES} nodes"
    )


def _pairing_legs(pair: TestFunctionPair, model: SMatrixModel):
    """Observable and state legs as callables, gauge placed per the model."""
    if model.absorb_gauge:
        def psi_fn(w):
            return pair.psi.value(w) * model.phase_factor(w)
    else:
        psi_fn = pair.psi.value
    return psi_fn, pair.phi.value


def _pole_sum(pole: ResonancePole, psi_fn, phi_fn) -> complex:
    """The pole-term sum of pole_term for the legs psi_fn and phi_fn, with
    their derivatives taken on the circle of radius Gamma/4 around z."""
    z = pole.z_R
    radius = pole.Gamma / 4.0
    psi_d = analytic_derivatives(psi_fn, z, pole.r - 1, radius)
    phi_d = analytic_derivatives(phi_fn, z, pole.r - 1, radius)
    total = 0j
    for n in range(pole.r):
        inner = sum(binom(n, k) * psi_d[k] * phi_d[n - k] for k in range(n + 1))
        total += (
            binom(pole.r, n + 1)
            * (-1j * pole.Gamma) ** (n + 1)
            * (-2j * math.pi / math.factorial(n))
            * inner
        )
    return total


def pole_term(pair: TestFunctionPair, model: SMatrixModel) -> complex:
    """Pole-term contribution of the pairing (psi, S phi) at an order-r pole.

    sum_{n=0}^{r-1} binom(r, n+1) (-i Gamma)**(n+1) (-2 pi i / n!)
        * sum_{k=0}^{n} binom(n, k) psi^(k)(z) phi^(n-k)(z)

    where psi carries the background phase factor when absorb_gauge is on.
    The n-th term collects the n-th derivative of the product of both legs
    at the pole, one derivative order per partial-fraction power.
    """
    return _pole_sum(model.pole, *_pairing_legs(pair, model))


def expansion_coeffs(phi: TestFunction, model: SMatrixModel) -> np.ndarray:
    """Coefficients b_k multiplying the k-th observable-leg derivative.

    b_k = (-2 pi Gamma) * sum_{n=k}^{r-1} binom(r, n+1) binom(n, k)
          ((-i Gamma)**n / n!) phi^(n-k)(z)

    so that pole_term == sum_k b_k psi^(k)(z) with the same gauge placement.
    """
    pole = model.pole
    z = pole.z_R
    phi_d = analytic_derivatives(phi.value, z, pole.r - 1, pole.Gamma / 4.0)
    out = np.zeros(pole.r, dtype=complex)
    for k in range(pole.r):
        acc = 0j
        for n in range(k, pole.r):
            acc += (
                binom(pole.r, n + 1)
                * binom(n, k)
                * (-1j * pole.Gamma) ** n
                / math.factorial(n)
                * phi_d[n - k]
            )
        out[k] = -2.0 * math.pi * pole.Gamma * acc
    return out


def lineshape(model: SMatrixModel, n: int, e_grid) -> np.ndarray:
    """|1 / (E - z)**(n+1)|**2 on the grid, scaled to peak at 1.

    n = 0 is the familiar width-Gamma resonance bump; higher n sharpen it.
    """
    pole = model.pole
    if not 0 <= n <= pole.r - 1:
        raise ValueError(f"derivative order n must be in 0..{pole.r - 1}, got {n}")
    grid = np.asarray(e_grid, dtype=float)
    intensity = 1.0 / np.abs(grid - pole.z_R) ** (2 * (n + 1))
    if intensity.size:
        intensity = intensity / intensity.max()
    return intensity
