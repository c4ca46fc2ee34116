"""State operators on the pole subspace and their semigroup evolution.

The distinguished operators are the binomial anti-diagonal family

    W(n) = (Gamma**n / n!) * sum_{k=0}^{n} binom(n, k) |k><n-k|

and their weighted sum W = 2 pi Gamma * sum_n binom(r, n+1) (-i)**n W(n),
which is the operator the pole term of a scattering pairing suggests.
Conjugating with the semigroup, T(t) A T(t)^dagger, multiplies every W(n)
by exp(-Gamma t) with no polynomial remainder, while a plain dyad
|k><k| (k >= 1) picks up polynomial contamination up to t**(2k).

Every operator is built once, as exact Gaussian-rational entries in which
Gamma enters as the exact rational value of its float.  One step then
materializes them: exact=True keeps the entries, and the float carrier
is each exact entry rounded once.  The 2 pi Gamma scale of W has no exact
carrier because pi is irrational, so only the float carrier applies it;
every certified property is invariant under that scale.

Evolution runs one path for both carriers: float entries enter at their
exact binary value, jordan.conjugation_polys expands the conjugation
exactly, and floats appear only when a quantity is evaluated at a time.
evolve_operator_symbolic, evolved_norm_squared, decay_deviation and
detector_probability are four readings of that one expansion; the last
two take exp(-Gamma t) from smatrix._exp_decay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import GaussianRational, binom
from .errors import EmptyGridError, IndexOutOfRangeError, NegativeTimeError
from .jordan import (
    GamowSubspace,
    OperatorOnM,
    _exp_poly_rows,
    conjugation_polys,
)
from .smatrix import (
    SMatrixModel,
    TestFunction,
    _exp_decay,
    _pole_position,
    _rational_jet,
    pole_jet,
)

__all__ = [
    "StateOperator",
    "w_n",
    "w_total",
    "dyad_operator",
    "evolve_operator_symbolic",
    "evolved_norm_squared",
    "decay_deviation",
    "pole_term_probability",
    "detector_probability",
]


@dataclass(frozen=True)
class StateOperator:
    """Operator on the pole subspace whose dyads evolve under the semigroup."""

    op: OperatorOnM

    @property
    def space(self) -> GamowSubspace:
        return self.op.space


def _materialize(space: GamowSubspace, entries: dict, exact: bool, scale: float = 1.0):
    """The one step from exact entries {(k, l): GaussianRational} to an
    operator: exact=True keeps them, the float carrier rounds each entry
    once and multiplies it by scale, and raises OverflowError for an entry
    that leaves the float range."""
    r = space.dimension
    mat = np.full((r, r), GaussianRational(0), dtype=object) if exact else np.zeros((r, r), complex)
    for kl, value in entries.items():
        if not exact:
            value = complex(value) * scale
            if not cmath.isfinite(value):
                raise OverflowError(f"entry {kl} of the operator leaves the float range")
        mat[kl] = value
    return StateOperator(OperatorOnM(space, mat))


def _wn_entries(space: GamowSubspace, n: int) -> dict:
    r = space.dimension
    if not 0 <= n <= r - 1:
        raise IndexOutOfRangeError(f"operator index n must be in 0..{r - 1}, got {n}")
    width_n = Fraction(space.pole.Gamma) ** n
    if space.normalization == "factorial":
        return {(k, n - k): GaussianRational(width_n) for k in range(n + 1)}
    scale = width_n / math.factorial(n)
    return {(k, n - k): GaussianRational(scale * binom(n, k)) for k in range(n + 1)}


def w_n(space: GamowSubspace, n: int, exact: bool = False) -> StateOperator:
    """The n-th binomial anti-diagonal operator W(n)."""
    return _materialize(space, _wn_entries(space, n), exact)


def _w_prefactor(space: GamowSubspace) -> float:
    # the 2 pi Gamma scale of W, which only the float carrier applies
    return 2.0 * math.pi * space.pole.Gamma


def w_total(space: GamowSubspace, exact: bool = False) -> StateOperator:
    """Microphysical state operator W = 2 pi Gamma sum_n binom(r, n+1) (-i)**n W(n).

    The exact carrier omits the 2 pi Gamma prefactor (pi is irrational);
    all certified statements about W are scale invariant.
    """
    r = space.dimension
    # (-i)**n runs through the 4-cycle 1, -i, -1, i
    units = [GaussianRational(re, im) for re, im in ((1, 0), (0, -1), (-1, 0), (0, 1))]
    entries = {}
    for n in range(r):
        # entry (k, l) lies on the single anti-diagonal n = k + l
        coeff = binom(r, n + 1) * units[n % 4]
        entries.update((kl, coeff * value) for kl, value in _wn_entries(space, n).items())
    return _materialize(space, entries, exact, _w_prefactor(space))


def dyad_operator(
    space: GamowSubspace, k: int, l: int | None = None, exact: bool = False
) -> StateOperator:
    """Single dyad |k><l| (l defaults to k)."""
    r = space.dimension
    if l is None:
        l = k
    if not 0 <= k < r or not 0 <= l < r:
        raise IndexOutOfRangeError(f"dyad indices must be in 0..{r - 1}, got ({k}, {l})")
    return _materialize(space, {(k, l): GaussianRational(1)}, exact)


def _conjugation(W: StateOperator):
    """conjugation_polys of W; float entries enter at their exact dyadic value."""
    entries = {}
    for (k, l), value in np.ndenumerate(W.op.matrix):
        if not value:
            continue
        if not isinstance(value, GaussianRational):
            value = GaussianRational(Fraction(value.real), Fraction(value.imag))
        entries[k, l] = value
    return conjugation_polys(W.space.normalization, entries)


def _sum_of_squares(polys: dict, lowest: int = 0) -> list:
    """Integer coefficients of sum_{i,j} |p_ij(t)|**2, lowest power first,
    with each p_ij cut to its terms of degree >= lowest; trailing zeros
    dropped."""
    top = max((d for poly in polys.values() for d in poly), default=0)
    coeffs = [0] * (2 * top + 1)
    for poly in polys.values():
        terms = [(d, re, im) for d, (re, im) in poly.items() if d >= lowest]
        for d1, re1, im1 in terms:
            for d2, re2, im2 in terms:
                coeffs[d1 + d2] += re1 * re2 + im1 * im2
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def evolve_operator_symbolic(W: StateOperator) -> OperatorOnM:
    """T(t) . A . T(t)^dagger as ExpPolynomial entries in the time variable.

    The two boundary phases exp(-i z t) and exp(i conj(z) t) combine to the
    shared rate -Gamma, carried on each entry; the polynomial parts are the
    exact conjugation polynomials.  Float entries enter at their exact
    dyadic value, so the coefficients are Gaussian rationals and the rate
    is the exact rational value of -Gamma on either carrier.
    """
    space = W.space
    polys, denominator = _conjugation(W)
    rate = GaussianRational(-Fraction(space.pole.Gamma))
    rows = _exp_poly_rows(polys, denominator, rate, space.dimension)
    return OperatorOnM(space, np.array(rows, dtype=object))


def evolved_norm_squared(W: StateOperator) -> tuple:
    """Exact coefficients of N(t) = ||T~(t) . A . T~(t)^dagger||_F**2, lowest first.

    T~(t) is the evolution matrix without its phase; the phases of the two
    sides combine to exp(-Gamma t), so the evolved Frobenius norm is
    exp(-Gamma t) sqrt(N(t)).  No coefficient is rounded: for a family
    member the t-dependent terms cancel to exactly zero and N is the
    constant ||A||_F**2.
    """
    polys, denominator = _conjugation(W)
    return tuple(Fraction(c, denominator**2) for c in _sum_of_squares(polys))


def decay_deviation(W: StateOperator, t_grid) -> float:
    """Largest relative departure from the pure exponential law on the grid.

    max over t of || evolve(W, t) - exp(-Gamma t) W ||_F / ||W||_F.  The
    difference is exp(-Gamma t) times the terms of degree >= 1 of the
    conjugation polynomials, so the ratio is exp(-Gamma t) sqrt(D(t)) with
    D(t) the exact squared norm of those terms over ||W||_F**2, evaluated
    by Horner in floats.  A family member whose tail cancels gets exactly
    0.0.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise EmptyGridError("decay_deviation needs a non-empty time grid")
    if min(grid) < 0:
        raise NegativeTimeError(f"evolution is defined for t >= 0, got {min(grid)}")
    polys, _ = _conjugation(W)
    norm0 = sum(re * re + im * im for poly in polys.values() for re, im in [poly.get(0, (0, 0))])
    if not norm0:
        return 0.0
    tail = [float(Fraction(c, norm0)) for c in reversed(_sum_of_squares(polys, lowest=1))]
    width = W.space.pole.Gamma
    worst = 0.0
    for t in grid:
        acc = 0.0
        for c in tail:
            acc = acc * t + c
        # D(t) >= 0; a negative value is rounding in the evaluation
        worst = max(worst, _exp_decay(width, t) * math.sqrt(max(acc, 0.0)))
    return worst


def pole_term_probability(pair, model: SMatrixModel, t: float) -> float:
    """|pole term of the pairing with the time-translated observable|**2.

    Each observable-leg derivative psi^(k)(z) in the pole term is replaced
    by the k-th derivative of exp(-i w t) psi(w) at z, which makes the
    value exp(-Gamma t) |2 pi exp(2i gamma(z)) Q(t)|**2 with Q the exact
    polynomial of pole_jet.  For r = 1, Q is constant and this is
    exp(-Gamma t) times the t = 0 value; higher orders deviate by
    polynomial factors.
    """
    if t < 0:
        raise NegativeTimeError(f"probabilities are defined for t >= 0, got {t}")
    return pole_jet(pair, model).probability(t)


def detector_probability(
    W: StateOperator, psi: TestFunction, model: SMatrixModel, t: float
) -> float:
    """<psi(t)| W |psi(t)> with the k-th dyad leg paired to the time-translated
    observable on the k-th basis vector at the pole.

    At t = 0 that pairing is d_k = psi^(k)(z) in the derivative basis and
    the Taylor coefficient psi^(k)(z) / k! in the factorial basis, from
    the exact Taylor jet of psi at z.  Translating the observable by t
    evolves the legs with the semigroup, so the value is exp(-Gamma t)
    times sum_{p,q} d_p conj(d_q) P_pq(t), with P the conjugation
    polynomials of W: a polynomial in t that is evaluated exactly at the
    float t and rounded once.  For a family member W(n) in either basis
    its t-terms cancel, and the value is exactly exp(-Gamma t) times the
    t = 0 value.  The background phase plays no role here.  Values are
    unnormalized: scale W (or psi) to set the t = 0 value.
    """
    if t < 0:
        raise NegativeTimeError(f"probabilities are defined for t >= 0, got {t}")
    pole = model.pole
    space = W.space
    if space.pole != pole:
        raise ValueError("state operator and model refer to different poles")
    legs, den = _rational_jet(psi, _pole_position(pole), space.dimension)
    if space.normalization == "derivative":
        legs = [(math.factorial(p) * re, math.factorial(p) * im) for p, (re, im) in enumerate(legs)]
    polys, denominator = _conjugation(W)
    num, step = float(t).as_integer_ratio()
    top = max((d for poly in polys.values() for d in poly), default=0)
    # powers[d] = t**d * step**top, an integer
    powers = [num**d * step ** (top - d) for d in range(top + 1)]
    total = 0
    for (p, q), poly in polys.items():
        (p_re, p_im), (q_re, q_im) = legs[p], legs[q]
        # d_p conj(d_q) = x + i y; add the real part of (x + i y) P_pq(t)
        x, y = p_re * q_re + p_im * q_im, p_im * q_re - p_re * q_im
        total += sum((x * re - y * im) * powers[d] for d, (re, im) in poly.items())
    value = Fraction(total, den * den * denominator * step**top)
    return _exp_decay(pole.Gamma, float(t)) * float(value)
