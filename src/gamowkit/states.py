"""State operators on the pole subspace and their semigroup evolution.

The distinguished operators are the binomial anti-diagonal family

    W(n) = (Gamma**n / n!) * sum_{k=0}^{n} binom(n, k) |k><n-k|

and their weighted sum W = 2 pi Gamma * sum_n binom(r, n+1) (-i)**n W(n),
which is the operator the pole term of a scattering pairing suggests.
Conjugating with the semigroup, T(t) A T(t)^dagger, multiplies every W(n)
by exp(-Gamma t) with no polynomial remainder, while a plain dyad
|k><k| (k >= 1) picks up polynomial contamination up to t**(2k).

Two carriers are supported: complex floats, and exact Gaussian rationals
(exact=True) in which Gamma enters as the exact rational value of its
float and the overall 2 pi Gamma scale is dropped because pi has no exact
carrier; every certified property is invariant under that scale.

Evolution runs one path for both carriers: float entries enter at their
exact binary value, jordan.conjugation_polys expands the conjugation
exactly, and floats appear only when a quantity is evaluated at a time.
evolve_operator_symbolic, evolved_norm_squared and decay_deviation are
three readings of that one expansion.
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
    as_complex_matrix,
    conjugation_polys,
)
from .smatrix import SMatrixModel, TestFunction, _pairing_legs, _pole_sum, analytic_derivatives

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


def _wn_matrix(space: GamowSubspace, n: int, exact: bool):
    r = space.dimension
    if not 0 <= n <= r - 1:
        raise IndexOutOfRangeError(f"operator index n must be in 0..{r - 1}, got {n}")
    if exact:
        gamma_width = Fraction(space.pole.Gamma)
        scale = gamma_width**n / math.factorial(n)
        mat = np.full((r, r), GaussianRational(0), dtype=object)
        for k in range(n + 1):
            if space.normalization == "derivative":
                entry = scale * binom(n, k)
            else:
                entry = gamma_width**n
            mat[k, n - k] = GaussianRational(entry)
    else:
        gamma_width = space.pole.Gamma
        scale = gamma_width**n / math.factorial(n)
        mat = np.zeros((r, r), dtype=complex)
        for k in range(n + 1):
            if space.normalization == "derivative":
                mat[k, n - k] = scale * binom(n, k)
            else:
                mat[k, n - k] = gamma_width**n
    return mat


def w_n(space: GamowSubspace, n: int, exact: bool = False) -> StateOperator:
    """The n-th binomial anti-diagonal operator W(n)."""
    return StateOperator(OperatorOnM(space, _wn_matrix(space, n, exact)))


def _w_sum_matrix(space: GamowSubspace, exact: bool):
    r = space.dimension
    if exact:
        total = np.full((r, r), GaussianRational(0), dtype=object)
        minus_i = GaussianRational(0, -1)
        for n in range(r):
            coeff = binom(r, n + 1) * minus_i**n
            layer = _wn_matrix(space, n, True)
            for idx in np.ndindex(r, r):
                total[idx] = total[idx] + coeff * layer[idx]
        return total
    total = np.zeros((r, r), dtype=complex)
    for n in range(r):
        total += binom(r, n + 1) * (-1j) ** n * _wn_matrix(space, n, False)
    return 2.0 * math.pi * space.pole.Gamma * total


def w_total(space: GamowSubspace, exact: bool = False) -> StateOperator:
    """Microphysical state operator W = 2 pi Gamma sum_n binom(r, n+1) (-i)**n W(n).

    The exact carrier omits the 2 pi Gamma prefactor (pi is irrational);
    all certified statements about W are scale invariant.
    """
    return StateOperator(OperatorOnM(space, _w_sum_matrix(space, exact)))


def dyad_operator(
    space: GamowSubspace, k: int, l: int | None = None, exact: bool = False
) -> StateOperator:
    """Single dyad |k><l| (l defaults to k)."""
    r = space.dimension
    if l is None:
        l = k
    if not 0 <= k < r or not 0 <= l < r:
        raise IndexOutOfRangeError(f"dyad indices must be in 0..{r - 1}, got ({k}, {l})")
    if exact:
        mat = np.full((r, r), GaussianRational(0), dtype=object)
        mat[k, l] = GaussianRational(1)
    else:
        mat = np.zeros((r, r), dtype=complex)
        mat[k, l] = 1.0
    return StateOperator(OperatorOnM(space, mat))


def _conjugation(W: StateOperator):
    """conjugation_polys of W; float entries enter at their exact dyadic value."""
    entries = {}
    for (k, l), value in np.ndenumerate(W.op.matrix):
        if not isinstance(value, GaussianRational):
            value = GaussianRational(Fraction(value.real), Fraction(value.imag))
        if value:
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
        worst = max(worst, math.exp(-width * t) * math.sqrt(max(acc, 0.0)))
    return worst


def _observable_leg_at_time(psi_value, t: float):
    """Leg of the time-translated observable: w -> exp(-i w t) psi(w)."""

    def fn(w):
        return cmath.exp(-1j * w * t) * psi_value(w)

    return fn


def pole_term_probability(pair, model: SMatrixModel, t: float) -> float:
    """|pole term of the pairing with the time-translated observable|**2.

    Each observable-leg derivative psi^(k)(z) in the pole term is replaced
    by the k-th derivative of exp(-i w t) psi(w) at z.  For r = 1 this is
    exp(-Gamma t) times the t = 0 value; higher orders deviate by
    polynomial factors.
    """
    if t < 0:
        raise NegativeTimeError(f"probabilities are defined for t >= 0, got {t}")
    psi_fn, phi_fn = _pairing_legs(pair, model)
    return abs(_pole_sum(model.pole, _observable_leg_at_time(psi_fn, t), phi_fn)) ** 2


def detector_probability(
    W: StateOperator, psi: TestFunction, model: SMatrixModel, t: float
) -> float:
    """<psi(t)| W |psi(t)> with the k-th dyad leg paired to the k-th
    derivative of the time-translated observable at the pole.

    The background phase plays no role here.  Values are unnormalized:
    scale W (or psi) to set the t = 0 value.
    """
    if t < 0:
        raise NegativeTimeError(f"probabilities are defined for t >= 0, got {t}")
    pole = model.pole
    space = W.space
    if space.pole != pole:
        raise ValueError("state operator and model refer to different poles")
    z = pole.z_R
    d = analytic_derivatives(
        _observable_leg_at_time(psi.value, t), z, space.dimension - 1, pole.Gamma / 4.0
    )
    mat = as_complex_matrix(W.op.matrix)
    value = 0j
    for k in range(space.dimension):
        for l in range(space.dimension):
            value += mat[k, l] * d[k] * np.conj(d[l])
    return float(value.real)
