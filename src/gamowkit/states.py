"""State operators on the pole subspace and their semigroup evolution.

The distinguished operators are the binomial anti-diagonal family

    W(n) = (Gamma**n / n!) * sum_{k=0}^{n} binom(n, k) |k><n-k|

and their weighted sum W = 2 pi Gamma * sum_n binom(r, n+1) (-i)**n W(n),
which is the operator the pole term of a scattering pairing suggests.
Conjugating with the semigroup, T(t) A T(t)^dagger, multiplies every W(n)
by exp(-Gamma t) with no polynomial remainder, while a plain dyad
|k><k| (k >= 1) picks up polynomial contamination up to t**(2k).

Every operator has one carrier: exact Gaussian-rational entries, in which
Gamma enters as the exact rational value of its float.  A StateOperator
holds only these sparse entries {(k, l): value}, a few dyads on its
anti-diagonals; an absent dyad is 0.  The 2 pi Gamma scale of W has no
exact value because pi is irrational, so w_total leaves it off; every
certified property is invariant under that scale, and decay-curve
applies it to the float norms it prints.

Evolution runs one path: float entries, which a caller may pass, enter at
their exact binary value, jordan.conjugation_polys expands the conjugation
exactly, and floats appear only when a quantity is evaluated at a time.
evolve_operator_symbolic, evolved_norm_squared and decay_deviation are
three readings of that one expansion.  The arithmetic they share is
algebra's: the quarter turns of the i-powers, exact evaluation at a
float t and exp(-Gamma t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    ExpPolynomial,
    GaussianRational,
    Polynomial,
    _exact_at,
    _exp_decay,
    _over,
    _turn,
    binom,
)
from .errors import EmptyGridError, IndexOutOfRangeError, NegativeTimeError
from .jordan import GamowSubspace, conjugation_polys
from .smatrix import SMatrixModel, pole_jet

__all__ = [
    "StateOperator",
    "w_n",
    "w_total",
    "dyad_operator",
    "evolve_operator_symbolic",
    "evolved_norm_squared",
    "decay_deviation",
    "pole_term_probability",
]


@dataclass(frozen=True)
class StateOperator:
    """Operator on the pole subspace whose dyads evolve under the semigroup.

    entries maps (k, l) to the coefficient of |k><l|; absent dyads are 0.
    The constructors below give exact GaussianRational entries; complex
    float entries are accepted too and enter evolution at their exact
    binary value.
    """

    space: GamowSubspace
    entries: dict

    def __post_init__(self):
        r = self.space.dimension
        for k, l in self.entries:
            if not 0 <= k < r or not 0 <= l < r:
                raise IndexOutOfRangeError(f"dyad indices must be in 0..{r - 1}, got ({k}, {l})")


def w_n(space: GamowSubspace, n: int) -> StateOperator:
    """The n-th binomial anti-diagonal operator W(n), each entry built once
    from the integers of Gamma's float, n! and binom(n, k)."""
    r = space.dimension
    if not 0 <= n <= r - 1:
        raise IndexOutOfRangeError(f"operator index n must be in 0..{r - 1}, got {n}")
    derivative = space.normalization == "derivative"
    num, den = (part**n for part in space.pole.Gamma.as_integer_ratio())
    den *= math.factorial(n) if derivative else 1
    weights = [binom(n, k) if derivative else 1 for k in range(n + 1)]
    entries = {(k, n - k): _over(num * w, 0, den) for k, w in enumerate(weights)}
    return StateOperator(space, entries)


def w_total(space: GamowSubspace) -> StateOperator:
    """W / (2 pi Gamma) = sum_n binom(r, n+1) (-i)**n W(n), the microphysical
    state operator without its 2 pi Gamma scale, which has no exact value
    (pi is irrational); every certified statement about W is scale
    invariant, and decay-curve applies the scale to the norms it prints."""
    r = space.dimension
    entries = {}
    for n in range(r):
        # entry (k, l) lies on the single anti-diagonal n = k + l; (-i)**n = i**(3n)
        re, im = _turn((binom(r, n + 1), 0), 3 * n)
        for kl, value in w_n(space, n).entries.items():
            entries[kl] = GaussianRational(re * value.re, im * value.re)
    return StateOperator(space, entries)


def dyad_operator(space: GamowSubspace, k: int) -> StateOperator:
    """The single dyad |k><k|."""
    return StateOperator(space, {(k, k): GaussianRational(1)})


def _conjugation(W: StateOperator):
    """conjugation_polys of W; float entries enter at their exact dyadic value."""
    entries = {}
    for kl, value in W.entries.items():
        if not value:
            continue
        if not isinstance(value, GaussianRational):
            value = GaussianRational(value.real, value.imag)
        entries[kl] = value
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


def evolve_operator_symbolic(W: StateOperator) -> list:
    """T(t) . A . T(t)^dagger as r rows of ExpPolynomial entries in the time
    variable.

    The two boundary phases exp(-i z t) and exp(i conj(z) t) combine to the
    shared rate -Gamma, carried on each entry; the polynomial parts are the
    exact conjugation polynomials.  Float entries enter at their exact
    dyadic value, so the coefficients are Gaussian rationals whatever the
    entries, and the rate is the exact rational value of -Gamma.
    """
    r = W.space.dimension
    polys, denominator = _conjugation(W)
    rate = GaussianRational(-W.space.pole.Gamma)
    rows = [[ExpPolynomial(rate, Polynomial()) for _ in range(r)] for _ in range(r)]
    for (i, j), poly in polys.items():
        coeffs = [GaussianRational(0)] * (max(poly) + 1)
        for d, (re, im) in poly.items():
            coeffs[d] = _over(re, im, denominator)
        rows[i][j] = ExpPolynomial(rate, Polynomial(coeffs))
    return rows


def evolved_norm_squared(W: StateOperator) -> tuple:
    """(coeffs, denominator) of N(t) = ||T~(t) . A . T~(t)^dagger||_F**2: the
    coefficient of t**d is the int coeffs[d] over the int denominator.

    T~(t) is the evolution matrix without its phase; the phases of the two
    sides combine to exp(-Gamma t), so the evolved Frobenius norm is
    exp(-Gamma t) sqrt(N(t)).  No coefficient is rounded: for a family
    member the t-dependent terms cancel to exactly zero and N is the
    constant ||A||_F**2.
    """
    polys, denominator = _conjugation(W)
    return _sum_of_squares(polys), denominator**2


def decay_deviation(W: StateOperator, t_grid) -> float:
    """Largest relative departure from the pure exponential law on the grid.

    max over t of || evolve(W, t) - exp(-Gamma t) W ||_F / ||W||_F.  The
    difference is exp(-Gamma t) times the terms of degree >= 1 of the
    conjugation polynomials, so the ratio is exp(-Gamma t) sqrt(D(t)) with
    D(t) the exact squared norm of those terms over ||W||_F**2.  D is read
    exactly at each float t and scaled by 4**-k, k from its bit lengths,
    before it is rounded once, as PoleJet.ratio does; the square root and
    the product with the mantissa of exp(-Gamma t) are the only other
    roundings.  So a deviation that is a float is returned where D(t)
    alone leaves the float range, and one that is not raises
    OverflowError naming t.  A family member whose tail cancels gets
    exactly 0.0.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise EmptyGridError("decay_deviation needs a non-empty time grid")
    for t in grid:
        if not t >= 0:
            raise NegativeTimeError(f"evolution is defined for t >= 0, got {t}")
    polys, _ = _conjugation(W)
    norm0 = sum(re * re + im * im for poly in polys.values() for re, im in [poly.get(0, (0, 0))])
    tail = [(c, 0) for c in _sum_of_squares(polys, lowest=1)]
    if not norm0 or not tail:
        return 0.0
    width = W.space.pole.Gamma
    worst = 0.0
    for t in grid:
        num, _, scale = _exact_at(tail, t)
        den = norm0 * scale
        k = (num.bit_length() - den.bit_length()) // 2
        mantissa, exponent = math.frexp(_exp_decay(width, t))
        value = mantissa * math.sqrt((num << max(-2 * k, 0)) / (den << max(2 * k, 0)))
        try:
            worst = max(worst, math.ldexp(value, exponent + k))
        except OverflowError:
            raise OverflowError(f"the deviation leaves the float range at t = {t!r}") from None
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
    if not t >= 0:
        raise NegativeTimeError(f"probabilities are defined for t >= 0, got {t}")
    return pole_jet(pair, model).probability(t)

