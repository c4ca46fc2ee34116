"""State operators on the pole subspace and their semigroup evolution.

The distinguished operators are the binomial anti-diagonal family

    W(n) = (Gamma**n / n!) * sum_{k=0}^{n} binom(n, k) |k><n-k|

and their weighted sum W = 2 pi Gamma * sum_n binom(r, n+1) (-i)**n W(n).
W is the operator of the pole term: the pole term of a scattering
pairing is -<psi|W|phi>, with the coordinates of each leg its
derivatives at the pole (its Taylor coefficients in the factorial
normalization), and translating the observable by t applies the
semigroup to its leg.  smatrix.pole_jet reads the pole term off w_total.
Conjugating with the semigroup, T(t) A T(t)^dagger, multiplies every W(n)
by exp(-Gamma t) with no polynomial remainder, while a plain dyad
|k><k| (k >= 1) picks up polynomial contamination up to t**(2k).  In the
translation picture of jordan, where |k><l| is the monomial x**k y**l
(over k! l! in the factorial normalization) and the conjugation is
A(x - i t, y + i t), W(n) is a multiple of (x + y)**n and

    (d_y - d_x)(x + y)**n = n (x + y)**(n-1) - n (x + y)**(n-1) = 0,

so the translation leaves it, and W, unchanged.

Every operator has one carrier, the exact format of the kernels: a
StateOperator holds Gaussian integers {(k, l): (re, im)} over one int
denominator, a few dyads on its anti-diagonals; an absent dyad is 0.
StateOperator.lift is the one constructor from values: ints, Fractions,
floats, complex floats and numpy scalars all enter at their exact value.
w_n and w_total build their integers directly from the integer ratio
p / q of Gamma's float, the factorials and the binomials, reduced by one
gcd to the entries and least common denominator lift would give.  The
2 pi Gamma scale of W has no exact value because pi is irrational, so
w_total leaves it off; every certified property is invariant under that
scale, and decay_table applies it unless asked not to, as a mantissa and
an exponent.

Evolution is expanded exactly by jordan.conjugation_polys.
decay_deviation reads the exact squared norm D(t) of its terms of
degree >= 1, evaluated at each t and its square root rounded once.
decay_table expands w_total alone, once per table: its anti-diagonal n
is a nonzero multiple of W(n), and the expansion runs one anti-diagonal
at a time, so a w_total with no power of t certifies every W(n) at once,
and the constant squared norm N of each W(n) and of their sum is read
off w_total's entries, anti-diagonal by anti-diagonal.  A single dyad
c|k><l| needs no expansion: it evolves to c |T~k><T~l|, of rank one, so
N(t) = |c|**2 |T~k|**2 |T~l|**2 is the product of two short polynomials
in t**2, whose coefficients are the squared ket weights of
algebra._ket_row: the same rational coefficients the expansion would
give.  Each value exp(-Gamma t) * x they print is algebra's one reading,
with the exponent carried.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .algebra import _Frozen, _check_times, _exact_at, _exp_decay, _ket_row, _ldexp, _lift
from .algebra import _quotient, _scaled, _turn, binom
from .errors import EmptyGridError, IndexOutOfRangeError
from .jordan import GamowSubspace, conjugation_polys

__all__ = [
    "StateOperator",
    "w_n",
    "w_total",
    "dyad_operator",
    "decay_table",
    "decay_deviation",
]


class StateOperator(_Frozen):
    """Operator on the pole subspace whose dyads evolve under the semigroup.

    entries maps (k, l) to the Gaussian integer (re, im) of |k><l|, whose
    coefficient is (re + i im) / denominator; absent dyads are 0.  lift
    builds one from exact values.  Its fields cannot be reassigned; there
    is no field-wise __eq__ (instances compare by identity), __hash__ or
    __repr__.
    """

    __slots__ = ("space", "entries", "denominator")

    def __init__(self, space: GamowSubspace, entries: dict, denominator: int):
        r = space.dimension
        for k, l in entries:
            if not 0 <= k < r or not 0 <= l < r:
                raise IndexOutOfRangeError(f"dyad indices must be in 0..{r - 1}, got ({k}, {l})")
        self._set("space", space)
        self._set("entries", entries)
        self._set("denominator", denominator)

    @classmethod
    def lift(cls, space: GamowSubspace, values: dict) -> StateOperator:
        """The operator with values[k, l] on |k><l|: each value an int,
        Fraction, float, complex or numpy scalar, taken at its exact value
        (a float at its exact binary value).  Zero values are dropped, and
        the denominator is the least common one of the rest."""
        values = {kl: (Fraction(v.real), Fraction(v.imag)) for kl, v in values.items() if v}
        ints, denominator = _lift(list(values.values()))
        return cls(space, dict(zip(values, ints)), denominator)


def _family(space: GamowSubspace, weights: list) -> StateOperator:
    """sum_n weights[n] W(n) for Gaussian-integer weights (re, im).  W(n)
    holds Gamma**n / n! * binom(n, k) on (k, n-k), or Gamma**n in the
    factorial normalization.  With Gamma = p / q and top the last n, each
    value is an int from p, q, the factorials and the binomials over the
    one denominator q**top top! (q**top in the factorial normalization),
    and one gcd reduces them all to the entries and least common
    denominator StateOperator.lift gives for the same values."""
    derivative = space.normalization == "derivative"
    p, q = space.pole.Gamma.as_integer_ratio()
    top = len(weights) - 1
    lift = math.factorial(top) if derivative else 1
    entries = {}
    for n, (re, im) in enumerate(weights):
        if re or im:
            scale = p**n * q ** (top - n) * (lift // math.factorial(n) if derivative else 1)
            for k in range(n + 1):
                c = scale * binom(n, k) if derivative else scale
                entries[k, n - k] = (re * c, im * c)
    denominator = q**top * lift
    # seeded from the last anti-diagonal, the gcd tends to reach 1 (which
    # math.gcd keeps without further work) within a few terms
    common = math.gcd(denominator, *(c for pair in reversed(entries.values()) for c in pair))
    if common > 1:
        entries = {kl: (re // common, im // common) for kl, (re, im) in entries.items()}
    return StateOperator(space, entries, denominator // common)


def w_n(space: GamowSubspace, n: int) -> StateOperator:
    """The n-th binomial anti-diagonal operator W(n)."""
    r = space.dimension
    if not 0 <= n <= r - 1:
        raise IndexOutOfRangeError(f"operator index n must be in 0..{r - 1}, got {n}")
    return _family(space, [(0, 0)] * n + [(1, 0)])


def w_total(space: GamowSubspace) -> StateOperator:
    """W / (2 pi Gamma) = sum_n binom(r, n+1) (-i)**n W(n), the microphysical
    state operator without its scale, which has no exact value; every
    certified statement about W is scale invariant, and decay_table
    applies the scale unless exact.  The one exact builder of W's weights:
    smatrix reads the exact pole term and the partial fractions off it
    (its p-bit balls take the weights' closed form)."""
    r = space.dimension
    # (-i)**n = i**(3n)
    return _family(space, [_turn((binom(r, n + 1), 0), 3 * n) for n in range(r)])


def dyad_operator(space: GamowSubspace, k: int) -> StateOperator:
    """The single dyad |k><k|."""
    return StateOperator(space, {(k, k): (1, 0)}, 1)


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


def _evolved_norm_squared(W: StateOperator) -> tuple:
    """(coeffs, denominator) of N(t) = ||T~(t) . A . T~(t)^dagger||_F**2 for
    a single dyad A = c|k><l|: the coefficient of t**d is the int coeffs[d]
    over the int denominator.

    T~(t) is the evolution matrix without its phase; the phases of the two
    sides combine to exp(-Gamma t), so the evolved Frobenius norm is
    exp(-Gamma t) sqrt(N(t)).  No coefficient is rounded.

    A evolves to c |T~k><T~l|, which has rank one, so N(t) = |c|**2
    P_k(t**2) P_l(t**2), read without the conjugation, with
    |T~(t)|i>|**2 = P_i(t**2) and P_i(u) = sum_d w(i, i-d)**2 u**d the
    squares of the ket weights of algebra._ket_row, last first: the same
    rational coefficients jordan.conjugation_polys would give, over den**2
    times the squares of the two lifts.
    """
    [((k, l), (re, im))] = W.entries.items()
    (ket, k_lift), (bra, l_lift) = (_ket_row(W.space.normalization == "derivative", i)
                                    for i in (k, l))
    ket, bra = [a * a for a in ket[::-1]], [b * b for b in bra[::-1]]
    coeffs = [0] * (2 * (k + l) + 1)
    for d, a in enumerate(ket):
        for e, b in enumerate(bra):
            coeffs[2 * (d + e)] += a * b
    size = re * re + im * im
    # a zero dyad has no coefficients, as _sum_of_squares writes N = 0
    return [size * c for c in coeffs] if size else [], (W.denominator * k_lift * l_lift) ** 2


def _norm_readings(coeffs: list, den: int, points, scale: float, power: int) -> tuple:
    """(norm, exp_law, deviation) of an evolved operator at the points of
    decay_table, each as (values, exponents), the deviation None for a
    constant N: exp(-Gamma t) sqrt(N(t)) and exp(-Gamma t) sqrt(N(0)) times
    scale 2**power, with N(t) the int coeffs[d] over the int den at t**d,
    and |u - u0| / u0 on u = sqrt(N(t)), read as |t T(t)| / (u0 (u + u0))
    with N(t) = N(0) + t T(t).  N, scaled by 4**-k with k from N(0), is
    rounded once and read by a float Horner pass, at t = s 2**j >= 128 in
    s < 2**8 on the coefficients times 2**((d - deg N) j): every float
    operation is the unscaled one times a power of two, and N stays in
    range.  The N of decay_table is constant but for a dyad, whose N is a
    polynomial in t**2, so the pass takes its even coefficients, two steps
    (acc s) s + c at a time: the steps over the zero odd ones, acc s + 0,
    round to the same floats."""
    common = math.gcd(coeffs[0], den)
    u0, k = _scaled(coeffs[0] // common, den // common, root=True)
    scaled = _quotient(coeffs, den, 2 * k)
    degree = len(coeffs) - 1
    exponent = power + k
    exp_law = [scale * u0 * m for _, _, m, _ in points], [exponent + e for _, _, _, e in points]
    if not degree:
        return exp_law, exp_law, None
    norm, norm_exponents, deviation, shifts = [], [], [], []
    for j, group in itertools.groupby(points, key=operator.itemgetter(1)):
        half = degree * j // 2
        c0, *tail = [math.ldexp(c, (d - degree) * j) for d, c in enumerate(scaled)] if j else scaled
        evens = tail[-1::-2]
        u0_shifted = math.ldexp(u0, -half)
        for s, _, m, e in group:
            acc = 0.0
            for c in evens:
                acc = acc * s * s + c
            T = acc * s
            u = math.sqrt(T * s + c0)
            norm.append(scale * u * m)
            norm_exponents.append(exponent + half + e)
            deviation.append(abs(s * T) / (u0 * (u + u0_shifted)))
            shifts.append(half)
    return (norm, norm_exponents), exp_law, (deviation, shifts)


def decay_table(space: GamowSubspace, t_grid, exact: bool = False) -> dict:
    """The columns decay-curve prints, in order, as name -> values on the
    grid: t; name_norm, name_exp_law and name_deviation of each W(n) (wn)
    and of 2 pi Gamma w_total (wsum; w_total if exact); dyadk_norm and
    dyadk_deviation of each |k><k|.  Each t is split once for all columns,
    as t = s 2**j with j a multiple of 8 and s < 2**8 (j = 0 below 128) and
    exp(-Gamma t) = m 2**e; the exponents are applied last, naming the
    column and t of a value beyond the float range.  t is the grid as a
    list and every other column a tuple, so that columns holding one
    reading can be one object: the norm and exp_law of an operator with a
    constant N (_norm_readings returns one reading for both), every
    deviation of such an operator, one shared tuple of zeros, and the
    columns of dyad0, which are those of W(0) = |0><0|.

    The family is read off w_total, conjugated once (module docstring): N
    of W(n) is the sum of |entry|**2 on k + l = n over (denominator
    binom(r, n+1))**2, and N of wsum that over every anti-diagonal over
    denominator**2.  A power of t that survives is a fault of the program:
    ArithmeticError naming its anti-diagonal.
    NegativeTimeError for a t that is negative or nan, and OverflowError
    naming t for t = inf."""
    grid, Gamma = list(t_grid), space.pole.Gamma
    _check_times(grid, "evolution")
    shifts = [max(math.frexp(t)[1], 0) // 8 * 8 for t in grid]
    points = [(math.ldexp(t, -j), j, *_exp_decay(Gamma, t)) for t, j in zip(grid, shifts)]
    mantissa, exponent = math.frexp(Gamma)
    wsum = (1.0, 0) if exact else (2.0 * math.pi * mantissa, exponent)
    family, dyad, r = ("norm", "exp_law", "deviation"), ("norm", "deviation"), space.dimension
    W = w_total(space)
    polys, _ = conjugation_polys(space.normalization, W.entries, W.denominator)
    for (k, l), poly in polys.items():
        if d := max(poly):
            raise ArithmeticError(f"anti-diagonal {k + l + d} of w_total keeps a term in t**{d}")
    sizes = [0] * r
    for (k, l), (re, im) in W.entries.items():
        sizes[k + l] += re * re + im * im
    operators = [(f"w{n}", [size], (W.denominator * binom(r, n + 1)) ** 2, 1.0, 0, family)
                 for n, size in enumerate(sizes)]
    operators += [("wsum", [sum(sizes)], W.denominator**2, *wsum, family)]
    operators += [(f"dyad{k}", *_evolved_norm_squared(dyad_operator(space, k)), 1.0, 0, dyad)
                  for k in range(1, r)]
    table, zeros = {"t": grid}, (0.0,) * len(grid)
    for name, coeffs, den, scale, power, columns in operators:
        readings = dict(zip(family, _norm_readings(coeffs, den, points, scale, power)))
        applied = {}
        for column in columns:
            key, reading = f"{name}_{column}", readings[column]
            if reading is None:
                table[key] = zeros
                continue
            if id(reading) not in applied:
                applied[id(reading)] = tuple(_ldexp(*reading, key, grid))
            table[key] = applied[id(reading)]
        if name == "wsum":  # dyad0 is W(0) = |0><0|, whose columns follow wsum's
            table["dyad0_norm"], table["dyad0_deviation"] = table["w0_norm"], zeros
    return table


def decay_deviation(W: StateOperator, t_grid) -> float:
    """Largest relative departure from the pure exponential law on the grid.

    max over t of || evolve(W, t) - exp(-Gamma t) W ||_F / ||W||_F.  The
    difference is exp(-Gamma t) times the terms of degree >= 1 of the
    conjugation polynomials, so the ratio is exp(-Gamma t) sqrt(D(t)) with
    D(t) the exact squared norm of those terms over ||W||_F**2, whose
    square root algebra's _scaled rounds once from its exact value at each
    float t.
    So a deviation that is a float is returned where D(t) or exp(-Gamma t)
    alone is not, one that is not raises OverflowError naming t (t = inf
    among them), and a family member whose tail cancels gets exactly 0.0.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise EmptyGridError("decay_deviation needs a non-empty time grid")
    _check_times(grid, "evolution")
    polys, _ = conjugation_polys(W.space.normalization, W.entries, W.denominator)
    norm0 = sum(re * re + im * im for poly in polys.values() for re, im in [poly.get(0, (0, 0))])
    tail = [(c, 0) for c in _sum_of_squares(polys, lowest=1)]
    if not norm0 or not tail:
        return 0.0
    roots = [_scaled(re, norm0 * scale, root=True)
             for re, _, scale in (_exact_at(tail, t) for t in grid)]
    decays = [_exp_decay(W.space.pole.Gamma, t) for t in grid]
    values = [m * root for (m, _), (root, _) in zip(decays, roots)]
    return max(_ldexp(values, [e + k for (_, e), (_, k) in zip(decays, roots)], "deviation", grid))
