"""Jordan-block subspace attached to an order-r resonance pole.

ResonancePole is the pole itself, z = E_R - i Gamma / 2 of order r on
the second sheet; the block it spans, the state operators of states on
that block and the S-matrix model of smatrix all take it from here.
The r kets |0>, ..., |r-1> span the subspace; the Hamiltonian acts as
H|k> = z|k> + k|k-1> (derivative normalization) so (H - z) is nilpotent
of index r.  Rescaling |k> by 1/k! gives the factorial normalization with
a sub-/super-diagonal of ones.  Time evolution for t >= 0 is the upper
triangular semigroup T(t) with columns

    T(t)|k> = exp(-i z t) * sum_{p<=k} w(k, p) (-i t)**(k-p) |p>

with the ket weights w(k, p) = binom(k, p), or 1/(k-p)! in the factorial
normalization, which algebra._ket_row holds, and the bra side evolves
with the conjugate transpose.  evolution_matrix samples T(t) in complex
floats off those weights.  conjugation_polys is the one exact
expansion of the conjugation T(t) A T(t)^dagger: integer coefficients of
every power of t in every dyad, over one common denominator.  Every
evolved quantity of the package (evolved norms, decay columns, decay
deviations, the uniqueness oracle) is read off it, but for the evolved
norm of a single dyad, which has rank one and states reads off the norms
of its two evolved kets, the squares of the same ket weights.

The expansion is a translation.  Identify |k><l| with the monomial
x**k y**l (with x**k / k! and y**l / l! in the factorial normalization).
Without its phase, T(t)|k> is (x - i t)**k and <l|T(t)^dagger is
(y + i t)**l, so the conjugated operator is A(x - i t, y + i t), whose
Taylor expansion is

    sum_d (i t)**d / d! * (d_y - d_x)**d A.

d_y - d_x sends anti-diagonal k + l = m to m - 1, so the expansion runs
one anti-diagonal at a time and stops at the first layer that vanishes.
W(n) is a multiple of (x + y)**n, and (d_y - d_x)(x + y)**n =
n (x + y)**(n-1) - n (x + y)**(n-1) = 0: the family, and every sum of it,
stops after the layer d = 0, which is the operator itself.

conjugation_polys takes and returns the one exact format of states: sparse
Gaussian integers {(k, l): (re, im)} over one int denominator, the form
in which a StateOperator holds its entries.  The Hamiltonian layouts,
nilpotent powers and sampled evolution matrices are r rows of Python
numbers, row p holding the entries (p, 0..r-1).

Matrix layout conventions: operators that act on ket coordinates (the
evolution matrices, nilpotent powers) hold the image of basis ket k in
column k.  hamiltonian_matrix alone returns the transposed layout that
multiplies the column of pairing values <psi|k>, which is the lower
Jordan block; hamiltonian_action_matrix is its ket-side transpose.
"""

from __future__ import annotations

import cmath
import math

from .algebra import _Frozen, _check_times, _ket_row, _scaled, _turn

__all__ = [
    "ResonancePole",
    "GamowSubspace",
    "hamiltonian_matrix",
    "hamiltonian_action_matrix",
    "nilpotent_power",
    "nilpotent_norm",
    "evolution_matrix",
    "conjugation_polys",
]

NORMALIZATIONS = ("derivative", "factorial")


class ResonancePole(_Frozen):
    """Resonance position E_R, width Gamma and pole order r.  Its fields
    cannot be reassigned; there is no field-wise __eq__ (instances compare
    by identity), __hash__ or __repr__."""

    __slots__ = ("E_R", "Gamma", "r")

    def __init__(self, E_R: float, Gamma: float, r: int):
        if not 0 < E_R < math.inf:
            raise ValueError(f"E_R must be positive and finite, got {E_R}")
        if not 0 < Gamma < math.inf:
            raise ValueError(f"Gamma must be positive and finite, got {Gamma}")
        if r < 1:
            raise ValueError(f"pole order r must be >= 1, got {r}")
        self._set("E_R", E_R)
        self._set("Gamma", Gamma)
        self._set("r", r)

    @property
    def z_R(self) -> complex:
        """Pole position E_R - i Gamma / 2."""
        return complex(self.E_R, -0.5 * self.Gamma)


class GamowSubspace(_Frozen):
    """Span of the r generalized vectors at one pole, in a fixed
    normalization.  Its fields cannot be reassigned; there is no
    field-wise __eq__ (instances compare by identity), __hash__ or
    __repr__."""

    __slots__ = ("pole", "normalization")

    def __init__(self, pole: ResonancePole, normalization: str = "derivative"):
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}")
        self._set("pole", pole)
        self._set("normalization", normalization)

    @property
    def dimension(self) -> int:
        return self.pole.r


def hamiltonian_matrix(space: GamowSubspace) -> list:
    """Hamiltonian in the pairing-value layout: the lower Jordan block.

    Row k of this matrix sends the column of pairing values <psi|0..r-1>
    to z * <psi|k> + w_k * <psi|k-1> with w_k = k (derivative) or 1
    (factorial).  The ket-coordinate action is the transpose; see
    hamiltonian_action_matrix.
    """
    r = space.dimension
    z = space.pole.z_R
    mat = [[0j] * r for _ in range(r)]
    for k in range(r):
        mat[k][k] = z
        if k > 0:
            mat[k][k - 1] = k if space.normalization == "derivative" else 1
    return mat


def hamiltonian_action_matrix(space: GamowSubspace) -> list:
    """Hamiltonian acting on ket coordinates: column k holds H|k>."""
    return [list(column) for column in zip(*hamiltonian_matrix(space))]


def _column_weights(space: GamowSubspace, k: int) -> list:
    # column m of (H - z)**k holds this integer at row m - k; 0 for m < k
    if k < 0:
        raise ValueError("power must be nonnegative")
    derivative = space.normalization == "derivative"
    return [math.perm(m, k) if derivative else int(m >= k) for m in range(space.dimension)]


def nilpotent_power(space: GamowSubspace, k: int) -> list:
    """(H - z)**k in the ket-coordinate layout.

    (H - z)|m> = w_m |m-1> with no float z to cancel, so the k-th power
    sends |m> to w_m w_(m-1) ... w_(m-k+1) |m-k>: its k-th superdiagonal
    holds the integer perm(m, k) (derivative) or 1 (factorial), rounded
    once to float, and every other entry is 0.  It kills |0>..|k-1>, has
    rank r - k for k <= r, and is the exact zero matrix from k = r on.
    """
    weights = _column_weights(space, k)
    r = space.dimension
    return [[float(weights[m]) if m - p == k else 0.0 for m in range(r)] for p in range(r)]


def nilpotent_norm(space: GamowSubspace, k: int) -> float:
    """Frobenius norm of (H - z)**k, the root of the sum of the squares of
    its integer entries (which the float rows of nilpotent_power round
    above 2**53), correctly rounded by algebra._scaled."""
    total = sum(weight * weight for weight in _column_weights(space, k))
    return math.ldexp(*_scaled(total, 1, root=True))


def evolution_matrix(space: GamowSubspace, t: float) -> list:
    """Semigroup matrix T(t); column k holds the evolved |k>.

    Entry (p, k) is exp(-i z t) * w(k, p) * (-i t)**(k-p) for p <= k, with
    w(k, p) = binom(k, p) in derivative normalization and 1/(k-p)! in
    factorial normalization, each the ratio of algebra._ket_row rounded
    once.  Every entry, the complex zeros below the diagonal included, is
    one complex product with the phase, so their signs follow the phase.
    """
    _check_times([t], "evolution")
    r = space.dimension
    exponent = -1j * space.pole.z_R * t
    if not cmath.isfinite(exponent):
        raise OverflowError(f"the phase exponent -i z t leaves the float range at t = {t!r}")
    phase = cmath.exp(exponent)
    try:
        powers = [(-1j * t) ** d for d in range(r)]
    except OverflowError:
        raise OverflowError(f"the evolution matrix leaves the float range at t = {t!r}") from None
    rows = [_ket_row(space.normalization == "derivative", k) for k in range(r)]
    return [[phase * (row[p] / lift * powers[k - p] if p <= k else 0j)
             for k, (row, lift) in enumerate(rows)] for p in range(r)]


def _layer(values: list, d: int, derivative: bool) -> list:
    """F_d from F_(d-1) on one anti-diagonal, values[k] the coefficient of
    x**k y**(m-k) in F_(d-1): (d_y - d_x) F_(d-1) / d on diagonal m - 1,
    an exact integer division."""
    m = len(values) - 1
    pairs = enumerate(zip(values, values[1:]))
    if derivative:
        return [((m - k) * a - (k + 1) * b) // d for k, (a, b) in pairs]
    return [(a - b) // d for _, (a, b) in pairs]


def conjugation_polys(normalization: str, entries: dict, denominator: int):
    """Exact polynomial parts of T~(t) A T~(t)^dagger, by dyad and power of t.

    T~(t) is T(t) without its phase exp(-i z t); the phases of the two
    sides combine to exp(-Gamma t), which the caller carries.  A is given
    as a StateOperator holds it: entries maps (k, l) to the Gaussian
    integer (re, im) of |k><l|, and the coefficient is (re + i im) /
    denominator.

    The conjugation is the translation A(x - i t, y + i t) of the
    module docstring: with F_0 = A and F_d = (d_y - d_x) F_(d-1) / d, the
    coefficient of t**d is i**d F_d.  On anti-diagonal m the step reads
    F_d[k] = ((m-k) F[k] - (k+1) F[k+1]) / d (derivative) or
    (F[k] - F[k+1]) / d (factorial), with F[k] the entry (k, m-k) of
    F_(d-1), and lands on (k, m-1-k).  F_0 is A times the square of the
    lift top! of the factorial ket weights 1/(k-p)! (1 in the derivative
    normalization), top the largest index of A, so every F_d is an
    integer and every division exact.  A diagonal stops at its first
    layer that vanishes, so a family member, a multiple of (x + y)**n,
    costs one layer.

    Returns (polys, denominator) in the same form: polys[i, j] maps each
    power d of t to a Gaussian integer (re, im), and the coefficient of
    t**d in the |i><j| entry is (re + i im) / denominator, the input
    denominator times the square of the lift.  Powers that cancel are
    dropped, and so are dyads whose polynomial cancels entirely.  The
    degree-0 part is A itself.
    """
    top = max((max(kl) for kl in entries), default=0)
    derivative = normalization == "derivative"
    lift = 1 if derivative else math.factorial(top)
    square = lift * lift
    diagonals = {}
    for (k, l), (re, im) in entries.items():
        res, ims = diagonals.setdefault(k + l, ([0] * (k + l + 1), [0] * (k + l + 1)))
        res[k], ims[k] = re * square, im * square
    polys = {}
    for m, (res, ims) in diagonals.items():
        for d in range(m + 1):
            if d:
                res, ims = _layer(res, d, derivative), _layer(ims, d, derivative)
            if not (any(res) or any(ims)):
                break
            for k, value in enumerate(zip(res, ims)):
                if value[0] or value[1]:
                    polys.setdefault((k, m - d - k), {})[d] = _turn(value, d)
    return polys, denominator * square
