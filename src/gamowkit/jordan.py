"""Jordan-block subspace attached to an order-r resonance pole.

The r kets |0>, ..., |r-1> span the subspace; the Hamiltonian acts as
H|k> = z|k> + k|k-1> (derivative normalization) so (H - z) is nilpotent
of index r.  Rescaling |k> by 1/k! gives the factorial normalization with
a sub-/super-diagonal of ones.  Time evolution for t >= 0 is the upper
triangular semigroup T(t) with columns

    T(t)|k> = exp(-i z t) * sum_{p<=k} binom(k, p) (-i t)**(k-p) |p>

and the bra side evolves with the conjugate transpose.  evolution_matrix
samples T(t) in complex floats.  conjugation_polys is the one exact
expansion of the conjugation T(t) A T(t)^dagger: integer coefficients of
every power of t in every dyad, over one common denominator.  Every
evolved quantity of the package (symbolic evolution, evolved norms, decay
deviations, the uniqueness oracle) is read off it.

conjugation_polys reads an operator as its sparse nonzero entries
{(k, l): value}, the form in which states holds every state operator.
OperatorOnM is the dense r x r view, built on demand: the Hamiltonian
layouts, nilpotent powers and sampled evolution matrices, and the dense
view of a state operator or of its symbolic evolution.  numpy is imported
inside the functions that build or read such a view, never at import.

Matrix layout conventions: operators that act on ket coordinates (the
evolution matrices, nilpotent powers) hold the image of basis ket k in
column k.  hamiltonian_matrix alone returns the transposed layout that
multiplies the column of pairing values <psi|k>, which is the lower
Jordan block; hamiltonian_action_matrix is its ket-side transpose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GaussianRational, _lift, _turn, binom
from .errors import NegativeTimeError
from .smatrix import ResonancePole

__all__ = [
    "GamowSubspace",
    "OperatorOnM",
    "hamiltonian_matrix",
    "hamiltonian_action_matrix",
    "nilpotent_power",
    "nilpotent_norm",
    "evolution_matrix",
    "conjugation_polys",
]

NORMALIZATIONS = ("derivative", "factorial")


@dataclass(frozen=True)
class GamowSubspace:
    """Span of the r generalized vectors at one pole, in a fixed normalization."""

    pole: ResonancePole
    normalization: str = "derivative"

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def dimension(self) -> int:
        return self.pole.r


@dataclass(frozen=True)
class OperatorOnM:
    """Dense r x r matrix over the dyad basis |k><l| of the subspace.

    Entries are complex for the numeric path or objects (GaussianRational,
    ExpPolynomial) for the exact and symbolic paths; entry (k, l) is the
    coefficient of |k><l|.  matrix may be given as nested lists; it is
    held as a read-only numpy array.
    """

    space: GamowSubspace
    matrix: numpy.ndarray

    def __post_init__(self):
        import numpy as np

        mat = np.asarray(self.matrix)
        if mat.dtype != object:
            mat = mat.astype(complex)
        r = self.space.dimension
        if mat.shape != (r, r):
            raise ValueError(f"matrix must be {r}x{r}, got {mat.shape}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def norm(self) -> float:
        """Frobenius norm of the entries (finite numeric and exact entries
        only), correctly rounded: the sum of squares is exact, and its root
        is taken in integers and rounded once."""
        parts = [
            (x.re, x.im) if isinstance(x, GaussianRational) else (Fraction(x.real), Fraction(x.imag))
            for x in self.matrix.flat
            if x
        ]
        values, den = _lift(parts)
        return _root(sum(re * re + im * im for re, im in values), den)


def _root(total: int, den: int) -> float:
    """sqrt(total) / den, correctly rounded: the root of total / den**2 in
    integers to at least 60 bits, with a sticky last bit where inexact,
    rounds to float as the exact root."""
    shift = max(0, 120 - total.bit_length() + 2 * den.bit_length()) // 2 + 1
    scaled, rest = divmod(total << (2 * shift), den * den)
    root = math.isqrt(scaled)
    return math.ldexp(root | (rest != 0 or root * root != scaled), -shift)


def hamiltonian_matrix(space: GamowSubspace) -> OperatorOnM:
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
    return OperatorOnM(space, mat)


def hamiltonian_action_matrix(space: GamowSubspace) -> OperatorOnM:
    """Hamiltonian acting on ket coordinates: column k holds H|k>."""
    mat = hamiltonian_matrix(space).matrix.T
    return OperatorOnM(space, mat)


def _column_weights(space: GamowSubspace, k: int) -> list:
    # column m of (H - z)**k holds this integer at row m - k; 0 for m < k
    if k < 0:
        raise ValueError("power must be nonnegative")
    derivative = space.normalization == "derivative"
    return [math.perm(m, k) if derivative else int(m >= k) for m in range(space.dimension)]


def nilpotent_power(space: GamowSubspace, k: int) -> OperatorOnM:
    """(H - z)**k in the ket-coordinate layout.

    (H - z)|m> = w_m |m-1> with no float z to cancel, so the k-th power
    sends |m> to w_m w_(m-1) ... w_(m-k+1) |m-k>: its k-th superdiagonal
    holds the integer perm(m, k) (derivative) or 1 (factorial), rounded
    once to float, and every other entry is 0.  It kills |0>..|k-1>, has
    rank r - k for k <= r, and is the exact zero matrix from k = r on.
    """
    import numpy as np

    weights = [float(weight) for weight in _column_weights(space, k)]
    return OperatorOnM(space, np.eye(space.dimension, k=k) * weights)


def nilpotent_norm(space: GamowSubspace, k: int) -> float:
    """Frobenius norm of (H - z)**k, correctly rounded from its integer
    entries, which the float matrix of nilpotent_power rounds above 2**53."""
    return _root(sum(weight * weight for weight in _column_weights(space, k)), 1)


def _ket_weights(normalization: str, top: int) -> tuple:
    """(weights, lift) with weights[k][p] / lift = w(k, p) for k <= top: the
    ints binom(k, p) over 1, or top! / (k-p)! over top!."""
    if normalization == "derivative":
        return [[binom(k, p) for p in range(k + 1)] for k in range(top + 1)], 1
    lift = math.factorial(top)
    scaled = [lift // math.factorial(d) for d in range(top + 1)]
    return [[scaled[k - p] for p in range(k + 1)] for k in range(top + 1)], lift


def evolution_matrix(space: GamowSubspace, t: float) -> OperatorOnM:
    """Semigroup matrix T(t); column k holds the evolved |k>.

    Entry (p, k) is exp(-i z t) * w(k, p) * (-i t)**(k-p) for p <= k, with
    w(k, p) = binom(k, p) in derivative normalization and 1/(k-p)! in
    factorial normalization.
    """
    import numpy as np

    if t < 0:
        raise NegativeTimeError(f"evolution is defined for t >= 0, got {t}")
    r = space.dimension
    exponent = -1j * space.pole.z_R * t
    if not cmath.isfinite(exponent):
        raise OverflowError(f"the phase exponent -i z t leaves the float range at t = {t!r}")
    phase = np.exp(exponent)
    weights, lift = _ket_weights(space.normalization, r - 1)
    mat = np.zeros((r, r), dtype=complex)
    for k in range(r):
        for p in range(k + 1):
            mat[p, k] = weights[k][p] / lift * (-1j * t) ** (k - p)
    return OperatorOnM(space, phase * mat)


def conjugation_polys(normalization: str, entries: dict):
    """Exact polynomial parts of T~(t) A T~(t)^dagger, dyad by dyad.

    T~(t) is T(t) without its phase exp(-i z t); the phases of the two
    sides combine to exp(-Gamma t), which the caller carries.  entries
    maps (k, l) to the nonzero GaussianRational coefficient of |k><l| in
    A.  Each such dyad sends

        w(k, i) w(l, j) (-i t)**(k-i) (i t)**(l-j)

    to |i><j| for i <= k and j <= l, with w as in evolution_matrix.

    Returns (polys, denominator): polys[i, j] maps each power d of t to a
    Gaussian integer (re, im), and the coefficient of t**d in the |i><j|
    entry is (re + i im) / denominator.  All sums run in integers, so
    cancellation is exact; powers that cancel are dropped, and so are
    dyads whose polynomial cancels entirely.  The degree-0 part is A
    itself.
    """
    top = max((max(kl) for kl in entries), default=0)
    weights, lift = _ket_weights(normalization, top)
    values, scale = _lift([(v.re, v.im) for v in entries.values()])
    sums = {}
    for (k, l), value in zip(entries, values):
        # value * i**q for q = 0..3
        turns = [_turn(value, q) for q in range(4)]
        for i in range(k + 1):
            for j in range(l + 1):
                c = weights[k][i] * weights[l][j]
                # (-i)**(k-i) i**(l-j) = i**(3(k-i) + (l-j))
                re, im = turns[(3 * (k - i) + l - j) % 4]
                slot = sums.setdefault((i, j), {}).setdefault(k - i + l - j, [0, 0])
                slot[0] += c * re
                slot[1] += c * im
    polys = {}
    for ij, poly in sums.items():
        kept = {d: (re, im) for d, (re, im) in poly.items() if re or im}
        if kept:
            polys[ij] = kept
    return polys, scale * lift * lift

