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
deviations, detector probabilities, the uniqueness oracle) is read off
it.

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

import numpy as np

from .algebra import ExpPolynomial, GaussianRational, Polynomial, binom
from .errors import NegativeTimeError
from .smatrix import ResonancePole

__all__ = [
    "GamowSubspace",
    "OperatorOnM",
    "hamiltonian_matrix",
    "hamiltonian_action_matrix",
    "nilpotent_power",
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
    """r x r matrix over the dyad basis |k><l| of the subspace.

    Entries are complex for the numeric path or objects (GaussianRational,
    ExpPolynomial) for the exact and symbolic paths; entry (k, l) is the
    coefficient of |k><l|.
    """

    space: GamowSubspace
    matrix: np.ndarray

    def __post_init__(self):
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
        """Frobenius norm of the entries (numeric and exact entries only)."""
        return float(np.linalg.norm(as_complex_matrix(self.matrix)))


def as_complex_matrix(matrix: np.ndarray) -> np.ndarray:
    """Complex view of a numeric or GaussianRational-valued matrix."""
    mat = np.asarray(matrix)
    if mat.dtype != object:
        return mat.astype(complex)
    out = np.empty(mat.shape, dtype=complex)
    for idx in np.ndindex(mat.shape):
        out[idx] = complex(mat[idx])
    return out


def _subdiagonal_weight(space: GamowSubspace, k: int):
    # weight multiplying |k-1> in H|k>
    return k if space.normalization == "derivative" else 1


def hamiltonian_matrix(space: GamowSubspace) -> OperatorOnM:
    """Hamiltonian in the pairing-value layout: the lower Jordan block.

    Row k of this matrix sends the column of pairing values <psi|0..r-1>
    to z * <psi|k> + w_k * <psi|k-1> with w_k = k (derivative) or 1
    (factorial).  The ket-coordinate action is the transpose; see
    hamiltonian_action_matrix.
    """
    r = space.dimension
    z = space.pole.z_R
    mat = np.zeros((r, r), dtype=complex)
    for k in range(r):
        mat[k, k] = z
        if k > 0:
            mat[k, k - 1] = _subdiagonal_weight(space, k)
    return OperatorOnM(space, mat)


def hamiltonian_action_matrix(space: GamowSubspace) -> OperatorOnM:
    """Hamiltonian acting on ket coordinates: column k holds H|k>."""
    mat = hamiltonian_matrix(space).matrix.T
    return OperatorOnM(space, mat)


def nilpotent_power(space: GamowSubspace, k: int) -> OperatorOnM:
    """(H - z)**k in the ket-coordinate layout.

    The entries stay small integers, so the floating products are exact:
    the k-th power kills |0>..|k-1> exactly, has rank r - k for k <= r,
    and is the exact zero matrix from k = r on.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    r = space.dimension
    nil = hamiltonian_action_matrix(space).matrix - space.pole.z_R * np.eye(r)
    # nil**r is already exactly zero, so capping the exponent changes nothing
    # but keeps huge powers cheap.
    return OperatorOnM(space, np.linalg.matrix_power(nil, min(k, r)))


def _ket_weight_exact(normalization: str, k: int, p: int) -> Fraction:
    # weight of |p> in the evolved |k>, without the i-powers
    if normalization == "derivative":
        return Fraction(binom(k, p))
    return Fraction(1, math.factorial(k - p))


def evolution_matrix(space: GamowSubspace, t: float) -> OperatorOnM:
    """Semigroup matrix T(t); column k holds the evolved |k>.

    Entry (p, k) is exp(-i z t) * w(k, p) * (-i t)**(k-p) for p <= k, with
    w(k, p) = binom(k, p) in derivative normalization and 1/(k-p)! in
    factorial normalization.
    """
    if t < 0:
        raise NegativeTimeError(f"evolution is defined for t >= 0, got {t}")
    r = space.dimension
    exponent = -1j * space.pole.z_R * t
    if not cmath.isfinite(exponent):
        raise OverflowError(f"the phase exponent -i z t leaves the float range at t = {t!r}")
    phase = np.exp(exponent)
    mat = np.zeros((r, r), dtype=complex)
    for k in range(r):
        for p in range(k + 1):
            weight = float(_ket_weight_exact(space.normalization, k, p))
            mat[p, k] = weight * (-1j * t) ** (k - p)
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
    weights = [[_ket_weight_exact(normalization, k, p) for p in range(k + 1)] for k in range(top + 1)]
    lift = math.lcm(*(w.denominator for row in weights for w in row))
    weights = [[(w * lift).numerator for w in row] for row in weights]
    scale = math.lcm(*(q.denominator for v in entries.values() for q in (v.re, v.im)))
    sums = {}
    for (k, l), value in entries.items():
        a_re, a_im = (value.re * scale).numerator, (value.im * scale).numerator
        # value * i**q for q = 0..3
        turns = ((a_re, a_im), (-a_im, a_re), (-a_re, -a_im), (a_im, -a_re))
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


def _exp_poly_rows(polys: dict, denominator: int, rate, size: int) -> list:
    """conjugation_polys output as size x size nested lists of
    ExpPolynomial(rate, p) with Gaussian-rational coefficients."""
    zero = GaussianRational(0)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            poly = polys.get((i, j), {})
            coeffs = [zero] * (max(poly, default=-1) + 1)
            for d, (re, im) in poly.items():
                coeffs[d] = GaussianRational(Fraction(re, denominator), Fraction(im, denominator))
            row.append(ExpPolynomial(rate, Polynomial(coeffs)))
        rows.append(row)
    return rows
