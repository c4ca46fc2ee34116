"""Term-by-term reference expansion of the conjugation T~(t) A T~(t)^dagger.

The oracle tests build the expansion from single monomials and sum it by
power of t in plain dicts, independently of the integer kernel
jordan.conjugation_polys that the package runs.
"""

import math
from fractions import Fraction

from gamowkit.algebra import GaussianRational, Polynomial

# Powers of the imaginary unit as exact Gaussian rationals.
I_CYCLE = (
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
)


def monomial_product(a: int, b: int) -> Polynomial:
    """Exact product (-i t)**a * (i t)**b as a Gaussian-rational polynomial."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    # (-i)**a i**b = i**(3a + b)
    return Polynomial([GaussianRational(0)] * (a + b) + [I_CYCLE[(3 * a + b) % 4]])


def weight(normalization: str, k: int, p: int) -> Fraction:
    """Weight of |p> in the evolved |k>, without the i-powers."""
    if normalization == "derivative":
        return Fraction(math.comb(k, p))
    return Fraction(1, math.factorial(k - p))


def expand(normalization: str, entries: dict) -> dict:
    """{(i, j): {d: coefficient of t**d}} of the conjugated operator.

    entries maps (k, l) to the coefficient of |k><l|; each dyad sends
    w(k, i) w(l, j) (-i t)**(k-i) (i t)**(l-j) to |i><j|.  Powers whose
    sum cancels are dropped, and so are dyads left with no power.
    """
    sums = {}
    for (k, l), value in entries.items():
        for i in range(k + 1):
            for j in range(l + 1):
                d = k - i + l - j
                unit = monomial_product(k - i, l - j).coefficient(d)
                scale = weight(normalization, k, i) * weight(normalization, l, j)
                poly = sums.setdefault((i, j), {})
                poly[d] = poly.get(d, 0) + value * GaussianRational(scale) * unit
    out = {}
    for ij, poly in sums.items():
        kept = {d: c for d, c in poly.items() if c}
        if kept:
            out[ij] = kept
    return out
