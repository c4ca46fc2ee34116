"""Term-by-term reference expansion of the conjugation T~(t) A T~(t)^dagger.

The oracle tests build the expansion from single monomials and sum it by
power of t in plain dicts, independently of the integer kernel
jordan.conjugation_polys that the package runs.  A Gaussian rational is
a pair (re, im) of ints or Fractions, and a polynomial in t maps each
power to its pair.
"""

import math
from fractions import Fraction

# Powers of the imaginary unit.
I_CYCLE = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gmul(a, b) -> tuple:
    """The product of the Gaussian rationals a and b."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def monomial_product(a: int, b: int) -> dict:
    """Exact product (-i t)**a * (i t)**b as {power: (re, im)}."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    # (-i)**a i**b = i**(3a + b)
    return {a + b: I_CYCLE[(3 * a + b) % 4]}


def weight(normalization: str, k: int, p: int) -> Fraction:
    """Weight of |p> in the evolved |k>, without the i-powers."""
    if normalization == "derivative":
        return Fraction(math.comb(k, p))
    return Fraction(1, math.factorial(k - p))


def expand(normalization: str, entries: dict) -> dict:
    """{(i, j): {d: coefficient (re, im) of t**d}} of the conjugated operator.

    entries maps (k, l) to the coefficient (re, im) of |k><l|; each dyad
    sends w(k, i) w(l, j) (-i t)**(k-i) (i t)**(l-j) to |i><j|.  Powers
    whose sum cancels are dropped, and so are dyads left with no power.
    """
    sums = {}
    for (k, l), value in entries.items():
        for i in range(k + 1):
            for j in range(l + 1):
                d = k - i + l - j
                unit = monomial_product(k - i, l - j)[d]
                scale = weight(normalization, k, i) * weight(normalization, l, j)
                re, im = gmul(gmul(value, (scale, 0)), unit)
                poly = sums.setdefault((i, j), {})
                old_re, old_im = poly.get(d, (0, 0))
                poly[d] = (old_re + re, old_im + im)
    out = {}
    for ij, poly in sums.items():
        kept = {d: c for d, c in poly.items() if any(c)}
        if kept:
            out[ij] = kept
    return out
