"""Micro-kernels for the exact arithmetic in gamowkit.algebra.

The algebra scalars are too fine-grained to wrap in spans, so they are
timed directly, on operands of the sizes the workloads produce: binomial
integers and the exact rational value of a float width Gamma.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from time import perf_counter

REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Seconds per call of fn in the fastest of REPEATS loops of `calls`
    calls; the fastest, because other tenants of a shared host slow the
    loops in bursts."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return min(times)


DEGREE = 10  # the top order of decay-exact


def measure(algebra, seed: int) -> dict:
    GR, Polynomial, ExpPolynomial = algebra.GaussianRational, algebra.Polynomial, algebra.ExpPolynomial
    # a width drawn as the decay workloads draw theirs
    width = Fraction(random.Random(seed).uniform(0.8, 1.25))
    # a W(n) entry Gamma**n / n! * binom(n, k) and an evolution weight
    x = GR(width**5 / factorial(5) * comb(5, 2), comb(12, 5))
    y = GR(comb(16, 8), -width)
    poly = Polynomial([GR(width**k / factorial(k) * comb(DEGREE, k), comb(DEGREE, k))
                       for k in range(DEGREE + 1)])
    exp_poly = ExpPolynomial(GR(-width), poly)
    return {
        "algebra.gr_mul_ns": _per_call(lambda: x * y, 2000) * 1e9,
        "algebra.gr_add_ns": _per_call(lambda: x + y, 2000) * 1e9,
        "algebra.poly_mul_us": _per_call(lambda: poly * poly, 20) * 1e6,
        "algebra.poly_eval_us": _per_call(lambda: exp_poly(1.7), 200) * 1e6,
    }
