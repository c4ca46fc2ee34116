"""Exact certification that the binomial anti-diagonal family is the only
operator family with pure exponential semigroup decay.

A general operator on the order-(j+1) subspace is A = sum A[h][k] |k><h|.
Conjugating with the semigroup and demanding that every positive power of
t cancels yields one homogeneous linear condition per coefficient that
must vanish.  The conditions are assembled for the doubled order 2j with
all entries outside the j-square forced to zero, so the vanishing of the
high anti-diagonals (h + k > j) is a consequence to verify rather than an
assumption.

Every condition involves only the unknowns A[n-k][k] of one anti-diagonal
h + k = n, so the system splits into 2j + 1 independent integer blocks.
Each block is reduced on its own by fraction-free elimination; no
floating-point rank decision occurs anywhere.  The certificate is the
per-block statement: blocks n <= j have nullity 1 and their binomial row
binom(n, k) satisfies every condition, blocks n > j have nullity 0.  So
the solution set is (j+1)-dimensional with canonical basis element n
carrying binom(n, k) on anti-diagonal n; an independent oracle expands
the conjugation dyad by dyad and confirms each basis element evolves as a
pure exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import ExpPolynomial, GaussianRational, Polynomial, binom

__all__ = [
    "CoefficientMatrix",
    "ConstraintRow",
    "ConstraintSystem",
    "block_range",
    "build_constraints",
    "canonical_element",
    "oracle_evolution",
    "certify",
]


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


@dataclass(frozen=True)
class CoefficientMatrix:
    """(j+1) x (j+1) array of exact coefficients A[h][k].

    Index h is the bra-side derivative order, k the ket-side order, so the
    anti-diagonal h + k = n collects the order-n dyads.
    """

    j: int
    entries: tuple

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be nonnegative")
        size = self.j + 1
        rows = tuple(tuple(_as_gaussian(x) for x in row) for row in self.entries)
        if len(rows) != size or any(len(row) != size for row in rows):
            raise ValueError(f"entries must form a {size}x{size} matrix")
        object.__setattr__(self, "entries", rows)

    def entry(self, h: int, k: int) -> GaussianRational:
        return self.entries[h][k]


def block_range(j: int, n: int) -> range:
    """Ket orders k of the unknowns A[n-k][k] inside the j-square."""
    return range(max(0, n - j), min(j, n) + 1)


@dataclass(frozen=True)
class ConstraintRow:
    """One vanishing condition, labelled by its triple (l, m, n).

    weights[i] is the integer weight of the unknown A[n-k][k] with k the
    i-th entry of block_range(j, n): the row lives on anti-diagonal n.
    Unknowns outside the j-square are identically zero in the embedded
    system and have no slot.
    """

    l: int
    m: int
    n: int
    weights: tuple


@dataclass(frozen=True)
class ConstraintSystem:
    """All vanishing conditions for the embedded order-2j system, grouped
    by anti-diagonal: blocks[n] holds the rows on h + k = n."""

    j: int
    blocks: tuple

    @property
    def unknowns(self) -> tuple:
        return tuple((h, k) for h in range(self.j + 1) for k in range(self.j + 1))

    @property
    def rows(self) -> tuple:
        return tuple(row for block in self.blocks for row in block)


def build_constraints(j: int) -> ConstraintSystem:
    """Vanishing conditions for every positive power of t, doubled order.

    For each l in 0..2j-1, m in 0..2j-1-l, n in m+l+1..2j the condition

        sum_{k=l}^{n-m} A[n-k][k] binom(k, l) binom(n-k, m) (-1)**(k-l) = 0

    with A entries outside the j-square treated as zero.  It is the
    coefficient of t**(n-l-m) in the |l><m| entry of the conjugated
    operator.  Rows whose support lies entirely outside the square are kept
    as zero rows (the trivially satisfied part of the doubled system), so
    the row count matches the plain triple enumeration, binom(2j+2, 3).
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(2 * j + 1)]
    blocks = []
    for n in range(2 * j + 1):
        ks = block_range(j, n)
        rows = []
        for s in range(n):
            power = n - s
            for l in range(s + 1):
                m = s - l
                weights = [0] * len(ks)
                # the dyad |k><h| reaches |l><m| through (-i t)**a (i t)**(power - a)
                for a in range(power + 1):
                    k, h = l + a, m + power - a
                    if k > j or h > j:
                        continue
                    if h + k != n:
                        raise ArithmeticError(f"row ({l}, {m}, {n}) leaves its anti-diagonal")
                    weights[k - ks.start] = comb[k][l] * comb[h][m] * (-1) ** a
                rows.append(ConstraintRow(l, m, n, tuple(weights)))
        blocks.append(tuple(rows))
    return ConstraintSystem(j, tuple(blocks))


def canonical_element(j: int, n: int) -> CoefficientMatrix:
    """Basis element n: binom(n, k) on the anti-diagonal h + k = n."""
    if not 0 <= n <= j:
        raise ValueError(f"n must be in 0..{j}, got {n}")
    size = j + 1
    rows = [[GaussianRational(0)] * size for _ in range(size)]
    for k in range(n + 1):
        rows[n - k][k] = GaussianRational(binom(n, k))
    return CoefficientMatrix(j, tuple(tuple(row) for row in rows))


def _fraction_free_echelon(matrix):
    """Row echelon form of an integer matrix by one-step fraction-free
    elimination with exact pivoting on the first nonzero column entry.

    Returns (echelon_rows, pivot_columns); all arithmetic is integer and
    every interior division is checked to be exact.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(rank + 1, nrows):
            factor = rows[i][col]
            for c in range(col + 1, ncols):
                numerator = pivot * rows[i][c] - factor * rows[rank][c]
                quotient, remainder = divmod(numerator, prev_pivot)
                if remainder:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                rows[i][c] = quotient
            rows[i][col] = 0
        prev_pivot = pivot
        pivot_cols.append(col)
        rank += 1
    return rows[:rank], pivot_cols


# i**q for q = 0..3 as (re, im) pairs
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def oracle_evolution(A: CoefficientMatrix):
    """Independent symbolic conjugation of A with the semigroup.

    Expands every dyad |k><h| directly: it contributes
    binom(k, l) binom(h, m) (-i t)**(k-l) (i t)**(h-m) to the dyad |l><m|.
    The coefficients of each entry are summed by power of t over Gaussian
    integers (every entry lifted to one common denominator).  The overall
    exp(-Gamma t) factor is carried as the formal rate -1 (time measured
    in units of 1/Gamma), so a pure exponential decay shows up as every
    entry polynomial being constant.  Returns a nested list of exact
    ExpPolynomial entries indexed [l][m].
    """
    size = A.j + 1
    cells = [(h, k, A.entry(h, k)) for h in range(size) for k in range(size)]
    cells = [(h, k, x) for h, k, x in cells if x]
    denom = math.lcm(*(d for _, _, x in cells for d in (x.re.denominator, x.im.denominator)))
    lifted = [(h, k, int(x.re * denom), int(x.im * denom)) for h, k, x in cells]
    rate = GaussianRational(-1)
    zero = GaussianRational(0)
    out = []
    for l in range(size):
        row = []
        for m in range(size):
            by_power: dict = {}
            for h, k, re, im in lifted:
                if k < l or h < m:
                    continue
                weight = math.comb(k, l) * math.comb(h, m)
                power = (k - l) + (h - m)
                # (-i)**(k-l) i**(h-m) = i**(power + 2 (k-l))
                u_re, u_im = _I_POWERS[(power + 2 * (k - l)) % 4]
                acc = by_power.setdefault(power, [0, 0])
                acc[0] += weight * (re * u_re - im * u_im)
                acc[1] += weight * (re * u_im + im * u_re)
            coeffs = [zero] * (max(by_power, default=-1) + 1)
            for power, (re, im) in by_power.items():
                coeffs[power] = GaussianRational(Fraction(re, denom), Fraction(im, denom))
            row.append(ExpPolynomial(rate, Polynomial(coeffs)))
        out.append(row)
    return out


def _certify_blocks(system: ConstraintSystem) -> dict:
    """Reduce every anti-diagonal block and check the per-block statement.

    Block n <= j must have nullity 1 with its binomial row satisfying every
    row; block n > j must have nullity 0.  All checks run in plain ints.
    """
    j = system.j
    rank = 0
    nullities = []
    member_ok = []
    span_ok = True
    high_zero = True
    failures = []
    for n, block in enumerate(system.blocks):
        ks = block_range(j, n)
        distinct = list(dict.fromkeys(row.weights for row in block))
        _, pivot_cols = _fraction_free_echelon(distinct)
        nullity = len(ks) - len(pivot_cols)
        rank += len(pivot_cols)
        nullities.append(nullity)
        if n <= j:
            binomial_row = [math.comb(n, k) for k in ks]
            ok = all(not sum(w * b for w, b in zip(weights, binomial_row)) for weights in distinct)
            member_ok.append(ok)
            if not ok:
                failures.append(f"canonical element {n} violates a constraint")
            if nullity != 1:
                span_ok = False
                failures.append(f"anti-diagonal {n}: nullity {nullity} != 1")
        elif nullity:
            high_zero = False
            failures.append(f"anti-diagonal {n}: nullity {nullity} != 0")
    dimension = sum(nullities)
    if dimension != j + 1:
        failures.insert(0, f"nullspace dimension {dimension} != {j + 1}")
    return {
        "rank": rank,
        "nullities": nullities,
        "member_ok": member_ok,
        "span_ok": span_ok,
        "high_zero": high_zero,
        "failures": failures,
    }


def certify(j: int) -> dict:
    """Full proof report for order j, serializable as JSON.

    Lists the constraint bookkeeping, the exact nullspace dimension, the
    canonical basis and the per-element confirmations:
    - basis_constraint_ok: the element's binomial row satisfies every row
      of its block (and it is zero on every other block);
    - span_check_ok: every block n <= j has nullity 1, so its binomial row
      spans it;
    - high_anti_diagonals_zero: every block n > j has nullity 0, so no
      solution survives beyond order j.  One flag per basis element, each
      reporting that same property of the system;
    - basis_time_constant: the conjugation oracle finds no surviving power
      of t and reproduces the element.
    """
    system = build_constraints(j)
    blocks = _certify_blocks(system)
    basis = [canonical_element(j, n) for n in range(j + 1)]

    oracle_ok = []
    for elem in basis:
        evolved = oracle_evolution(elem)
        constant = all(p.poly.degree <= 0 for row in evolved for p in row)
        # the constant part must reproduce the element itself
        matches = all(
            evolved[l][m].poly.coefficient(0) == elem.entry(l, m)
            for l in range(j + 1)
            for m in range(j + 1)
        )
        oracle_ok.append(constant and matches)

    return {
        "j": j,
        "embedding_order": 2 * j,
        "unknown_count": len(system.unknowns),
        "constraint_rows": len(system.rows),
        "rank": blocks["rank"],
        "nullspace_dimension": sum(blocks["nullities"]),
        "expected_dimension": j + 1,
        "basis": [
            [[str(elem.entry(h, k)) for k in range(j + 1)] for h in range(j + 1)]
            for elem in basis
        ],
        "basis_constraint_ok": blocks["member_ok"],
        "basis_time_constant": oracle_ok,
        "high_anti_diagonals_zero": [blocks["high_zero"]] * (j + 1),
        "span_check_ok": blocks["span_ok"],
        "certified": not blocks["failures"] and all(oracle_ok),
        "failures": blocks["failures"],
    }
