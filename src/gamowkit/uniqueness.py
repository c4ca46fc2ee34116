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
Row (l, m, n) weighs A[n-k][k] by (-1)**(k-l) binom(k, l) binom(n-k, m),
the slot-by-slot product of a slice of signed binomials over k and a
reversed slice over h = n - k; a slice narrower or wider than the block is
refused, since the product would silently drop the slots it misaligns.
Each block is certified by the first-order argument of the paper.  Its
rows of power 1 (l + m = n - 1) are the two-term recurrence

    (m+1) A[m+1][l] = (l+1) A[m][l+1],

and each fixes one unknown from the ones before it.  In a block n <= j
the chain leaves the first unknown free and forces the binomial row
binom(n, k); in a block n > j the edge of the square cuts the first row
to one term, which pins the chain to zero.  The higher powers only
confirm it: the block has nullity 1 exactly when every row annihilates
the chain's vector.  So the solution set is (j+1)-dimensional with
canonical basis element n carrying binom(n, k) on anti-diagonal n, and
no rank or zero decision leaves the integers.  An oracle that never reads
the constraint rows confirms each basis element evolves as a pure
exponential: certify hands the element's n + 1 dyads binom(n, k)
|k><n-k|, integers over denominator 1, to jordan.conjugation_polys, the
exact expansion every evolved quantity of the package uses, and checks
that it returns those same dyads at power 0 over denominator 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .jordan import conjugation_polys

__all__ = ["ConstraintRow", "block_range", "build_constraints", "certify"]


def block_range(j: int, n: int) -> range:
    """Ket orders k of the unknowns A[n-k][k] inside the j-square."""
    return range(max(0, n - j), min(j, n) + 1)


class ConstraintRow(namedtuple("ConstraintRow", "l m n weights")):
    """One vanishing condition, labelled by its triple (l, m, n).

    weights[i] is the integer weight of the unknown A[n-k][k] with k the
    i-th entry of block_range(j, n): the row lives on anti-diagonal n.
    Unknowns outside the j-square are identically zero in the embedded
    system and have no slot.
    """

    __slots__ = ()


def build_constraints(j: int) -> tuple:
    """Vanishing conditions for every positive power of t, doubled order.

    For each l in 0..2j-1, m in 0..2j-1-l, n in m+l+1..2j the condition

        sum_{k=l}^{n-m} A[n-k][k] binom(k, l) binom(n-k, m) (-1)**(k-l) = 0

    with A entries outside the j-square treated as zero.  It is the
    coefficient of t**(n-l-m) in the |l><m| entry of the conjugated
    operator.  Rows whose support lies entirely outside the square are kept
    as zero rows (the trivially satisfied part of the doubled system), so
    the row count matches the plain triple enumeration, binom(2j+2, 3).
    Returns the 2j + 1 blocks: blocks[n] holds the rows on h + k = n.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    # signed[l][k] = (-1)**(k-l) binom(k, l) and plain[m][h] = binom(h, m),
    # 0 off the triangle; the sign's power k + l is never negative, so never a float
    signed = [[math.comb(k, l) * (-1) ** (k + l) for k in range(j + 1)] for l in range(2 * j)]
    plain = [[math.comb(h, m) for h in range(j + 1)] for m in range(2 * j)]
    blocks = []
    for n in range(2 * j + 1):
        ks = block_range(j, n)
        # slot k pairs the ket order k with the bra order h = n - k: plain runs backwards
        left = [row[ks.start : ks.stop] for row in signed[:n]]
        stop = n - ks.stop if n >= ks.stop else None
        right = [row[n - ks.start : stop : -1] for row in plain[:n]]
        if any(len(cut) != len(ks) for cut in (*left, *right)):
            raise ArithmeticError(f"a slice of anti-diagonal {n} is not {len(ks)} slots wide")
        blocks.append(tuple([
            ConstraintRow(l, s - l, n, tuple([*map(mul, left[l], right[s - l])]))
            for s in range(n)
            for l in range(s + 1)
        ]))
    return tuple(blocks)


def _chain_vector(block, width: int, n: int):
    """Forward substitution along the first-order rows of block n.

    Each row with l + m == n - 1 fixes the slot of its last nonzero weight
    from the slots before it; a later row that would fix the same slot is
    left to the full check.  Returns (free, vector): free counts the
    slots no row fixes, and for free == 1 vector spans the kernel of the
    fixing rows, with the free slot set to 1 and every slot a plain int.
    """
    fixing = {}
    for row in block:
        if row.l + row.m == n - 1:
            # the last nonzero weight, scanned from the end; a zero row fixes nothing
            weights = row.weights
            last = len(weights) - 1
            while last >= 0 and not weights[last]:
                last -= 1
            if last >= 0:
                fixing.setdefault(last, weights)
    free = width - len(fixing)
    if free != 1:
        return free, None
    vector = []
    for slot in range(width):
        weights = fixing.get(slot)
        if weights is None:
            vector.append(1)
            continue
        # w_slot x_slot = -total; scale the vector to keep it integral
        total = sum(map(mul, weights, vector))
        common = math.gcd(total, weights[slot])
        vector = [x * (weights[slot] // common) for x in vector]
        vector.append(-total // common)
    return free, vector


def _annihilates(rows, vector) -> bool:
    return all(not sum(map(mul, weights, vector)) for weights in rows)


def _certify_blocks(blocks: tuple) -> dict:
    """Certify each block of build_constraints(j) by its first-order chain.

    Block n <= j must have nullity 1 with its binomial row satisfying every
    row; block n > j must have nullity 0.  All checks run in plain ints.
    """
    j = len(blocks) // 2
    nullities = []
    member_ok = []
    failures = []
    for n, block in enumerate(blocks):
        ks = block_range(j, n)
        distinct = list(dict.fromkeys(row.weights for row in block))
        free, vector = _chain_vector(block, len(ks), n)
        if free > 1:
            failures.append(f"anti-diagonal {n}: first-order rows leave {free} slots free")
        nullity = int(_annihilates(distinct, vector)) if free == 1 else free
        nullities.append(nullity)
        if n <= j:
            member_ok.append(_annihilates(distinct, [math.comb(n, k) for k in ks]))
            if not member_ok[-1]:
                failures.append(f"canonical element {n} violates a constraint")
        if nullity != (n <= j):
            failures.append(f"anti-diagonal {n}: nullity {nullity} != {int(n <= j)}")
    dimension = sum(nullities)
    if dimension != j + 1:
        failures.insert(0, f"nullspace dimension {dimension} != {j + 1}")
    return {
        "rank": (j + 1) ** 2 - dimension,
        "nullities": nullities,
        "member_ok": member_ok,
        "span_ok": all(nullity == 1 for nullity in nullities[: j + 1]),
        "high_zero": not any(nullities[j + 1 :]),
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

    Nullities come from the first-order chain of each block.  A block
    whose first-order rows leave more than one slot free fails with a
    line that names it, and its reported nullity is the number of free
    slots, which is an upper bound; so are rank and nullspace_dimension
    of such a report.
    """
    system = build_constraints(j)
    blocks = _certify_blocks(system)
    size = j + 1
    binomials = [[math.comb(n, k) for k in range(n + 1)] for n in range(size)]

    # element n puts binom(n, k) on its n+1 dyads |k><n-k|; a pure exponential
    # leaves them alone, at power 0, over denominator 1
    elements = [{(k, n - k): (x, 0) for k, x in enumerate(row)} for n, row in enumerate(binomials)]
    oracle_ok = [
        conjugation_polys("derivative", dyads, 1) == ({kl: {0: x} for kl, x in dyads.items()}, 1)
        for dyads in elements
    ]

    return {
        "j": j,
        "embedding_order": 2 * j,
        "unknown_count": size**2,
        "constraint_rows": sum(map(len, system)),
        "rank": blocks["rank"],
        "nullspace_dimension": sum(blocks["nullities"]),
        "expected_dimension": size,
        "basis": [
            [[str(row[k]) if h + k == n else "0" for k in range(size)] for h in range(size)]
            for n, row in enumerate(binomials)
        ],
        "basis_constraint_ok": blocks["member_ok"],
        "basis_time_constant": oracle_ok,
        "high_anti_diagonals_zero": [blocks["high_zero"]] * size,
        "span_check_ok": blocks["span_ok"],
        "certified": not blocks["failures"] and all(oracle_ok),
        "failures": blocks["failures"],
    }
