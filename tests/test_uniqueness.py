"""Tests for the exact uniqueness certification machinery.

The constraint system, the per-anti-diagonal certificate and the
conjugation oracle are probed separately and against each other; sympy
elimination is the independent rank oracle, and nothing here touches
floating point.  A square of coefficients A[h][k] is a list of rows.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner

from gamowkit import uniqueness
from gamowkit.algebra import _lift, binom
from gamowkit.cli import J_CAP, _json_text, main
from gamowkit.jordan import conjugation_polys
from gamowkit.uniqueness import (
    ConstraintRow,
    block_range,
    build_constraints,
    certify,
    _certify_blocks,
)

from expansion import I_CYCLE, expand, gmul, monomial_product

RNG_SEED = 20260823

# sha256 of the JSON certificate for j = 0..12 and 32, recorded from the
# row-by-row builder that the binomial-slice builder replaced
CERTIFICATE_SHA256 = {
    0: "7799fb8df4487065612d4fcf693ed767e6ea0cb5c892864bb5f50148ef97088b",
    1: "3401e9f3707e4bcd47c12b772a21bc6bd869a7698e7c3ba44159c491970f258e",
    2: "21f85d77ca13f07164c9770da980c07b268ce2cf653ff3e1ad2bbfab1012543f",
    3: "93c29a8f613f0ccc931d45c970d0c2a094d7d528d2526543beb263e53abb4612",
    4: "f836a4a5d514a55f1c186466b53b86740d9f2aec5d59c63beb3971baf3ccd02b",
    5: "885407ca7af5c555e054eb7ccb6b4f77ceb2b048dffa7bda814cf2b58d242884",
    6: "cf95f775676c8f2e9fd206672d23004550fa74de0672c5140ff69ab06e1b574d",
    7: "61baa43ee56385a9fc00c67ed9223c0aa70d8bf9d44b97e1f3592603501a4233",
    8: "48c7c0c85e885126f15ff517e8e40223e18e1d01f3cb479eee9d51978bb9b563",
    9: "abb308a6988d13502d434abef9cbea6d80c35248a2b63c0a8fb9ae83623b0c7d",
    10: "a442fea7684a7990af5864ed5323dc7ef69c576343500b8fc7d66ff019f06bc2",
    11: "ece12a9d87a26fe616e951223a672f4365f3e0fd10d22ff00073dfd943aab09f",
    12: "43278631fd08e780a052b444f0858da43ab469e41681c801b6238390aacf6fc4",
    32: "2db92d112ce6e98d7fb8f298cf3297d6ed8749ee8d32d995c532fe29e91b33b6",
}


def zero_matrix(j):
    size = j + 1
    return [[0] * size for _ in range(size)]


def canonical_element(j, n):
    """Basis element n: binom(n, k) on the anti-diagonal h + k = n."""
    return [[binom(n, k) if h + k == n else 0 for k in range(j + 1)] for h in range(j + 1)]


def random_int_matrix(j, rng):
    size = j + 1
    return [[Fraction(rng.randrange(-5, 6)) for _ in range(size)] for _ in range(size)]


def canonical_projection(A):
    """Member of the canonical span with the same first-column entries."""
    j = len(A) - 1
    rows = zero_matrix(j)
    for n in range(j + 1):
        weight = A[n][0]
        for k in range(n + 1):
            rows[n - k][k] = rows[n - k][k] + weight * binom(n, k)
    return rows


def residual(row: ConstraintRow, A) -> Fraction:
    """Value of one condition on A, read through the row's block slots."""
    ks = block_range(len(A) - 1, row.n)
    acc = Fraction(0)
    for k, weight in zip(ks, row.weights):
        acc = acc + weight * A[row.n - k][k]
    return acc


def dense_row(row: ConstraintRow, j: int) -> dict:
    """The row's weights scattered over the whole j-square."""
    ks = block_range(j, row.n)
    assert len(row.weights) == len(ks)
    return {(row.n - k, k): w for k, w in zip(ks, row.weights) if w}


def expansion_row(l: int, m: int, n: int, j: int) -> dict:
    """Condition (l, m, n) read off the dyad-by-dyad conjugation over the
    whole j-square: the coefficient of t**(n-l-m) that each dyad |k><h|
    sends to |l><m|, with the common unit i**(n-l-m) divided out."""
    power = n - l - m
    # dividing by the unit i**power is multiplying by i**(-power)
    inverse_unit = I_CYCLE[-power % 4]
    out = {}
    for h in range(m, j + 1):
        for k in range(l, j + 1):
            term = monomial_product(k - l, h - m).get(power)
            if term:
                re, im = gmul(term, inverse_unit)
                assert im == 0 and type(re) is int
                out[(h, k)] = binom(k, l) * binom(h, m) * re
    return out


def corrupted(blocks: tuple, n: int, replace) -> tuple:
    """Copy of the blocks whose block n rows are mapped through replace."""
    blocks = list(blocks)
    blocks[n] = tuple(replace(i, row) for i, row in enumerate(blocks[n]))
    return tuple(blocks)


def all_rows(blocks: tuple) -> list:
    """Every row of every block, block by block."""
    return [row for block in blocks for row in block]


class TestConstraintSystem:
    def test_smallest_system_by_hand(self):
        # j = 1: A[1][0] = A[0][1] on anti-diagonal 1, and A[1][1] = 0
        # stated three ways on anti-diagonal 2
        blocks = build_constraints(1)
        assert [len(block) for block in blocks] == [0, 1, 3]
        assert blocks[1][0].weights == (1, -1)
        assert sorted(abs(row.weights[0]) for row in blocks[2]) == [1, 1, 1]

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5])
    def test_row_count_matches_triple_enumeration(self, j):
        assert len(all_rows(build_constraints(j))) == binom(2 * j + 2, 3)

    def test_dense_matrix_matches_sparse_rows(self):
        # every block row, scattered over the j-square, equals the row the
        # dyad-by-dyad conjugation gives for the same power of t
        for j in range(2, 7):
            for row in all_rows(build_constraints(j)):
                assert dense_row(row, j) == expansion_row(row.l, row.m, row.n, j)

    @pytest.mark.parametrize("j", range(13))
    def test_weights_are_block_wide_ints(self, j):
        # a float weight such as 1.0 would pass every equality above
        for row in all_rows(build_constraints(j)):
            assert len(row.weights) == len(block_range(j, row.n))
            assert all(type(w) is int for w in row.weights)

    @pytest.mark.parametrize("wrong", [
        lambda j, n: range(0, min(j, n) + 1),  # past the square's lower edge
        lambda j, n: range(max(0, n - j), min(j, n) + 2),  # one slot too many
    ])
    def test_misaligned_block_range_is_refused(self, monkeypatch, wrong):
        # slices of the wrong width would be cut to the shorter one by the
        # slot-by-slot product; the builder refuses them instead
        monkeypatch.setattr(uniqueness, "block_range", wrong)
        with pytest.raises(ArithmeticError, match="anti-diagonal"):
            build_constraints(4)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6])
    def test_every_row_lies_on_one_anti_diagonal(self, j):
        blocks = build_constraints(j)
        assert len(blocks) == 2 * j + 1
        for n, block in enumerate(blocks):
            assert {(row.l, row.m) for row in block} == {
                (l, m) for l in range(n) for m in range(n - l)
            }
            for row in block:
                assert row.n == n
                assert all(h + k == n for h, k in dense_row(row, j))

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_canonical_elements_satisfy_every_row(self, j):
        constraint_rows = all_rows(build_constraints(j))
        for n in range(j + 1):
            elem = canonical_element(j, n)
            assert all(not residual(row, elem) for row in constraint_rows)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_non_members_violate_some_row(self, j):
        constraint_rows = all_rows(build_constraints(j))
        rng = random.Random(RNG_SEED)
        found = 0
        while found < 5:
            A = random_int_matrix(j, rng)
            proj = canonical_projection(A)
            remainder = [[a + -1 * p for a, p in zip(*rows)] for rows in zip(A, proj)]
            if not any(any(row) for row in remainder):
                continue
            assert any(residual(row, remainder) for row in constraint_rows)
            found += 1


class TestCanonicalFamily:
    def test_explicit_elements_for_j_two(self):
        basis = certify(2)["basis"]
        assert basis[0] == [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
        top = basis[2]
        assert top[0][2] == "1"
        assert top[1][1] == "2"
        assert top[2][0] == "1"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            certify(-1)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 5])
    def test_solver_returns_canonical_basis(self, j):
        report = certify(j)
        assert report["certified"] is True
        assert report["basis"] == [
            [[str(x) for x in row] for row in canonical_element(j, n)]
            for n in range(j + 1)
        ]

    @pytest.mark.parametrize("j,n", [(3, 0), (3, 2), (4, 4), (6, 5)])
    def test_recurrence_chain_telescopes_to_binomials(self, j, n):
        # the rows one power of t above the diagonal are the two-term
        # recurrence (n-l) A[n-l][l] = (l+1) A[n-l-1][l+1]; chained from
        # A[n][0] = 1 they give the binomial row
        ks = block_range(j, n)
        step = {}
        for row in build_constraints(j)[n]:
            if row.l + row.m == n - 1:
                weights = {k: w for k, w in zip(ks, row.weights) if w}
                assert weights == {row.l: n - row.l, row.l + 1: -(row.l + 1)}
                step[row.l] = Fraction(n - row.l, row.l + 1)
        chain = [Fraction(1)]
        for l in range(n):
            chain.append(chain[-1] * step[l])
        assert chain == [binom(n, k) for k in range(n + 1)]


def as_gaussian(polys, denominator):
    """Integer conjugation output as {(l, m): {d: (re, im)}} in Fractions."""
    return {
        lm: {d: (Fraction(re, denominator), Fraction(im, denominator))
             for d, (re, im) in poly.items()}
        for lm, poly in polys.items()
    }


class TestConjugationOracle:
    """conjugation_polys on sparse dyads, the form certify hands it."""

    def test_identity_grows_a_square_term(self):
        # |1><1| leaks t**2 onto |0><0| under conjugation
        polys, denominator = conjugation_polys("derivative", {(0, 0): (1, 0), (1, 1): (1, 0)}, 1)
        assert denominator == 1
        assert polys[0, 0] == {0: (1, 0), 2: (1, 0)}
        assert polys[1, 1] == {0: (1, 0)}

    def test_single_dyad_degree(self):
        # the dyad |1><2| alone
        polys, _ = conjugation_polys("derivative", {(1, 2): (1, 0)}, 1)
        assert max(polys[0, 0]) == 3
        # every dyad |l><m| it reaches carries the full power (1-l) + (2-m)
        assert {lm: max(poly) for lm, poly in polys.items()} == {
            (l, m): (1 - l) + (2 - m) for l in range(2) for m in range(3)
        }

    @pytest.mark.parametrize("j,n", [(1, 1), (2, 2), (3, 1), (4, 3)])
    def test_canonical_element_is_time_constant(self, j, n):
        # the n+1 dyads of element n come back alone, as the nonzero
        # entries of the element in the j-square
        entries = {(k, n - k): (binom(n, k), 0) for k in range(n + 1)}
        polys, denominator = conjugation_polys("derivative", entries, 1)
        assert denominator == 1
        elem = canonical_element(j, n)
        assert polys == {
            (k, h): {0: (x, 0)} for h, row in enumerate(elem) for k, x in enumerate(row) if x
        }

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_polynomial_sum_of_monomials(self, j):
        # reference: the same expansion, monomial by monomial, summed by
        # power of t; A[h][k] is the coefficient of the dyad |k><h|
        rng = random.Random(RNG_SEED + j)
        size = j + 1
        for _ in range(3):
            entries = {
                (k, h): (Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)), Fraction(0))
                for h in range(size)
                for k in range(size)
            }
            values, denominator = _lift(list(entries.values()))
            polys = conjugation_polys("derivative", dict(zip(entries, values)), denominator)
            assert as_gaussian(*polys) == expand("derivative", entries)


class TestIdentities:
    def test_side_split_of_canonical_is_all_low(self):
        # canonical element n lives on block n alone, and no block beyond
        # order j has a nonzero solution
        j = 3
        for n, elem in enumerate(certify(j)["basis"]):
            for h in range(j + 1):
                for k in range(j + 1):
                    if h + k != n:
                        assert elem[h][k] == "0"
        assert _certify_blocks(build_constraints(j))["nullities"][j + 1:] == [0] * j

    def test_side_split_partitions_entries(self):
        # the anti-diagonal blocks cover every unknown of the j-square once
        for j in range(5):
            cells = [(n - k, k) for n in range(2 * j + 1) for k in block_range(j, n)]
            assert sorted(cells) == [(h, k) for h in range(j + 1) for k in range(j + 1)]


class TestBlockCertificate:
    @pytest.mark.parametrize("j", range(J_CAP + 1))
    def test_block_nullities(self, j):
        blocks = _certify_blocks(build_constraints(j))
        assert blocks["nullities"] == [1] * (j + 1) + [0] * j
        assert blocks["rank"] == j * (j + 1)
        assert blocks["failures"] == []

    @pytest.mark.parametrize("j", [2, 3, 4])
    def test_block_ranks_agree_with_sympy(self, j):
        sympy = pytest.importorskip("sympy")
        blocks = _certify_blocks(build_constraints(j))
        for n, block in enumerate(build_constraints(j)):
            width = len(block_range(j, n))
            rank = sympy.Matrix([list(row.weights) for row in block]).rank() if block else 0
            assert blocks["nullities"][n] == width - rank

    def test_corrupted_low_weight_fails(self, monkeypatch):
        j, n = 4, 3
        system = build_constraints(j)

        def bump(i, row):
            if i != len(system[n]) - 1:
                return row
            weights = list(row.weights)
            weights[0] += 1
            return ConstraintRow(row.l, row.m, row.n, tuple(weights))

        monkeypatch.setattr(uniqueness, "build_constraints", lambda _: corrupted(system, n, bump))
        report = certify(j)
        assert report["certified"] is False
        assert report["basis_constraint_ok"][n] is False
        assert report["failures"]

    def test_pinned_low_block_fails(self, monkeypatch):
        # one extra condition A[n][0] = 0 leaves block n no solution
        j, n = 4, 2
        blocks = list(build_constraints(j))
        pin = (1,) + (0,) * (len(block_range(j, n)) - 1)
        blocks[n] += (ConstraintRow(0, 0, n, pin),)
        pinned = tuple(blocks)
        monkeypatch.setattr(uniqueness, "build_constraints", lambda _: pinned)
        report = certify(j)
        assert report["certified"] is False
        assert report["span_check_ok"] is False
        assert report["nullspace_dimension"] == j

    def test_dropped_high_block_fails(self, monkeypatch):
        # with block 2j emptied, A[j][j] is free: the high-block check sees it
        j = 4
        system = build_constraints(j)
        zero_row = lambda i, row: ConstraintRow(row.l, row.m, row.n, (0,) * len(row.weights))
        monkeypatch.setattr(
            uniqueness, "build_constraints", lambda _: corrupted(system, 2 * j, zero_row)
        )
        report = certify(j)
        assert report["certified"] is False
        assert report["high_anti_diagonals_zero"] == [False] * (j + 1)
        assert report["nullspace_dimension"] == j + 2

    def test_broken_chain_row_fails(self, monkeypatch):
        # with the weight at slot l+1 of first-order row l zeroed, that row
        # fixes slot l again and leaves two slots of block n free
        j, n, l = 4, 3, 1
        system = build_constraints(j)

        def cut(i, row):
            if (row.l, row.m) != (l, n - 1 - l):
                return row
            weights = list(row.weights)
            weights[l + 1 - block_range(j, n).start] = 0
            return ConstraintRow(row.l, row.m, row.n, tuple(weights))

        monkeypatch.setattr(uniqueness, "build_constraints", lambda _: corrupted(system, n, cut))
        report = certify(j)
        assert report["certified"] is False
        assert any(line.startswith(f"anti-diagonal {n}: ") for line in report["failures"])
        # the reported nullity of the block is its count of free slots
        assert report["nullspace_dimension"] == j + 2

    def test_cli_certifies_at_the_cap(self, tmp_path):
        j = J_CAP
        conf = tmp_path / "cap.conf"
        conf.write_text(f"j = {j}\n")
        result = CliRunner().invoke(main, ["uniqueness", "--config", str(conf)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["constraint_rows"] == comb(2 * j + 2, 3)
        assert report["rank"] == j * (j + 1)
        assert report["unknown_count"] == (j + 1) ** 2
        assert report["nullspace_dimension"] == j + 1
        assert report["basis"] == [
            [[str(comb(n, k)) if h + k == n else "0" for k in range(j + 1)] for h in range(j + 1)]
            for n in range(j + 1)
        ]
        assert report["certified"] is True
        assert report["failures"] == []


class TestCertify:
    @pytest.mark.parametrize("j", [0, 1, 3])
    def test_full_report_is_clean(self, j):
        report = certify(j)
        assert report["certified"] is True
        assert report["nullspace_dimension"] == j + 1
        assert report["rank"] == (j + 1) ** 2 - (j + 1)
        assert report["embedding_order"] == 2 * j
        assert all(report["basis_constraint_ok"])
        assert all(report["basis_time_constant"])
        assert all(report["high_anti_diagonals_zero"])
        assert report["span_check_ok"] is True
        assert report["failures"] == []

    @pytest.mark.parametrize("j", sorted(CERTIFICATE_SHA256))
    def test_certificate_bytes_are_pinned(self, j):
        digest = hashlib.sha256(_json_text(certify(j)).encode()).hexdigest()
        assert digest == CERTIFICATE_SHA256[j]

    def test_surviving_power_fails_only_its_element(self, monkeypatch):
        # an oracle that keeps a power of t on element n clears its flag
        # and the verdict, and moves nothing the constraint rows decide
        j, n = 4, 2
        clean = certify(j)
        real = uniqueness.conjugation_polys

        def leaky(normalization, entries, denominator):
            polys, denominator = real(normalization, entries, denominator)
            if (0, n) in entries:
                polys[0, n] = {**polys[0, n], 1: (1, 0)}
            return polys, denominator

        monkeypatch.setattr(uniqueness, "conjugation_polys", leaky)
        report = certify(j)
        assert report["basis_time_constant"] == [m != n for m in range(j + 1)]
        assert report["certified"] is False
        moved = {key for key in clean if report[key] != clean[key]}
        assert moved == {"basis_time_constant", "certified"}

    def test_report_serializes_to_json(self):
        text = json.dumps(certify(2), sort_keys=True)
        assert '"certified": true' in text

    def test_basis_rendering_shows_binomials(self):
        report = certify(2)
        assert report["basis"][2][1][1] == "2"
        assert report["basis"][2][0][2] == "1"
