"""Tests for the exact uniqueness certification machinery.

The constraint system, the per-anti-diagonal certificate and the
conjugation oracle are probed separately and against each other; sympy
elimination is the independent rank oracle, and nothing here touches
floating point.  A square of coefficients A[h][k] is a list of rows.
"""

import json
import random
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner

from gamowkit import uniqueness
from gamowkit.algebra import GaussianRational, Polynomial, binom
from gamowkit.cli import J_CAP, main
from gamowkit.uniqueness import (
    ConstraintRow,
    ConstraintSystem,
    block_range,
    build_constraints,
    certify,
    oracle_evolution,
    _certify_blocks,
)

from expansion import I_CYCLE, expand, monomial_product

RNG_SEED = 20260823


def zero_matrix(j):
    size = j + 1
    return [[GaussianRational(0)] * size for _ in range(size)]


def canonical_element(j, n):
    """Basis element n: binom(n, k) on the anti-diagonal h + k = n."""
    return [[binom(n, k) if h + k == n else 0 for k in range(j + 1)] for h in range(j + 1)]


def gaussian_int_matrix(j, rng):
    size = j + 1
    return [[GaussianRational(rng.randrange(-5, 6)) for _ in range(size)] for _ in range(size)]


def canonical_projection(A):
    """Member of the canonical span with the same first-column entries."""
    j = len(A) - 1
    rows = zero_matrix(j)
    for n in range(j + 1):
        weight = A[n][0]
        for k in range(n + 1):
            rows[n - k][k] = rows[n - k][k] + weight * binom(n, k)
    return rows


def residual(row: ConstraintRow, A) -> GaussianRational:
    """Value of one condition on A, read through the row's block slots."""
    ks = block_range(len(A) - 1, row.n)
    acc = GaussianRational(0)
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
            term = monomial_product(k - l, h - m).coefficient(power)
            if term:
                weight = binom(k, l) * binom(h, m) * (term * inverse_unit)
                assert weight.im == 0 and weight.re.denominator == 1
                out[(h, k)] = int(weight.re)
    return out


def corrupted(system: ConstraintSystem, n: int, replace) -> ConstraintSystem:
    """Copy of system whose block n rows are mapped through replace."""
    blocks = list(system.blocks)
    blocks[n] = tuple(replace(i, row) for i, row in enumerate(blocks[n]))
    return ConstraintSystem(system.j, tuple(blocks))


class TestCoefficientMatrix:
    """The square A[h][k] as nested rows, the input of oracle_evolution."""

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            oracle_evolution([[GaussianRational(1)], [GaussianRational(0)]])
        with pytest.raises(ValueError):
            oracle_evolution([[1, 0], [0]])

    def test_zero_and_entry_access(self):
        evolved = oracle_evolution(zero_matrix(2))
        assert len(evolved) == 3 and all(len(row) == 3 for row in evolved)
        assert all(p.is_zero for row in evolved for p in row)
        assert oracle_evolution([]) == []

    def test_int_entries_coerce(self):
        assert oracle_evolution([[3]])[0][0].poly == Polynomial([GaussianRational(3)])
        assert oracle_evolution([[Fraction(1, 2)]])[0][0].poly == Polynomial(
            [GaussianRational(Fraction(1, 2))]
        )
        with pytest.raises(TypeError):
            oracle_evolution([[0.5]])


class TestConstraintSystem:
    def test_smallest_system_by_hand(self):
        # j = 1: A[1][0] = A[0][1] on anti-diagonal 1, and A[1][1] = 0
        # stated three ways on anti-diagonal 2
        system = build_constraints(1)
        assert [len(block) for block in system.blocks] == [0, 1, 3]
        assert system.blocks[1][0].weights == (1, -1)
        assert sorted(abs(row.weights[0]) for row in system.blocks[2]) == [1, 1, 1]

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5])
    def test_row_count_matches_triple_enumeration(self, j):
        system = build_constraints(j)
        assert len(system.rows) == binom(2 * j + 2, 3)
        assert len(system.unknowns) == (j + 1) ** 2

    def test_dense_matrix_matches_sparse_rows(self):
        # every block row, scattered over the j-square, equals the row the
        # dyad-by-dyad conjugation gives for the same power of t
        for j in (2, 3):
            for row in build_constraints(j).rows:
                assert dense_row(row, j) == expansion_row(row.l, row.m, row.n, j)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4, 5, 6])
    def test_every_row_lies_on_one_anti_diagonal(self, j):
        system = build_constraints(j)
        assert len(system.blocks) == 2 * j + 1
        for n, block in enumerate(system.blocks):
            assert {(row.l, row.m) for row in block} == {
                (l, m) for l in range(n) for m in range(n - l)
            }
            for row in block:
                assert row.n == n
                assert all(h + k == n for h, k in dense_row(row, j))

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_canonical_elements_satisfy_every_row(self, j):
        system = build_constraints(j)
        for n in range(j + 1):
            elem = canonical_element(j, n)
            assert all(not residual(row, elem) for row in system.rows)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_non_members_violate_some_row(self, j):
        system = build_constraints(j)
        rng = random.Random(RNG_SEED)
        found = 0
        while found < 5:
            A = gaussian_int_matrix(j, rng)
            proj = canonical_projection(A)
            remainder = [[a + -1 * p for a, p in zip(*rows)] for rows in zip(A, proj)]
            if not any(any(row) for row in remainder):
                continue
            assert any(residual(row, remainder) for row in system.rows)
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
        for row in build_constraints(j).blocks[n]:
            if row.l + row.m == n - 1:
                weights = {k: w for k, w in zip(ks, row.weights) if w}
                assert weights == {row.l: n - row.l, row.l + 1: -(row.l + 1)}
                step[row.l] = Fraction(n - row.l, row.l + 1)
        chain = [Fraction(1)]
        for l in range(n):
            chain.append(chain[-1] * step[l])
        assert chain == [binom(n, k) for k in range(n + 1)]


class TestConjugationOracle:
    def test_identity_grows_a_square_term(self):
        # |1><1| leaks t**2 onto |0><0| under conjugation
        evolved = oracle_evolution([[1, 0], [0, 1]])
        one = GaussianRational(1)
        zero = GaussianRational(0)
        assert evolved[0][0].poly == Polynomial([one, zero, one])
        assert evolved[1][1].poly == Polynomial([one])

    def test_single_dyad_degree(self):
        entries = zero_matrix(2)
        entries[2][1] = GaussianRational(1)  # the dyad |1><2|
        evolved = oracle_evolution(entries)
        assert evolved[0][0].poly.degree == 3
        assert all(p.rate == GaussianRational(-1) for row in evolved for p in row)

    @pytest.mark.parametrize("j,n", [(1, 1), (2, 2), (3, 1), (4, 3)])
    def test_canonical_element_is_time_constant(self, j, n):
        elem = canonical_element(j, n)
        evolved = oracle_evolution(elem)
        for l in range(j + 1):
            for m in range(j + 1):
                assert evolved[l][m].poly.degree <= 0
                assert evolved[l][m].poly.coefficient(0) == elem[l][m]

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_matches_polynomial_sum_of_monomials(self, j):
        # reference: the same expansion, monomial by monomial, summed by
        # power of t; A[h][k] is the coefficient of the dyad |k><h|
        rng = random.Random(RNG_SEED + j)
        size = j + 1
        for _ in range(3):
            A = [
                [GaussianRational(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                                  Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                 for _ in range(size)]
                for _ in range(size)
            ]
            evolved = oracle_evolution(A)
            want = expand("derivative", {(k, h): A[h][k] for h in range(size) for k in range(size)})
            for l in range(size):
                for m in range(size):
                    got = {d: c for d, c in enumerate(evolved[l][m].poly.coeffs) if c}
                    assert got == want.get((l, m), {})


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
            assert sorted(cells) == sorted(build_constraints(j).unknowns)


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
        for n, block in enumerate(build_constraints(j).blocks):
            width = len(block_range(j, n))
            rank = sympy.Matrix([list(row.weights) for row in block]).rank() if block else 0
            assert blocks["nullities"][n] == width - rank

    def test_corrupted_low_weight_fails(self, monkeypatch):
        j, n = 4, 3
        system = build_constraints(j)

        def bump(i, row):
            if i != len(system.blocks[n]) - 1:
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
        system = build_constraints(j)
        blocks = list(system.blocks)
        pin = (1,) + (0,) * (len(block_range(j, n)) - 1)
        blocks[n] += (ConstraintRow(0, 0, n, pin),)
        pinned = ConstraintSystem(j, tuple(blocks))
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

    def test_report_serializes_to_json(self):
        text = json.dumps(certify(2), sort_keys=True)
        assert '"certified": true' in text

    def test_basis_rendering_shows_binomials(self):
        report = certify(2)
        assert report["basis"][2][1][1] == "2"
        assert report["basis"][2][0][2] == "1"
