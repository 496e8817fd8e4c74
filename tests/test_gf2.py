import itertools
import random
from collections import Counter

import pytest

from korth import gf2
from korth.errors import DimensionError, MatrixParseError, RangeError
from korth.families import hamming_parity_check, minimal_korth_matrix
from korth.gf2 import (
    BitMat,
    BitVec,
    _eliminate,
    and_product,
    format_matrix_text,
    in_rowspan,
    null_space,
    parse_matrix_text,
    rank,
    solve,
)

from conftest import bitmat, covered_columns_count, mul_vec, np_matrix, oracle_rank, span_enumerate


def bv(s: str) -> BitVec:
    return BitVec.from_string(s)


class TestAndProduct:
    def test_pair(self):
        assert and_product([bv("1100"), bv("1010")]) == bv("1000")

    def test_single_identity(self):
        v = bv("10110")
        assert and_product([v]) == v

    def test_minimal_matrix_rows_isolate_first_column(self):
        # all four rows of the canonical 4x15 matrix share only column 0
        M = minimal_korth_matrix(3)
        assert str(and_product(list(M.rows))) == "100000000000000"

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            and_product([bv("10"), bv("100")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            and_product([])


class TestWeight:
    def test_zero(self):
        assert bv("0000").weight == 0

    def test_direct(self):
        assert bv("1011").weight == 3

    def test_hamming_rows(self):
        # oracle: each row has a 1 wherever the column value sets that bit;
        # exactly half of the 16 four-bit patterns do, minus nothing nonzero
        H = hamming_parity_check(4)
        for i in range(4):
            expect = sum(1 for v in range(1, 16) if (v >> i) & 1)
            assert expect == 8
            assert H.rows[i].weight == 8


class TestXor:
    def test_pair(self):
        assert bv("1100") ^ bv("1010") == bv("0110")

    def test_self_inverse(self):
        v = bv("10101")
        assert v ^ v == BitVec.zeros(5)

    def test_identity(self):
        v = bv("0111")
        assert v ^ BitVec.zeros(4) == v

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bv("1") ^ bv("11")


class TestRank:
    def test_identity(self):
        assert rank(BitMat.identity(3)) == 3

    def test_zero(self):
        assert rank(BitMat.zero(2, 4)) == 0

    def test_hamming4(self):
        H = hamming_parity_check(4)
        assert rank(H) == 4
        assert oracle_rank(np_matrix(H)) == 4

    def test_random_against_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 12)
            M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
            assert rank(M) == oracle_rank(np_matrix(M))


class TestNullSpace:
    def test_identity_trivial(self):
        assert null_space(BitMat.identity(4)).nrows == 0

    def test_single_row(self):
        ns = null_space(bitmat(["11"]))
        assert [str(r) for r in ns.rows] == ["11"]

    def test_hamming3_is_the_hamming_code(self):
        # oracle: brute-force every vector with zero syndrome
        H = hamming_parity_check(3)
        codewords = {
            v for v in range(128)
            if all((BitVec(7, v) & row).weight % 2 == 0 for row in H.rows)
        }
        assert len(codewords) == 16
        ns = null_space(H)
        assert ns.nrows == 4
        assert {x.bits for x in span_enumerate(ns)} == codewords

    def test_dimension_and_membership(self):
        rng = random.Random(11)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(2, 10)
            M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
            ns = null_space(M)
            assert ns.nrows + rank(M) == n
            for v in ns.rows:
                assert all((v & row).weight % 2 == 0 for row in M.rows)


class TestSpanEnumerate:
    def test_empty_rows(self):
        assert [str(v) for v in span_enumerate(BitMat.zero(0, 3))] == ["000"]

    def test_two_rows(self):
        M = bitmat(["110", "011"])
        got = {str(v) for v in span_enumerate(M)}
        assert got == {"000", "110", "011", "101"}

    def test_hamming4_simplex_weights(self):
        vs = span_enumerate(hamming_parity_check(4))
        assert len(vs) == 16
        weights = sorted(v.weight for v in vs)
        assert weights == [0] + [8] * 15

    def test_closure_under_xor(self):
        rng = random.Random(3)
        M = BitMat.from_ints(8, [rng.getrandbits(8) for _ in range(3)])
        vs = span_enumerate(M)
        pool = {v.bits for v in vs}
        assert 0 in pool
        for a in vs:
            for b in vs:
                assert (a ^ b).bits in pool


class TestCoveredColumns:
    def test_union_of_supports(self):
        M = bitmat(["1100", "0110"])
        assert covered_columns_count(M, 2) == 3

    def test_two_row_identity(self):
        # N_2 = |r1| + |r2| - |r1 . r2|
        rng = random.Random(5)
        for _ in range(30):
            M = BitMat.from_ints(12, [rng.getrandbits(12) for _ in range(2)])
            expect = (
                M.rows[0].weight + M.rows[1].weight - (M.rows[0] & M.rows[1]).weight
            )
            assert covered_columns_count(M, 2) == expect

    def test_three_row_expansion(self):
        # the seven-term inclusion-exclusion sum, one term per row subset
        rng = random.Random(6)
        for _ in range(30):
            M = BitMat.from_ints(10, [rng.getrandbits(10) for _ in range(3)])
            total = 0
            for t in range(1, 4):
                for idx in itertools.combinations(range(3), t):
                    total += (-1) ** (t + 1) * and_product(
                        [M.rows[i] for i in idx]
                    ).weight
            assert covered_columns_count(M, 3) == total

    def test_range_errors(self):
        M = BitMat.identity(2)
        with pytest.raises(RangeError):
            covered_columns_count(M, 0)
        with pytest.raises(RangeError):
            covered_columns_count(M, 3)


class TestSolveAndSpanMembership:
    def test_solve_consistency(self):
        rng = random.Random(9)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 9)
            M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
            x = BitVec(n, rng.getrandbits(n))
            b = mul_vec(M, x)
            got = solve(M, b)
            assert got is not None
            assert mul_vec(M, got) == b

    def test_solve_inconsistent(self):
        M = bitmat(["10", "10"])
        assert solve(M, bv("10")) is None

    def test_in_rowspan(self):
        M = bitmat(["110", "011"])
        assert in_rowspan(bv("101"), M)
        assert not in_rowspan(bv("100"), M)


class TestMatrixText:
    def test_round_trip(self):
        M = hamming_parity_check(3)
        assert parse_matrix_text(format_matrix_text(M)) == M

    def test_zero_rows(self):
        M = BitMat.zero(0, 4)
        assert parse_matrix_text(format_matrix_text(M)) == M

    def test_bad_character_position(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1 3\n1x0\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_bad_header(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("3\n")

    def test_wrong_row_length(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1 3\n10\n")
        assert err.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("2 2\n10\n")

    def test_trailing_content(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("1 2\n10\n11\n")


class TestBitVecBasics:
    def test_string_round_trip(self):
        for s in ("", "0", "1", "10110"):
            assert str(BitVec.from_string(s)) == s

    def test_tail_masked(self):
        v = BitVec(3, 0b11111)
        assert v.bits == 0b111

    def test_support(self):
        assert bv("0101").support() == (1, 3)

    def test_indexing(self):
        v = bv("01")
        assert (v[0], v[1]) == (0, 1)
        with pytest.raises(IndexError):
            _ = v[2]


def gauss_jordan(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Plain column-by-column Gauss-Jordan sweep: the reference for the
    windowed elimination and its reduced-input shortcut."""
    work, pivots = list(rows), []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
    return work[: len(pivots)], pivots


class TestEliminateAgainstGaussJordan:
    def test_random_rows(self):
        rng = random.Random(41)
        for _ in range(3000):
            nrows, ncols = rng.randint(0, 16), rng.randint(0, 30)
            density = rng.choice((0.1, 0.5, 0.9))
            rows = [
                sum(1 << j for j in range(ncols) if rng.random() < density)
                for _ in range(nrows)
            ]
            assert _eliminate(rows, ncols) == gauss_jordan(rows, ncols)

    def test_reduced_input_returned_unchanged(self):
        rng = random.Random(42)
        for _ in range(1000):
            ncols = rng.randint(1, 40)
            rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 12))]
            reduced, pivots = gauss_jordan(rows, ncols)
            assert _eliminate(reduced, ncols) == (reduced, pivots)

    def test_nearly_reduced_input_is_swept(self):
        # Reduced rows, then one row swap or one extra bit at another pivot:
        # the shortcut must decline and the sweep give the reference result.
        rng = random.Random(43)
        for _ in range(1000):
            ncols = rng.randint(2, 40)
            rows = [rng.getrandbits(ncols) for _ in range(rng.randint(2, 12))]
            reduced, pivots = gauss_jordan(rows, ncols)
            if len(reduced) < 2:
                continue
            i, j = rng.sample(range(len(reduced)), 2)
            bent = list(reduced)
            if rng.random() < 0.5:
                bent[i], bent[j] = bent[j], bent[i]
            else:
                bent[i] |= 1 << pivots[j]
            assert _eliminate(bent, ncols) == gauss_jordan(bent, ncols)

    def test_rref_matches_gauss_jordan(self):
        rng = random.Random(44)
        for _ in range(500):
            ncols, density = rng.randint(0, 40), rng.choice((0.1, 0.5, 0.9))
            rows = [sum(1 << j for j in range(ncols) if rng.random() < density)
                    for _ in range(rng.randint(0, 30))]
            reduced, pivots = gauss_jordan(rows, ncols)
            assert gf2.rref(BitMat.from_ints(ncols, rows)) == (
                BitMat.from_ints(ncols, reduced), tuple(pivots))

    def test_large_block_with_identity_on_the_right(self):
        # The sub-dual Z block (J | d | I) at m=8: dense low columns, then a
        # long identity, the shape every constructed code presents.
        from korth.families import subdual_css

        a_z = subdual_css(8).a_z
        rows = a_z.row_ints()
        assert _eliminate(rows, a_z.ncols) == gauss_jordan(rows, a_z.ncols)


def random_rows(rng: random.Random, nrows: int, width: int, density: float) -> list[int]:
    return [
        sum(1 << j for j in range(width) if rng.random() < density) for _ in range(nrows)
    ]


def column_route(rows: list[int], ncols: int) -> str:
    """Which way a block must go, read off its shape alone: the guard turns
    it away, or the column path may take it (where it may still run out of
    budget)."""
    if len(rows) < gf2._COLUMN_MIN_ROWS or (
        sum(r.bit_count() for r in rows) > gf2._COLUMN_MAX_BITS * ncols
    ):
        return "guard"
    return "eligible"


@pytest.fixture
def outcomes(monkeypatch):
    """Counts the column path's calls by outcome: done or fallback."""
    counts = Counter()
    real = gf2._eliminate_by_columns

    def counting(rows, ncols):
        out = real(rows, ncols)
        counts["fallback" if out is None else "done"] += 1
        return out

    monkeypatch.setattr(gf2, "_eliminate_by_columns", counting)
    return counts


class TestColumnPathAgainstGaussJordan:
    """The column path of ``_eliminate``, on blocks tall enough to reach it."""

    def check(self, rows: list[int], ncols: int) -> None:
        assert _eliminate(rows, ncols) == gauss_jordan(rows, ncols)

    def test_random_tall_blocks(self, outcomes):
        # Sparse blocks finish column-wise; wide ones near the density bound
        # run out of budget; the densest fail the guard.  All must match.
        rng = random.Random(45)
        routes = Counter()
        for case in range(500):
            if case % 10:
                nrows, ncols = rng.randint(24, 80), rng.randint(1, 120)
                density = rng.choice((0.02, 0.05, 0.1, 0.2, 0.3))
            else:  # larger and just inside the density bound
                nrows, ncols = rng.randint(64, 160), rng.randint(300, 400)
                density = 14 / nrows
            rows = random_rows(rng, nrows, ncols, density)
            before = outcomes["done"]
            self.check(rows, ncols)
            route = column_route(rows, ncols)
            if route == "eligible":
                route = "done" if outcomes["done"] > before else "budget"
            routes[route] += 1
        assert min(routes[r] for r in ("done", "budget", "guard")) >= 10

    def test_zero_duplicated_and_summed_rows(self):
        rng = random.Random(46)
        for _ in range(300):
            ncols = rng.randint(30, 100)
            rows = random_rows(rng, rng.randint(24, 60), ncols, 0.05)
            extra = [0] * rng.randint(0, 5)
            extra += [rng.choice(rows) for _ in range(rng.randint(0, 5))]
            extra += [rng.choice(rows) ^ rng.choice(rows) for _ in range(rng.randint(0, 5))]
            rows += extra
            rng.shuffle(rows)
            self.check(rows, ncols)

    @pytest.mark.parametrize("m", [5, 6, 7, 8, 9])
    def test_subdual_z_blocks(self, m):
        # Mixed copies carry a random sign as column n, the signed pure-Z
        # block that StabilizerCode.validate reduces.
        from korth.families import subdual_css

        a_z = subdual_css(m).a_z
        n = a_z.ncols
        self.check(a_z.row_ints(), n)
        rng = random.Random(m)
        for _ in range(2):
            rows = a_z.row_ints()
            for _ in range(2 * len(rows)):
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                if i != j:
                    rows[i] ^= rows[j]
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [
                sum((r >> q & 1) << perm[q] for q in range(n)) | rng.randint(0, 1) << n
                for r in rows
            ]
            rng.shuffle(rows)
            self.check(rows, n + 1)


class TestColumnPathGuard:
    """Which blocks the column path takes and which it hands to the sweep."""

    def test_subdual_block_finishes_column_wise(self, outcomes):
        from korth.families import subdual_css

        a_z = subdual_css(8).a_z  # validating the code eliminates a_z once
        outcomes.clear()
        _eliminate(a_z.row_ints(), a_z.ncols)
        assert outcomes == Counter(done=1)

    def test_dense_block_falls_back(self, outcomes):
        rows = random_rows(random.Random(48), 60, 64, 0.5)
        assert _eliminate(rows, 64) == gauss_jordan(rows, 64)
        assert outcomes == Counter(fallback=1)

    def test_short_block_falls_back(self, outcomes):
        rows = random_rows(random.Random(49), gf2._COLUMN_MIN_ROWS - 1, 200, 0.01)
        assert _eliminate(rows, 200) == gauss_jordan(rows, 200)
        assert outcomes == Counter(fallback=1)

    def test_budget_runs_out_on_a_random_block(self, outcomes):
        # 12 bits per column passes the density guard, but reducing 300
        # random columns against 150 pivots takes far more than the budget.
        rows = random_rows(random.Random(50), 150, 300, 0.08)
        assert column_route(rows, 300) == "eligible"
        assert _eliminate(rows, 300) == gauss_jordan(rows, 300)
        assert outcomes == Counter(fallback=1)


class TestBitStrings:
    def test_str_matches_per_bit_reference(self):
        rng = random.Random(44)
        for n in range(71):
            for _ in range(5):
                v = BitVec(n, rng.getrandbits(n) if n else 0)
                assert str(v) == "".join("1" if (v.bits >> i) & 1 else "0" for i in range(n))
                assert BitVec.from_string(str(v)) == v

    @pytest.mark.parametrize("text,col", [("0120", 3), ("x", 1), ("01 1", 3), ("0é", 2)])
    def test_bad_character_named_with_its_column(self, text, col):
        with pytest.raises(MatrixParseError) as exc:
            BitVec.from_string(text)
        assert str(exc.value) == f"invalid bit character {text[col - 1]!r} (line 1, column {col})"
