import itertools
import random

import pytest

from korth.errors import RangeError
from korth.families import hamming_parity_check
from korth.gf2 import BitMat, BitVec, and_product, in_rowspan, rank
from korth.lemmas import NoSyndromeError, isolate_column
from korth.ortho import is_k_orthogonal

from conftest import bitmat, mat_from_rows, max_orthogonality, random_full_rank, span_enumerate


def brute_k_orthogonal(a_x: BitMat, k: int, r: BitVec | None = None) -> bool:
    """Group-level oracle: every t-tuple drawn from the row span, t <= k."""
    if r is None:
        r = BitVec.ones(a_x.ncols)
    span = span_enumerate(a_x)
    for t in range(1, k + 1):
        for combo in itertools.combinations_with_replacement(span, t):
            if and_product(list(combo) + [r]).weight % 2:
                return False
    return True


class TestIsKOrthogonal:
    def test_hamming4_level3(self):
        assert is_k_orthogonal(hamming_parity_check(4), 3).holds

    def test_hamming4_level4_witness(self):
        rep = is_k_orthogonal(hamming_parity_check(4), 4)
        assert not rep.holds
        assert rep.witness.t == 4
        assert rep.witness.rows == (0, 1, 2, 3)
        prod = and_product([hamming_parity_check(4).rows[i] for i in rep.witness.rows])
        assert prod.weight == 1

    def test_odd_row_fails_level1(self):
        M = bitmat(["110", "011", "111"])
        rep = is_k_orthogonal(M, 1)
        assert not rep.holds
        assert rep.witness.t == 1
        assert rep.witness.rows == (2,)

    def test_witness_is_first_lexicographic(self):
        M = bitmat(["111", "110", "011"])
        rep = is_k_orthogonal(M, 2)
        assert rep.witness.t == 1
        assert rep.witness.rows == (0,)

    def test_restriction_vector(self):
        # odd total weights but even weights on the restricted support
        M = bitmat(["111", "110"])
        assert not is_k_orthogonal(M, 2).holds
        assert is_k_orthogonal(M, 2, BitVec.from_string("110")).holds

    def test_k_below_one(self):
        with pytest.raises(RangeError):
            is_k_orthogonal(BitMat.identity(2), 0)

    def test_restriction_length(self):
        with pytest.raises(RangeError):
            is_k_orthogonal(BitMat.identity(2), 1, BitVec.from_string("101"))

    def test_matches_group_level_oracle(self, rng):
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(m, 10)
            M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
            k = rng.randint(1, 4)
            restriction = (
                BitVec(n, rng.getrandbits(n)) if rng.random() < 0.4 else None
            )
            assert (
                is_k_orthogonal(M, k, restriction).holds
                == brute_k_orthogonal(M, k, restriction)
            )

    def test_row_operation_invariance(self, rng):
        for _ in range(30):
            m, n = rng.randint(2, 4), rng.randint(4, 10)
            M = random_full_rank(rng, m, n)
            rows = list(M.rows)
            for _ in range(6):
                i, j = rng.randrange(m), rng.randrange(m)
                if i != j:
                    rows[i] = rows[i] ^ rows[j]
            M2 = mat_from_rows(rows)
            for k in range(1, m + 1):
                assert is_k_orthogonal(M, k).holds == is_k_orthogonal(M2, k).holds

    def test_column_permutation_invariance(self, rng):
        for _ in range(30):
            m, n = rng.randint(2, 4), rng.randint(4, 10)
            M = random_full_rank(rng, m, n)
            perm = list(range(n))
            rng.shuffle(perm)
            cols = M.column_ints()
            M2 = BitMat.from_ints(
                n,
                [
                    sum(((cols[perm[j]] >> i) & 1) << j for j in range(n))
                    for i in range(m)
                ],
            )
            for k in range(1, m + 1):
                assert is_k_orthogonal(M, k).holds == is_k_orthogonal(M2, k).holds

    def test_monotone_in_k(self, rng):
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(2, 10)
            M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
            verdicts = [is_k_orthogonal(M, k).holds for k in range(1, m + 2)]
            for lower, higher in zip(verdicts, verdicts[1:]):
                if higher:
                    assert lower


class TestMaxOrthogonality:
    def test_hamming3(self):
        assert max_orthogonality(hamming_parity_check(3)) == 2

    def test_hamming5(self):
        # t-fold products of rows have weight 2**(5-t); odd only at t = 5
        H = hamming_parity_check(5)
        for t in range(1, 6):
            for idx in itertools.combinations(range(5), t):
                assert and_product([H.rows[i] for i in idx]).weight == 2 ** (5 - t)
        assert max_orthogonality(H) == 4

    def test_single_even_row_capped_at_row_count(self):
        assert max_orthogonality(bitmat(["11"])) == 1

    def test_odd_row_gives_zero(self):
        assert max_orthogonality(bitmat(["111"])) == 0

    def test_bound_for_distinct_columns(self, rng):
        # with distinct nonzero columns and full rank the level stays below m
        for _ in range(30):
            m = rng.randint(2, 4)
            n = rng.randint(m, (1 << m) - 1)
            cols = rng.sample(range(1, 1 << m), n)
            M = BitMat.from_ints(
                n, [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m)]
            )
            if rank(M) != m:
                continue
            assert max_orthogonality(M) < m

    def test_matches_level_by_level_checks(self, rng):
        # Hamming matrices first fail at t = m; random rows, and full column
        # sets with some columns dropped, fail first at every level.
        first_odd = set()
        for case in range(300):
            m = rng.randint(0, 5) if case % 2 else rng.randint(1, 5)
            if case % 2:
                n = rng.randint(1, 10)
                M = BitMat.from_ints(n, [rng.getrandbits(n) & rng.getrandbits(n)
                                         for _ in range(m)])
            else:
                cols = [c for c in range(1, 1 << m) if rng.random() < 0.9]
                M = BitMat.from_columns(m, cols + [0] * rng.randint(0, 1))
            expected = 0
            for k in range(1, m + 1):
                if not is_k_orthogonal(M, k).holds:
                    break
                expected = k
            assert max_orthogonality(M) == expected
            if expected < m:
                first_odd.add(expected + 1)
        assert first_odd >= {1, 2, 3, 4}


class TestIsolateColumn:
    def test_identity_example(self):
        out = isolate_column(BitMat.identity(3), 0)
        assert {str(r) for r in out.rows} == {"100", "110", "101"}

    def test_rowspace_preserved(self, rng):
        for _ in range(30):
            M = random_full_rank(rng, 4, 10)
            q = rng.randrange(10)
            if M.column(q).is_zero():
                continue
            out = isolate_column(M, q)
            assert rank(out) == rank(M)
            assert all(in_rowspan(r, M) for r in out.rows)
            assert all(in_rowspan(r, out) for r in M.rows)
            assert all(r[q] == 1 for r in out.rows)

    def test_isolating_product_on_distinct_columns(self):
        for m in (3, 4):
            H = hamming_parity_check(m)
            for q in range(H.ncols):
                out = isolate_column(H, q)
                prod = and_product(list(out.rows))
                assert prod == BitVec.from_indices(H.ncols, [q])

    def test_zero_column_rejected(self):
        M = bitmat(["10", "10"])
        with pytest.raises(NoSyndromeError):
            isolate_column(M, 1)

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            isolate_column(BitMat.identity(2), 5)
