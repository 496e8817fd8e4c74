import itertools

import pytest

from korth.codes import is_css
from korth.errors import RangeError
from korth.families import (
    MAX_M,
    hamming_parity_check,
    minimal_korth_matrix,
    subdual_css,
    subdual_parts,
)
from korth.gf2 import BitMat, BitVec, in_rowspan, rank
from korth.ortho import is_k_orthogonal

from conftest import mat_from_rows, max_orthogonality, span_enumerate, spans_equal, textbook_steane

# The 4x15 minimal tri-orthogonal matrix, frozen row by row.
MINIMAL_4x15 = [
    "111100001111000",
    "111010110010100",
    "110111010100010",
    "101111101000001",
]


class TestHammingParityCheck:
    def test_m2_columns(self):
        H = hamming_parity_check(2)
        assert H.column_ints() == [1, 2, 3]

    def test_m3_rows(self):
        H = hamming_parity_check(3)
        assert (H.nrows, H.ncols) == (3, 7)
        assert all(r.weight == 4 for r in H.rows)
        assert is_k_orthogonal(H, 2).holds

    def test_column_multiset_matches_minimal_matrix(self):
        ours = sorted(hamming_parity_check(4).column_ints())
        theirs = sorted(minimal_korth_matrix(3).column_ints())
        assert ours == theirs == list(range(1, 16))

    def test_block_layout(self):
        for m in (3, 4, 5):
            H = hamming_parity_check(m)
            cols = H.column_ints()
            assert cols[:m] == [1 << i for i in range(m)]
            assert cols[m] == 0b11
            assert all(c.bit_count() >= 2 for c in cols[m + 1:])

    def test_full_rank_and_level(self):
        for m in (2, 3, 4, 5):
            H = hamming_parity_check(m)
            assert rank(H) == m
            assert max_orthogonality(H) == m - 1

    def test_no_repeat_no_zero_columns(self):
        for m in (2, 3, 4, 5):
            cols = hamming_parity_check(m).column_ints()
            assert 0 not in cols
            assert len(set(cols)) == len(cols)

    def test_simplex_span_weights(self):
        for m in (2, 3, 4, 5):
            vs = span_enumerate(hamming_parity_check(m))
            assert sorted({v.weight for v in vs}) == [0, 1 << (m - 1)]

    def test_range_error(self):
        with pytest.raises(RangeError):
            hamming_parity_check(1)


class TestSubdualCss:
    def test_m3_is_steane_up_to_relabelling(self):
        sf = subdual_css(3)
        assert sf.n == 7
        assert is_css(sf)
        # X and Z check spans coincide (the Steane signature)
        assert spans_equal(sf.a_x, sf.a_z)
        # and match the textbook code after permuting its columns into our
        # column-value order
        ours = sf.a_x.column_ints()
        relabeled = BitMat.from_ints(
            7, [sum(((v >> i) & 1) << p for p, v in enumerate(ours)) for i in range(3)]
        )
        assert spans_equal(sf.a_x, relabeled)
        from korth.codes import to_standard_form

        textbook = to_standard_form(textbook_steane())
        assert sorted(textbook.a_x.column_ints()) == sorted(ours)

    def test_m4_parameters(self):
        sf = subdual_css(4)
        assert sf.n == 15
        assert sf.m + sf.a_z.nrows == 14
        assert is_k_orthogonal(sf.a_x, 3).holds
        assert not is_k_orthogonal(sf.a_x, 4).holds

    def test_d_column_weight(self):
        for m in (3, 4, 5, 6):
            assert subdual_parts(m).d.weight == (1 << (m - 1)) - 2

    def test_checks_orthogonal_and_even(self):
        for m in (3, 4, 5):
            sf = subdual_css(m)
            for c in sf.a_z.rows:
                assert c.weight % 2 == 0
                for a in sf.a_x.rows:
                    assert (c & a).weight % 2 == 0

    def test_logical_supports_all_ones(self):
        sf = subdual_css(4)
        assert sf.r == BitVec.ones(15)
        assert sf.s == BitVec.ones(15)

    def test_subdual_containment(self):
        # every X check lies in the span of the Z checks plus the logical
        for m in (3, 4, 5):
            sf = subdual_css(m)
            aug = mat_from_rows(list(sf.a_z.rows) + [sf.r])
            assert all(in_rowspan(row, aug) for row in sf.a_x.rows)

    def test_logical_commutation(self):
        for m in (3, 4):
            sf = subdual_css(m)
            assert all(r.weight % 2 == 0 for r in sf.a_z.rows)  # X_L commutes
            assert all(r.weight % 2 == 0 for r in sf.a_x.rows)  # Z_L commutes
            assert sf.n % 2 == 1  # X_L and Z_L anticommute

    def test_m2_rejected_with_reason(self):
        with pytest.raises(RangeError, match="undetected"):
            subdual_css(2)

    def test_validates(self):
        for m in (3, 4, 5):
            subdual_css(m).validate()

    def test_m_past_the_bound_rejected_before_building(self):
        # The bound admits m = 14, the columns of 16,383 qubits; every
        # builder refuses one row more, and a huge m, by name.
        assert hamming_parity_check(MAX_M).ncols == (1 << 14) - 1
        for build in (hamming_parity_check, subdual_parts, subdual_css):
            for m in (MAX_M + 1, 64, 10 ** 12):
                with pytest.raises(RangeError, match=rf"m={m} asks for 2\*\*{m} - 1 qubits; "
                                                     r"the construction takes at most m=14"):
                    build(m)


class TestMinimalKorthMatrix:
    def test_exact_4x15(self):
        M = minimal_korth_matrix(3)
        assert [str(r) for r in M.rows] == MINIMAL_4x15

    def test_k1(self):
        M = minimal_korth_matrix(1)
        assert (M.nrows, M.ncols) == (2, 3)
        assert all(r.weight == 2 for r in M.rows)
        assert is_k_orthogonal(M, 1).holds

    def test_k2_matches_hamming3_columns(self):
        assert sorted(minimal_korth_matrix(2).column_ints()) == sorted(
            hamming_parity_check(3).column_ints()
        )

    def test_k_orthogonal_at_level_k(self):
        for k in (1, 2, 3, 4):
            M = minimal_korth_matrix(k)
            assert M.ncols == (1 << (k + 1)) - 1
            assert is_k_orthogonal(M, k).holds
            assert not is_k_orthogonal(M, k + 1).holds

    def test_leading_column_all_ones(self):
        for k in (1, 2, 3):
            M = minimal_korth_matrix(k)
            assert all(r[0] == 1 for r in M.rows)

    def test_range_error(self):
        with pytest.raises(RangeError):
            minimal_korth_matrix(0)
