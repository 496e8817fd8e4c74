import itertools
import random
from collections import Counter

import pytest

from korth import gf2
from korth.codes import css_standard_form
from korth.distance import (
    _min_logical_coset,
    _min_logical_weight_search,
    css_distances,
)
from korth.errors import InvalidCodeError
from korth.families import hamming_parity_check, minimal_korth_matrix, subdual_css
from korth.gf2 import BitMat, BitVec, null_space
from korth.lemmas import z_distance_floor

from conftest import bitmat, np_matrix, oracle_in_span, span_enumerate


def brute_min_logical(check: BitMat, other: BitMat) -> int:
    """Oracle: scan the whole null space with numpy membership tests."""
    best = None
    other_np = np_matrix(other)
    for v in span_enumerate(null_space(check)):
        if v.is_zero():
            continue
        import numpy as np

        arr = np.array([v[j] for j in range(v.n)], dtype=np.uint8)
        if not oracle_in_span(arr, other_np):
            if best is None or v.weight < best:
                best = v.weight
    return best


class TestCssDistances:
    def test_subdual3(self):
        sf = subdual_css(3)
        rep = css_distances(sf.a_x, sf.a_z)
        assert (rep.d_z, rep.d_x) == (3, 3)
        assert rep.exact_z and rep.exact_x

    def test_subdual3_against_oracle(self):
        sf = subdual_css(3)
        assert brute_min_logical(sf.a_x, sf.a_z) == 3
        assert brute_min_logical(sf.a_z, sf.a_x) == 3

    def test_subdual4(self):
        sf = subdual_css(4)
        rep = css_distances(sf.a_x, sf.a_z)
        assert (rep.d_z, rep.d_x) == (3, 7)

    def test_subdual5(self):
        sf = subdual_css(5)
        rep = css_distances(sf.a_x, sf.a_z)
        assert (rep.d_z, rep.d_x) == (3, 15)
        # the X side enumerates the 2**6 = 64 element dual null space
        assert rep.method_x == "coset"
        assert rep.method_z == "weight"

    def test_strategies_cross_check(self):
        # Both methods on both sides, whichever one css_distances would pick.
        for m, expected in ((3, (3, 3)), (4, (3, 7))):
            sf = subdual_css(m)
            x_space, z_space = gf2.RowSpace(sf.a_x), gf2.RowSpace(sf.a_z)
            for (check, checks, stabilizers), d in zip(
                ((sf.a_x, x_space, z_space), (sf.a_z, z_space, x_space)), expected
            ):
                coset = _min_logical_coset(checks, stabilizers)
                weight = _min_logical_weight_search(check, stabilizers, sf.n)
                assert coset[0] == weight[0] == d

    def test_witnesses_recheck(self):
        for m in (3, 4):
            sf = subdual_css(m)
            rep = css_distances(sf.a_x, sf.a_z)
            for wit, check, other in (
                (rep.witness_z, sf.a_x, sf.a_z),
                (rep.witness_x, sf.a_z, sf.a_x),
            ):
                assert all((wit & row).weight % 2 == 0 for row in check.rows)
                import numpy as np

                arr = np.array([wit[j] for j in range(wit.n)], dtype=np.uint8)
                assert not oracle_in_span(arr, np_matrix(other))
                assert wit.weight in (rep.d_z, rep.d_x)

    def test_column_permutation_invariance(self, rng):
        sf = subdual_css(3)
        perm = list(range(7))
        rng.shuffle(perm)

        def permute(M):
            cols = M.column_ints()
            return BitMat.from_ints(
                7,
                [
                    sum(((cols[perm[j]] >> i) & 1) << j for j in range(7))
                    for i in range(M.nrows)
                ],
            )

        rep = css_distances(permute(sf.a_x), permute(sf.a_z))
        assert (rep.d_z, rep.d_x) == (3, 3)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidCodeError, match="CSS"):
            css_distances(BitMat.identity(3), BitMat.identity(3))

    def test_weight_cap_lower_bound(self):
        sf = subdual_css(6)
        # The Z side (a 57-dimensional null space) is searched by weight and
        # stops at the cap; the X side enumerates its null space regardless.
        rep = css_distances(sf.a_x, sf.a_z, weight_cap=2)
        assert (rep.method_z, rep.method_x) == ("weight", "coset")
        assert rep.d_z == 3 and not rep.exact_z
        assert rep.witness_z is None
        assert rep.d_x == 31 and rep.exact_x
        rep = css_distances(sf.a_x, sf.a_z, weight_cap=3)
        assert rep.d_z == 3 and rep.exact_z

    def test_dual_weight_accounting(self):
        # every Z-check null-space member weighs 0 or at least 2**(m-1) - 1
        for m in (3, 4, 5):
            sf = subdual_css(m)
            floor_w = (1 << (m - 1)) - 1
            for v in span_enumerate(null_space(sf.a_z)):
                assert v.weight == 0 or floor_w <= v.weight <= sf.n

    def test_weight2_column_qubits_have_no_special_role(self):
        # The two identity-block qubits sitting under the weight-2 column
        # appear in some minimum-weight X logicals and miss others: the
        # minimum is 2**(m-1) - 1 with or without them.
        for m in (3, 4, 5):
            sf = subdual_css(m)
            d_x = (1 << (m - 1)) - 1
            with_them = without_them = False
            for v in span_enumerate(null_space(sf.a_z)):
                if v.weight != d_x:
                    continue
                if v[0] or v[1]:
                    with_them = True
                else:
                    without_them = True
            assert with_them and without_them


def row_mixed(M: BitMat, rng: random.Random) -> BitMat:
    """The same row space from sums of rows, shuffled: never reduced already."""
    rows = M.row_ints()
    for _ in range(2 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return BitMat.from_ints(M.ncols, rows)


class TestOneSweepPerBlock:
    """Each block is eliminated once and its reduction reused: rank, null
    space and stabilizer membership all read the one ``RowSpace``.  A sweep
    is an ``_eliminate`` call whose output differs from its input, so the
    reduced rows passing through its shortcut do not count."""

    @pytest.fixture
    def sweeps(self, blocks, monkeypatch):
        counts = Counter()
        real = gf2._eliminate

        def counting(rows, ncols):
            out = real(rows, ncols)
            if out[0] != list(rows):
                counts[tuple(rows)] += 1
            return out

        monkeypatch.setattr(gf2, "_eliminate", counting)
        return counts

    @pytest.fixture
    def blocks(self):
        sf = subdual_css(6)
        rng = random.Random(6)
        return row_mixed(sf.a_x, rng), row_mixed(sf.a_z, rng)

    def test_distances_sweep_each_block_once(self, blocks, sweeps):
        a_x, a_z = blocks
        rep = css_distances(a_x, a_z)
        assert (rep.d_z, rep.d_x, rep.method_z, rep.method_x) == (3, 31, "weight", "coset")
        assert sweeps == Counter({tuple(a_x.row_ints()): 1, tuple(a_z.row_ints()): 1})

    def test_standard_form_sweeps_each_block_at_most_twice(self, blocks, sweeps):
        a_x, a_z = blocks
        css_standard_form(a_x, a_z)
        assert set(sweeps) == {tuple(a_x.row_ints()), tuple(a_z.row_ints())}
        assert max(sweeps.values()) <= 2


def every_support_weight_search(check: BitMat, stabilizers: gf2.RowSpace, cap: int):
    """Oracle: try every support of each weight up to ``cap`` in
    lexicographic order; the first null vector outside the stabilizers."""
    n = check.ncols
    cols = check.column_ints()
    for w in range(1, min(cap, n) + 1):
        for support in itertools.combinations(range(n), w):
            syndrome = 0
            bits = 0
            for j in support:
                syndrome ^= cols[j]
                bits |= 1 << j
            if syndrome == 0 and not stabilizers.contains(bits):
                return w, BitVec(n, bits)
    return None


class TestWeightSearchAgainstEverySupport:
    """The last column of each support is one lookup; the witness must be the
    lexicographically first one the full support walk finds."""

    def test_random_checks(self):
        rng = random.Random(8)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(1, 12)
            nrows = rng.randint(1, 5)
            # Few distinct column values, so zero and repeated columns are common.
            palette = [0] + [rng.randrange(1, 1 << nrows) for _ in range(rng.randint(1, 4))]
            cols = [rng.choice(palette) for _ in range(n)]
            check = BitMat.from_ints(
                n, [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(nrows)])
            # Sums of random rows or of null vectors, so some stabilizers hide
            # null supports the search must pass over.
            if rng.random() < 0.5:
                basis = null_space(check).row_ints()
            else:
                basis = [rng.getrandbits(n) for _ in range(4)]
            rows = []
            for _ in range(rng.randint(0, 4)):
                acc = 0
                for r in basis:
                    acc ^= r if rng.random() < 0.5 else 0
                rows.append(acc)
            stabilizers = gf2.RowSpace(BitMat.from_ints(n, rows))
            cap = rng.randint(1, n + 1)
            got = _min_logical_weight_search(check, stabilizers, cap)
            assert got == every_support_weight_search(check, stabilizers, cap)
            unguarded = every_support_weight_search(check, gf2.RowSpace(BitMat.zero(0, n)), cap)
            outcomes["none" if got is None else "found"] += 1
            outcomes["hidden"] += got != unguarded
        assert min(outcomes["none"], outcomes["found"], outcomes["hidden"]) > 0

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_family_blocks(self, m):
        sf = subdual_css(m)
        for check, other in ((sf.a_x, sf.a_z), (sf.a_z, sf.a_x)):
            stabilizers = gf2.RowSpace(other)
            cap = 3 if check is sf.a_x else 4
            got = _min_logical_weight_search(check, stabilizers, cap)
            assert got == every_support_weight_search(check, stabilizers, cap)


class TestZDistanceFloor:
    def test_hamming_family(self):
        for m in (3, 4, 5):
            out = z_distance_floor(hamming_parity_check(m))
            assert out.distance_at_least_3
            # the weight-2 column equals the sum of the first two identity
            # columns, giving the canonical triple
            assert out.triple == (0, 1, m)

    def test_duplicate_columns(self):
        assert not z_distance_floor(bitmat(["110", "110"])).distance_at_least_3

    def test_zero_column(self):
        assert not z_distance_floor(bitmat(["10", "10"])).distance_at_least_3

    def test_minimal_two_row_matrix(self):
        out = z_distance_floor(minimal_korth_matrix(1))
        assert out.distance_at_least_3
        assert out.triple == (0, 1, 2)

    def test_no_triple_when_independent(self):
        out = z_distance_floor(BitMat.identity(4))
        assert out.distance_at_least_3
        assert out.triple is None

    def test_triple_recheck(self):
        for m in (3, 4):
            H = hamming_parity_check(m)
            i, j, k = z_distance_floor(H).triple
            assert (H.column(i) ^ H.column(j) ^ H.column(k)).is_zero()
