import math
import time
import types
from itertools import combinations

import pytest

from korth import search
from korth.errors import RangeError
from korth.gf2 import BitMat, null_space, rank
from korth.ortho import is_k_orthogonal
from korth.search import (
    MAX_BOXES, SearchSpace, full_rank_count, minimality_search, subset_parity_table,
)

from conftest import (engine_search, enumerate_candidates, kernel, sweep_rank, tail_table,
                      walk_hits, walk_lookups)


class TestEnumerateCandidates:
    def test_m2_n3_unique(self):
        cands = list(enumerate_candidates(2, 3))
        assert len(cands) == 1
        assert sorted(cands[0].column_ints()) == [1, 2, 3]

    def test_m3_n3_count(self):
        # 3-subsets of the 7 nonzero vectors that span: 35 total minus the
        # 7 subsets lying inside a 2-dimensional subspace
        assert sum(1 for _ in enumerate_candidates(3, 3)) == 28

    def test_counts_match_rank_filtered_binomials(self):
        from itertools import combinations

        from korth.gf2 import BitMat

        for m, n in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4)):
            brute = 0
            for cols in combinations(range(1, 1 << m), n):
                mat = BitMat.from_ints(
                    n,
                    [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m)],
                )
                if rank(mat) == m:
                    brute += 1
            assert sum(1 for _ in enumerate_candidates(m, n)) == brute
            assert brute <= math.comb((1 << m) - 1, n)

    def test_m_exceeds_n(self):
        assert list(enumerate_candidates(3, 2)) == []

    def test_all_full_rank_distinct_nonzero(self):
        for mat in enumerate_candidates(3, 4):
            assert rank(mat) == 3
            cols = mat.column_ints()
            assert 0 not in cols and len(set(cols)) == len(cols)


class TestRankAgainstOracles:
    """gf2.rank, which ranks each witness, against the closed-form count of
    full-rank subsets."""

    def test_full_rank_subsets_match_count(self):
        for m in range(1, 5):
            for n in range(0, 1 << m):
                found = sum(1 for c in combinations(range(1, 1 << m), n)
                            if rank(BitMat.from_columns(m, c)) == m)
                assert found == full_rank_count(m, n), (m, n)


class TestParityTable:
    def test_matches_direct_check(self, rng):
        from korth.gf2 import BitMat

        for m, k in ((3, 2), (4, 3), (4, 2)):
            table = subset_parity_table(m, k)
            for _ in range(40):
                n = rng.randint(m, min(10, (1 << m) - 1))
                cols = tuple(sorted(rng.sample(range(1, 1 << m), n)))
                acc = 0
                for c in cols:
                    acc ^= table[c]
                mat = BitMat.from_ints(
                    n,
                    [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m)],
                )
                assert (acc == 0) == is_k_orthogonal(mat, k).holds

    @pytest.mark.parametrize("m", range(9))
    def test_bit_layout(self, m):
        # Bit j of entry v is set exactly when the j-th row subset, in
        # (t, lexicographic) order, lies inside v's support: all zeros at
        # k = 0, and k = m + 1 gives the k = m table.
        for k in range(m + 2):
            masks = [sum(1 << i for i in subset)
                     for t in range(1, min(k, m) + 1) for subset in combinations(range(m), t)]
            assert subset_parity_table(m, k) == [
                sum(1 << j for j, mask in enumerate(masks) if v & mask == mask)
                for v in range(1 << m)]


class TestMinimalitySearch:
    def test_k1_below_floor(self):
        rep = minimality_search(SearchSpace(k=1, m_range=(2,), n_max=2))
        assert rep.complete
        assert not rep.witnesses

    def test_k1_finds_minimum_at_floor(self):
        rep = minimality_search(SearchSpace(k=1, m_range=(2,), n_max=3))
        assert [w.columns for w in rep.witnesses] == [(1, 2, 3)]
        assert rep.notes  # floor reached, witnesses expected

    def test_k2_small_boxes_clean(self):
        rep = minimality_search(SearchSpace(k=2, m_range=(3, 4), n_max=6))
        assert rep.complete
        assert not rep.witnesses
        scanned = [b for b in rep.boxes if b.skipped is None]
        assert all(b.mode == "slow" for b in scanned)
        for b in scanned:
            assert b.subsets == math.comb((1 << b.m) - 1, b.n)

    def test_k2_floor_witnesses_fast_and_slow_agree(self):
        # at n = 7 the unique m=3 candidate set is the full Hamming matrix
        rep_slow = minimality_search(SearchSpace(k=2, m_range=(3,), n_max=7))
        rep_orbit = minimality_search(
            SearchSpace(k=2, m_range=(3,), n_max=7), prune="orbit"
        )
        assert len(rep_slow.witnesses) == len(rep_orbit.witnesses) == 1
        assert rep_slow.witnesses[0].columns == rep_orbit.witnesses[0].columns

    def test_witnesses_reverify(self):
        rep = minimality_search(SearchSpace(k=2, m_range=(3,), n_max=7))
        for w in rep.witnesses:
            mat = w.matrix()
            assert rank(mat) == w.m
            assert is_k_orthogonal(mat, 2).holds
            cols = mat.column_ints()
            assert 0 not in cols and len(set(cols)) == len(cols)

    def test_skip_reasons_recorded(self):
        rep = minimality_search(SearchSpace(k=2, m_range=(2, 5), n_max=4))
        skipped = {(b.m, b.n): b.skipped for b in rep.boxes if b.skipped}
        assert any("m=2 <= k=2" in reason for reason in skipped.values())
        assert any("full rank impossible" in reason for reason in skipped.values())
        assert rep.complete  # rule-based skips are sound, not incompleteness

    def test_budget_marks_incomplete(self, monkeypatch):
        # Every box is flat and decided whole.  The start serves the first
        # box and each later one reads the clock once before it begins: the
        # deadline passes at the read before the (3, 5) box.
        _expire_after(monkeypatch, 3)
        rep = minimality_search(
            SearchSpace(k=2, m_range=(3, 4, 5), n_max=6, budget_seconds=1e9)
        )
        box = rep.boxes[3]
        assert (box.m, box.n, box.complete, box.subsets) == (3, 4, True, math.comb(7, 4))
        later = [b for b in rep.boxes[4:] if b.m <= b.n]
        assert len(later) == 7 and all(b.skipped == "budget exhausted" and not b.complete
                                       for b in later)
        assert not rep.complete

    def test_deadline_after_a_decided_box_skips_the_next(self, monkeypatch):
        # The (3, 7) box lists one witness and reads the clock before
        # verifying it (read 6); the deadline passes at the read before the
        # (4, 4) box.
        _expire_after(monkeypatch, 7)
        rep = minimality_search(
            SearchSpace(k=2, m_range=(3, 4), n_max=8, budget_seconds=1e9), prune="orbit")
        box = rep.boxes[6]
        assert (box.m, box.n, box.complete, box.subsets) == (3, 7, True, 1)
        assert [w.columns for w in box.witnesses] == [tuple(range(1, 8))]
        assert [b.skipped for b in rep.boxes[8 + 3:]] == ["budget exhausted"] * 5
        assert not rep.complete

    def test_deadline_cuts_the_witness_listing(self, monkeypatch):
        # The (4, 8) box lists 15 witnesses, reading the clock before each
        # from read 6 on: the deadline passes at the third.  The box keeps
        # the two it verified, and every subset was decided.
        _expire_after(monkeypatch, 8)
        rep = minimality_search(SearchSpace(k=2, m_range=(4,), n_max=8, budget_seconds=1e9))
        box = rep.boxes[-1]
        assert (box.m, box.n, box.complete, box.subsets) == (4, 8, False, math.comb(15, 8))
        assert box.mode == "slow" and box.hits == len(box.witnesses) == 2
        _, witnesses = _brute_force_box(4, 8, 2)
        assert set(w.columns for w in box.witnesses) < set(witnesses)
        assert not rep.complete

    def test_search_without_witnesses_reads_the_clock_once_per_box(self, monkeypatch):
        calls = _count_clock(monkeypatch)
        rep = minimality_search(
            SearchSpace(k=2, m_range=(5,), n_max=8, budget_seconds=1e9), prune="orbit")
        assert rep.complete and not rep.witnesses
        # The start, one read before each of the (5, 6..8) boxes, the end.
        assert calls[0] == 5

    def test_n_max_past_the_floor_rejected(self):
        # A counterexample to the floor 2**(k+1) - 1 has fewer columns.
        for k in range(1, 7):
            SearchSpace(k=k, m_range=(k + 2,), n_max=1 << (k + 1))
            with pytest.raises(RangeError, match=f"size floor {(1 << (k + 1)) - 1} "):
                SearchSpace(k=k, m_range=(k + 2,), n_max=(1 << (k + 1)) + 1)
        # The k range is checked first.
        with pytest.raises(RangeError, match="orthogonality level"):
            SearchSpace(k=10**12, m_range=(4,), n_max=10**20)

    def test_orbit_prune_counts(self):
        # with the identity anchored, the (3, 7) box has C(4, 4) = 1 subset
        rep = minimality_search(SearchSpace(k=2, m_range=(3,), n_max=7), prune="orbit")
        box = next(b for b in rep.boxes if b.n == 7)
        assert box.subsets == 1

    def test_report_dict_schema(self):
        rep = minimality_search(SearchSpace(k=1, m_range=(2,), n_max=3))
        d = rep.to_dict()
        assert d["schema"] == 1
        assert d["k"] == 1
        assert isinstance(d["boxes"], list)
        assert d["witnesses"][0]["columns"] == [1, 2, 3]

    def test_space_validation(self):
        with pytest.raises(RangeError):
            SearchSpace(k=0, m_range=(2,), n_max=3)
        with pytest.raises(RangeError):
            minimality_search(
                SearchSpace(k=1, m_range=(2,), n_max=2), prune="bogus"
            )


def _brute_force_box(m: int, n: int, k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Full-rank candidates and k-orthogonal witnesses, one matrix at a time."""
    count = 0
    witnesses = []
    for mat in enumerate_candidates(m, n):
        count += 1
        if is_k_orthogonal(mat, k).holds:
            witnesses.append(tuple(mat.column_ints()))
    return count, witnesses


def _box_one_matrix_at_a_time(m: int, n: int, k: int, prune: str):
    """The k-orthogonal subsets of a box and its full-rank witnesses in scan
    order (ascending combinations of the values left after the fixed
    columns), one matrix at a time."""
    base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
    values = [v for v in range(1, 1 << m) if v not in base]
    hits, witnesses = 0, []
    for free in combinations(values, n - len(base)):
        cols = tuple(sorted(base + free))
        if is_k_orthogonal(BitMat.from_columns(m, cols), k).holds:
            hits += 1
            if sweep_rank(cols) == m:
                witnesses.append(cols)
    return hits, witnesses


class TestSinglePathAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_and_witnesses(self, k):
        space = SearchSpace(k=k, m_range=(2, 3, 4), n_max=min(15, 1 << (k + 1)))
        brute = {}
        for prune in ("none", "orbit"):
            report = minimality_search(space, prune=prune)
            scanned = [b for b in report.boxes if b.skipped is None]
            assert scanned
            for b in scanned:
                if (b.m, b.n) not in brute:
                    brute[b.m, b.n] = _brute_force_box(b.m, b.n, k)
                candidates, witnesses = brute[b.m, b.n]
                if prune == "orbit":
                    base = {1 << i for i in range(b.m)}
                    witnesses = [w for w in witnesses if base <= set(w)]
                    assert b.mode == "fast-orbit"
                    assert b.subsets == math.comb((1 << b.m) - 1 - b.m, b.n - b.m)
                else:
                    assert b.mode == "slow"  # every m <= 4 box is small enough
                    assert b.candidates == candidates == full_rank_count(b.m, b.n)
                assert b.complete
                assert b.hits == len(witnesses)
                assert [w.columns for w in b.witnesses] == witnesses

    @pytest.mark.parametrize("k,m,n_max,prune,cut", [
        (1, 3, 4, "none", None),
        (1, 4, 4, "orbit", None),
        (2, 3, 7, "none", None),
        (2, 4, 8, "none", None),
        (3, 4, 10, "orbit", None),
        # The clock is read at the start, before each later box and before
        # each listed witness is verified: the (4, 8) box's 15 from read 6 on.
        (2, 4, 8, "none", 5),
        (2, 4, 8, "none", 6),
        (2, 4, 8, "none", 13),
        (2, 4, 8, "none", 20),
        (2, 4, 8, "none", 21),
        (2, 4, 8, "orbit", 6),
        (2, 4, 8, "orbit", 7),
    ])
    def test_scan_order_and_cuts_match_one_matrix_at_a_time(self, k, m, n_max, prune, cut,
                                                             monkeypatch):
        # A box decides every subset at once; a box the deadline (at clock
        # read ``cut``) cuts keeps the witnesses verified before it.
        if cut is not None:
            _expire_after(monkeypatch, cut)
        rep = minimality_search(SearchSpace(
            k=k, m_range=(m,), n_max=n_max, budget_seconds=None if cut is None else 1e9),
            prune=prune)
        base = m if prune == "orbit" else 0
        length = (1 << m) - 1 - base
        reads = 0
        for b in rep.boxes[m - 1:]:
            reads += 1  # the start serves the first box
            if b.skipped is not None:
                assert b.skipped == "budget exhausted" and not b.complete and reads >= cut
                continue
            hits, witnesses = _box_one_matrix_at_a_time(m, b.n, k, prune)
            verified = len(witnesses) if cut is None else min(len(witnesses), max(cut - reads - 1, 0))
            complete = verified == len(witnesses)
            reads += verified + (not complete)  # a cut box's last read found the deadline past
            assert b.subsets == math.comb(length, b.n - base)
            assert b.hits == (verified if b.mode == "slow" else hits)
            assert b.complete == complete
            kept = [w.columns for w in b.witnesses]
            assert len(kept) == verified and set(kept) <= set(witnesses)
            if b.complete:
                assert kept == witnesses
        assert rep.complete == (cut is None or reads < cut)

    def test_full_rank_count_small_boxes(self):
        for m in range(1, 5):
            for n in range(0, (1 << m) + 1):
                assert full_rank_count(m, n) == sum(1 for _ in enumerate_candidates(m, n))

    def test_negative_budgets_rejected(self):
        with pytest.raises(RangeError):
            SearchSpace(k=1, m_range=(2,), n_max=3, budget_seconds=-0.5)
        with pytest.raises(RangeError):
            SearchSpace(k=1, m_range=(2,), n_max=3, budget_seconds=float("nan"))

    @pytest.mark.parametrize("m_range", [(), (0,), (0, 1, 2), (-1, 3)])
    def test_empty_or_nonpositive_row_counts_rejected(self, m_range):
        with pytest.raises(RangeError, match="m_range"):
            SearchSpace(k=1, m_range=m_range, n_max=3)

    def test_n_max_beyond_the_largest_box_rejected(self):
        # Past 2**m - 1 columns every box is a skip, one per n up to n_max.
        SearchSpace(k=3, m_range=(4, 3), n_max=15)
        with pytest.raises(RangeError, match=r"n_max must be <= 2\*\*4-1"):
            SearchSpace(k=3, m_range=(4, 3), n_max=16)

    def test_more_boxes_than_a_report_lists_rejected(self):
        # (m_max - m_min + 1) * n_max boxes, read off a range without walking it.
        SearchSpace(k=12, m_range=range(14, 15), n_max=8192)
        SearchSpace(k=15, m_range=range(17, 19), n_max=MAX_BOXES // 2)
        with pytest.raises(RangeError, match=f"holds {MAX_BOXES + 2} \\(m, n\\) boxes, "
                                             f"more than the {MAX_BOXES} one run may list"):
            SearchSpace(k=15, m_range=range(17, 19), n_max=MAX_BOXES // 2 + 1)
        with pytest.raises(RangeError, match="holds 13999999999958 "):
            SearchSpace(k=3, m_range=range(4, 10**12 + 1), n_max=14)
        with pytest.raises(RangeError, match=f"holds {(10**30 - 3) * 14} "):  # len() overflows
            SearchSpace(k=3, m_range=range(4, 10**30 + 1), n_max=14)
        with pytest.raises(RangeError, match=f"holds {2**64 - 1} "):
            SearchSpace(k=64, m_range=range(64, 65), n_max=2**64 - 1)


def _count_clock(monkeypatch) -> list[int]:
    """Count the search's clock reads in the returned one-entry list."""
    calls = [0]

    def counting():
        calls[0] += 1
        return time.monotonic()

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=counting))
    return calls


def _expire_after(monkeypatch, reads: int) -> None:
    """Let the search's deadline pass at its ``reads``-th clock read under a
    budget of at least ``reads`` seconds: read i returns i before it, and a
    time past any such deadline from it on."""
    calls = [0]

    def ticking():
        calls[0] += 1
        return float(calls[0]) if calls[0] < reads else 1e300

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=ticking))


class TestClosedFormKernel:
    """The linear oracle engine's kernel in closed form against elimination of
    the fingerprint system [F | b]."""

    @pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 9) for k in range(1, m)])
    @pytest.mark.parametrize("prune", ["none", "orbit"])
    def test_matches_null_space(self, m, k, prune):
        base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
        values = [v for v in range(1, 1 << m) if v not in base]
        table = subset_parity_table(m, k)
        b = 0
        for v in base:
            b ^= table[v]
        rows = sum(math.comb(m, t) for t in range(1, k + 1))
        # Column j of [F | b] is values[j]'s fingerprint, column L is b: the
        # kernel holds (x, 0) for the homogeneous solutions and (x, 1) for the rest.
        length = len(values)
        oracle = null_space(BitMat.from_columns(rows, [table[v] for v in values] + [b])).row_ints()
        assert any(x >> length for x in oracle)  # F.x = b is solvable
        basis, particular = kernel(m, k, base)
        free = sum(1 << v for v in values)

        def by_index(x: int) -> int:
            """x, selecting values by bit v, as the oracle's bits by index."""
            assert x & ~free == 0  # only free values are selected
            return sum(1 << j for j, v in enumerate(values) if x >> v & 1)

        homogeneous = [by_index(x) for x in basis]
        assert len(basis) == len(oracle) - 1 == sweep_rank(homogeneous)
        assert sweep_rank(oracle + homogeneous) == len(oracle)  # the same span
        assert sweep_rank(oracle + [by_index(particular) | 1 << length]) == len(oracle)


class TestLinearEngineAgainstWalk:
    """The two oracle engines against each other, box by box, past the floor
    too, where boxes hold many more witnesses."""

    @pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 5) for m in range(k + 1, 6)])
    @pytest.mark.parametrize("prune", ["none", "orbit"])
    def test_every_box_to_m5(self, k, m, prune):
        if (k, m, prune) == (1, 5, "none"):
            # The linear engine would span 2**26 solutions: the walk's hits
            # against every n-subset's fingerprint XOR instead, up to n = 5.
            values = list(range(1, 32))
            table = subset_parity_table(5, 1)
            fps = [table[v] for v in values]
            for n in range(1, 6):
                visited, hits = walk_hits(values, fps, n, 0)
                assert visited == math.comb(31, n)
                assert hits == [tuple(values[i] for i in tail) for tail in tail_table(fps, n).get(0, [])]
            return
        # At m=5 the walk makes up to C(28, 7) lookups per box from n=10 on.
        n_max = min((1 << m) - 1, 12 if m < 5 else 10)
        # SearchSpace refuses an n_max past 2**(k+1).
        space = types.SimpleNamespace(k=k, m_range=(m,), n_max=n_max)
        assert engine_search(space, prune, True) == engine_search(space, prune, False)


def _flat_cases():
    """(k, m, prune, n_max) for every row count with a box to scan: all k at
    m <= 6, and k = 4 at m = 7 under orbit (D = 29 without it), each with
    n_max at the floor's bound 2**(k+1) or the last column value."""
    cases = [(k, m) for m in range(2, 7) for k in range(1, m) if m <= 1 << (k + 1)]
    for k, m in cases + [(4, 7)]:
        for prune in ("none", "orbit"):
            if (k, m, prune) == (4, 7, "none"):
                continue
            n_max = min(1 << (k + 1), (1 << m) - 1)
            if (k, m, prune) == (2, 6, "none"):
                n_max = 6  # the walk makes 6.0e6 lookups up to n = 8, and D = 42
            yield k, m, prune, n_max


class TestFlatEngine:
    """Boxes with n <= 2**(k+1) in closed form: the minimum-weight words of
    RM(m-k-1, m)."""

    @pytest.mark.parametrize("k,m,prune,n_max", list(_flat_cases()))
    def test_matches_the_walk_and_the_linear_engine(self, k, m, prune, n_max):
        base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
        frees = [n - len(base) for n in range(m, n_max + 1)]
        # Each oracle engine runs where it takes about a second at most.
        engines = [linear for linear, cheap in (
            (True, len(kernel(m, k, base)[0]) <= 22),
            (False, walk_lookups((1 << m) - 1 - len(base), frees) < 10**6),
        ) if cheap]
        assert engines == [True, False] or m > 4
        assert engines
        space = SearchSpace(k=k, m_range=(m,), n_max=n_max)
        flat = minimality_search(space, prune=prune)
        assert flat.complete and flat.engines[0].startswith(f"m={m}: flat engine for n <= ")
        for linear in engines:
            assert engine_search(space, prune, linear) == flat.boxes, linear

    def test_raw_hits_in_closed_form(self):
        # [5 choose 3]_2 = 155 subspaces at n = 7 and 3 * 155 flats off 0 at
        # n = 8; only m = k+2 = 4 has full-rank hits there: 15 witnesses.
        rep = minimality_search(SearchSpace(k=2, m_range=(4, 5), n_max=8))
        assert [(b.m, b.n, b.mode, b.hits, len(b.witnesses)) for b in rep.boxes if b.n >= 7] == [
            (4, 7, "slow", 0, 0), (4, 8, "slow", 15, 15),
            (5, 7, "fast", 155, 0), (5, 8, "fast", 465, 0)]

    @pytest.mark.parametrize("prune,witnesses", [
        ("orbit", {(4, 15): 1, (5, 16): 1}),
        ("none", {(4, 15): 1, (5, 16): 31}),
    ])
    def test_k3_floor_to_m14(self, prune, witnesses):
        # Every row count a full-rank matrix of at most 14 columns can have.
        rep = minimality_search(SearchSpace(k=3, m_range=tuple(range(4, 15)), n_max=16), prune=prune)
        assert rep.complete and rep.elapsed_seconds < 1
        assert {(b.m, b.n): len(b.witnesses) for b in rep.boxes if b.witnesses} == witnesses
        for w in rep.witnesses:
            assert sweep_rank(w.columns) == w.m and is_k_orthogonal(w.matrix(), 3).holds

    def test_all_flat_row_count_builds_nothing(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("built for a flat row count")

        for name in ("subset_parity_table", "_value_rows"):
            monkeypatch.setattr(search, name, unreachable)
        # 2**16 values and R = 39,202 fingerprint rows at k = 8.
        rep = minimality_search(SearchSpace(k=8, m_range=(16,), n_max=20, budget_seconds=3))
        assert rep.complete and not rep.witnesses and rep.elapsed_seconds < 1
        assert rep.engines == ("m=16: flat engine for n <= 512 (RM(7, 16) has minimum "
                               "weight 512, met only by its 9-flats)",)

    def test_benchmark_orbit_scan_takes_the_flat_engine(self):
        # Every box lies below the k=3 floor of 15 columns.
        rep = minimality_search(SearchSpace(k=3, m_range=(4, 5), n_max=14), prune="orbit")
        assert rep.engines == tuple(
            f"m={m}: flat engine for n <= 16 (RM({m - 4}, {m}) has minimum weight 16, "
            "met only by its 4-flats)" for m in (4, 5))

    def test_witness_listing_obeys_the_deadline(self):
        # The (10, 512) box lists 1,023 witnesses of 512 columns, which take
        # about 1.6 s to verify; the boxes before it take about 0.05 s.
        rep = minimality_search(SearchSpace(k=8, m_range=(10,), n_max=512, budget_seconds=0.3))
        assert rep.elapsed_seconds < 0.3 + 0.2 and not rep.complete
        box = rep.boxes[-1]
        assert (box.n, box.complete, box.subsets) == (512, False, math.comb(1023, 512))
        assert len(box.witnesses) < 1023
        for w in box.witnesses:
            assert is_k_orthogonal(w.matrix(), 8).holds
