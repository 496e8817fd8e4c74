import itertools
import math
import random
import time
import tracemalloc
import types
from itertools import combinations, islice

import numpy as np
import pytest

from korth import search
from korth.errors import RangeError
from korth.gf2 import BitMat, null_space, rank
from korth.ortho import is_k_orthogonal
from korth.search import SearchSpace, full_rank_count, minimality_search, subset_parity_table

from conftest import enumerate_candidates, oracle_rank, sweep_rank


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
    """search._rank pivots on the lowest bit; the oracles pivot on the top bit
    (sweep_rank) and on the first column of a numpy matrix (oracle_rank)."""

    @staticmethod
    def _value_lists(count: int):
        rng = random.Random(20261018)
        for _ in range(count):
            m, length = rng.randint(1, 8), rng.randint(0, 20)
            values: list[int] = []
            for _ in range(length):
                pick = rng.random()
                if values and pick < 0.2:
                    values.append(rng.choice(values))  # a repeat
                elif len(values) > 1 and pick < 0.4:
                    a, b = rng.sample(values, 2)
                    values.append(a ^ b)  # dependent on earlier values
                elif pick < 0.45:
                    values.append(0)
                else:
                    values.append(rng.randrange(1 << m))
            yield m, tuple(values)

    def test_matches_sweep_and_numpy(self):
        for m, values in self._value_lists(5_000):
            got = search._rank(values)
            assert got == sweep_rank(values), values
            matrix = np.array([[v >> i & 1 for i in range(m)] for v in values],
                              dtype=np.uint8).reshape(len(values), m)
            assert got == oracle_rank(matrix), values

    def test_full_rank_subsets_match_count(self):
        for m in range(1, 5):
            for n in range(0, 1 << m):
                found = sum(1 for c in combinations(range(1, 1 << m), n)
                            if search._rank(c) == m)
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
        # The linear engine decides the (4, 6) box whole, all C(11, 2)
        # subsets; the deadline passes at the read before the (4, 7) box.
        _expire_after(monkeypatch, 4)
        rep = minimality_search(
            SearchSpace(k=1, m_range=(4,), n_max=9, budget_seconds=1e9), prune="orbit")
        box = rep.boxes[5]
        assert (box.m, box.n, box.complete, box.subsets) == (4, 6, True, math.comb(11, 2))
        assert [b.skipped for b in rep.boxes[6:]] == ["budget exhausted"] * 3
        assert not rep.complete

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


def _scan_order_prefix(m: int, n: int, k: int, prune: str, visit: int):
    """The k-orthogonal subsets and full-rank witnesses among the first
    ``visit`` subsets of a box in scan order (ascending combinations of the
    values left after the fixed columns), one matrix at a time."""
    base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
    values = [v for v in range(1, 1 << m) if v not in base]
    hits, witnesses = 0, []
    for free in islice(combinations(values, n - len(base)), visit):
        cols = tuple(sorted(base + free))
        if is_k_orthogonal(BitMat.from_columns(m, cols), k).holds:
            hits += 1
            if sweep_rank(cols) == m:
                witnesses.append(cols)
    return hits, witnesses


def _walk_blocks(length: int, free: int):
    """The sizes of the walk's blocks over ``free`` of ``length`` values, in
    scan order: one per prefix of free - s indices below length - s, holding
    every subset that extends it."""
    s = search._tail_size(length, free)
    for prefix in combinations(range(length - s), free - s):
        yield math.comb(length - 1 - prefix[-1], s) if prefix else math.comb(length, s)


class TestSinglePathAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_and_witnesses(self, k):
        # k=1 tails share XORs.  Boxes with at most three free columns close
        # in one lookup at depth 0.
        space = SearchSpace(k=k, m_range=(2, 3, 4), n_max=15)
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
        # The clock is read at the start, once per walk block and once per
        # box.  The (4, 5) box's blocks of three columns read it from read 3
        # on: cuts after one and two blocks, and inside the (4, 6) box.
        (1, 4, 5, "none", None),
        (1, 4, 5, "none", 3),
        (1, 4, 5, "none", 4),
        (1, 4, 6, "none", 100),
        (2, 4, 8, "none", None),
        # The linear engine decides its boxes whole.
        (1, 4, 9, "orbit", None),
        (1, 4, 9, "orbit", 4),
        (3, 4, 10, "orbit", None),
        # Seven blocks into the (5, 9) box.
        (1, 5, 9, "orbit", 15),
        # At m=6, C(63, 3) and C(57, 3) pass the table bound: two-column tails.
        (1, 6, 6, "none", 3),
        (1, 6, 9, "orbit", None),
    ])
    def test_scan_order_and_caps_match_one_matrix_at_a_time(self, k, m, n_max, prune, cut,
                                                               monkeypatch):
        # A box holds the hits and witnesses of the subsets it decided, in
        # scan order; a walked box the deadline (at clock read ``cut``)
        # cuts decided the whole blocks it closed.
        if cut is not None:
            _expire_after(monkeypatch, cut)
        rep = minimality_search(SearchSpace(
            k=k, m_range=(m,), n_max=n_max, budget_seconds=None if cut is None else 1e9),
            prune=prune)
        base = m if prune == "orbit" else 0
        length = (1 << m) - 1 - base
        reads = 1  # the start
        for b in rep.boxes[m - 1:]:
            if b.skipped is not None:
                assert b.skipped == "budget exhausted" and not b.complete and cut is not None
                continue
            free = b.n - base
            total = math.comb(length, free)
            walked = free and not search._flat(b.n, k) and "walk engine" in rep.engines[0]
            blocks = list(_walk_blocks(length, free)) if walked else []
            visit = total if b.complete or not walked else sum(blocks[:cut - reads])
            reads += len(blocks) + 1
            hits, witnesses = _scan_order_prefix(m, b.n, k, prune, visit)
            assert b.subsets == visit
            assert b.hits == (len(witnesses) if b.mode == "slow" else hits)
            assert [w.columns for w in b.witnesses] == witnesses
        assert rep.complete == (cut is None)

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
        SearchSpace(k=2, m_range=(4, 3), n_max=15)
        with pytest.raises(RangeError, match="n_max"):
            SearchSpace(k=2, m_range=(4, 3), n_max=16)


class TestTailLookup:
    """One table lookup closes the last columns of each subset block."""

    def test_deadline_checked_once_per_block(self, monkeypatch):
        calls = 0

        def counting():
            nonlocal calls
            calls += 1
            return time.monotonic()

        monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=counting))
        rep = minimality_search(
            SearchSpace(k=3, m_range=(5,), n_max=12, budget_seconds=1e9), prune="orbit")
        assert rep.complete
        # Closing only the last column by lookup checked the clock 245,517 times.
        assert calls <= 245_517 // 10

    def test_walk_checks_deadline_once_per_block(self, monkeypatch):
        # The twin of the test above on row counts the walk still serves:
        # above the k=1 floor, so no box at m=5 is flat.
        calls = _count_clock(monkeypatch)
        rep = minimality_search(
            SearchSpace(k=1, m_range=(5,), n_max=6, budget_seconds=1e9), prune="none")
        assert rep.complete and rep.engines[0].startswith("m=5: walk engine")
        # One check per three-column block: 378 + 3,276 of them.  Closing only
        # the last column by lookup would check C(30, 4) + C(30, 5) = 169,911.
        assert 3_654 < calls[0] <= 169_911 // 10

    def test_linear_engine_reads_the_clock_per_box(self, monkeypatch):
        calls = _count_clock(monkeypatch)
        rep = minimality_search(
            SearchSpace(k=2, m_range=(5,), n_max=12, budget_seconds=1e9), prune="orbit")
        # The flat engine takes n <= 8, the linear engine n = 9..12.
        assert rep.complete and "; linear engine, D=11:" in rep.engines[0]
        # The start, one check after each of the 8 boxes, the end.
        assert calls[0] <= 10

    def test_m8_capped_scan_builds_no_table_above_the_bound(self, monkeypatch):
        entries = []
        real = search._tail_table

        def recording(fps, s):
            table = real(fps, s)
            entries.append(sum(1 if isinstance(v, int) else len(v) for v in table.values()))
            return table

        monkeypatch.setattr(search, "_tail_table", recording)
        # The start and the flat (8, 8) box read the clock once each: the
        # deadline passes at the second block of the (8, 9) box.
        _expire_after(monkeypatch, 4)
        tracemalloc.start()
        try:
            rep = minimality_search(
                SearchSpace(k=2, m_range=(8,), n_max=9, budget_seconds=1e9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.boxes[8].subsets == 247 + 246 and not rep.complete
        # C(255, 2) = 32,385 and C(255, 3) = 2,731,135 pass the bound: one column.
        assert entries == [255]
        assert peak < 2_000_000


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


def _force_engine(monkeypatch, linear: bool):
    """Make every row count take one engine, whatever the cost rule says."""
    monkeypatch.setattr(search, "_choose_engine", lambda *args: linear)


def _without_flat(monkeypatch):
    """Send the boxes the flat engine takes to the other two."""
    monkeypatch.setattr(search, "_flat", lambda n, k: False)


class TestLinearEngineAgainstWalk:
    """The linear engine against the walk as oracle, box by box."""

    @pytest.mark.parametrize("k,m", [(k, m) for k in range(1, 5) for m in range(k + 1, 6)])
    @pytest.mark.parametrize("prune", ["none", "orbit"])
    def test_every_box_to_m5(self, k, m, prune, monkeypatch):
        # At m=5 the walk makes up to C(28, 7) lookups per box from n=10 on.
        n_max = min((1 << m) - 1, 12 if m < 5 else 10)
        if (k, m) == (1, 5):
            # 2**26 / 4 against 11,698,194 walk lookups (2**21 / 4 against
            # 10,906 under orbit): the walk serves it, so nothing to compare.
            line = search._box_columns(m, k, prune, 12, None)[1]
            assert line.startswith("m=5: walk")
            return
        space = SearchSpace(k=k, m_range=(m,), n_max=n_max)
        _without_flat(monkeypatch)
        _force_engine(monkeypatch, True)
        linear = minimality_search(space, prune=prune)
        assert linear.engines[0].startswith(f"m={m}: linear")
        _force_engine(monkeypatch, False)
        walk = minimality_search(space, prune=prune)
        assert walk.engines[0].startswith(f"m={m}: walk")
        assert linear.boxes == walk.boxes

    def test_benchmark_orbit_scan_takes_the_flat_engine(self):
        # Every box lies below the k=3 floor of 15 columns.
        rep = minimality_search(SearchSpace(k=3, m_range=(4, 5), n_max=14), prune="orbit")
        assert rep.engines == tuple(
            f"m={m}: flat engine for n <= 16 (RM({m - 4}, {m}) has minimum weight 16, "
            "met only by its 4-flats)" for m in (4, 5))


class TestClosedFormKernel:
    """The linear engine's kernel in closed form against elimination of the
    fingerprint system [F | b] as oracle."""

    @pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 9) for k in range(1, m)])
    @pytest.mark.parametrize("prune", ["none", "orbit"])
    def test_matches_null_space(self, m, k, prune, monkeypatch):
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
        dims = []
        _without_flat(monkeypatch)
        monkeypatch.setattr(search, "_choose_engine", lambda walk, dim: dims.append(dim))
        line = search._box_columns(m, k, prune, m, None)[1]
        assert dims == [len(oracle) - 1] and f" D={len(oracle) - 1}:" in line

        kernel, particular = search._kernel(m, k, base)
        free = sum(1 << v for v in values)

        def by_index(x: int) -> int:
            """x, selecting values by bit v, as the oracle's bits by index."""
            assert x & ~free == 0  # only free values are selected
            return sum(1 << j for j, v in enumerate(values) if x >> v & 1)

        homogeneous = [by_index(x) for x in kernel]
        assert len(kernel) == len(oracle) - 1 == sweep_rank(homogeneous)
        assert sweep_rank(oracle + homogeneous) == len(oracle)  # the same span
        assert sweep_rank(oracle + [by_index(particular) | 1 << length]) == len(oracle)


class TestEngineBudgets:
    """The deadline bounds the linear engine's span and the walk's work."""

    @pytest.mark.parametrize("budget", [{"budget_seconds": 1.0}, {"budget_seconds": 0}])
    def test_m7_returns_promptly_and_incomplete(self, budget):
        # Above the k=1 floor: 2**120 solutions, and about 2**66 walk lookups
        # up to n = 17.  Even a zero budget decides the first block.
        start = time.monotonic()
        rep = minimality_search(SearchSpace(k=1, m_range=(7,), n_max=17, **budget))
        assert time.monotonic() - start < 10
        assert not rep.complete and rep.boxes[6].subsets > 0
        assert all(b.skipped == "budget exhausted" for b in rep.boxes[7:])

    def test_deadline_in_the_span_hands_over_to_the_walk(self):
        # 2**22 solutions take about a second: at the pace of the first
        # blocks, the span for the one box above the floor, n = 17, would
        # pass the deadline.
        rep = minimality_search(
            SearchSpace(k=3, m_range=(6,), n_max=17, budget_seconds=0.1))
        assert rep.engines == (
            "m=6: flat engine for n <= 16 (RM(2, 6) has minimum weight 16, met only by "
            "its 4-flats); walk engine, D=22: at least 2**22/4 walk lookups; "
            "the span would pass the deadline",)
        assert not rep.complete and rep.elapsed_seconds < 5

    def test_span_that_cannot_finish_leaves_the_budget_to_the_walk(self):
        # D = 4,083: 2**4067 blocks of 2**16 solutions.  Summing every walk
        # cost (12,269 binomials of up to 1,231 digits) left the walk 4,084
        # subsets and a 1,320-character engine line; the sum now stops at the
        # largest term, and each hit is ranked inside the walk's deadline.
        start = time.monotonic()
        rep = minimality_search(SearchSpace(k=1, m_range=(12,), n_max=4095, budget_seconds=1.0))
        assert time.monotonic() - start < 1.5
        assert rep.engines == ("m=12: walk engine, D=4083: at least 2**4083/4 walk lookups; "
                               "the span would pass the deadline",)
        assert not rep.complete and sum(b.subsets for b in rep.boxes) > 4_084

    def test_bounded_walk_sum_keeps_the_engine(self, monkeypatch):
        # The sum stops once it reaches 2**D/4; the engine must be the one
        # the whole sum would pick.
        seen = []
        monkeypatch.setattr(search, "_choose_engine", lambda walk, dim: seen.append((walk, dim)))
        picks = []
        for m in range(2, 10):
            for k in range(1, m):
                for prune, n_max in itertools.product(
                        ("none", "orbit"), {m, 1 << (m - 1), (1 << m) - 1}):
                    base = m if prune == "orbit" else 0
                    length = (1 << m) - 1 - base
                    frees = [n - base for n in range(m, n_max + 1) if not search._flat(n, k)]
                    if not frees:
                        continue
                    whole = sum(math.comb(length - s, free - s)
                                for free in frees for s in [search._tail_size(length, free)])
                    search._box_columns(m, k, prune, n_max, None)
                    walk, dim = seen.pop()
                    picks.append((1 << dim) // 4 <= whole)
                    assert ((1 << dim) // 4 <= walk) == picks[-1], (m, k, prune, n_max)
        assert len(picks) > 100 and 0 < sum(picks) < len(picks)

    def test_m15_set_up_returns_promptly_and_incomplete(self):
        # The fingerprint table of 2**15 values is built before the first
        # deadline check, so it must take a fraction of the budget.
        start = time.monotonic()
        rep = minimality_search(SearchSpace(k=2, m_range=(15,), n_max=15, budget_seconds=0.2))
        assert time.monotonic() - start < 1.5
        assert not rep.complete

    def test_witnesses_are_verified_inside_the_deadline(self):
        # The deadline passes in the (5, 7) box, where the walk keeps
        # thousands of witnesses a second: re-verified once the walk had
        # stopped, they kept the search running for 0.75-1.23 s.
        start = time.monotonic()
        rep = minimality_search(SearchSpace(k=1, m_range=(5,), n_max=9, budget_seconds=0.5))
        assert time.monotonic() - start < 0.5 + 0.2
        assert not rep.complete

    def test_fingerprint_table_only_for_walked_boxes(self, monkeypatch):
        calls = []
        real = search.subset_parity_table

        def counting(m, k):
            calls.append((m, k))
            return real(m, k)

        monkeypatch.setattr(search, "subset_parity_table", counting)
        # A linear row count: its fingerprints are never built.
        rep = minimality_search(SearchSpace(k=2, m_range=(5,), n_max=12), prune="orbit")
        assert rep.complete and "; linear engine" in rep.engines[0]
        assert calls == []
        # A walk row count builds its table once, for the first of its boxes.
        rep = minimality_search(SearchSpace(k=1, m_range=(5,), n_max=6))
        assert rep.complete and rep.engines[0].startswith("m=5: walk engine")
        assert calls == [(5, 1)]


def _flat_cases():
    """(k, m, prune, n_max) for every row count holding a flat box: all k at
    m <= 6, and k = 4 at m = 7 under orbit (D = 29 without it).  Up to m = 5,
    n_max goes one column past the flat boxes where there are more; at m = 6
    and 7 that box would cost every run a span of 2**22 solutions."""
    cases = [(k, m) for m in range(2, 7) for k in range(1, m) if m <= 1 << (k + 1)]
    for k, m in cases + [(4, 7)]:
        for prune in ("none", "orbit"):
            if (k, m, prune) == (4, 7, "none"):
                continue
            n_max = min((1 << (k + 1)) + (m <= 5), (1 << m) - 1)
            if (k, m, prune) == (2, 6, "none"):
                n_max = 6  # the walk makes 6.2e7 lookups up to n = 8
            yield k, m, prune, n_max


class TestFlatEngine:
    """Boxes with n <= 2**(k+1) in closed form: the minimum-weight words of
    RM(m-k-1, m)."""

    @pytest.mark.parametrize("k,m,prune,n_max", list(_flat_cases()))
    def test_matches_the_walk_and_the_linear_engine(self, k, m, prune, n_max, monkeypatch):
        base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
        frees = [n - len(base) for n in range(m, n_max + 1)]
        # Each oracle engine runs where it takes about a second at most.
        engines = [linear for linear, cheap in (
            (True, len(search._kernel(m, k, base)[0]) <= 22),
            (False, search._walk_lookups((1 << m) - 1 - len(base), frees, 10**6) < 10**6),
        ) if cheap]
        assert engines
        flat = minimality_search(SearchSpace(k=k, m_range=(m,), n_max=n_max), prune=prune)
        assert flat.complete and flat.engines[0].startswith(f"m={m}: flat engine for n <= ")
        _without_flat(monkeypatch)
        for linear in engines:
            _force_engine(monkeypatch, linear)
            space = SearchSpace(k=k, m_range=(m,), n_max=n_max)
            assert minimality_search(space, prune=prune).boxes == flat.boxes, linear

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

        for name in ("subset_parity_table", "_tail_table", "_kernel", "_walk_lookups"):
            monkeypatch.setattr(search, name, unreachable)
        # 2**16 values and R = 39,202 fingerprint rows at k = 8.
        rep = minimality_search(SearchSpace(k=8, m_range=(16,), n_max=20, budget_seconds=3))
        assert rep.complete and not rep.witnesses and rep.elapsed_seconds < 1
        assert rep.engines == ("m=16: flat engine for n <= 512 (RM(7, 16) has minimum "
                               "weight 512, met only by its 9-flats)",)
