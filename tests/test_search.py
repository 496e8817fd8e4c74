import hashlib
import itertools
import json
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

    def test_budget_marks_incomplete(self):
        rep = minimality_search(
            SearchSpace(k=2, m_range=(3, 4, 5), n_max=6, budget_subsets=50)
        )
        assert not rep.complete
        assert any(b.skipped == "budget exhausted" for b in rep.boxes)

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

    @pytest.mark.parametrize("k,m,n_max,prune,cap", [
        # The first three-column block of the (4, 4) box holds C(14, 3) = 364
        # subsets: caps one short of it, on it, and one past it.
        (1, 4, 5, "none", 362),
        (1, 4, 5, "none", 363),
        (1, 4, 5, "none", 364),
        (2, 4, 8, "none", 4_000),
        (1, 4, 9, "orbit", 150),
        (3, 4, 10, "orbit", 400),
        # At m=6, C(63, 3) and C(57, 3) pass the table bound: two-column tails.
        (1, 6, 6, "none", 20_000),
        (1, 6, 9, "orbit", None),
    ])
    def test_scan_order_and_caps_match_one_matrix_at_a_time(self, k, m, n_max, prune, cap):
        rep = minimality_search(
            SearchSpace(k=k, m_range=(m,), n_max=n_max, budget_subsets=cap), prune=prune)
        used = 0
        for b in rep.boxes[m - 1:]:
            if cap is not None and used > cap:
                assert b.skipped == "budget exhausted" and not b.complete
                continue
            total = math.comb((1 << m) - 1 - (m if prune == "orbit" else 0),
                              b.n - (m if prune == "orbit" else 0))
            visit = total if cap is None else min(total, cap - used + 1)
            used += visit
            hits, witnesses = _scan_order_prefix(m, b.n, k, prune, visit)
            assert b.subsets == visit
            assert b.hits == (len(witnesses) if b.mode == "slow" else hits)
            assert [w.columns for w in b.witnesses] == witnesses
            assert b.complete == (cap is None or used <= cap)
        assert rep.complete == (cap is None or used <= cap)

    def test_full_rank_count_small_boxes(self):
        for m in range(1, 5):
            for n in range(0, (1 << m) + 1):
                assert full_rank_count(m, n) == sum(1 for _ in enumerate_candidates(m, n))

    def test_subset_cap_stops_inside_a_fast_box(self):
        # The (5, 5) box visits all C(31, 5) = 169,911 subsets; the cap then
        # leaves 800,000 - 169,911 + 1 subsets for the (5, 6) box.
        rep = minimality_search(
            SearchSpace(k=2, m_range=(5,), n_max=6, budget_subsets=800_000)
        )
        box = next(b for b in rep.boxes if b.n == 6)
        assert box.mode == "fast"
        assert box.subsets == 630_090
        assert not box.complete
        assert not rep.complete

    # sha256 of the sorted-key JSON of the report dict without
    # `elapsed_seconds`: the cap cuts a slow box and a fast box.
    CAPPED_GOLDEN = {
        ((3, 4, 5), 50): "4a0e842c5ef103f1828e863ff595dd4eac2e815c6a110a3f48ad946e9fab1877",
        ((5,), 800_000): "c9ab9bc4bcd857a74615dc66c25e474cdd7493df8b3a763b31e45b1ff321f7a1",
    }

    @pytest.mark.parametrize("m_range,cap", sorted(CAPPED_GOLDEN), ids=lambda v: str(v))
    def test_capped_report_digest(self, m_range, cap):
        report = minimality_search(
            SearchSpace(k=2, m_range=m_range, n_max=6, budget_subsets=cap)
        ).to_dict()
        del report["elapsed_seconds"]
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.CAPPED_GOLDEN[m_range, cap]

    def test_negative_budgets_rejected(self):
        with pytest.raises(RangeError):
            SearchSpace(k=1, m_range=(2,), n_max=3, budget_subsets=-1)
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
        # The start, the deadline, one charge for each of the 8 boxes, the end.
        assert calls[0] <= 11

    def test_m8_capped_scan_builds_no_table_above_the_bound(self, monkeypatch):
        entries = []
        real = search._tail_table

        def recording(fps, s):
            table = real(fps, s)
            entries.append(sum(1 if isinstance(v, int) else len(v) for v in table.values()))
            return table

        monkeypatch.setattr(search, "_tail_table", recording)
        tracemalloc.start()
        try:
            rep = minimality_search(
                SearchSpace(k=3, m_range=(8,), n_max=12, budget_subsets=1_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.boxes[7].subsets == 1_001 and not rep.complete
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
            line = search._box_columns(m, k, prune, 12, search._Budget(None, None))[1]
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

    @pytest.mark.parametrize("k,m_range,n_max,prune,cap", [
        # k=3, m=5 under orbit: the (5, 8) box ends at 2,952 subsets; caps on
        # that boundary, one past it, and inside the (5, 9) box.
        (3, (5,), 12, "orbit", 2_952),
        (3, (5,), 12, "orbit", 2_953),
        (3, (5,), 12, "orbit", 10_000),
        # The (4, 8) box, from 15,808 subsets on, holds the 15 witnesses.
        (2, (4,), 8, "none", 15_808),
        (2, (4,), 8, "none", 15_809),
        (2, (4,), 8, "none", 19_000),
        # Hits in every box from n=5; the (4, 8) box ends at 562 subsets.
        (1, (4,), 12, "orbit", 562),
        (1, (4,), 12, "orbit", 563),
        (1, (4,), 12, "orbit", 800),
        (2, (3, 4), 6, "none", 50),
    ])
    def test_caps(self, k, m_range, n_max, prune, cap, monkeypatch):
        space = SearchSpace(k=k, m_range=m_range, n_max=n_max, budget_subsets=cap)
        _without_flat(monkeypatch)
        _force_engine(monkeypatch, True)
        linear = minimality_search(space, prune=prune)
        assert all(" linear engine" in e for e in linear.engines)
        assert not linear.complete
        _force_engine(monkeypatch, False)
        assert minimality_search(space, prune=prune).boxes == linear.boxes

    def test_benchmark_orbit_scan_takes_the_flat_engine(self):
        # Every box lies below the k=3 floor of 15 columns.
        rep = minimality_search(SearchSpace(k=3, m_range=(4, 5), n_max=14), prune="orbit")
        assert rep.engines == tuple(
            f"m={m}: flat engine for n <= 16 (RM({m - 4}, {m}) has minimum weight 16, "
            "met only by its 4-flats)" for m in (4, 5))

    def test_cap_keeps_the_walks_prefix_of_hits(self):
        # Inside the (4, 8) box the cap keeps some of its 15 witnesses.
        rep = minimality_search(
            SearchSpace(k=2, m_range=(4,), n_max=8, budget_subsets=19_000))
        box = rep.boxes[7]
        assert box.subsets == 19_000 - 15_808 + 1 and not box.complete
        assert 0 < len(box.witnesses) < 15


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
        line = search._box_columns(m, k, prune, m, search._Budget(None, None))[1]
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
    """Both budgets bound the engine choice and the linear engine's span."""

    @pytest.mark.parametrize("budget", [{"budget_seconds": 1.0}, {"budget_subsets": 1_000}])
    def test_m7_returns_promptly_and_incomplete(self, budget):
        # Above the k=1 floor: 2**120 solutions, and about 2**66 walk lookups
        # up to n = 17.
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
        # The sum stops once it reaches 2**D/4 or the cap's remaining subsets;
        # the engine must be the one the whole sum would pick.
        seen = []
        monkeypatch.setattr(search, "_choose_engine", lambda walk, dim: seen.append((walk, dim)))
        picks = []
        for m in range(2, 10):
            for k in range(1, m):
                for prune, n_max, cap in itertools.product(
                        ("none", "orbit"), {m, 1 << (m - 1), (1 << m) - 1}, (None, 10, 10**6)):
                    base = m if prune == "orbit" else 0
                    length = (1 << m) - 1 - base
                    frees = [n - base for n in range(m, n_max + 1) if not search._flat(n, k)]
                    if not frees:
                        continue
                    whole = sum(math.comb(length - s, free - s)
                                for free in frees for s in [search._tail_size(length, free)])
                    whole = whole if cap is None else min(whole, cap + 1)
                    search._box_columns(m, k, prune, n_max, search._Budget(None, cap))
                    walk, dim = seen.pop()
                    picks.append((1 << dim) // 4 <= whole)
                    assert ((1 << dim) // 4 <= walk) == picks[-1], (m, k, prune, n_max, cap)
        assert len(picks) > 300 and 0 < sum(picks) < len(picks)

    def test_m15_set_up_returns_promptly_and_incomplete(self):
        # The fingerprint table of 2**15 values is built before the first
        # deadline check, so it must take a fraction of the budget.
        start = time.monotonic()
        rep = minimality_search(SearchSpace(k=2, m_range=(15,), n_max=15, budget_seconds=0.2))
        assert time.monotonic() - start < 1.5
        assert not rep.complete

    def test_cap_bounds_the_walk_cost_and_skips_the_elimination(self):
        # Uncapped, the boxes above the floor (n = 9..12) take the linear engine.
        rep = minimality_search(SearchSpace(k=2, m_range=(5,), n_max=12, budget_subsets=10))
        assert rep.engines == (
            "m=5: flat engine for n <= 8 (RM(2, 5) has minimum weight 8, met only by "
            "its 3-flats); walk engine, D=16: 2**16/4 > 11 walk lookups",)
        assert not rep.complete

    def test_fingerprint_table_only_for_walked_boxes(self, monkeypatch):
        calls = []
        real = search.subset_parity_table

        def counting(m, k):
            calls.append((m, k))
            return real(m, k)

        monkeypatch.setattr(search, "subset_parity_table", counting)
        # An uncapped linear row count: its fingerprints are never built.
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
        # Caps that cut the last box after one subset, and that end on it.
        total = sum(b.subsets for b in flat.boxes)
        caps = [None, total - flat.boxes[-1].subsets, total - 1]
        flats = {cap: minimality_search(
            SearchSpace(k=k, m_range=(m,), n_max=n_max, budget_subsets=cap), prune=prune).boxes
            for cap in caps}
        _without_flat(monkeypatch)
        for linear in engines:
            _force_engine(monkeypatch, linear)
            for cap in caps:
                space = SearchSpace(k=k, m_range=(m,), n_max=n_max, budget_subsets=cap)
                assert minimality_search(space, prune=prune).boxes == flats[cap], (linear, cap)

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
