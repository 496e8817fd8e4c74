"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines directly.
"""

import math
import time
from contextlib import contextmanager

import prop_suites
from korth.distance import css_distances
from korth.families import minimal_korth_matrix, subdual_css
from korth.gates import (
    GateDescriptor,
    controlled_phase_action,
    logical_phase_action,
)
from korth.gf2 import null_space, rank
from korth.lemmas import phase_quantization_exponent
from korth.ortho import is_k_orthogonal
from korth.phases import DyadicPhase, DyadicPhaseVector
from korth.search import SearchSpace, minimality_search

MINIMAL_4x15 = [
    "111100001111000",
    "111010110010100",
    "110111010100010",
    "101111101000001",
]


@contextmanager
def criterion(num: int, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"criterion {num}: PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)")


def test_criterion_01_minimal_construction():
    with criterion(1, 1.0):
        M = minimal_korth_matrix(3)
        assert [str(r) for r in M.rows] == MINIMAL_4x15


def test_criterion_02_steane_emergence():
    with criterion(2, 1.0):
        sf = subdual_css(3)
        assert sf.n == 7
        assert is_k_orthogonal(sf.a_x, 2).holds
        assert not is_k_orthogonal(sf.a_x, 3).holds
        rep = css_distances(sf.a_x, sf.a_z)
        assert (rep.d_z, rep.d_x) == (3, 3)
        res = logical_phase_action(sf, DyadicPhaseVector.all_ones(7, 2))
        assert res.ok and res.phase == DyadicPhase(3, 2)  # 3*pi/2


def test_criterion_03_reed_muller_emergence():
    with criterion(3, 1.0):
        sf = subdual_css(4)
        assert sf.n == 15
        assert is_k_orthogonal(sf.a_x, 3).holds
        assert not is_k_orthogonal(sf.a_x, 4).holds
        rep = css_distances(sf.a_x, sf.a_z)
        assert (rep.d_z, rep.d_x) == (3, 7)
        res = logical_phase_action(sf, DyadicPhaseVector.all_ones(15, 3))
        assert res.ok and res.phase == DyadicPhase(7, 3)  # 7*pi/4, a T-type gate


def test_criterion_04_m5_family():
    with criterion(4, 5.0):
        sf = subdual_css(5)
        assert sf.n == 31
        assert is_k_orthogonal(sf.a_x, 4).holds
        res = logical_phase_action(sf, DyadicPhaseVector.all_ones(31, 4))
        assert res.ok
        # a pi/8-level gate: odd numerator over denominator 2**3
        assert res.phase == DyadicPhase(15, 4) and res.phase.k == 4
        # X distance 15 through the 2**6 = 64 element dual null space
        assert null_space(sf.a_z).nrows == 6
        rep = css_distances(sf.a_x, sf.a_z)
        assert rep.d_x == 15 and rep.method_x == "coset" and rep.exact_x


def test_criterion_05_minimality_k2():
    with criterion(5, 300.0):
        report = minimality_search(
            SearchSpace(k=2, m_range=(3, 4, 5, 6), n_max=6), prune="none"
        )
        assert report.complete
        assert not report.witnesses
        # all four row counts really were scanned
        scanned = {b.m for b in report.boxes if b.skipped is None}
        assert scanned == {3, 4, 5, 6}


def test_criterion_06_minimality_k3_m4():
    with criterion(6, 10.0):
        report = minimality_search(SearchSpace(k=3, m_range=(4,), n_max=14))
        assert report.complete
        assert not report.witnesses
        subsets = sum(b.subsets for b in report.boxes)
        # every column subset with 4 <= n <= 14 of the 15 nonzero vectors
        assert subsets == sum(math.comb(15, n) for n in range(4, 15))


def test_criterion_07_controlled_gate_ladder():
    with criterion(7, 1.0):
        sf = subdual_css(4)
        theta = DyadicPhaseVector.all_ones(15, 3)
        cs = controlled_phase_action(sf, GateDescriptor(controls=1, realized=theta))
        assert cs.passed and cs.non_clifford and cs.size_bound_ok
        ccz = controlled_phase_action(sf, GateDescriptor(controls=2, realized=theta))
        assert ccz.passed


def test_criterion_08_phase_quantization():
    with criterion(8, 1.0):
        for m in (3, 4, 5):
            assert phase_quantization_exponent(subdual_css(m)) == m - 2


def test_criterion_09_property_suites():
    with criterion(9, 120.0):
        counts = prop_suites.run_all()
        assert all(c >= 200 for c in counts.values())
        assert len(counts) == 6


def test_criterion_10_completeness_honesty():
    # The size floor for general row counts is not desk-certifiable; reports
    # must state exactly what was scanned and flag anything cut short.
    with criterion(10, 30.0):
        full = minimality_search(SearchSpace(k=2, m_range=(3,), n_max=6))
        assert full.complete
        assert all(
            b.skipped is not None or b.subsets > 0 for b in full.boxes
        )
        # A zero budget passes at the first box's clock check.
        cut = minimality_search(
            SearchSpace(k=2, m_range=(3, 4, 5), n_max=6, budget_seconds=0)
        )
        assert not cut.complete
        assert cut.to_dict()["complete"] is False
        reasons = [b.skipped for b in cut.boxes if b.skipped]
        assert any("budget" in r for r in reasons)


def test_criterion_11_minimality_k3_floor():
    # The paper's floor at desk scale: no full-rank 3-orthogonal matrix with
    # 4 to 6 rows and at most 15 distinct nonzero columns except the 15-qubit
    # Reed-Muller one, every nonzero column of four rows.
    with criterion(11, 10.0):
        report = minimality_search(
            SearchSpace(k=3, m_range=(4, 5, 6), n_max=15), prune="orbit"
        )
        assert report.complete
        assert [(w.m, w.n, w.columns) for w in report.witnesses] == [
            (4, 15, tuple(range(1, 16)))
        ]
