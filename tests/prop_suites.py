"""Randomized property suites, shared by the unit tests and the acceptance
gate.  Every suite runs a fixed number of seeded cases and returns it."""

from __future__ import annotations

import itertools
import random

import numpy as np

from korth.codes import css_standard_form, to_standard_form
from korth.families import subdual_css
from korth.gates import find_transversal_phases, logical_phase_action
from korth.gf2 import BitMat, BitVec, and_product, null_space
from korth.ortho import is_k_orthogonal
from korth.phases import DyadicPhaseVector

from conftest import (covered_columns_count, frame_conjugate, groups_equal, mat_from_rows,
                      random_css_sf, random_full_rank, random_one_qubit_code, scrambled,
                      span_enumerate)

DEFAULT_SEED = 20240817


def multilinearity_parity(seed: int = DEFAULT_SEED, cases: int = 250) -> int:
    """weight((a+b).y) = weight(a.y) + weight(b.y) mod 2."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 40)
        a = BitVec(n, rng.getrandbits(n))
        b = BitVec(n, rng.getrandbits(n))
        y = BitVec(n, rng.getrandbits(n))
        lhs = and_product([a ^ b, y]).weight
        rhs = and_product([a, y]).weight + and_product([b, y]).weight
        assert (lhs - rhs) % 2 == 0
    return cases


def inclusion_exclusion_covered_columns(seed: int = DEFAULT_SEED, cases: int = 250) -> int:
    """Direct OR-scan column coverage equals the alternating subset sum."""
    rng = random.Random(seed + 1)
    for _ in range(cases):
        m = rng.randint(1, 6)
        n = rng.randint(1, 20)
        M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
        q = rng.randint(1, m)
        total = 0
        for t in range(1, q + 1):
            for idx in itertools.combinations(range(q), t):
                total += (-1) ** (t + 1) * and_product([M.rows[i] for i in idx]).weight
        assert covered_columns_count(M, q) == total
    return cases


def generator_vs_group_orthogonality(seed: int = DEFAULT_SEED, cases: int = 200) -> int:
    """The row-subset check agrees with brute force over the whole span."""
    rng = random.Random(seed + 2)
    for _ in range(cases):
        m = rng.randint(1, 4)
        n = rng.randint(m, 12)
        M = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
        k = rng.randint(1, 4)
        r = BitVec(n, rng.getrandbits(n)) if rng.random() < 0.5 else None
        fast = is_k_orthogonal(M, k, r).holds
        rr = BitVec.ones(n) if r is None else r
        span = span_enumerate(M)
        brute = True
        for t in range(1, k + 1):
            for combo in itertools.combinations_with_replacement(span, t):
                if and_product(list(combo) + [rr]).weight % 2:
                    brute = False
                    break
            if not brute:
                break
        assert fast == brute
    return cases


def standard_form_round_trip(seed: int = DEFAULT_SEED, cases: int = 200) -> int:
    """Reduction preserves the stabilizer group through the recorded frame,
    on scrambled CSS codes and on random one-qubit codes with n <= 8, every
    one of which reduces."""
    rng = random.Random(seed + 3)
    for case in range(cases):
        n = rng.randint(3, 9)
        m = rng.randint(1, n - 1)
        base_sf = random_css_sf(rng, n, m)
        base = base_sf.to_stabilizer_code()
        code = scrambled(
            base,
            rng,
            sign_flips=rng.random() < 0.7,
            drop_logicals=rng.random() < 0.5,
            s_mask=rng.getrandbits(n) if rng.random() < 0.4 else 0,
        )
        sf = _reduced_through_frame(code, case)
        # sign-consistent inputs require no frame change at all
        if all(g.i_exp == 0 for g in code.generators):
            assert sf.local_x_mask.is_zero() and sf.local_z_mask.is_zero()
    rng = random.Random(seed + 6)
    for case in range(cases):
        _reduced_through_frame(random_one_qubit_code(rng, rng.randint(1, 8)), case)
    return cases


def _reduced_through_frame(code, case: int):
    sf = to_standard_form(code)
    sf.validate()
    out = [sf.x_row_pauli(i) for i in range(sf.m)]
    out += [sf.z_row_pauli(j) for j in range(sf.a_z.nrows)]
    conj = [frame_conjugate(sf, g) for g in code.generators]
    assert groups_equal(conj, out), f"case {case}: group changed"
    return sf


def solver_vs_brute_force(seed: int = DEFAULT_SEED, cases: int = 200) -> int:
    """Kernel solver counts match full enumeration of all 4**7 vectors."""
    rng = random.Random(seed + 4)
    n = 7
    p4 = np.array(
        [[(v >> (2 * i)) & 3 for i in range(n)] for v in range(4 ** n)],
        dtype=np.int64,
    )
    p2 = np.array(
        [[(v >> i) & 1 for i in range(n)] for v in range(2 ** n)],
        dtype=np.int64,
    )
    for _ in range(cases):
        m = rng.randint(1, 3)
        sf = random_css_sf(rng, n, m)
        span = np.array(
            [[(x.bits >> j) & 1 for j in range(n)] for x in span_enumerate(sf.a_x)],
            dtype=np.int64,
        )
        k = rng.choice((1, 2))
        pool, q = (p2, 2) if k == 1 else (p4, 4)
        brute = int((((pool @ span.T) % q) == 0).all(axis=1).sum())
        sol = find_transversal_phases(sf, k)
        assert sol.count() == brute
        for gen in sol.generators:
            assert logical_phase_action(sf, gen).ok
    return cases


def degeneracy_reduction_equivalence(seed: int = DEFAULT_SEED, cases: int = 200) -> int:
    """Aggregated phases act identically on every codeword support."""
    from korth.degenerate import nondegenerate_reduction

    rng = random.Random(seed + 5)
    for _ in range(cases):
        m = rng.randint(1, 3)
        n0 = rng.randint(m, 5)
        base = random_full_rank(rng, m, n0)
        cols = base.column_ints()
        extra = rng.randint(1, 4)
        cols = cols + [rng.choice(cols) for _ in range(extra)]
        rng.shuffle(cols)
        n = len(cols)
        a_x = BitMat.from_ints(
            n, [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m)]
        )
        kernel = null_space(a_x)
        a_z = mat_from_rows(list(kernel.rows)[: n - 1 - m]) if n - 1 - m else BitMat.zero(0, n)
        sf = css_standard_form(a_x, a_z)
        k = rng.randint(1, 3)
        theta = DyadicPhaseVector(k, tuple(rng.randrange(1 << k) for _ in range(n)))
        view, reduced = nondegenerate_reduction(sf, theta)
        vals = view.a_x.column_ints()
        assert len(set(vals)) == len(vals)
        q = 1 << k
        for x in span_enumerate(sf.a_x):
            assert theta.masked_sum(x.bits) % q == reduced.masked_sum(x.bits) % q
        assert logical_phase_action(sf, theta).ok == logical_phase_action(sf, reduced).ok
    return cases


ALL_SUITES = (
    ("multilinearity parity identity", multilinearity_parity),
    ("inclusion-exclusion column count", inclusion_exclusion_covered_columns),
    ("generator-vs-group orthogonality", generator_vs_group_orthogonality),
    ("standard-form round trip", standard_form_round_trip),
    ("phase solver vs brute force", solver_vs_brute_force),
    ("degeneracy reduction equivalence", degeneracy_reduction_equivalence),
)


def run_all(seed: int = DEFAULT_SEED) -> dict[str, int]:
    return {name: fn(seed) for name, fn in ALL_SUITES}
