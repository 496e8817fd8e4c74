"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: ranks and
null spaces are recomputed with numpy elimination or a plain sweep, the
minimality scan is checked against brute-force candidate enumeration and
against the fingerprint walk and the linear span engine, and code states are simulated as sparse amplitude maps so stabilizer and gate
claims can be checked against actual quantum states.
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
from functools import reduce
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest

from korth.codes import PauliOp, StabilizerCode, StandardFormCode, css_standard_form
from korth.gates import PhaseSolutionSet
from korth.errors import RangeError
from korth.gf2 import BitMat, BitVec, null_space, span_ints
from korth.ortho import is_k_orthogonal, row_products
from korth.phases import DyadicPhaseVector
from korth.search import (
    _EXACT_COUNT_LIMIT, BoxResult, SearchSpace, SearchWitness, _skip_reason, _value_rows,
    full_rank_count, subset_parity_table,
)

# ---------------------------------------------------------------------------
# small helpers the library itself does not need


def mat_from_rows(rows: Sequence[BitVec]) -> BitMat:
    """A matrix from a nonempty list of equal-length rows."""
    if not rows:
        raise ValueError("cannot infer column count from an empty row list")
    return BitMat(rows[0].n, tuple(rows))


def bitmat(rows: Sequence[str]) -> BitMat:
    """A matrix from its row strings, position 0 leftmost."""
    return mat_from_rows([BitVec.from_string(r) for r in rows])


def mul_vec(M: BitMat, v: BitVec) -> BitVec:
    """Matrix-vector product over GF(2); entry i = parity of row_i . v."""
    assert v.n == M.ncols
    bits = 0
    for i, r in enumerate(M.rows):
        bits |= ((r.bits & v.bits).bit_count() & 1) << i
    return BitVec(M.nrows, bits)


def span_enumerate(M: BitMat) -> list[BitVec]:
    """All XOR combinations of the rows, in the order of ``span_ints``.

    Yields 2**nrows entries; when the rows are dependent each span element
    appears 2**(nrows - rank) times, so pass an independent basis if distinct
    values are wanted.
    """
    return [BitVec(M.ncols, v) for v in span_ints(M.row_ints())]


def covered_columns_count(M: BitMat, q: int) -> int:
    """Number of columns with at least one 1 among the first ``q`` rows."""
    if not 1 <= q <= M.nrows:
        raise RangeError(f"q={q} outside 1..{M.nrows}")
    acc = 0
    for r in M.rows[:q]:
        acc |= r.bits
    return acc.bit_count()


def max_orthogonality(a_x: BitMat) -> int:
    """Largest level at which ``a_x`` certifies as k-orthogonal, capped at
    the row count (subset checks above it are vacuous): one less than the
    size of the first row subset whose product has odd weight."""
    for subset, acc in row_products(a_x.row_ints(), a_x.nrows, (1 << a_x.ncols) - 1):
        if acc.bit_count() & 1:
            return len(subset) - 1
    return a_x.nrows


def frame_conjugate(sf: StandardFormCode, op: PauliOp) -> PauliOp:
    """Map an input-frame Pauli into the frame of ``sf``: conjugation by the
    recorded X, S-rotation and Z masks, in that order."""
    return (
        op.conjugated_by_x(sf.local_x_mask.bits)
        .conjugated_by_s(sf.local_s_mask.bits)
        .conjugated_by_z(sf.local_z_mask.bits)
    )


def all_solutions(sol: PhaseSolutionSet) -> list[tuple[int, ...]]:
    """Every vector sum(t_j * generators[j]) mod 2**k, 0 <= t_j < orders[j];
    only sensible for tiny sets."""
    q = 1 << sol.k
    out = [(0,) * sol.n]
    for gen, order in zip(sol.generators, sol.orders):
        out = [
            tuple((b + t * g) % q for b, g in zip(base, gen.p))
            for base in out
            for t in range(order)
        ]
    return out


# ---------------------------------------------------------------------------
# the argparse parser the CLI used before its command table: the reference
# ``korth.cli.parse_args`` must agree with on every command line.  Each
# ``func`` is the handler's name, "module.function", as the table gives it.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korth",
        description="Stabilizer codes with transversal phase gates: "
        "construct, certify, measure, search.",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build the sub-dual CSS code for m check rows")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="write the JSON code descriptor here")
    p.add_argument("--ax", help="write A_X in matrix text format")
    p.add_argument("--az", help="write A_Z in matrix text format")
    p.set_defaults(func="families.cmd_construct")

    p = sub.add_parser("standard-form", help="reduce a JSON code to standard form")
    p.add_argument("--code", required=True)
    p.add_argument("--out")
    p.set_defaults(func="codes.cmd_standard_form")

    p = sub.add_parser("check-orth", help="certify k-orthogonality of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", help="restriction bit string (defaults to all ones)")
    p.add_argument("--out")
    p.set_defaults(func="ortho.cmd_check_orth")

    p = sub.add_parser("find-gates", help="solve for all transversal phase vectors")
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func="gates.cmd_find_gates")

    p = sub.add_parser("verify-gate", help="verify a transversal (controlled) phase gate")
    p.add_argument("--code", required=True)
    p.add_argument("--gate", help="JSON gate descriptor {k, controls, p}")
    p.add_argument("--k", type=int)
    p.add_argument("--p", help="'all-ones' or comma-separated exponents")
    p.add_argument("--controls", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func="gates.cmd_verify_gate")

    p = sub.add_parser("distance", help="exact CSS distances")
    p.add_argument("--code")
    p.add_argument("--ax")
    p.add_argument("--az")
    p.add_argument("--weight-cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func="distance.cmd_distance")

    p = sub.add_parser("search-min", help="exhaustive k-orthogonality minimality search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--prune", choices=("none", "orbit"), default="none")
    p.add_argument("--out")
    p.set_defaults(func="search.cmd_search_min")

    p = sub.add_parser("reduce-degenerate",
                       help="aggregate phases onto degeneracy class representatives")
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--out")
    p.set_defaults(func="degenerate.cmd_reduce_degenerate")
    return parser


# ---------------------------------------------------------------------------
# brute-force minimality oracle


def sweep_rank(vectors: Iterable[int]) -> int:
    """GF(2) rank of packed vectors by a plain sweep: each vector is reduced
    by the basis vector sharing its top bit until it is kept or vanishes."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def enumerate_candidates(m: int, n: int) -> Iterator[BitMat]:
    """All full-rank m x n matrices with n distinct nonzero columns, as
    ascending combinations of the column values 1..2**m-1."""
    for cols in combinations(range(1, 1 << m), n):
        if sweep_rank(cols) == m:
            yield BitMat.from_columns(m, cols)

# ---------------------------------------------------------------------------
# the fingerprint walk and the linear span engine: oracles for the search's
# closed-form flat engine.  A column subset is k-orthogonal exactly when its
# fingerprints (``subset_parity_table``) XOR to zero: with the fixed columns'
# XOR b, F.x = b over GF(2) for x its indicator over the free values.


def tail_table(fps: list[int], s: int) -> dict[int, list[tuple[int, ...]]]:
    """Map each XOR of ``s`` fingerprints to the index tuples producing it, in
    lexicographic order."""
    table: dict[int, list[tuple[int, ...]]] = {}
    for tail in combinations(range(len(fps)), s):
        acc = 0
        for i in tail:
            acc ^= fps[i]
        table.setdefault(acc, []).append(tail)
    return table


def walk_lookups(length: int, frees: list[int]) -> int:
    """The walk's tail lookups over boxes of ``frees`` free columns of
    ``length`` values: one per prefix of free - s indices below length - s."""
    return sum(math.comb(length - s, free - s) for free in frees for s in [min(free, 3)])


def walk_hits(values: list[int], fps: list[int], n: int, acc: int) -> tuple[int, list[tuple[int, ...]]]:
    """The subsets visited and the hits among the n-subsets of ``values``, in
    lexicographic order: the fixed columns' fingerprint XOR is ``acc``, and a
    hit holds only the other columns.  Once s columns are left to choose, one
    lookup in the table of every XOR of s fingerprints (s <= 3) closes the
    block of every subset extending the prefix: a tail found there is a hit
    when its first index is in the block's range."""
    if n == 0:
        return 1, [()] if acc == 0 else []
    length, s = len(values), min(n, 3)
    table = tail_table(fps, s)
    visited, hits, chosen = 0, [], []

    def rec(indices: range, depth: int, acc: int) -> None:
        nonlocal visited
        if n - depth == s:
            # Hockey stick: C(length-1-i, s-1) summed over the range.
            visited += math.comb(length - indices.start, s) - math.comb(length - indices.stop, s)
            hits.extend(tuple(chosen) + tuple(values[i] for i in tail)
                        for tail in table.get(acc, ()) if tail[0] in indices)
            return
        for i in indices:
            chosen.append(values[i])
            rec(range(i + 1, length - n + depth + 2), depth + 1, acc ^ fps[i])
            chosen.pop()

    rec(range(length - n + 1), 0, acc)
    return visited, hits


def kernel(m: int, k: int, base: tuple[int, ...]) -> tuple[list[int], int]:
    """A basis of the x with F.x = 0 and one x with F.x = b, bit v of x selecting
    value v: the monomials x_U, |U| <= m-k-1 (x_U x_T has even weight
    2**(m - |T u U|) for 1 <= |T| <= k), and 0; with the identity columns fixed,
    the x_U, |U| >= 2, and 1 + x_0 + ... + x_{m-1}, which vanish on each e_i, and 1."""
    full = (1 << (1 << m)) - 2 - sum(1 << v for v in base)  # the free values
    # The m single rows come first.
    products = [acc for _, acc in row_products(_value_rows(m), m - k - 1, full)]
    if not base:
        return [full, *products], 0
    return products[m:] + [reduce(int.__xor__, products[:m], full)] * (m - k > 1), full


def engine_search(space: SearchSpace, prune: str, linear: bool) -> tuple[BoxResult, ...]:
    """The boxes ``minimality_search(space, prune)`` reports, each decided by
    the linear engine (the 2**D solutions of F.x = b from ``kernel``, kept by
    weight) or by the walk instead of in closed form, with every hit ranked
    by ``sweep_rank`` and every full-rank one re-verified.  No deadline.
    ``space`` needs only ``k``, ``m_range`` and ``n_max``, so the two engines
    also run past the floor's bound that ``SearchSpace`` enforces."""
    k, boxes = space.k, []
    for m in space.m_range:
        base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
        values = [v for v in range(1, 1 << m) if v not in base]
        length, solutions, fps = len(values), None, None
        for n in range(1, space.n_max + 1):
            reason = _skip_reason(m, n, k)
            if reason is not None:
                boxes.append(BoxResult(m=m, n=n, skipped=reason, mode="skip"))
                continue
            free = n - len(base)
            if linear:
                if solutions is None:
                    basis, particular = kernel(m, k, base)
                    solutions = {size - len(base): [] for size in range(m, space.n_max + 1)}
                    for x in span_ints(basis):
                        x ^= particular
                        found = solutions.get(x.bit_count())
                        if found is not None:
                            found.append(x)
                hits = [tuple(v for v in values if x >> v & 1) for x in solutions[free]]
                subsets = math.comb(length, free)
            else:
                if fps is None:
                    table = subset_parity_table(m, k)
                    fps = [table[v] for v in values]
                # Each e_i has one fingerprint bit, {i}'s, bit i: base XORs to 2**len(base) - 1.
                subsets, hits = walk_hits(values, fps, free, (1 << len(base)) - 1)
            if prune == "orbit":
                mode, candidates = "fast-orbit", None
            elif math.comb(length, n) <= _EXACT_COUNT_LIMIT:
                mode, candidates = "slow", full_rank_count(m, n)
            else:
                mode, candidates = "fast", None
            ranked = [tuple(sorted(base + hit)) for hit in hits if sweep_rank(base + hit) == m]
            witnesses = sorted(c for c in ranked if is_k_orthogonal(BitMat.from_columns(m, c), k).holds)
            boxes.append(BoxResult(
                m=m, n=n, subsets=subsets, candidates=candidates,
                hits=len(ranked) if mode == "slow" else len(hits),
                witnesses=tuple(SearchWitness(m, n, c) for c in witnesses), mode=mode))
    return tuple(boxes)


# ---------------------------------------------------------------------------
# numpy GF(2) oracles


def np_matrix(M: BitMat) -> np.ndarray:
    return np.array([[r[j] for j in range(M.ncols)] for r in M.rows], dtype=np.uint8)


def oracle_rank(rows: np.ndarray) -> int:
    a = rows.copy() % 2
    m, n = a.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(m):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


def oracle_in_span(vec: np.ndarray, rows: np.ndarray) -> bool:
    if rows.size == 0:
        return not vec.any()
    stacked = np.vstack([rows, vec])
    return oracle_rank(stacked) == oracle_rank(rows)


def spans_equal(A: BitMat, B: BitMat) -> bool:
    a, b = np_matrix(A), np_matrix(B)
    if a.size == 0 and b.size == 0:
        return True
    ra, rb = oracle_rank(a), oracle_rank(b)
    if ra != rb:
        return False
    if a.size == 0 or b.size == 0:
        return ra == rb == 0
    return oracle_rank(np.vstack([a, b])) == ra


# ---------------------------------------------------------------------------
# sparse state-vector oracle


def sparse_logical_zero(sf: StandardFormCode) -> dict[int, complex]:
    from korth.lemmas import logical_zero_support

    state: dict[int, complex] = {}
    for vec, phase in logical_zero_support(sf):
        state[vec.bits] = state.get(vec.bits, 0) + phase
    return state


def apply_pauli(state: dict[int, complex], g: PauliOp) -> dict[int, complex]:
    out: dict[int, complex] = {}
    coeff = 1j ** g.i_exp
    for bits, amp in state.items():
        sign = -1 if (bits & g.z).bit_count() & 1 else 1
        key = bits ^ g.x
        out[key] = out.get(key, 0) + amp * coeff * sign
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


def apply_phases(state: dict[int, complex], theta: DyadicPhaseVector) -> dict[int, complex]:
    unit = cmath.pi / (1 << (theta.k - 1))
    return {
        bits: amp * cmath.exp(1j * unit * theta.masked_sum(bits))
        for bits, amp in state.items()
    }


def states_proportional(a: dict[int, complex], b: dict[int, complex]) -> complex | None:
    """The constant c with a == c*b, or None when not proportional."""
    if set(a) != set(b):
        return None
    ratio = None
    for key, amp in a.items():
        c = amp / b[key]
        if ratio is None:
            ratio = c
        elif abs(c - ratio) > 1e-9:
            return None
    return ratio


# ---------------------------------------------------------------------------
# reference codes


def five_qubit_code() -> StabilizerCode:
    return StabilizerCode(
        5,
        tuple(
            PauliOp.from_label(s)
            for s in ("+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ")
        ),
        logical_x=PauliOp.from_label("+XXXXX"),
        logical_z=PauliOp.from_label("+ZZZZZ"),
    )


def textbook_steane() -> StabilizerCode:
    """Steane's code with parity-check columns in binary counting order."""
    h = ["1010101", "0110011", "0001111"]
    gens = []
    for row in h:
        gens.append(PauliOp.from_label("+" + "".join("X" if c == "1" else "I" for c in row)))
    for row in h:
        gens.append(PauliOp.from_label("+" + "".join("Z" if c == "1" else "I" for c in row)))
    return StabilizerCode(
        7,
        tuple(gens),
        logical_x=PauliOp.from_label("+XXXXXXX"),
        logical_z=PauliOp.from_label("+ZZZZZZZ"),
    )


# ---------------------------------------------------------------------------
# randomized builders


def random_full_rank(rng: random.Random, m: int, n: int) -> BitMat:
    assert m <= n
    while True:
        mat = BitMat.from_ints(n, [rng.getrandbits(n) for _ in range(m)])
        from korth.gf2 import rank

        if rank(mat) == m:
            return mat


def random_css_sf(rng: random.Random, n: int, m: int) -> StandardFormCode:
    """A random one-logical-qubit CSS standard form with m X-check rows."""
    assert 1 <= m <= n - 1
    a_x = random_full_rank(rng, m, n)
    kernel = null_space(a_x)
    rows = list(kernel.rows)
    rng.shuffle(rows)
    a_z = mat_from_rows(rows[: n - 1 - m]) if n - 1 - m else BitMat.zero(0, n)
    return css_standard_form(a_x, a_z)


def random_one_qubit_code(rng: random.Random, n: int) -> StabilizerCode:
    """A random [[n, 1]] stabilizer code, by symplectic Gram-Schmidt: random
    vectors (x | z << n), each cleared against the pairs found so far, give n
    hyperbolic pairs (e, f); the first n - 1 e's are the generators, with
    random signs, and the last pair is the logical Z and X (dropped half the
    time)."""
    mask = (1 << n) - 1

    def form(u: int, v: int) -> int:
        return ((u & v >> n) ^ (u >> n & v)).bit_count() & 1

    def cleared(v: int) -> int:
        for e, f in pairs:
            v ^= (e if form(v, f) else 0) ^ (f if form(v, e) else 0)
        return v

    pairs: list[tuple[int, int]] = []
    while len(pairs) < n:
        e = cleared(rng.getrandbits(2 * n))
        if e:
            f = 0
            while not form(e, f):
                f = cleared(rng.getrandbits(2 * n))
            pairs.append((e, f))

    def signed(v: int) -> PauliOp:
        return PauliOp(n, v & mask, v >> n, (v & mask & v >> n).bit_count() + 2 * rng.randint(0, 1))

    gens = tuple(signed(e) for e, _ in pairs[:-1])
    if rng.random() < 0.5:
        return StabilizerCode(n, gens)
    lz, lx = pairs[-1]
    return StabilizerCode(n, gens, logical_x=signed(lx), logical_z=signed(lz))


def scrambled(code: StabilizerCode, rng: random.Random,
              sign_flips: bool = True, drop_logicals: bool = False,
              s_mask: int = 0, permute_qubits: bool = False) -> StabilizerCode:
    """Mix, reorder, sign-flip, and optionally S-conjugate a code's generators;
    optionally relabel its qubits by a random permutation."""
    gens = list(code.generators)
    for _ in range(2 * len(gens)):
        i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
        if i != j:
            gens[i] = gens[i] * gens[j]
    if sign_flips:
        gens = [
            PauliOp(g.n, g.x, g.z, g.i_exp + 2 * rng.randint(0, 1)) for g in gens
        ]
    lx, lz = code.logical_x, code.logical_z
    if s_mask:
        gens = [g.conjugated_by_s(s_mask) for g in gens]
        lx = lx.conjugated_by_s(s_mask) if lx else None
        lz = lz.conjugated_by_s(s_mask) if lz else None
    rng.shuffle(gens)
    if drop_logicals:
        lx = lz = None
    if permute_qubits:
        perm = list(range(code.n))
        rng.shuffle(perm)

        def relabel(g):
            if g is None:
                return None
            x = sum(((g.x >> i) & 1) << perm[i] for i in range(g.n))
            z = sum(((g.z >> i) & 1) << perm[i] for i in range(g.n))
            return PauliOp(g.n, x, z, g.i_exp)

        gens = [relabel(g) for g in gens]
        lx, lz = relabel(lx), relabel(lz)
    return StabilizerCode(code.n, tuple(gens), logical_x=lx, logical_z=lz)


# The six invertible 2x2 maps over GF(2), as (x, z) -> (x', z'): the actions
# of the single-qubit Cliffords (I, H, S, ...) on one qubit's Pauli axes.
_LOCAL_CLIFFORDS = (
    lambda x, z: (x, z), lambda x, z: (z, x), lambda x, z: (x, x ^ z),
    lambda x, z: (x ^ z, z), lambda x, z: (z, x ^ z), lambda x, z: (x ^ z, x),
)


def product_mixed(code: StabilizerCode, rng: random.Random) -> StabilizerCode:
    """The code's generators, reduced on X by the oracle and mixed by random
    exact pairwise products: half of the rows without X are hidden in a
    product with an X-bearing row, so the set holds pure-Z generators beside
    X-bearing ones whose products lose their X part, and X-bearing ones with
    Z content from both."""
    x_rows, z_rows = reference_pauli_reduce(code.generators, code.n)
    gens = x_rows + [z * rng.choice(x_rows) if x_rows and rng.random() < 0.5 else z
                     for z in z_rows]
    for _ in range(len(gens) if len(gens) > 1 else 0):
        i, j = rng.sample(range(len(gens)), 2)
        if gens[i].x or rng.random() < 0.3:
            gens[i] = gens[i] * gens[j]
    rng.shuffle(gens)
    return StabilizerCode(code.n, tuple(gens), code.logical_x, code.logical_z)


def rotated(code: StabilizerCode, rng: random.Random) -> StabilizerCode:
    """The code under a seeded single-qubit Clifford on every qubit: each
    qubit's (x, z) bits go through one of the six invertible maps, and each
    operator keeps its sign, so it stays Hermitian (and the group holds no -I,
    as the generators stay independent)."""
    maps = [rng.choice(_LOCAL_CLIFFORDS) for _ in range(code.n)]

    def rotate(g):
        if g is None:
            return None
        x = z = 0
        for i, f in enumerate(maps):
            xi, zi = f((g.x >> i) & 1, (g.z >> i) & 1)
            x |= xi << i
            z |= zi << i
        sign = (g.i_exp - (g.x & g.z).bit_count()) // 2 % 2
        return PauliOp(g.n, x, z, (x & z).bit_count() + 2 * sign)

    return StabilizerCode(code.n, tuple(map(rotate, code.generators)),
                          rotate(code.logical_x), rotate(code.logical_z))


def pauli_group_member(target: PauliOp, gens: list[PauliOp]) -> bool:
    """Exact (sign-included) membership of ``target`` in the generated group."""
    from korth.gf2 import solve

    n = target.n
    if not gens:
        return target.x == 0 and target.z == 0 and target.i_exp == 0
    mat = BitMat.from_ints(2 * n, [g.x | (g.z << n) for g in gens]).transpose()
    lam = solve(mat, BitVec(2 * n, target.x | (target.z << n)))
    if lam is None:
        return False
    acc = PauliOp(n, 0, 0, 0)
    for i, g in enumerate(gens):
        if lam[i]:
            acc = acc * g
    return acc == target


def groups_equal(a: list[PauliOp], b: list[PauliOp]) -> bool:
    return all(pauli_group_member(g, b) for g in a) and all(
        pauli_group_member(g, a) for g in b
    )


def reference_pauli_reduce(gens: Sequence[PauliOp], n: int) -> tuple[list[PauliOp], list[PauliOp]]:
    """RREF on the X parts of Pauli rows, one exact Pauli product at a time:
    the pivot rows, then the rest (no X part, phase-only rows kept).  Each
    pivot column is the lowest X bit left in the unpivoted rows."""
    xs = [g.x for g in gens]
    zs = [g.z for g in gens]
    es = [g.i_exp for g in gens]
    row_idx = 0
    while True:
        left = 0
        for x in xs[row_idx:]:
            left |= x
        if not left:
            break
        mask = left & -left
        pivot = next(i for i in range(row_idx, len(xs)) if xs[i] & mask)
        for field in (xs, zs, es):
            field[row_idx], field[pivot] = field[pivot], field[row_idx]
        px, pz, pe = xs[row_idx], zs[row_idx], es[row_idx]
        for i in range(len(xs)):
            if i != row_idx and xs[i] & mask:
                # (i**e_i X_i Z_i)(i**pe X_p Z_p): moving Z_i past X_p
                # contributes (-1)**|z_i & x_p|.
                es[i] += pe + 2 * (zs[i] & px).bit_count()
                xs[i] ^= px
                zs[i] ^= pz
        row_idx += 1
    rows = [PauliOp(n, x, z, e) for x, z, e in zip(xs, zs, es)]
    return rows[:row_idx], rows[row_idx:]


def reference_pure_x_support(
    x_rows: list[PauliOp], z_block: BitMat, r: BitVec, n: int
) -> BitVec | None:
    """The pure-X logical support as standard form first solved for it: the
    particular solution of [B; A_Z; r] s = e_last (free columns zero), or
    None when no pure-X logical exists."""
    from korth.gf2 import solve

    rows = [g.z for g in x_rows] + z_block.row_ints() + [r.bits]
    rhs = BitVec.from_indices(len(rows), [len(rows) - 1])
    return solve(BitMat.from_ints(n, rows), rhs)


def reference_logical_x(sf: StandardFormCode) -> BitVec:
    """The logical X support of a code without a pure-X logical, derived as
    ``_derive_r`` first gave it: the first member of A_Z's kernel basis (free
    columns rising) outside A_X's span, reduced against A_X, plus every row
    of A_X."""
    a_x = sf.a_x.row_ints()
    for v in null_space(sf.a_z).row_ints():
        for row in a_x:  # A_X is reduced: each row alone on its lowest bit
            if v & row & -row:
                v ^= row
        if v:
            break
    for row in a_x:
        v ^= row
    return BitVec(sf.n, v)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
