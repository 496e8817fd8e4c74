import cmath
import functools
import itertools
import math
import random
from collections import Counter

import pytest

from korth.codes import css_standard_form, is_css, to_standard_form
from korth.errors import RangeError, UnsupportedCodeError
from korth.families import hamming_parity_check, subdual_css
from korth import ring
from korth.gates import (
    ControlledPhaseReport,
    GateDescriptor,
    controlled_phase_action,
    find_transversal_phases,
    logical_phase_action,
)
from korth.gf2 import BitMat, BitVec, null_space, span_ints
from korth.lemmas import (
    CongruenceError, DegenerateCodeError, phase_quantization_exponent, verify_korth_necessity,
)
from korth.ortho import row_products
from korth.phases import DyadicPhase, DyadicPhaseVector

from conftest import (
    all_solutions,
    apply_pauli,
    bitmat,
    apply_phases,
    five_qubit_code,
    random_css_sf,
    scrambled,
    span_enumerate,
    sparse_logical_zero,
    states_proportional,
)


class TestDyadicPhase:
    def test_normalization(self):
        assert DyadicPhase(6, 3) == DyadicPhase(3, 2)
        assert DyadicPhase(4, 3) == DyadicPhase(1, 1)
        assert DyadicPhase(8, 3) == DyadicPhase(0, 1)
        assert DyadicPhase(-1, 2) == DyadicPhase(3, 2)

    def test_strings(self):
        assert str(DyadicPhase(0, 1)) == "0"
        assert str(DyadicPhase(1, 1)) == "pi"
        assert str(DyadicPhase(3, 2)) == "3pi/2"
        assert str(DyadicPhase(7, 3)) == "7pi/4"
        assert str(DyadicPhase(1, 3)) == "pi/4"

    def test_vector_reduction(self):
        v = DyadicPhaseVector(2, (5, -1, 4))
        assert v.p == (1, 3, 0)
        assert v.masked_sum(0b011) == 4


class TestLogicalPhaseAction:
    def test_subdual3_transversal_s(self):
        sf = subdual_css(3)
        res = logical_phase_action(sf, DyadicPhaseVector.all_ones(7, 2))
        assert res.ok
        assert res.phase == DyadicPhase(3, 2)

    def test_subdual4_transversal_t(self):
        sf = subdual_css(4)
        res = logical_phase_action(sf, DyadicPhaseVector.all_ones(15, 3))
        assert res.ok
        assert res.phase == DyadicPhase(7, 3)

    def test_zero_vector(self):
        sf = subdual_css(3)
        res = logical_phase_action(sf, DyadicPhaseVector.zeros(7, 4))
        assert res.ok and res.phase.is_zero()

    def test_violation_reports_witness(self):
        sf = subdual_css(3)
        theta = DyadicPhaseVector(2, (1,) + (0,) * 6)
        res = logical_phase_action(sf, theta)
        assert not res.ok
        assert theta.masked_sum(res.violation.bits) % 4 == res.residue != 0
        # the violating string really is a codeword support
        assert res.violation.bits in {v.bits for v in span_enumerate(sf.a_x)}

    def test_state_vector_oracle(self):
        from korth.codes import PauliOp

        # simulate the physical gates on the encoded states
        for m, k in ((3, 2), (4, 3)):
            sf = subdual_css(m)
            theta = DyadicPhaseVector.all_ones(sf.n, k)
            res = logical_phase_action(sf, theta)
            zero = sparse_logical_zero(sf)
            one = apply_pauli(zero, PauliOp(sf.n, sf.s.bits, 0, 0))
            assert states_proportional(apply_phases(zero, theta), zero) == pytest.approx(1)
            expected = cmath.exp(1j * cmath.pi * res.phase.numerator / (1 << (res.phase.k - 1)))
            assert states_proportional(apply_phases(one, theta), one) == pytest.approx(expected)

    def test_length_mismatch(self):
        sf = subdual_css(3)
        with pytest.raises(Exception):
            logical_phase_action(sf, DyadicPhaseVector.all_ones(8, 2))

    def test_k1_parities_match_logical_support(self):
        # at k=1 the solutions modulo 2 are exactly the Z-type logical or
        # stabilizer supports, i.e. the null space of the X checks
        sf = subdual_css(3)
        sol = find_transversal_phases(sf, 1)
        kernel = {v.bits for v in span_enumerate(null_space(sf.a_x))}
        got = {
            sum(b << i for i, b in enumerate(vec)) for vec in all_solutions(sol)
        }
        assert got == kernel


class TestPhaseQuantization:
    def test_subdual_family(self):
        for m in (3, 4, 5):
            assert phase_quantization_exponent(subdual_css(m)) == m - 2

    def test_two_row_code(self):
        # distinct nonzero columns with two check rows force multiples of pi
        a_x = hamming_parity_check(2)
        sf = css_standard_form(a_x, BitMat.zero(0, 3))
        assert phase_quantization_exponent(sf) == 0

    def test_degenerate_rejected(self):
        a_x = bitmat(["1100", "0011"])
        sf = css_standard_form(a_x, bitmat(["1111"]))
        with pytest.raises(DegenerateCodeError, match="nondegenerate_reduction"):
            phase_quantization_exponent(sf)


class TestFindTransversalPhases:
    def test_subdual4_contains_all_ones(self):
        sf = subdual_css(4)
        sol = find_transversal_phases(sf, 3)
        # membership via the defining congruences
        assert logical_phase_action(sf, DyadicPhaseVector.all_ones(15, 3)).ok
        # and expressibility: some generator combination hits all-ones
        assert sol.count() > 1
        phases = {str(p) for p in sol.phases}
        assert "7pi/4" in phases or any(not p.is_zero() for p in sol.phases)

    def test_round_trip(self):
        for m, k in ((3, 2), (4, 3)):
            sf = subdual_css(m)
            sol = find_transversal_phases(sf, k)
            for gen in sol.generators:
                assert logical_phase_action(sf, gen).ok

    def test_tiny_brute_force(self, rng):
        import numpy as np

        p_all = np.array(
            [[(v >> (2 * i)) & 3 for i in range(6)] for v in range(4 ** 6)],
            dtype=np.int64,
        )
        for _ in range(10):
            sf = random_css_sf(rng, 6, rng.randint(1, 3))
            span = np.array(
                [[(x.bits >> j) & 1 for j in range(6)] for x in span_enumerate(sf.a_x)],
                dtype=np.int64,
            )
            brute = int((((p_all @ span.T) % 4) == 0).all(axis=1).sum())
            sol = find_transversal_phases(sf, 2)
            assert sol.count() == brute

    def test_doubling_lifts(self):
        # twice any solution modulo 2**(k-1) solves modulo 2**k
        sf = subdual_css(3)
        sol = find_transversal_phases(sf, 2)
        for vec in all_solutions(sol):
            doubled = DyadicPhaseVector(3, tuple(2 * x for x in vec))
            assert logical_phase_action(sf, doubled).ok

    def test_k_range(self):
        with pytest.raises(RangeError):
            find_transversal_phases(subdual_css(3), 0)


def subdual_module(m: int, k: int) -> tuple[int, Counter]:
    """The exponent of the solution count and the orders above 1 of the
    transversal phases mod 2**k on a code whose A_X columns are the 2**m - 1
    nonzero points x.  Graded row T is 2**(|T|-1) times the indicator of
    {x >= T}, and the zeta transform q_T = sum_{x >= T} p_x is unimodular
    (Moebius inversion on the subset lattice), so the solutions are the
    q with q_T = 0 mod 2**(k-|T|+1) for 1 <= |T| <= k, and q_T free above."""
    n = (1 << m) - 1
    exponent = k * n - sum((k - t + 1) * math.comb(m, t) for t in range(1, min(k, m) + 1))
    orders = Counter({1 << k: n - sum(math.comb(m, t) for t in range(1, k + 1))})
    for t in range(2, min(k, m) + 1):
        orders[1 << (t - 1)] += math.comb(m, t)
    return exponent, +orders


def superset_sums(columns: list[int], m: int, p: tuple[int, ...], width: int) -> int:
    """The zeta transform q_T = sum of p_j over the columns x_j >= T, for
    every set T of the m check rows, as lane T, ``width`` bits wide, of one
    int (bit i of a column value x_j is row i's bit j).  ``width`` is a
    whole number of bytes."""
    size = width // 8
    lanes = bytearray(size << m)
    for x, value in zip(columns, p):
        lanes[size * x:size * (x + 1)] = value.to_bytes(size, "little")
    q = int.from_bytes(lanes, "little")
    for i in range(m):  # lane T gains lane T | {i}
        q += (q >> (width << i)) & _lanes_without(m, width)[i]
    return q


@functools.lru_cache(maxsize=None)
def _lanes_without(m: int, width: int) -> list[int]:
    """For each row i, the mask of the lanes T that do not hold i."""
    full = (1 << width) - 1
    return [sum(full << (width * t) for t in range(1 << m) if not t >> i & 1) for i in range(m)]


class TestSubdualClosedForm:
    """find-gates on codes whose A_X columns are the 2**m - 1 nonzero points:
    the sub-dual family, a qubit-permuted generator-scrambled copy and an
    S-conjugated (non-CSS) copy, whose standard forms change only the basis
    of A_X's row space.  It writes the Moebius basis without a solve, so its
    oracles are the closed form of the module and the solver fed the graded
    rows."""

    CASES = [(m, k) for m in range(3, 9) for k in range(1, m + 2)] + [(3, 64), (4, 64)]

    @staticmethod
    def codes(m: int, k: int) -> tuple:
        sf = subdual_css(m)
        base, rng = sf.to_stabilizer_code(), random.Random(100 * m + k)
        permuted = to_standard_form(scrambled(base, rng, permute_qubits=True))
        conjugated = to_standard_form(scrambled(base, rng, s_mask=rng.getrandbits(sf.n) | 1))
        assert not is_css(conjugated)
        return sf, permuted, conjugated

    @pytest.mark.parametrize("m, k", CASES + [(9, 3), (10, 3)])
    def test_count_and_orders(self, m, k):
        exponent, orders = subdual_module(m, k)
        for code in self.codes(m, k):
            sol = find_transversal_phases(code, k)
            assert sol.count() == 1 << exponent
            assert Counter(sol.orders) == orders

    @pytest.mark.parametrize("m, k", CASES + [(9, 3), (10, 3)])
    def test_generators_lie_in_the_moebius_module(self, m, k):
        # Every generator p has sum_{x >= T} p_x = 0 mod 2**(k-|T|+1) for
        # each set T of 1..min(k, m) check rows of its own code.
        width = (k + m + 8) // 8 * 8  # p_x < 2**k, so no lane carries into the next
        modulus = {t: (1 << (k - t + 1)) - 1 for t in range(1, min(k, m) + 1)}
        low = sum(modulus[t.bit_count()] << (width * t) for t in range(1, 1 << m)
                  if t.bit_count() in modulus)
        for code in self.codes(m, k):
            sol = find_transversal_phases(code, k)
            columns = code.a_x.column_ints()
            for vec in sol.generators:
                assert superset_sums(columns, m, vec.p, width) & low == 0, vec.p

    @pytest.mark.parametrize("m, k", CASES)
    def test_same_module_as_the_solver(self, m, k):
        # Each side's generators lie in the other's module, and the two
        # have one count and one multiset of orders.
        for code in self.codes(m, k):
            sol = find_transversal_phases(code, k)
            n, q = code.n, 1 << k
            masks, exponents = graded_rows(code.a_x.row_ints(), n, k)
            solver = ring._kernel_mod_power_of_two(zip(masks, exponents), n, k)
            assert sol.count() == math.prod(order for _, order in solver)
            assert sorted(sol.orders) == sorted(order for _, order in solver)
            for gen in sol.generators:
                assert all((gen.masked_sum(mask) << e) % q == 0
                           for mask, e in zip(masks, exponents))
            contains = moebius_span(code, sol.generators, k)
            assert all(contains(vec.p) for vec, _ in solver)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_generators_are_gates_built_as_checked(self, m):
        for k in sorted({1, 2, 3, m - 1, m, m + 1, 64}):
            for code in self.codes(m, k):
                sol = find_transversal_phases(code, k)
                for gen, order in zip(sol.generators, sol.orders):
                    checked = DyadicPhaseVector(k, gen.p)
                    assert (gen.k, gen.p, gen.planes) == (checked.k, checked.p, checked.planes)
                    low = min((x & -x).bit_length() - 1 for x in gen.p if x)
                    assert order == 1 << (k - low)
                    assert logical_phase_action(code, gen).ok

    def test_only_all_nonzero_points_skip_the_solver(self, monkeypatch, rng):
        solve = ring._kernel_mod_power_of_two
        calls = []
        monkeypatch.setattr(ring, "_kernel_mod_power_of_two",
                            lambda *args: calls.append(1) or solve(*args))
        for code in self.codes(4, 3):
            find_transversal_phases(code, 3)
        assert not calls
        repeated = [*range(1, 7), 6]  # n = 2**3 - 1, one column twice
        fewer = list(range(1, 15))  # 14 of the 15 nonzero points
        for m, columns in ((3, repeated), (4, fewer), (4, [*range(1, 15), 3])):
            code = css_from_columns(m, columns, rng)
            for k in (1, 3, m + 1):
                sol = find_transversal_phases(code, k)
                masks, exponents = graded_rows(code.a_x.row_ints(), code.n, k)
                expected = solve(zip(masks, exponents), code.n, k)
                assert [vec.p for vec in sol.generators] == [vec.p for vec, _ in expected]
                assert list(sol.orders) == [order for _, order in expected]
        assert len(calls) == 9


def css_from_columns(m: int, columns: list[int], rng: random.Random):
    """A CSS standard form with these A_X columns and one logical qubit."""
    a_x = BitMat.from_columns(m, columns)
    rows = list(null_space(a_x).rows)
    rng.shuffle(rows)
    return css_standard_form(a_x, BitMat(a_x.ncols, tuple(rows[: len(columns) - 1 - m])))


def moebius_span(code, generators, k: int):
    """A test of membership in the span of ``generators`` mod 2**k, generator
    i taken as c_U for the i-th set U of two or more check rows in (|U|,
    lexicographic) order.  c_U is zero at the qubit whose column is x unless
    x <= U, so peeling the generators off from the last, each at the qubit
    whose column is its U, leaves zero exactly when a vector is in the span.
    Vectors are packed in lanes of 2k + 1 bits, as the solver packs them."""
    m, n, q, width = code.a_x.nrows, code.n, 1 << k, 2 * k + 1
    where = {x: j for j, x in enumerate(code.a_x.column_ints())}
    sets = [sum(1 << i for i in subset)
            for t in range(2, m + 1) for subset in itertools.combinations(range(m), t)]
    assert len(sets) == len(generators)
    ones = sum(1 << (width * j) for j in range(n))

    def pack(p):
        return sum(x << (width * j) for j, x in enumerate(p))

    peel = [(width * where[u], vec.p[where[u]], ones * q - pack(vec.p))
            for u, vec in zip(sets, generators)][::-1]

    def contains(p) -> bool:
        rest = pack(p)
        for shift, scale, negated in peel:
            entry = (rest >> shift) & (q - 1)
            if entry % scale:
                return False
            rest = (rest + entry // scale * negated) & (ones * (q - 1))
        return rest == 0

    return contains


def packed_matches_dense(masks: list[int], n: int, k: int,
                         exponents: list[int] | None = None) -> None:
    """The packed solver equals the oracle on rows 2**exponents[i] * masks[i]
    (all exponents 0 when none are given)."""
    exponents = exponents or [0] * len(masks)
    rows = [[((mask >> j) & 1) << e for j in range(n)] for mask, e in zip(masks, exponents)]
    packed = ring._kernel_mod_power_of_two(zip(masks, exponents), n, k)
    assert [(vec.p, order) for vec, order in packed] == dense_kernel(rows, n, k)


def graded_rows(a_x: list[int], n: int, k: int) -> tuple[list[int], list[int]]:
    """The masks x_T and exponents |T| - 1 of the graded system, for every
    set T of 1..k rows of ``a_x``, in ``row_products`` order."""
    products = list(row_products(a_x, k, (1 << n) - 1))
    return [acc for _, acc in products], [len(subset) - 1 for subset, _ in products]


class TestPackedSolverAgainstDense:
    def test_random_systems(self, rng):
        for trial in range(400):
            k = rng.randint(1, 10)
            n = rng.randint(1, 48)
            if trial % 2:
                m = rng.randint(1, 6)  # k >= m in about half of these
                masks = list(span_ints([rng.getrandbits(n) for _ in range(m)]))
            else:
                masks = [rng.getrandbits(n) & rng.getrandbits(n)
                         for _ in range(rng.randint(1, 48))]
            packed_matches_dense(masks, n, k)

    @pytest.mark.parametrize("k", [1, 3, 4, 7, 8, 15, 16, 31, 32, 40])
    def test_every_lane_size(self, k, rng):
        # V's lanes are 1, 2, 4 or 8 bytes up to k = 31, whole bytes past it.
        for trial in range(12):
            n = rng.randint(1, 24)
            if trial % 2:
                masks = list(span_ints([rng.getrandbits(n) for _ in range(rng.randint(1, 5))]))
            else:
                masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 24))]
            packed_matches_dense(masks, n, k)
        masks = list(span_ints(subdual_css(4).a_x.row_ints()))
        packed_matches_dense(masks, 15, k)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_subdual_family_and_scrambled_copies(self, m, rng):
        canonical = subdual_css(m)
        copy = to_standard_form(
            scrambled(canonical.to_stabilizer_code(), rng, permute_qubits=True)
        )
        for sf in (canonical, copy):
            masks = list(span_ints(sf.a_x.row_ints()))
            for k in sorted({1, 2, 3, m - 1, m}):
                packed_matches_dense(masks, sf.n, k)

    def test_graded_rows_of_random_checks(self, rng):
        # Weighted rows 2**(|T|-1) * x_T, with exponents up to k - 1 at k = m + 2.
        for _ in range(150):
            m = rng.randint(1, 8)
            n = rng.randint(1, 20)
            k = rng.randint(1, m + 2)
            a_x = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(m)]
            masks, exponents = graded_rows(a_x, n, k)
            packed_matches_dense(masks, n, k, exponents)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 40])
    def test_graded_rows_of_the_subdual_family(self, k):
        for m in (3, 4, 5):
            a_x = subdual_css(m).a_x.row_ints()
            n = (1 << m) - 1
            masks, exponents = graded_rows(a_x, n, k)
            packed_matches_dense(masks, n, k, exponents)


class TestGradedSolveAgainstSpanSolve:
    """The graded system and the 2**m codeword supports have one solution
    module: the same count and orders, and each side's generators solve the
    other side's system."""

    @staticmethod
    def codes(rng):
        for m in (3, 4, 5, 6):
            canonical = subdual_css(m)
            yield canonical
            yield to_standard_form(
                scrambled(canonical.to_stabilizer_code(), rng, permute_qubits=True))
        for _ in range(8):
            n = rng.randint(3, 16)
            yield random_css_sf(rng, n, rng.randint(1, min(n - 1, 5)))

    def test_same_module(self, rng):
        for sf in self.codes(rng):
            a_x, n = sf.a_x.row_ints(), sf.n
            for k in range(1, sf.m + 2):
                q = 1 << k
                graded = find_transversal_phases(sf, k)
                span = ring._kernel_mod_power_of_two(
                    ((mask, 0) for mask in span_ints(a_x)), n, k)
                assert graded.count() == math.prod(order for _, order in span)
                assert sorted(graded.orders) == sorted(order for _, order in span)
                for gen in graded.generators:
                    assert logical_phase_action(sf, gen).ok
                masks, exponents = graded_rows(a_x, n, k)
                for vec, _ in span:
                    theta = DyadicPhaseVector(k, vec.p)
                    assert all((theta.masked_sum(mask) << e) % q == 0
                               for mask, e in zip(masks, exponents))


class TestExactPhaseVectors:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_solver_generators_match_checked_construction(self, m, rng):
        # The family takes the Moebius basis, the random code the solver.
        for sf, k in itertools.product((subdual_css(m), random_css_sf(rng, (1 << m) + 1, m)),
                                       sorted({1, 2, 3, m - 1, m, m + 1})):
            for gen in find_transversal_phases(sf, k).generators:
                checked = DyadicPhaseVector(k, gen.p)
                assert (gen.k, gen.p, gen.planes) == (checked.k, checked.p, checked.planes)
                for _ in range(8):
                    mask = rng.getrandbits(sf.n)
                    assert gen.masked_sum(mask) == checked.masked_sum(mask)

    @pytest.mark.parametrize("k", [1, 3, 4, 8, 9, 16, 31, 32, 40])
    def test_lanes_of_every_width_match_checked_construction(self, k, rng):
        # The solver's lanes are 1, 2, 4 or 8 bytes wide, or 2k + 8 bits past k = 31.
        size = next((b for b in (1, 2, 4, 8) if 8 * b > 2 * k), (2 * k + 8) // 8)
        for n in (1, 7, 20):
            p = tuple(rng.getrandbits(k) for _ in range(n))
            raw = b"".join(x.to_bytes(size, "little") for x in p)
            exact, checked = ring._exact(k, raw, size), DyadicPhaseVector(k, p)
            assert (exact.k, exact.p, exact.planes) == (checked.k, checked.p, checked.planes)

    def test_zero_vector_has_no_planes(self):
        assert ring._exact(3, bytes(2), 1).planes == DyadicPhaseVector(3, (0, 0)).planes == ()


class TestKorthNecessity:
    def test_subdual4(self):
        sf = subdual_css(4)
        rep = verify_korth_necessity(sf, DyadicPhaseVector.all_ones(15, 3))
        assert rep.holds and rep.level == 3

    def test_subdual3(self):
        sf = subdual_css(3)
        rep = verify_korth_necessity(sf, DyadicPhaseVector.all_ones(7, 2))
        assert rep.holds and rep.level == 2

    def test_restriction_is_parity_subset(self):
        sf = subdual_css(4)
        theta = DyadicPhaseVector(3, (1,) * 15)
        rep = verify_korth_necessity(sf, theta)
        assert rep.holds

    def test_zero_vector_precondition(self):
        sf = subdual_css(3)
        with pytest.raises(CongruenceError, match="even"):
            verify_korth_necessity(sf, DyadicPhaseVector.zeros(7, 2))

    def test_non_gate_precondition(self):
        sf = subdual_css(3)
        with pytest.raises(CongruenceError, match="not a transversal"):
            verify_korth_necessity(sf, DyadicPhaseVector(2, (1,) + (0,) * 6))


class TestControlledPhase:
    def test_controlled_s_on_subdual4(self):
        sf = subdual_css(4)
        rep = controlled_phase_action(
            sf, GateDescriptor(controls=1, realized=DyadicPhaseVector.all_ones(15, 3))
        )
        assert rep.passed and rep.non_clifford
        assert rep.induced_r == BitVec.ones(15)
        assert rep.size_bound_ok
        assert rep.logical_numerator == 15 % 4

    def test_ccz_type_on_subdual4(self):
        sf = subdual_css(4)
        rep = controlled_phase_action(
            sf, GateDescriptor(controls=2, realized=DyadicPhaseVector.all_ones(15, 3))
        )
        assert rep.passed
        assert rep.logical_numerator == 15 % 2

    def test_multi_block_state_oracle(self):
        # simulate the q+1 block gate on every logical basis combination
        sf = subdual_css(4)
        k = 3
        theta = DyadicPhaseVector.all_ones(15, k)
        zero = sparse_logical_zero(sf)
        from korth.codes import PauliOp

        one = apply_pauli(zero, PauliOp(sf.n, sf.s.bits, 0, 0))
        for q in (1, 2):
            rep = controlled_phase_action(
                sf, GateDescriptor(controls=q, realized=theta)
            )
            assert rep.passed
            unit = cmath.pi / (1 << (k - q - 1))
            for labels in itertools.product((0, 1), repeat=q + 1):
                blocks = [one if b else zero for b in labels]
                keys = [list(s.keys()) for s in blocks]
                ratio = None
                for combo in itertools.product(*keys):
                    acc = (1 << sf.n) - 1
                    for bits in combo:
                        acc &= bits
                    phase = cmath.exp(1j * unit * theta.masked_sum(acc))
                    if ratio is None:
                        ratio = phase
                    assert abs(phase - ratio) < 1e-9
                if all(labels):
                    expect = cmath.exp(1j * unit * rep.logical_numerator)
                    assert abs(ratio - expect) < 1e-9
                else:
                    assert abs(ratio - 1) < 1e-9

    def test_q0_reduces_to_phase_action(self, rng):
        # span-level verification agrees with the generator-subset ladder
        # (the zero-control case of the controlled check) up to m = 5
        for _ in range(40):
            n = rng.randint(4, 12)
            sf = random_css_sf(rng, n, rng.randint(1, min(5, n - 1)))
            k = rng.randint(1, 3)
            theta = DyadicPhaseVector(
                k, tuple(rng.randrange(1 << k) for _ in range(sf.n))
            )
            direct = logical_phase_action(sf, theta).ok
            via_controlled = controlled_phase_action(
                sf, GateDescriptor(controls=0, realized=theta)
            ).passed
            assert direct == via_controlled

    def test_non_css_rejected(self):
        sf = to_standard_form(five_qubit_code())
        with pytest.raises(UnsupportedCodeError):
            controlled_phase_action(
                sf, GateDescriptor(controls=1, realized=DyadicPhaseVector.all_ones(5, 3))
            )

    def test_controls_range(self):
        sf = subdual_css(3)
        with pytest.raises(RangeError):
            controlled_phase_action(
                sf, GateDescriptor(controls=2, realized=DyadicPhaseVector.all_ones(7, 2))
            )

    def test_clifford_flag_uses_effective_level(self):
        sf = subdual_css(4)
        doubled = DyadicPhaseVector(3, (2,) * 15)  # really an S-type vector
        rep = controlled_phase_action(sf, GateDescriptor(controls=1, realized=doubled))
        assert rep.passed and not rep.non_clifford

    def test_claimed_logical_phase_checked(self):
        sf = subdual_css(4)
        theta = DyadicPhaseVector.all_ones(15, 3)
        good = controlled_phase_action(
            sf,
            GateDescriptor(controls=1, realized=theta, logical_phase=DyadicPhase(3, 2)),
        )
        assert good.passed and good.claim_ok
        bad = controlled_phase_action(
            sf,
            GateDescriptor(controls=1, realized=theta, logical_phase=DyadicPhase(1, 2)),
        )
        assert bad.passed and bad.claim_ok is False


class TestRepetitionLaw:
    def test_verified_gates_square_to_z_or_identity(self):
        for m, k in ((3, 2), (4, 3), (5, 4)):
            sf = subdual_css(m)
            theta = DyadicPhaseVector.all_ones(sf.n, k)
            res = logical_phase_action(sf, theta)
            assert res.ok
            numerator = theta.masked_sum(sf.s.bits) % (1 << k)
            assert (numerator << (k - 1)) % (1 << k) in (0, 1 << (k - 1))


class TestTransversalCnot:
    def test_css_family(self):
        assert is_css(subdual_css(3))

    def test_five_qubit(self):
        assert not is_css(to_standard_form(five_qubit_code()))

    def test_trivial_code(self):
        sf = css_standard_form(
            BitMat.zero(0, 1), BitMat.zero(0, 1), BitVec.ones(1), BitVec.ones(1)
        )
        assert is_css(sf)


def dense_kernel(
    rows: list[list[int]], n: int, k: int
) -> list[tuple[tuple[int, ...], int]]:
    """Generators (vector, additive order) of {p : A p = 0 mod 2**k}.

    The list-of-lists diagonalisation, the oracle for the lane-packed
    ``ring._kernel_mod_power_of_two``: that solver makes the same pivot
    choices, so it must return exactly these generators.
    """
    q = 1 << k
    a = [[entry % q for entry in row] for row in rows]
    nr = len(a)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    piv_vals: list[int] = []
    r = 0
    while r < min(nr, n):
        best = None
        for i in range(r, nr):
            for j in range(r, n):
                entry = a[i][j]
                if entry:
                    val = (entry & -entry).bit_length() - 1
                    if best is None or val < best[0]:
                        best = (val, i, j)
                    if val == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        val, bi, bj = best
        a[r], a[bi] = a[bi], a[r]
        if bj != r:
            for row in a:
                row[r], row[bj] = row[bj], row[r]
            for row in v:
                row[r], row[bj] = row[bj], row[r]
        unit_inv = pow(a[r][r] >> val, -1, q)
        a[r] = [(x * unit_inv) % q for x in a[r]]
        for i in range(nr):
            if i != r and a[i][r]:
                factor = a[i][r] >> val
                a[i] = [(x - factor * y) % q for x, y in zip(a[i], a[r])]
        for j in range(r + 1, n):
            if a[r][j]:
                factor = a[r][j] >> val
                for i in range(nr):
                    a[i][j] = (a[i][j] - factor * a[i][r]) % q
                for i in range(n):
                    v[i][j] = (v[i][j] - factor * v[i][r]) % q
        piv_vals.append(val)
        r += 1
    gens: list[tuple[tuple[int, ...], int]] = []
    for i, val in enumerate(piv_vals):
        if val > 0:
            vec = tuple((v[t][i] << (k - val)) % q for t in range(n))
            gens.append((vec, 1 << val))
    for j in range(r, n):
        gens.append((tuple(v[t][j] % q for t in range(n)), q))
    return gens
