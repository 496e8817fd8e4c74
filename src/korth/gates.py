"""Exact verification and discovery of transversal diagonal logical gates.

All phase arithmetic happens on integer numerators modulo 2**k; a gate claim
is accepted only when every required congruence holds exactly, and failures
carry the violating string and residue.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from typing import Optional

from .codes import StandardFormCode, is_css, load_standard_form
from .errors import MAX_K, KorthError, RangeError, UnsupportedCodeError
from .gf2 import BitVec, span_ints
from .phases import DyadicPhase, DyadicPhaseVector, parse_phase_list
from .record import Record
from .report import SCHEMA, emit

__all__ = [
    "GateDescriptor",
    "PhaseActionResult",
    "PhaseSolutionSet",
    "ControlledPhaseReport",
    "logical_phase_action",
    "find_transversal_phases",
    "controlled_phase_action",
]


class PhaseActionResult(Record):
    """Outcome of checking a transversal phase vector against a code.

    ``ok`` means every codeword-support congruence held and ``phase`` is the
    induced logical phase; otherwise ``violation`` is a support string whose
    numerator sum leaves the nonzero ``residue`` modulo 2**k.
    """

    __slots__ = ("ok", "phase", "violation", "residue")
    _defaults = {"phase": None, "violation": None, "residue": None}


class GateDescriptor(Record):
    """A claimed transversal diagonal gate with ``controls`` control qubits.

    Every physical gate is a power of the single base phase P(pi/2**(k-1)),
    with the powers listed per qubit label in ``realized``; a gate on q
    controls targets P(p*pi/2**(k-q-1)).  ``logical_phase`` optionally
    records the logical target phase the realization claims to induce, which
    verification then confirms or refutes.
    """

    __slots__ = ("controls", "realized", "logical_phase")
    _defaults = {"logical_phase": None}

    def validate(self, n: int) -> None:
        if self.controls < 0:
            raise RangeError(f"control count must be nonnegative, got {self.controls}")
        if self.controls > self.realized.k - 1:
            raise RangeError(
                f"{self.controls} controls leave no target phase at base exponent "
                f"{self.realized.k}"
            )
        self.realized.check_length(n)


class PhaseSolutionSet(Record):
    """All phase vectors acting trivially on every codeword support.

    The set is a module over Z_{2**k}: each solution is a unique combination
    sum(t_j * generators[j]) with 0 <= t_j < orders[j].  The generators serve
    as particular solutions and carry their induced logical phases.
    """

    __slots__ = ("k", "n", "generators", "orders", "phases")

    def count(self) -> int:
        return math.prod(self.orders)


class ControlledPhaseReport(Record):
    """Verdict for a q-controlled transversal phase gate."""

    __slots__ = ("passed", "controls", "k", "induced_r", "non_clifford", "size_bound_ok",
                 "logical_numerator", "claim_ok", "witness_rows", "witness_residue",
                 "witness_modulus")
    _defaults = dict.fromkeys(__slots__[5:])  # None from size_bound_ok on


def logical_phase_action(
    sf: StandardFormCode, theta: DyadicPhaseVector
) -> PhaseActionResult:
    """Check that the phase vector fixes every logical-zero component and
    report the induced logical phase.

    Diagonal gates act on basis-state supports regardless of the codeword
    coefficients, so this applies to non-CSS standard forms as well.  The
    reported phase is sum(p_i * s_i) * pi/2**(k-1), the action picked up on
    the logical-one support.
    """
    theta.check_length(sf.n)
    q = theta.modulus
    for mask in span_ints(sf.a_x.row_ints()):
        residue = theta.masked_sum(mask) % q
        if residue:
            return PhaseActionResult(
                ok=False, violation=BitVec(sf.n, mask), residue=residue
            )
    return PhaseActionResult(
        ok=True, phase=DyadicPhase(theta.masked_sum(sf.s.bits), theta.k)
    )


def find_transversal_phases(sf: StandardFormCode, k: int) -> PhaseSolutionSet:
    """Solve for every phase vector passing :func:`logical_phase_action`.

    The congruences sum(x_i * p_i) = 0 mod 2**k over all codeword supports x
    form a linear system over the residue ring Z_{2**k}.  It is solved on one
    row 2**(|T|-1) * x_T per set T of 1..k check rows, x_T their AND: the XOR
    of rows b_i over S is the sum over nonempty T in S of (-2)**(|T|-1) * x_T,
    Moebius inversion gives the converse and terms with |T| > k vanish mod
    2**k, so both row sets span one module.  When the columns of A_X are the
    2**m - 1 nonzero points of GF(2)**m (the sub-dual family and every copy
    of it) the module has the closed-form basis of :func:`_moebius_basis`;
    any other code is solved by :mod:`korth.ring`, a diagonalization with
    odd-unit pivots (the ring is local, so minimum 2-adic valuation entries
    can always pivot).
    """
    if not 1 <= k <= MAX_K:
        raise RangeError(f"denominator exponent must be in 1..{MAX_K}, got {k}")
    n, m = sf.n, sf.a_x.nrows
    # The columns are the nonzero points when there are 2**m - 1 of them,
    # pairwise distinct and nonzero.
    if n == (1 << m) - 1 and len(set(columns := sf.a_x.column_ints()) - {0}) == n:
        gens = _moebius_basis(columns, m, k)
    else:
        from .ortho import row_products
        from .ring import _kernel_mod_power_of_two

        graded = ((acc, len(subset) - 1)
                  for subset, acc in row_products(sf.a_x.row_ints(), k, (1 << n) - 1))
        gens = _kernel_mod_power_of_two(graded, n, k)
    generators = tuple(vec for vec, _ in gens)
    orders = tuple(order for _, order in gens)
    phases = tuple(
        DyadicPhase(g.masked_sum(sf.s.bits), k) for g in generators
    )
    return PhaseSolutionSet(k, n, generators, orders, phases)


def _moebius_basis(columns: list[int], m: int, k: int) -> list[tuple[DyadicPhaseVector, int]]:
    """Generators (vector, additive order) of {p : A p = 0 mod 2**k} for the
    graded rows A of a code whose A_X columns x_j (bit i = row i's bit j)
    are the 2**m - 1 nonzero points of GF(2)**m.

    Graded row T is 2**(|T|-1) times the indicator of {x >= T}, and the zeta
    transform q_T = sum_{x >= T} p_x is unimodular over Z, with inverse
    p_x = sum_{U >= x} (-1)**(|U|-|x|) q_U (Moebius inversion on the subset
    lattice, Rota 1964).  So the solutions are the q with
    q_T = 0 mod 2**(k-|T|+1) for |T| <= k, and the basis pulls back
    q = 2**max(0, k-|U|+1) * e_U for each row set U, in (|U|, lexicographic)
    order: c_U is 2**a * (-1)**(|U|-|x_j|), a = max(0, k-|U|+1), at each
    qubit j with x_j <= U, and zero elsewhere, of order 2**min(|U|-1, k).
    Sets of one row give c_U = 0 and are left out.

    Entry 2**a has bit a alone and entry 2**k - 2**a has bits a..k-1, so
    bit plane a is c_U's support and planes a+1..k-1 hold its negative
    entries: the vectors are built from these masks without a check.
    """
    n, q = len(columns), 1 << k
    where = [0] * (n + 1)  # where[x]: the qubit whose column is x
    even, odd = [0] * (n + 1), [0] * (n + 1)  # qubits with x <= U and |x| even, odd
    for j, x in enumerate(columns):
        where[x] = j
        (odd if x.bit_count() & 1 else even)[x] = 1 << j
    for i in range(m):  # the subset sums, one row at a time
        bit = 1 << i
        for u in range(n + 1):
            if u & bit:
                even[u] |= even[u ^ bit]
                odd[u] |= odd[u ^ bit]
    base = [0] * n
    gens = []
    for t in range(2, m + 1):
        a = max(0, k - t + 1)
        plus, minus = 1 << a, q - (1 << a)
        for subset in combinations(range(m), t):
            u = sum(1 << i for i in subset)
            p = base.copy()
            x = u
            while x:  # every nonzero x <= u
                p[where[x]] = minus if (t - x.bit_count()) & 1 else plus
                x = (x - 1) & u
            negative = odd[u] if t % 2 == 0 else even[u]
            planes = (0,) * a + (even[u] | odd[u],) + (negative,) * (k - 1 - a)
            gens.append((DyadicPhaseVector._from_planes(k, tuple(p), planes), 1 << min(t - 1, k)))
    return gens


def _graded_violation(
    sf: StandardFormCode, theta: DyadicPhaseVector, controls: int
) -> Optional[tuple[tuple[int, ...], int, int, int]]:
    """The first t-fold product of check rows, in (t, lexicographic) order,
    whose phase exponents do not sum to zero modulo 2**(k - max(controls, t-1)),
    as (rows, product mask, residue, modulus); None when every one does.
    """
    from .ortho import row_products

    k = theta.k
    for subset, acc in row_products(sf.a_x.row_ints(), k, (1 << sf.n) - 1):
        modulus = 1 << (k - max(controls, len(subset) - 1))
        residue = theta.masked_sum(acc) % modulus
        if residue:
            return subset, acc, residue, modulus
    return None


def controlled_phase_action(
    sf: StandardFormCode, gate: GateDescriptor
) -> ControlledPhaseReport:
    """Certify a transversal controlled-phase gate with q controls.

    For every t up to the base exponent k, each t-fold product of check rows
    must sum its phase exponents to zero modulo 2**(k - max(q, t-1)).  The
    report carries the parity subset the exponents induce and, for
    non-Clifford gates, whether its size meets the 2**(k+1)-1 floor.
    """
    if not is_css(sf):
        raise UnsupportedCodeError(
            "controlled-phase verification acts across identically labelled "
            "qubits of CSS blocks; reduce to a CSS code first"
        )
    gate.validate(sf.n)
    theta = gate.realized
    k = theta.k
    q_ctrl = gate.controls
    r_induced = BitVec(sf.n, sum(theta.planes[:1]))  # bit plane 0: the odd exponents
    # The least 2-adic valuation among the exponents is the first nonzero plane.
    min_val = next((b for b, plane in enumerate(theta.planes) if plane), k)
    non_clifford = k - min_val >= 3
    violation = _graded_violation(sf, theta, q_ctrl)
    passed = violation is None
    wit_rows, _, wit_res, wit_mod = violation or (None,) * 4
    size_bound_ok = None
    if passed and non_clifford:
        size_bound_ok = r_induced.weight >= (1 << (k + 1)) - 1
    logical_numerator = None
    claim_ok = None
    if passed:
        logical_numerator = theta.masked_sum(sf.s.bits) % (1 << (k - q_ctrl))
        if gate.logical_phase is not None:
            claim_ok = gate.logical_phase == DyadicPhase(
                logical_numerator, k - q_ctrl
            )
    return ControlledPhaseReport(
        passed=passed,
        controls=q_ctrl,
        k=k,
        induced_r=r_induced,
        non_clifford=non_clifford,
        size_bound_ok=size_bound_ok,
        logical_numerator=logical_numerator,
        claim_ok=claim_ok,
        witness_rows=wit_rows,
        witness_residue=wit_res,
        witness_modulus=wit_mod,
    )


def cmd_find_gates(args) -> int:
    """``korth find-gates``."""
    sf = load_standard_form(args.code)
    sol = find_transversal_phases(sf, args.k)
    payload = {
        "schema": SCHEMA,
        "command": "find-gates",
        "k": sol.k,
        "modulus": 1 << sol.k,
        "count": sol.count(),
        "generators": [
            {
                "p": list(gen.p),
                "order": order,
                "logical_phase": str(phase),
            }
            for gen, order, phase in zip(sol.generators, sol.orders, sol.phases)
        ],
    }
    emit(payload, args.out)
    return 0


def cmd_verify_gate(args) -> int:
    """``korth verify-gate``: PASS or FAIL on stdout, exit 1 on FAIL."""
    sf = load_standard_form(args.code)
    if args.gate:
        try:
            with open(args.gate, encoding="utf-8") as f:
                spec = json.loads(f.read())
        except (ValueError, RecursionError) as exc:  # bad, too deeply nested or too long a number
            raise KorthError(str(exc)) from None
        need = "gate descriptor needs integer k, optional controls and a list p"
        try:
            k, controls, p = spec["k"], spec.get("controls", 0), spec["p"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise KorthError(f"{need}: {exc!r}") from None
        # JSON floats and booleans would otherwise truncate to other values.
        if not isinstance(p, list) or any(type(v) is not int for v in (k, controls, *p)):
            raise KorthError(f"{need} of integers, got k={k!r}, controls={controls!r}")
        theta = DyadicPhaseVector(k, tuple(p))
    else:
        if args.k is None or args.p is None:
            raise KorthError("verify-gate needs --gate FILE or both --k and --p")
        k = args.k
        controls = args.controls
        theta = parse_phase_list(args.p, sf.n, k)
    payload: dict = {
        "schema": SCHEMA,
        "command": "verify-gate",
        "k": k,
        "controls": controls,
    }
    if controls == 0:
        result = logical_phase_action(sf, theta)
        payload["pass"] = result.ok
        if result.ok:
            payload["logical_phase"] = str(result.phase)
            print(f"PASS: logical phase {result.phase}")
        else:
            payload["violation"] = str(result.violation)
            payload["residue"] = result.residue
            print(
                f"FAIL: support {result.violation} picks up residue "
                f"{result.residue} mod {1 << k}"
            )
    else:
        report = controlled_phase_action(
            sf, GateDescriptor(controls=controls, realized=theta)
        )
        payload["pass"] = report.passed
        payload["induced_r"] = str(report.induced_r)
        payload["non_clifford"] = report.non_clifford
        if report.passed:
            payload["logical_numerator"] = report.logical_numerator
            print(
                f"PASS: {controls}-controlled phase, logical numerator "
                f"{report.logical_numerator} mod {1 << (k - controls)}"
            )
        else:
            payload["witness_rows"] = list(report.witness_rows)
            payload["residue"] = report.witness_residue
            payload["modulus"] = report.witness_modulus
            print(
                f"FAIL: rows {list(report.witness_rows)} break the congruence "
                f"mod {report.witness_modulus}"
            )
    if args.out:
        emit(payload, args.out)
    return 0 if payload["pass"] else 1
