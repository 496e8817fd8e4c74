"""The paper's lemmas as library checks: logical-zero supports, the phase
quantization exponent, the orthogonality a verified phase gate forces, the
distance-3 floor of distinct columns, and column isolation.

No command runs them, so no command loads this module; the tests and library
callers import it.
"""

from __future__ import annotations

import itertools

from .codes import PauliOp, StandardFormCode
from .degenerate import degeneracy_classes
from .errors import KorthError, RangeError
from .gates import _graded_violation, logical_phase_action
from .gf2 import BitMat, BitVec, and_product
from .ortho import OrthogonalityReport, is_k_orthogonal
from .phases import DyadicPhaseVector
from .record import Record

__all__ = [
    "CongruenceError",
    "DegenerateCodeError",
    "NoSyndromeError",
    "ThreeColumnCheck",
    "logical_zero_support",
    "phase_quantization_exponent",
    "verify_korth_necessity",
    "z_distance_floor",
    "isolate_column",
]

_PHASE_COMPLEX = (1 + 0j, 1j, -1 + 0j, -1j)


class DegenerateCodeError(KorthError, ValueError):
    """Operation requires distinct check columns; reduce degeneracy first."""


class NoSyndromeError(KorthError, ValueError):
    """A qubit position has an all-zero check column (no syndrome)."""


class CongruenceError(KorthError, ValueError):
    """A required modular congruence is violated; carries the offender."""

    def __init__(self, message: str, witness=None, residue: int | None = None,
                 modulus: int | None = None):
        super().__init__(message)
        self.witness = witness
        self.residue = residue
        self.modulus = modulus


def logical_zero_support(sf: StandardFormCode) -> list[tuple[BitVec, complex]]:
    """Basis-state expansion of the logical zero state.

    Returns 2**m pairs aligned with ``span_ints(a_x.row_ints())``: the support
    strings and the exact fourth-root-of-unity coefficient each one carries.
    For CSS codes every coefficient is +1.
    """
    n, m = sf.n, sf.m
    ops = [sf.x_row_pauli(i) for i in range(m)]
    pairs = [(BitVec.zeros(n), _PHASE_COMPLEX[0])]
    acc = PauliOp(n, 0, 0, 0)
    for idx in range(1, 1 << m):
        acc = acc * ops[(idx & -idx).bit_length() - 1]
        pairs.append((BitVec(n, acc.x), _PHASE_COMPLEX[acc.i_exp]))
    return pairs


def phase_quantization_exponent(sf: StandardFormCode) -> int:
    """Exponent e such that every admissible transversal angle on this code
    is a multiple of pi/2**e.

    Isolating each column in turn shows 2**(m-1) times any single-qubit
    angle must vanish modulo 2*pi, giving e = m - 2.  Requires distinct
    nonzero check columns; reduce degeneracy first otherwise.
    """
    part = degeneracy_classes(sf.a_x)
    for cls in part.classes:
        if cls.undetectable:
            raise DegenerateCodeError(
                f"column {cls.representative} has no syndrome; apply "
                "nondegenerate_reduction first"
            )
        if len(cls.indices) > 1:
            raise DegenerateCodeError(
                f"columns {cls.indices} share a syndrome; apply "
                "nondegenerate_reduction first"
            )
    for col in range(sf.n):
        rows = isolate_column(sf.a_x, col).rows
        assert and_product(rows).bits == 1 << col, "column isolation failed on distinct columns"
    return max(sf.m - 2, 0)


def verify_korth_necessity(
    sf: StandardFormCode, theta: DyadicPhaseVector
) -> OrthogonalityReport:
    """Check the orthogonality structure a verified phase gate must induce.

    Requires the gate to pass :func:`logical_phase_action` with an odd
    numerator; extracts the parity subset r' of the phase exponents, checks
    k-orthogonality restricted to it, and re-derives the graded congruences
    sum over t-fold products = 0 mod 2**(k-t+1) along the way.
    """
    k = theta.k
    q = theta.modulus
    action = logical_phase_action(sf, theta)
    if not action.ok:
        raise CongruenceError(
            f"support {action.violation} sums to {action.residue} mod {q}; "
            "the phase vector is not a transversal logical gate",
            witness=action.violation,
            residue=action.residue,
            modulus=q,
        )
    raw_numerator = theta.masked_sum(sf.s.bits) % q
    if raw_numerator % 2 == 0:
        raise CongruenceError(
            f"logical phase numerator {raw_numerator} mod {q} is even; "
            "the orthogonality argument needs an odd numerator at this exponent",
            residue=raw_numerator,
            modulus=q,
        )
    violation = _graded_violation(sf, theta, 0)
    if violation is not None:
        subset, acc, residue, modulus = violation
        raise CongruenceError(
            f"graded congruence broke: rows {subset} product sums to "
            f"{residue} mod {modulus}",
            witness=BitVec(sf.n, acc),
            residue=residue,
            modulus=modulus,
        )
    r_prime = BitVec(sf.n, sum(theta.planes[:1]))  # bit plane 0: the odd exponents
    return is_k_orthogonal(sf.a_x, k, r_prime)


class ThreeColumnCheck(Record):
    """Whether distinct nonzero columns force distance >= 3, plus a weight-3
    null triple when one exists (making the distance exactly 3)."""

    __slots__ = ("distance_at_least_3", "triple")


def z_distance_floor(a_x: BitMat) -> ThreeColumnCheck:
    """Confirm distinct nonzero columns (distance >= 3 against single- and
    double-qubit phase errors) and exhibit a trivial three-column sum.

    The triple, when present, pins the Z distance to exactly 3; it is the
    lexicographically first one.
    """
    cols = a_x.column_ints()
    if 0 in cols or len(set(cols)) != len(cols):
        return ThreeColumnCheck(False, None)
    index_of = {}
    for j, c in enumerate(cols):
        index_of.setdefault(c, j)
    for i, j in itertools.combinations(range(len(cols)), 2):
        t = cols[i] ^ cols[j]
        k = index_of.get(t)
        if k is not None and k > j:
            return ThreeColumnCheck(True, (i, j, k))
    return ThreeColumnCheck(True, None)


def isolate_column(a_x: BitMat, q: int) -> BitMat:
    """Row-equivalent matrix in which column ``q`` (0-based) is all ones.

    Picks the first row with a 1 at ``q`` and adds it to every row with a 0
    there; the row space is unchanged.  On a matrix with distinct columns the
    AND of all output rows is the indicator of column ``q``.
    """
    if not 0 <= q < a_x.ncols:
        raise RangeError(f"column {q} out of range for {a_x.ncols} columns")
    mask = 1 << q
    rows = a_x.row_ints()
    pivot = next((r for r in rows if r & mask), None)
    if pivot is None:
        raise NoSyndromeError(
            f"column {q} is all-zero: a phase-type error there has no syndrome"
        )
    return BitMat.from_ints(
        a_x.ncols, [r if r & mask else r ^ pivot for r in rows]
    )
