"""Builders for the minimal k-orthogonal matrices and sub-dual CSS codes.

The Hamming parity-check matrix over m bits (all distinct nonzero columns)
is (m-1)-orthogonal and meets the 2**(k+1)-1 size floor for k-orthogonal
matrices.  Pairing it with the null-space-derived Z checks gives a CSS code
on 2**m - 1 qubits with all-ones logicals whose X-check span sits inside the
Z-check span; the m=3 member is the Steane code and m=4 is the 15-qubit
Reed-Muller code.
"""

from __future__ import annotations

from .codes import StandardFormCode, code_to_json_dict
from .errors import RangeError
from .gf2 import BitMat, BitVec, format_matrix_text
from .record import Record
from .report import emit

__all__ = [
    "SubdualParts",
    "subdual_parts",
    "hamming_parity_check",
    "subdual_css",
    "minimal_korth_matrix",
]

_C = 0b11  # the fixed weight-2 column c
# The most check rows a construction takes: 2**14 - 1 = 16,383 qubits and a
# code descriptor of about 268 MB, which grows as 4**m.
MAX_M = 14


class SubdualParts(Record):
    """Column blocks of the sub-dual construction.

    ``c`` is the fixed weight-2 column (bits 0 and 1); ``v`` collects every
    other column of weight >= 2; ``d[j]`` is the complement of the parity of
    column j of ``v``; ``j_block`` is v-transposed plus the outer product
    d c^T, so the Z checks (j_block | d | I) are orthogonal to the X checks
    (I | c | v) and have even row weights.
    """

    __slots__ = ("m", "c", "v", "d", "j_block")


def _column_value(col: int, m: int) -> int:
    """Column read top-to-bottom as a binary numeral (row 0 most significant)."""
    return int(f"{col:0{m}b}"[::-1], 2)


def _subdual_columns(m: int) -> tuple[list[int], list[int], list[int]]:
    """V's columns, d's bits and J's rows, as ints, for :func:`subdual_parts`."""
    if m < 2:
        raise RangeError(f"need at least 2 check rows, got m={m}")
    if m > MAX_M:
        raise RangeError(f"m={m} asks for 2**{m} - 1 qubits; the construction takes at most "
                         f"m={MAX_M}, 2**{MAX_M} - 1 = {(1 << MAX_M) - 1:,} qubits")
    v_cols = sorted(
        (col for col in range(1, 1 << m) if col.bit_count() >= 2 and col != _C),
        key=lambda col: (-col.bit_count(), _column_value(col, m)),
    )
    d = [1 ^ (col.bit_count() & 1) for col in v_cols]
    j_rows = [col ^ (_C if dj else 0) for col, dj in zip(v_cols, d)]
    return v_cols, d, j_rows


def _hamming_columns(m: int, v_cols: list[int]) -> list[int]:
    """The columns (identity | c | V) of :func:`hamming_parity_check`."""
    return [1 << i for i in range(m)] + [_C] + v_cols


def subdual_parts(m: int) -> SubdualParts:
    """The (c, V, d, J) blocks used by :func:`subdual_css`."""
    v_cols, d, j_rows = _subdual_columns(m)
    return SubdualParts(
        m=m,
        c=BitVec(m, _C),
        v=BitMat.from_columns(m, v_cols),
        d=BitVec.from_indices(len(v_cols), [j for j, dj in enumerate(d) if dj]),
        j_block=BitMat.from_ints(m, j_rows),
    )


def hamming_parity_check(m: int) -> BitMat:
    """The m x (2**m - 1) matrix whose columns are all nonzero m-bit vectors.

    Columns are laid out as (identity | c | V) with V sorted by descending
    weight then ascending column numeral; every row has weight 2**(m-1) and
    the matrix is (m-1)-orthogonal.
    """
    return BitMat.from_columns(m, _hamming_columns(m, _subdual_columns(m)[0]))


def subdual_css(m: int) -> StandardFormCode:
    """CSS code on 2**m - 1 qubits with X checks the Hamming parity check,
    Z checks (J | d | I), and all-ones logical supports.

    The X-check span is contained in the Z-check span, the code encodes one
    qubit at distance 3, and the all-ones transversal P(pi/2**(m-2)) vector
    implements a logical phase gate.
    """
    if m < 3:
        # Only m = 2 has a layout to describe: 3 qubits, 2 X checks, no Z check.
        layout = ("a 2**2-1 qubit layout leaves 0 Z-check rows, so single-qubit X "
                  "errors would go undetected; " if m == 2 else "")
        raise RangeError(f"m={m} is too small: {layout}the construction needs m >= 3")
    v_cols, d, j_rows = _subdual_columns(m)
    n = (1 << m) - 1
    a_z_rows = [  # one per Z-check row: (J | d | I)
        j | dt << m | 1 << (m + 1 + t) for t, (j, dt) in enumerate(zip(j_rows, d))
    ]
    sf = StandardFormCode(
        a_x=BitMat.from_columns(m, _hamming_columns(m, v_cols)),
        b=BitMat.zero(m, n),
        a_z=BitMat.from_ints(n, a_z_rows),
        r=BitVec.ones(n),
        s=BitVec.ones(n),
    )
    sf.validate()
    return sf


def minimal_korth_matrix(k: int) -> BitMat:
    """The smallest k-orthogonal matrix: 2**(k+1) - 1 distinct nonzero columns.

    Column order: the all-ones column first, then blocks of descending
    weight; within a weight block the column numerals run descending for odd
    weights and ascending for even weights.
    """
    if k < 1:
        raise RangeError(f"orthogonality level must be >= 1, got {k}")
    m = k + 1
    cols = sorted(
        range(1, 1 << m),
        key=lambda col: (
            -col.bit_count(),
            _column_value(col, m) * (1 if col.bit_count() % 2 == 0 else -1),
        ),
    )
    return BitMat.from_columns(m, cols)


def cmd_construct(args) -> int:
    """``korth construct``: the code's descriptor, then A_X and A_Z as matrix text."""
    sf = subdual_css(args.m)
    emit(code_to_json_dict(sf.to_stabilizer_code()), args.out)
    for path, block in ((args.ax, sf.a_x), (args.az, sf.a_z)):
        if path:
            with open(path, "w", encoding="utf-8") as f:
                f.write(format_matrix_text(block))
    return 0
