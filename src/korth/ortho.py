"""k-orthogonality certification.

A check matrix is k-orthogonal when every AND-product of up to k elements of
its row span has even weight.  By parity multilinearity this is equivalent to
checking only the t-subsets of generator rows for t = 1..k, which is what the
production path does; the span-level equivalence is covered by property tests.
The optional restriction vector counts weight only on its support.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .errors import RangeError
from .gf2 import BitMat, BitVec, parse_matrix_text
from .record import Record

__all__ = [
    "OrthogonalityWitness",
    "OrthogonalityReport",
    "row_products",
    "is_k_orthogonal",
]


class OrthogonalityWitness(Record):
    """A failing product: AND of the given rows has odd restricted weight."""

    __slots__ = ("t", "rows", "restriction")


class OrthogonalityReport(Record):
    __slots__ = ("level", "holds", "witness")
    _defaults = {"witness": None}


def row_products(
    rows: Sequence[int], k: int, mask: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(subset, mask & AND of rows[subset])`` for every row subset of
    size 1..k, in (t, lexicographic) order."""
    for t in range(1, min(k, len(rows)) + 1):
        for subset in combinations(range(len(rows)), t):
            acc = mask
            for i in subset:
                acc &= rows[i]
            yield subset, acc


def is_k_orthogonal(a_x: BitMat, k: int, r: BitVec | None = None) -> OrthogonalityReport:
    """Check k-orthogonality of ``a_x``, optionally restricted to support ``r``.

    Returns a report whose witness, when present, is the first failing row
    subset in (t, lexicographic) order.
    """
    if k < 1:
        raise RangeError(f"orthogonality level must be >= 1, got {k}")
    if r is None:
        r = BitVec.ones(a_x.ncols)
    elif r.n != a_x.ncols:
        raise RangeError(f"restriction length {r.n} != column count {a_x.ncols}")
    for subset, acc in row_products(a_x.row_ints(), k, r.bits):
        if acc.bit_count() & 1:
            return OrthogonalityReport(
                k, False, OrthogonalityWitness(len(subset), subset, r)
            )
    return OrthogonalityReport(k, True)


def cmd_check_orth(args) -> int:
    """``korth check-orth``: PASS or FAIL on stdout, exit 1 on FAIL."""
    with open(args.matrix, encoding="utf-8") as f:
        mat = parse_matrix_text(f.read())
    restriction = BitVec.from_string(args.r) if args.r else None
    report = is_k_orthogonal(mat, args.k, restriction)
    wit = report.witness
    if args.out:
        from .report import SCHEMA, emit  # only a written report loads the writer

        payload = {"schema": SCHEMA, "command": "check-orth", "k": args.k, "holds": report.holds}
        if wit is not None:
            payload["witness"] = {
                "t": wit.t, "rows": list(wit.rows), "restriction": str(wit.restriction),
            }
        emit(payload, args.out)
    if report.holds:
        print(f"PASS: matrix is {args.k}-orthogonal")
        return 0
    print(f"FAIL: rows {list(wit.rows)} have an odd {wit.t}-fold product "
          f"(restriction {wit.restriction})")
    return 1
