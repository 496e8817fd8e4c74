"""Exact CSS code distances by coset enumeration or weight-increasing search.

A Z-type logical is a null-space member of A_X outside the row space of A_Z
(and symmetrically for X-type).  The null space of the Z checks in the
sub-dual family is tiny while the X-check null space is huge, so each side
picks its method from its own null-space dimension: enumerate the whole null
space when the dimension is small, otherwise search supports by increasing
weight, which stops at the first (hence minimum-weight) logical found.
"""

from __future__ import annotations

import itertools

from .errors import InvalidCodeError, KorthError, RangeError
from .gf2 import BitMat, BitVec, RowSpace, orthogonal_rows, parse_matrix_text, span_ints
from .record import Record

__all__ = ["DistanceReport", "css_distances"]

# Null spaces of at most this dimension are enumerated.
_COSET_DIM_LIMIT = 16


class DistanceReport(Record):
    """Per-type minimum logical weights with re-checkable witnesses.

    ``exact_*`` is False only when a weight cap stopped the search early, in
    which case ``d_*`` is a lower bound (cap + 1) and the witness is absent.
    """

    __slots__ = ("d_z", "d_x", "witness_z", "witness_x", "method_z", "method_x",
                 "exact_z", "exact_x")


def _min_logical_coset(checks: RowSpace, stabilizers: RowSpace) -> tuple[int, BitVec] | None:
    """Scan the whole kernel of ``checks``, skipping stabilizer members."""
    best_w = None
    best = None
    for acc in span_ints(checks.kernel().row_ints()):
        w = acc.bit_count()
        if (best_w is None or w < best_w) and not stabilizers.contains(acc):
            best_w = w
            best = acc
    if best_w is None:
        return None
    return best_w, BitVec(checks.ncols, best)


def _min_logical_weight_search(
    check: BitMat, stabilizers: RowSpace, cap: int
) -> tuple[int, BitVec] | None:
    """Search supports of increasing weight up to ``cap``; the first hit is
    the minimum.  None when no support of weight at most ``cap`` is a logical.
    ``check`` may be any basis of the checks: only its null space matters.
    """
    n = check.ncols
    cols = check.column_ints()
    # The last column of a support is one lookup: the columns equal to the
    # prefix's syndrome, ascending, so supports still come in lexicographic
    # order and the first logical found is the same.
    columns_of: dict[int, list[int]] = {}
    for j, c in enumerate(cols):
        columns_of.setdefault(c, []).append(j)
    for w in range(1, min(cap, n) + 1):
        for prefix in itertools.combinations(range(n - 1), w - 1):
            syndrome = 0
            bits = 0
            for j in prefix:
                syndrome ^= cols[j]
                bits |= 1 << j
            after = prefix[-1] if prefix else -1
            for j in columns_of.get(syndrome, ()):
                support = bits | 1 << j
                if j > after and not stabilizers.contains(support):
                    return w, BitVec(n, support)
    return None


def _one_side(
    checks: RowSpace, stabilizers: RowSpace, weight_cap: int | None
) -> tuple[int, BitVec | None, str, bool]:
    n = checks.ncols
    if n - len(checks.rows) <= _COSET_DIM_LIMIT:
        method, found = "coset", _min_logical_coset(checks, stabilizers)
    else:
        method = "weight"
        cap = n if weight_cap is None else weight_cap
        found = _min_logical_weight_search(BitMat.from_ints(n, checks.rows), stabilizers, cap)
        if found is None and cap < n:
            return cap + 1, None, method, False
    if found is None:
        raise InvalidCodeError("no logical operator of this type exists")
    return found[0], found[1], method, True


def css_distances(a_x: BitMat, a_z: BitMat, weight_cap: int | None = None) -> DistanceReport:
    """Exact minimum-weight Z-type and X-type logicals of a CSS pair.

    Each side takes coset enumeration when its null-space dimension
    is at most ``_COSET_DIM_LIMIT`` (16), else the weight-increasing search,
    which ``weight_cap`` (at least 1) may stop early.
    """
    if weight_cap is not None and weight_cap < 1:
        raise RangeError(f"weight cap must be >= 1, got {weight_cap}")
    if a_x.ncols != a_z.ncols:
        raise InvalidCodeError("check blocks have different widths")
    if not orthogonal_rows(a_z.row_ints(), a_x.row_ints()):
        raise InvalidCodeError("A_Z is not orthogonal to A_X; not a CSS pair")
    # One reduction per block gives its rank, null space and membership.
    x_space, z_space = RowSpace(a_x), RowSpace(a_z)
    d_z, wit_z, method_z, exact_z = _one_side(x_space, z_space, weight_cap)
    d_x, wit_x, method_x, exact_x = _one_side(z_space, x_space, weight_cap)
    for wit, check, stabilizers in ((wit_z, a_x, z_space), (wit_x, a_z, x_space)):
        if wit is None:
            continue
        if any(wit.dot_parity(row) for row in check.rows):
            raise AssertionError("distance witness fails the null-space check")
        if stabilizers.contains(wit.bits):
            raise AssertionError("distance witness is a stabilizer")
    return DistanceReport(
        d_z=d_z, d_x=d_x,
        witness_z=wit_z, witness_x=wit_x,
        method_z=method_z, method_x=method_x,
        exact_z=exact_z, exact_x=exact_x,
    )


def cmd_distance(args) -> int:
    """``korth distance``: the distances and witnesses on stdout."""
    if args.code:
        from .codes import is_css, load_standard_form  # --ax/--az read no code

        sf = load_standard_form(args.code)
        if not is_css(sf):
            raise KorthError("distance computation needs a CSS code")
        a_x, a_z = sf.a_x, sf.a_z
    else:
        if not (args.ax and args.az):
            raise KorthError("distance needs --code or both --ax and --az")
        with open(args.ax, encoding="utf-8") as f:
            a_x = parse_matrix_text(f.read())
        with open(args.az, encoding="utf-8") as f:
            a_z = parse_matrix_text(f.read())
    report = css_distances(a_x, a_z, weight_cap=args.weight_cap)
    if args.out:
        from .report import SCHEMA, emit  # only a written report loads the writer

        emit({
            "schema": SCHEMA,
            "command": "distance",
            "d_z": report.d_z,
            "d_x": report.d_x,
            "exact_z": report.exact_z,
            "exact_x": report.exact_x,
            "method_z": report.method_z,
            "method_x": report.method_x,
            "witness_z": str(report.witness_z) if report.witness_z else None,
            "witness_x": str(report.witness_x) if report.witness_x else None,
        }, args.out)
    bound_z = "" if report.exact_z else ">="
    bound_x = "" if report.exact_x else ">="
    print(f"d_Z={bound_z}{report.d_z} d_X={bound_x}{report.d_x}")
    if report.witness_z is not None:
        print(f"witness_Z {report.witness_z}")
    if report.witness_x is not None:
        print(f"witness_X {report.witness_x}")
    return 0
