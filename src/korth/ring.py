"""The modulo-2**k congruence solver for codes off the sub-dual family.

:func:`korth.gates.find_transversal_phases` imports this module only when
A_X's columns are not the 2**m - 1 nonzero points; the family takes the
closed-form Moebius basis and never loads it.
"""

from __future__ import annotations

import sys
from typing import Iterable

from .phases import DyadicPhaseVector

__all__ = ["_kernel_mod_power_of_two", "_exact"]

_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # memoryview formats by lane bytes


def _kernel_mod_power_of_two(
    weighted: Iterable[tuple[int, int]], n: int, k: int
) -> list[tuple[DyadicPhaseVector, int]]:
    """Generators (vector, additive order) of {p : A p = 0 mod 2**k}, where
    row i of A is 2**e * mask for the i-th pair (mask, e) of ``weighted``:
    a 0/1 row below 2**n and an exponent 0 <= e < k.

    Each row is one int of n lanes, each 2k + 1 bits wide, with entry j in
    lane n - 1 - j: pivoted columns are the top lanes and zero in every row
    left to pivot, so those rows shrink as the solve goes on and the pivot
    column's entry is the row shifted down, with no mask.  The column
    transform V is kept as one packed int per column, entry j in lane j.
    Lanes hold residues below q = 2**k.  A row operation x - f*y becomes
    (x + f*(Q - y)) & MASK, where Q holds q in every lane and MASK keeps the
    low k bits of each: a lane of x + f*(q - y) is at most
    (q - 1) + (q - 1)*q < 2**(2k), and so is a lane times a unit below q,
    so no lane ever carries into the next.  V's lanes hold the same residues
    but are 8, 16, 32 or 64 bits wide, the least of those with room for
    2k + 1 bits (whole bytes of room past k = 31): elimination never reads
    them, and each generator then comes off its column's bytes from one
    ``int.to_bytes`` by :func:`_exact`: its exponents by one
    ``memoryview.cast``, its bit planes by slicing.

    The pivot rule is unchanged from the list-of-lists diagonalisation the
    tests keep as this solver's oracle: in row-major order, the first entry
    of least 2-adic valuation among the rows and columns not yet pivoted.
    That valuation is the least t with bit t set in some lane, and the
    entry's column is that of the highest lane of its row with bit t set.  Row
    operations by a pivot of valuation v leave every entry divisible by
    2**v, so the least valuation never falls: the search resumes at the
    last one and takes the first live row with its bit set.  After a
    pivot's row operations its column is zero off the pivot, so its column
    operations only clear the pivot row and update V.  The same pivots,
    swaps and operations give the same generators in the same order.
    """
    q = 1 << k
    qm = q - 1
    width = 2 * k + 1
    ones = ((1 << (n * width)) - 1) // ((1 << width) - 1)
    mask, qpat = ones * qm, ones * q
    bits = [ones << t for t in range(k)]
    # Spread each mask's bits, lowest first, to the lane bases: join its digits.
    gap = "0" * (width - 1)
    rows = [int(gap.join(bin(x)[:1:-1].ljust(n, "0")), 2) << e for x, e in weighted]
    live = [i for i, x in enumerate(rows) if x]  # unpivoted nonzero rows, in order
    size = next((b for b in (1, 2, 4, 8) if 8 * b > 2 * k), (2 * k + 8) // 8)  # V lane bytes
    vones = ((1 << (8 * n * size)) - 1) // ((1 << (8 * size)) - 1)
    vmask, vqpat = vones * qm, vones * q
    vcols = [1 << (8 * j * size) for j in range(n)]
    piv_vals: list[int] = []
    val = r = 0
    while live and r < n:
        while (bi := next((i for i in live if rows[i] & bits[val]), None)) is None:
            val += 1  # the least valuation never falls
        bj = n - 1 - ((rows[bi] & bits[val]).bit_length() - 1) // width
        rows[r], rows[bi] = rows[bi], rows[r]
        if live[0] == r:
            del live[0]
        else:
            live.remove(bi)  # row r was zero and now sits at bi
        shift = (n - 1 - r) * width  # lane r: the top one a live row can use
        if bj != r:
            lo = (n - 1 - bj) * width
            for i in [r] + live:
                x = rows[i]
                d = ((x >> lo) ^ (x >> shift)) & qm
                if d:
                    rows[i] = x ^ (d << lo) ^ (d << shift)
            vcols[r], vcols[bj] = vcols[bj], vcols[r]
        prow = rows[r]
        prow = (prow * pow((prow >> shift) >> val, -1, q)) & mask
        neg = (qpat >> (r * width)) - prow
        kept = []
        for i in live:
            x = rows[i]
            entry = x >> shift
            if entry:
                x = rows[i] = (x + (entry >> val) * neg) & mask
            if x:
                kept.append(i)
        live = kept
        vneg = vqpat - vcols[r]
        rest = prow ^ (1 << (shift + val))
        while rest:  # the nonzero lanes, top (lowest column) first
            lo = (rest.bit_length() - 1) // width * width
            entry = rest >> lo
            rest ^= entry << lo
            j = n - 1 - lo // width
            vcols[j] = (vcols[j] + (entry >> val) * vneg) & vmask
        piv_vals.append(val)
        r += 1
    cols = [((vcols[i] << (k - val)) & vmask, 1 << val) for i, val in enumerate(piv_vals) if val > 0]
    cols += [(vcols[j], q) for j in range(r, n)]
    return [(_exact(k, col.to_bytes(n * size, "little"), size), order) for col, order in cols]


def _exact(k: int, raw: bytes, size: int) -> DyadicPhaseVector:
    """The vector whose exponent i is lane i of ``raw``, ``size`` bytes
    little-endian, each already in [0, 2**k): unchecked."""
    if size in _LANE_FORMATS and sys.byteorder == "little":
        p = tuple(memoryview(raw).cast(_LANE_FORMATS[size]))
    else:
        p = tuple(int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size))
    vec = DyadicPhaseVector.__new__(DyadicPhaseVector)
    # Byte j of every lane, last lane first, is raw[j::size] reversed.
    vec._fill(k, p, k, [raw[j::size][::-1] for j in range((k + 7) // 8)])
    return vec
