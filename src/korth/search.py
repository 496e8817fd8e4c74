"""Exhaustive minimality search for k-orthogonal check matrices.

Candidates at (m, n) are the n-subsets of the 2**m - 1 nonzero column
values (distinct nonzero columns for free) that have full row rank.  A
counterexample to the 2**(k+1) - 1 size floor has fewer columns than the
floor, so :class:`SearchSpace` refuses an n_max past 2**(k+1), and every box
is decided in closed form (``_flat_hits``): a k-orthogonal subset, with the
zero point added when n is odd, is a word of RM(m-k-1, m), and its words of
least weight 2**(k+1) are the (k+1)-flats.  Per box, ``subsets`` counts the
subsets decided, all C(L, f) at once for f free columns, and ``mode`` says
what ``candidates`` and ``hits`` mean:

- ``"slow"``, a box of at most ``_EXACT_COUNT_LIMIT`` subsets: the exact
  number of full-rank subsets in the box (:func:`full_rank_count`), and
  the number of full-rank k-orthogonal subsets found;
- ``"fast"``, a larger box: None, and all k-orthogonal subsets;
- ``"fast-orbit"``, under ``prune="orbit"``: as ``"fast"``, with the
  identity columns fixed and only the other n - m columns varied;
- ``"skip"``: not scanned, for the reason in ``skipped``.

Only m = k+1 and m = k+2 have full-rank hits.  Each is ranked and
re-verified with :func:`is_k_orthogonal`, independently of the closed form,
before it is reported as a witness.  The deadline is the one budget.  It is
read before each box and before each hit is verified: a box it cuts keeps
its verified witnesses and is incomplete, and once it has passed, the
boxes not yet begun are skipped as incomplete.  A search runs in the
calling process.
"""

from __future__ import annotations

import math
import sys
import time
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import MAX_K, RangeError
from .record import Record
from .report import SCHEMA, emit

# gf2 and ortho are imported where they are used: a search whose boxes hold
# no witness runs neither.
if TYPE_CHECKING:
    from .gf2 import BitMat

__all__ = [
    "SearchSpace",
    "SearchWitness",
    "BoxResult",
    "SearchReport",
    "subset_parity_table",
    "full_rank_count",
    "minimality_search",
]

# Boxes with at most this many subsets report an exact candidate count.
_EXACT_COUNT_LIMIT = 200_000
# Most (m, n) boxes one scan may list: each is a record in the report.
MAX_BOXES = 1 << 16


class SearchSpace(Record):
    """Parameter boxes to scan: row counts in ``m_range``, columns up to
    ``n_max``, with an optional wall-clock budget.  A scan of more than
    ``MAX_BOXES`` (m, n) boxes is refused before anything is built."""

    __slots__ = ("k", "m_range", "n_max", "budget_seconds")

    def __init__(self, k: int, m_range: Sequence[int], n_max: int,
                 budget_seconds: Optional[float] = None):
        if not 1 <= k <= MAX_K:
            raise RangeError(f"orthogonality level must be in 1..{MAX_K}, got {k}")
        if n_max > 1 << (k + 1):  # a counterexample has fewer columns than the floor
            raise RangeError(f"n_max must be <= 2**{k + 1}: a counterexample to the k={k} "
                             f"size floor {(1 << (k + 1)) - 1} has fewer columns, got {n_max}")
        if n_max < 1:
            raise RangeError(f"n_max must be >= 1, got {n_max}")
        try:
            boxes = len(m_range) * n_max  # a range's length is not a walk
        except OverflowError:  # a range longer than a C index counts
            boxes = (m_range.stop - m_range.start) // m_range.step * n_max
        if boxes > MAX_BOXES:
            raise RangeError(f"the scan holds {boxes} (m, n) boxes, "
                             f"more than the {MAX_BOXES} one run may list")
        if not m_range or min(m_range) < 1:
            raise RangeError(f"m_range must hold row counts >= 1, got {m_range}")
        top = max(m_range)  # no box holds more distinct nonzero columns
        if n_max.bit_length() > top:  # n_max > 2**top - 1, without the power
            raise RangeError(f"n_max must be <= 2**{top}-1, got {n_max}")
        if budget_seconds is not None and not budget_seconds >= 0:  # rejects NaN too
            raise RangeError(f"budget_seconds must be nonnegative, got {budget_seconds}")
        Record.__init__(self, k, m_range, n_max, budget_seconds)


class SearchWitness(Record):
    """A full-rank k-orthogonal candidate (would refute minimality)."""

    __slots__ = ("m", "n", "columns")

    def matrix(self) -> BitMat:
        from .gf2 import BitMat

        return BitMat.from_columns(self.m, self.columns)


class BoxResult(Record):
    __slots__ = ("m", "n", "subsets", "candidates", "hits", "witnesses", "complete",
                 "skipped", "mode")
    _defaults = {"subsets": 0, "candidates": None, "hits": 0, "witnesses": (),
                 "complete": True, "skipped": None, "mode": "fast"}


class SearchReport(Record):
    __slots__ = ("k", "prune", "boxes", "elapsed_seconds", "notes",
                 "engines")  # engines: per scanned row count; not in to_dict
    _defaults = {"notes": (), "engines": ()}

    @property
    def witnesses(self) -> tuple[SearchWitness, ...]:
        return tuple(w for b in self.boxes for w in b.witnesses)

    @property
    def complete(self) -> bool:
        return all(b.complete for b in self.boxes)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "k": self.k,
            "prune": self.prune,
            "complete": self.complete,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "notes": list(self.notes),
            "witnesses": [
                {
                    "m": w.m,
                    "n": w.n,
                    "columns": list(w.columns),
                    "rows": [str(r) for r in w.matrix().rows],
                }
                for w in self.witnesses
            ],
            "boxes": [
                {
                    "m": b.m,
                    "n": b.n,
                    "subsets": b.subsets,
                    "candidates": b.candidates,
                    "hits": b.hits,
                    "witnesses": len(b.witnesses),
                    "complete": b.complete,
                    "skipped": b.skipped,
                    "mode": b.mode,
                }
                for b in self.boxes
            ],
        }


def _value_rows(m: int) -> list[int]:
    """Row i of the matrix whose column v is v, as a 2**m-bit int: bit v holds
    bit i of value v."""
    # From value 2**m - 1 down: runs of 2**i ones, then 2**i zeros.
    size = 1 << m
    return [int(("1" * (1 << i) + "0" * (1 << i)) * (size >> i + 1), 2) for i in range(m)]


def subset_parity_table(m: int, k: int) -> list[int]:
    """Per-column-value parity fingerprints.

    Entry v packs one bit per nonempty row subset T with |T| <= k, set when
    T is contained in the support of v; a column multiset is k-orthogonal
    iff its fingerprints XOR to zero.
    """
    from .ortho import row_products

    # Row i of the value rows holds the values with bit i set, so the AND walk
    # yields, per subset T, the values whose support contains T.  Zipping the
    # products' digits, last subset first, transposes them into fingerprints;
    # the leading zeros keep one entry per value when k = 0.
    size = 1 << m
    products = row_products(_value_rows(m), k, (1 << size) - 1)
    digits = [format(acc, f"0{size}b")[::-1] for _, acc in products]
    return [int("".join(bits), 2) for bits in zip("0" * size, *reversed(digits))]


def full_rank_count(m: int, n: int) -> int:
    """Number of n-subsets of the nonzero m-bit values that span GF(2)**m.

    Moebius inversion over the subspace lattice:
    sum_j (-1)**j 2**C(j,2) [m choose j]_2 C(2**(m-j) - 1, n).
    """
    total = 0
    gaussian = 1  # [m choose j]_2
    for j in range(m + 1):
        term = (1 << math.comb(j, 2)) * gaussian * math.comb((1 << (m - j)) - 1, n)
        total += -term if j % 2 else term
        gaussian = gaussian * ((1 << (m - j)) - 1) // ((1 << (j + 1)) - 1)
    return total


def _gaussian(m: int, j: int) -> int:
    """[m choose j]_2, the number of j-dimensional subspaces of GF(2)**m."""
    num = den = 1
    for i in range(j):
        num *= (1 << (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _flat_hits(m: int, n: int, k: int,
               base: tuple[int, ...]) -> tuple[int, Iterable[tuple[int, ...]]]:
    """The hit count of a box with n <= 2**(k+1) columns, and those of its
    hits that can have full rank, each without the fixed columns: empty, or
    built one at a time as they are taken.

    A hit with a zero point added when n is odd is a word of RM(m-k-1, m):
    the code has minimum weight 2**(k+1), only even weights, and its words
    of weight 2**(k+1) are the indicators of (k+1)-flats (MacWilliams &
    Sloane, ch. 13).  So there are no hits below n = 2**(k+1) - 1; there the
    hits are the (k+1)-dimensional subspaces less 0, and at n = 2**(k+1) the
    (k+1)-flats off 0, which span k+2 dimensions.  A hit has full rank only
    when it spans all m; under "orbit" it must also hold every e_i, which
    leaves every nonzero value at m = k+1 and the odd-weight values at m = k+2.
    """
    top = 1 << (k + 1)
    if n < top - 1:
        return 0, ()
    span = k + 1 if n == top - 1 else k + 2
    if base:
        count = int(m == span)
    else:
        count = _gaussian(m, k + 1) * (1 if n == top - 1 else (1 << (m - k - 1)) - 1)
    if m != span:
        return count, ()
    values = [v for v in range(1, 1 << m) if v not in base]
    if n == top - 1:
        return count, [tuple(values)]
    # The complement of the hyperplane a.v = 0; only a = all-ones holds every e_i.
    normals = [(1 << m) - 1] if base else range(1, 1 << m)
    return count, (tuple(v for v in values if (a & v).bit_count() & 1) for a in normals)


def _scan_box(m: int, n: int, k: int, prune: str, deadline: Optional[float]) -> BoxResult:
    """Decide the (m, n) box in closed form and verify its witnesses."""
    # Under "orbit", every full-rank candidate is row-space equivalent to one
    # containing the identity columns; k-orthogonality only sees the row space.
    base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
    subsets = math.comb((1 << m) - 1 - len(base), n - len(base))
    if prune == "orbit":
        mode, candidates = "fast-orbit", None
    elif subsets <= _EXACT_COUNT_LIMIT:  # with no fixed columns, C(2**m - 1, n)
        mode, candidates = "slow", full_rank_count(m, n)
    else:
        mode, candidates = "fast", None
    count, hits = _flat_hits(m, n, k, base)
    if hits:  # () when the box lists none: then neither module loads
        from .gf2 import BitMat, rank
        from .ortho import is_k_orthogonal
    full_rank, complete, kept = 0, True, []
    for hit in hits:
        # Rank and re-verify each hit independently of the closed form that
        # listed it, inside the deadline: a cut box keeps the verified prefix.
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        columns = tuple(sorted(base + hit))
        matrix = BitMat.from_columns(m, columns)
        if rank(matrix) == m:
            full_rank += 1
            if is_k_orthogonal(matrix, k).holds:
                kept.append(columns)
    return BoxResult(
        m=m, n=n, subsets=subsets, candidates=candidates,
        hits=full_rank if mode == "slow" else count,
        witnesses=tuple(SearchWitness(m, n, columns) for columns in sorted(kept)),
        complete=complete, mode=mode,
    )


def _skip_reason(m: int, n: int, k: int) -> Optional[str]:
    """Why the (m, n) box holds no candidate, or None when it must be scanned."""
    if m <= k:
        return (f"m={m} <= k={k}: any distinct-nonzero-column matrix with so few "
                "check rows fails at level m")
    if m > n:
        return "m > n: full rank impossible"
    if n > (1 << m) - 1:
        return f"n > 2**{m}-1: not enough distinct nonzero columns"
    return None


def minimality_search(space: SearchSpace, prune: str = "none") -> SearchReport:
    """Scan every (m, n) box for full-rank k-orthogonal candidates.

    Skipped boxes record the sound reason for the exclusion; a box the
    deadline cuts or skips (and hence the report) is incomplete.
    Witnesses are independently re-verified before being reported.
    """
    if prune not in ("none", "orbit"):
        raise RangeError(f"unknown prune mode {prune!r}")
    k = space.k
    start = time.monotonic()
    deadline = None if space.budget_seconds is None else start + space.budget_seconds
    scanned = exhausted = False
    notes = []
    floor = (1 << (k + 1)) - 1
    if space.n_max >= floor:
        notes.append(
            f"n_max {space.n_max} reaches the k={k} size floor {floor}; "
            "witnesses at or beyond it are expected, not refutations"
        )
    boxes: list[BoxResult] = []
    engines: dict[int, str] = {}  # per scanned row count, for --verbose
    for m in space.m_range:
        for n in range(1, space.n_max + 1):
            reason = _skip_reason(m, n, k)
            if reason is not None:
                boxes.append(BoxResult(m=m, n=n, skipped=reason, mode="skip"))
            else:
                # One clock read per box: the start's serves the first one.
                if scanned and not exhausted and deadline is not None:
                    exhausted = time.monotonic() > deadline
                if exhausted:
                    boxes.append(BoxResult(m=m, n=n, complete=False, mode="skip",
                                           skipped="budget exhausted"))
                    continue
                if m not in engines:
                    engines[m] = (f"m={m}: flat engine for n <= {floor + 1} (RM({m - k - 1}, {m}) "
                                  f"has minimum weight {floor + 1}, met only by its {k + 1}-flats)")
                boxes.append(_scan_box(m, n, k, prune, deadline))
                scanned, exhausted = True, not boxes[-1].complete
    return SearchReport(k=k, prune=prune, boxes=tuple(boxes),
                        elapsed_seconds=time.monotonic() - start, notes=tuple(notes),
                        engines=tuple(engines.values()))


def cmd_search_min(args) -> int:
    """``korth search-min``: exit 1 when the report lists a witness."""
    if args.m_min > args.m_max:
        raise RangeError(f"the row-count range is empty: --m-min {args.m_min} "
                         f"exceeds --m-max {args.m_max}")
    space = SearchSpace(k=args.k, m_range=range(args.m_min, args.m_max + 1),
                        n_max=args.n_max, budget_seconds=args.budget_seconds)
    report = minimality_search(space, prune=args.prune)
    if args.verbose:
        for line in report.engines:
            print(f"search-min {line}", file=sys.stderr)
    payload = report.to_dict()
    payload["command"] = "search-min"
    emit(payload, args.out)
    return 1 if report.witnesses else 0
