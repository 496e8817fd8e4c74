"""Exhaustive minimality search for k-orthogonal check matrices.

Candidates at (m, n) are the n-subsets of the 2**m - 1 nonzero column
values (distinct nonzero columns for free) that have full row rank.  Each
value has a fingerprint, one bit per row subset T with |T| <= k, set when T
lies inside its support, so a subset is k-orthogonal exactly when its
fingerprints XOR to zero: with the fixed columns' XOR b, F.x = b over
GF(2) for x its indicator over the L free values.  Three engines serve the
boxes:

- the flat engine decides every box with n <= 2**(k+1) in closed form
  (``_flat_hits``): its hits are the minimum-weight words of RM(m-k-1, m);
- per row count, the cheaper of the other two by closed-form costs
  (``_choose_engine``) serves the rest:
  - the linear engine walks the 2**D solutions from a kernel basis in
    closed form (``_kernel``), keeping the weights the boxes need;
  - the walk visits subsets depth first and stops s columns short of a
    full subset: one lookup in a table of every XOR of s fingerprints
    closes the block of subsets extending the prefix (s <= 3, see
    ``_tail_size``); the fingerprints and tables are built once, for the
    first box walked.

Each hit is ranked from its packed column values by basis insertion
(``_rank``) as it is found; only a full-rank hit becomes a matrix, at once
re-verified with :func:`is_k_orthogonal`, so the deadline bounds that work,
before it is reported as a witness.  Per box, ``subsets`` counts the
subsets decided (a block per lookup, all C(L, f) at once for f free columns
in the flat and linear engines), and ``mode`` says what ``candidates`` and
``hits`` mean:

- ``"slow"``, a box of at most ``_EXACT_COUNT_LIMIT`` subsets: the exact
  number of full-rank subsets in the box (:func:`full_rank_count`), and
  the number of full-rank k-orthogonal subsets found;
- ``"fast"``, a larger box: None, and all k-orthogonal subsets found;
- ``"fast-orbit"``, under ``prune="orbit"``: as ``"fast"``, with the
  identity columns fixed and only the other n - m columns varied;
- ``"skip"``: not scanned, for the reason in ``skipped``.

The deadline is the one budget.  It is checked before each box, per block
of the walk and per 2**16 solutions of the linear engine, which hands over
to the walk once the solutions left would, at the pace so far, pass it.  A
box is incomplete only when the walk left subsets in it undecided: it
keeps what it decided, the lexicographic prefix of whole blocks.  Once the
deadline has passed, the boxes not yet begun are skipped as incomplete.
A search runs in the calling process.
"""

from __future__ import annotations

import math
import time
from functools import reduce
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Optional

from .errors import MAX_K, RangeError
from .record import Record

# gf2 and ortho are imported where they are used: a search whose boxes are
# all flat and hold no witness runs neither.
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
# Entries a tail table may hold: C(31, 3) = 4,495 keeps three tail columns at
# m=5, where m=8 would need C(255, 3) = 2,731,135.
_TAIL_ENTRY_LIMIT = 5_000
# Linear-engine span steps per walk tail lookup, at the least (Python 3.11,
# 2 x86 cores): a lookup takes 1.3-2.9 us, a span step 0.08-0.37 us.
_PER_LOOKUP = 4

# Per tail XOR, the index tuples producing it.
_TailTable = dict[int, list[tuple[int, ...]]]
# What every box at one row count chooses from; see _box_columns.
_Columns = tuple[tuple[int, ...], int, dict, Optional[dict]]


class SearchSpace(Record):
    """Parameter boxes to scan: row counts in ``m_range``, columns up to
    ``n_max``, with an optional wall-clock budget."""

    __slots__ = ("k", "m_range", "n_max", "budget_seconds")

    def __init__(self, k: int, m_range: tuple[int, ...], n_max: int,
                 budget_seconds: Optional[float] = None):
        if not 1 <= k <= MAX_K:
            raise RangeError(f"orthogonality level must be in 1..{MAX_K}, got {k}")
        if n_max < 1:
            raise RangeError(f"n_max must be >= 1, got {n_max}")
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
            "schema": 1,
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
    """Per-column-value parity fingerprints for the fast k-orthogonality scan.

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


def _rank(values: tuple[int, ...]) -> int:
    """GF(2) rank of packed values: each is XORed with the basis vector at its
    lowest set bit until it is kept there or vanishes."""
    basis: dict[int, int] = {}  # lowest set bit -> the one basis vector with it
    for v in values:
        while v:
            low = v & -v
            kept = basis.get(low)
            if kept is None:
                basis[low] = v
                break
            v ^= kept
    return len(basis)


def _flat(n: int, k: int) -> bool:
    """Whether the flat engine decides the boxes of n columns."""
    return n <= 1 << (k + 1)


def _gaussian(m: int, j: int) -> int:
    """[m choose j]_2, the number of j-dimensional subspaces of GF(2)**m."""
    num = den = 1
    for i in range(j):
        num *= (1 << (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _flat_hits(m: int, n: int, k: int, base: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """The hit count of a box with n <= 2**(k+1) columns, and those of its
    hits that can have full rank, each without the fixed columns.

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
        return 0, []
    span = k + 1 if n == top - 1 else k + 2
    if base:
        count = int(m == span)
    else:
        count = _gaussian(m, k + 1) * (1 if n == top - 1 else (1 << (m - k - 1)) - 1)
    if m != span:
        return count, []
    values = [v for v in range(1, 1 << m) if v not in base]
    if n == top - 1:
        return count, [tuple(values)]
    # The complement of the hyperplane a.v = 0; only a = all-ones holds every e_i.
    normals = [(1 << m) - 1] if base else range(1, 1 << m)
    return count, [tuple(v for v in values if (a & v).bit_count() & 1) for a in normals]


def _tail_size(length: int, free: int) -> int:
    """Columns one lookup closes: up to three of the ``free`` ones, fewer while
    their table of C(length, s) entries would pass ``_TAIL_ENTRY_LIMIT``."""
    s = min(free, 3)
    while s > 1 and math.comb(length, s) > _TAIL_ENTRY_LIMIT:
        s -= 1
    return s


def _tail_table(fps: list[int], s: int) -> _TailTable:
    """Map each XOR of ``s`` fingerprints to the index tuples producing it, in
    lexicographic order."""
    table: _TailTable = {}
    for tail in combinations(range(len(fps)), s):
        acc = 0
        for i in tail:
            acc ^= fps[i]
        table.setdefault(acc, []).append(tail)
    return table


def _scan_range(
    values: list[int], fps: list[int], table: _TailTable, s: int, n: int, acc: int,
    deadline: Optional[float], take: Callable[[tuple[int, ...]], None],
) -> tuple[int, int, bool]:
    """Scan the n-subsets of ``values`` in lexicographic order.

    ``acc`` is the fixed columns' fingerprint XOR, and a hit holds only the
    other columns.  Once ``s`` columns are left to choose, one lookup in
    ``table``, the :func:`_tail_table` of s columns, closes the block of
    every subset extending the prefix: a tail tuple found there is a hit
    when its first index is in the block's range.  The deadline is checked
    once per block.  Each fingerprint hit goes to ``take`` as it is found,
    so the deadline bounds that work too.  Returns the visited count, the
    number of hits, and whether the scan completed within the deadline.
    """
    if n == 0:
        if acc == 0:
            take(())
        return 1, int(acc == 0), True
    length = len(values)
    found = visited = 0
    chosen: list[int] = []

    def rec(indices: range, depth: int, acc: int) -> bool:
        nonlocal found, visited
        if n - depth == s:
            # Hockey stick: C(length-1-i, s-1) summed over the range.
            visited += math.comb(length - indices.start, s) - math.comb(length - indices.stop, s)
            for tail in table.get(acc, ()):
                if tail[0] in indices:
                    found += 1
                    take(tuple(chosen) + tuple(values[i] for i in tail))
            return deadline is None or time.monotonic() <= deadline
        for i in indices:
            chosen.append(values[i])
            ok = rec(range(i + 1, length - n + depth + 2), depth + 1, acc ^ fps[i])
            chosen.pop()
            if not ok:
                return False
        return True

    complete = rec(range(length - n + 1), 0, acc)
    return visited, found, complete


def _choose_engine(walk: int, dim: int) -> bool:
    """Whether walking 2**dim solutions costs at most ``walk`` tail lookups."""
    return (1 << dim) // _PER_LOOKUP <= walk


def _walk_lookups(length: int, frees: list[int], stop: int) -> int:
    """The walk's tail lookups over boxes of ``frees`` free columns, one per
    prefix of free - s indices below length - s, summed largest first and
    only until they reach ``stop``, which is then returned."""
    terms = [(length - s, free - s) for free in frees for s in [_tail_size(length, free)]]
    terms.sort(key=lambda term: abs(2 * term[1] - term[0]))  # C(top, pick) falls off top / 2
    total = 0
    for top, pick in terms:
        if total >= stop:
            break
        total += math.comb(top, pick)
    return min(total, stop)


def _kernel(m: int, k: int, base: tuple[int, ...]) -> tuple[list[int], int]:
    """A basis of the x with F.x = 0 and one x with F.x = b, bit v of x selecting
    value v: the monomials x_U, |U| <= m-k-1 (x_U x_T has even weight
    2**(m - |T u U|) for 1 <= |T| <= k), and 0; with the identity columns fixed,
    the x_U, |U| >= 2, and 1 + x_0 + ... + x_{m-1}, which vanish on each e_i, and 1."""
    from .ortho import row_products

    full = (1 << (1 << m)) - 2 - sum(1 << v for v in base)  # the free values
    # The m single rows come first.
    products = [acc for _, acc in row_products(_value_rows(m), m - k - 1, full)]
    if not base:
        return [full, *products], 0
    return products[m:] + [reduce(int.__xor__, products[:m], full)] * (m - k > 1), full


def _box_columns(m: int, k: int, prune: str, n_max: int,
                 deadline: Optional[float]) -> tuple[_Columns, str]:
    """What every box at ``m`` chooses from (the fixed columns, the number of
    other values, a cache for those values, their fingerprints and tail
    tables, and the linear engine's solutions by weight, or None), and a line
    naming the engines and their costs."""
    # Under "orbit", every full-rank candidate is row-space equivalent to one
    # containing the identity columns; k-orthogonality only sees the row space.
    base = tuple(1 << i for i in range(m)) if prune == "orbit" else ()
    length = (1 << m) - 1 - len(base)
    sizes = range(m, min(n_max, (1 << m) - 1) + 1)
    frees = [n - len(base) for n in sizes if not _flat(n, k)]
    engines, solutions = [], None
    if len(frees) < len(sizes):
        engines.append(f"flat engine for n <= {1 << (k + 1)} (RM({m - k - 1}, {m}) has minimum "
                       f"weight {1 << (k + 1)}, met only by its {k + 1}-flats)")
    if frees:
        dim = sum(math.comb(m, t) for t in range(m - k))  # the monomials of _kernel, less
        if base:  # the m conditions x(e_i) = 0, or at degree 0 the one the constant meets
            dim -= m if m - k > 1 else 1
        # The walk's cost only matters up to the linear engine's.
        walk = _walk_lookups(length, frees, (1 << dim) // _PER_LOOKUP)
        linear = _choose_engine(walk, dim)
        if linear:
            from .gf2 import span_ints

            kernel, particular = _kernel(m, k, base)
            solutions = {free: [] for free in frees}
            low = [x ^ particular for x in span_ints(kernel[:16])]
            blocks = 1 << max(len(kernel) - 16, 0)
            start = time.monotonic() if deadline is not None and blocks > 1 else None
            for i, high in enumerate(span_ints(kernel[16:])):
                if i and deadline is not None:
                    # Each of the i blocks so far took (now - start) / i: the walk
                    # takes over once the blocks - i left would pass the deadline.
                    # A block has run since start, so the divisor is positive; the
                    # block count is compared as an int, since it may pass a float.
                    now = time.monotonic()
                    if blocks - i > (deadline - now) * i / (now - start):
                        solutions = None
                        break
                for x in low:
                    x ^= high
                    found = solutions.get(x.bit_count())
                    if found is not None:
                        found.append(x)
        cost = (f"at least 2**{dim}/{_PER_LOOKUP}" if linear
                else f"2**{dim}/{_PER_LOOKUP} > {walk}")
        engines.append(f"{'walk' if solutions is None else 'linear'} engine, D={dim}: "
                       f"{cost} walk lookups"
                       + ("; the span would pass the deadline" if linear and solutions is None else ""))
    return (base, length, {}, solutions), f"m={m}: " + "; ".join(engines)


def _scan_box(m: int, n: int, k: int, columns: _Columns, prune: str,
              deadline: Optional[float]) -> BoxResult:
    base, length, cache, solutions = columns
    if prune == "orbit":
        mode, candidates = "fast-orbit", None
    elif math.comb(length, n) <= _EXACT_COUNT_LIMIT:
        mode, candidates = "slow", full_rank_count(m, n)
    else:
        mode, candidates = "fast", None
    free = n - len(base)
    visited = total = math.comb(length, free)
    flat, complete = _flat(n, k), True
    count, hits = _flat_hits(m, n, k, base) if flat else (0, [])
    if hits or not flat:  # a flat box without hits loads neither module
        from .gf2 import BitMat
        from .ortho import is_k_orthogonal
    full_rank = 0
    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (fixed columns first, sorted)

    def take(hit: tuple[int, ...]) -> None:
        """Rank a hit, and re-verify a full-rank one independently of the
        fingerprints that found it."""
        nonlocal full_rank
        cols = base + hit
        if _rank(cols) == m:
            full_rank += 1
            ordered = tuple(sorted(cols))
            if is_k_orthogonal(BitMat.from_columns(m, ordered), k).holds:
                kept.append((cols, ordered))

    for hit in hits:
        take(hit)
    if not flat:
        if "values" not in cache:
            cache["values"] = [v for v in range(1, 1 << m) if v not in base]
        values = cache["values"]
        if solutions is not None:
            for x in solutions[free]:
                take(tuple(v for v in values if x >> v & 1))
            count = len(solutions[free])
        else:
            if "fps" not in cache:  # the first box walked at this row count
                table = subset_parity_table(m, k)
                cache["fps"] = [table[v] for v in values]
            s = _tail_size(length, free)
            if s not in cache:
                cache[s] = _tail_table(cache["fps"], s)
            # Each e_i has one fingerprint bit, {i}'s, bit i: base XORs to 2**len(base) - 1.
            visited, count, complete = _scan_range(
                values, cache["fps"], cache[s], s, free, (1 << len(base)) - 1, deadline, take,
            )
    return BoxResult(
        m=m, n=n, subsets=visited, candidates=candidates,
        hits=full_rank if mode == "slow" else count,
        witnesses=tuple(SearchWitness(m, n, cols) for _, cols in sorted(kept)),
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
    columns: dict[int, tuple[_Columns, str]] = {}  # built once per row count
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
                if m not in columns:
                    columns[m] = _box_columns(m, k, prune, space.n_max, deadline)
                boxes.append(_scan_box(m, n, k, columns[m][0], prune, deadline))
                scanned, exhausted = True, not boxes[-1].complete
    return SearchReport(k=k, prune=prune, boxes=tuple(boxes),
                        elapsed_seconds=time.monotonic() - start, notes=tuple(notes),
                        engines=tuple(engine for _, engine in columns.values()))
