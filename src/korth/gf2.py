"""Bit-packed GF(2) vectors and matrices.

Vectors are packed into a single Python int (bit ``i`` holds position ``i``,
so position 0 is the leftmost character of the string form) with the tail
beyond the declared length masked to zero.  All values are immutable and
hashable, so they can be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, MatrixParseError, RangeError
from .record import Record

__all__ = [
    "BitVec",
    "BitMat",
    "and_product",
    "rank",
    "rref",
    "null_space",
    "RowSpace",
    "orthogonal_rows",
    "span_ints",
    "in_rowspan",
    "solve",
    "parse_matrix_text",
    "format_matrix_text",
]


_NOT_BITS = str.maketrans("", "", "01")  # deletes every valid character


class BitVec(Record):
    """An immutable binary string of length ``n`` packed into an int."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise RangeError("BitVec length must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits & ((1 << n) - 1))

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        bad = text.translate(_NOT_BITS)
        if bad:
            col = text.index(bad[0]) + 1
            raise MatrixParseError(f"invalid bit character {bad[0]!r}", 1, col)
        return cls(len(text), int(text[::-1] or "0", 2))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < n:
                raise RangeError(f"index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVec":
        return cls(n, (1 << n) - 1)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"BitVec({str(self)!r})"

    def _check_len(self, other: "BitVec") -> None:
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check_len(other)
        return BitVec(self.n, self.bits ^ other.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check_len(other)
        return BitVec(self.n, self.bits & other.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.bits >> i) & 1)

    def dot_parity(self, other: "BitVec") -> int:
        """Parity of the overlap |self . other| (mod-2 dot product)."""
        self._check_len(other)
        return (self.bits & other.bits).bit_count() & 1


class BitMat(Record):
    """A row-major binary matrix; every row is a BitVec of length ``ncols``."""

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows: tuple[BitVec, ...]):
        if ncols < 0:
            raise RangeError("column count must be nonnegative")
        for row in rows:
            if row.n != ncols:
                raise DimensionError(f"row length {row.n} does not match column count {ncols}")
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_ints(cls, ncols: int, rows: Iterable[int]) -> "BitMat":
        return cls(ncols, tuple(BitVec(ncols, r) for r in rows))

    @classmethod
    def from_columns(cls, nrows: int, cols: Sequence[int]) -> "BitMat":
        """Matrix whose column j is ``cols[j]`` packed as an int (bit i = row i)."""
        low = (1 << nrows) - 1
        return cls.from_ints(len(cols), _columns([c & low for c in cols], nrows))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMat":
        return cls(ncols, tuple(BitVec.zeros(ncols) for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        return cls(n, tuple(BitVec(n, 1 << i) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def column(self, j: int) -> BitVec:
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r.bits >> j) & 1) << i
        return BitVec(self.nrows, bits)

    def column_ints(self) -> list[int]:
        """Columns packed as ints (bit i of entry j = row i, column j)."""
        return _columns(self.row_ints(), self.ncols)

    def transpose(self) -> "BitMat":
        return BitMat.from_ints(self.nrows, self.column_ints())

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rows)


def and_product(vs: Sequence[BitVec]) -> BitVec:
    """Bitwise AND across one or more equal-length vectors."""
    if not vs:
        raise ValueError("and_product requires at least one vector")
    n = vs[0].n
    acc = (1 << n) - 1
    for v in vs:
        if v.n != n:
            raise DimensionError(f"length mismatch: {v.n} vs {n}")
        acc &= v.bits
    return BitVec(n, acc)


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """The first ``width`` columns of packed rows, packed as ints (bit i = row i)."""
    out = [0] * width
    for i, bits in enumerate(rows):
        bit = 1 << i
        while bits:
            j = bits.bit_length() - 1
            out[j] |= bit
            bits ^= 1 << j
    return out


_WINDOW = 6  # columns the sweep clears per pass over the rows
_COLUMN_MIN_ROWS = 24  # fewest rows the column path takes
_COLUMN_MAX_BITS = 16  # most set bits per column, on average, it takes
_COLUMN_STEPS = 32  # reduction steps it may spend per column, running total


def _eliminate_by_columns(rows: list[int], ncols: int) -> tuple[list[int], list[int]] | None:
    """The column path of :func:`_eliminate`, or None where the sweep must run."""
    if len(rows) < _COLUMN_MIN_ROWS or (
        sum(row.bit_count() for row in rows) > _COLUMN_MAX_BITS * ncols
    ):
        return None
    # Columns are packed over the rows in reverse: slot[top bit] is the pivot
    # keyed at that first row.  Per pivot: its reduced column, the pivots that
    # reduction added, and its row (the vanished columns whose sums hold it).
    slot, images, budget = [-1] * len(rows), [0] * len(rows), 0
    basis, pivots, used_by = [], [], []
    for col, v in enumerate(_columns(rows[::-1], ncols)):
        used = []
        while v:
            k = slot[v.bit_length() - 1]
            if k < 0:
                break
            v ^= basis[k]
            used.append(k)
        budget += _COLUMN_STEPS - len(used)
        if budget < 0:
            return None
        if v:
            slot[v.bit_length() - 1] = len(pivots)
            basis.append(v)
            pivots.append(col)
            used_by.append(used)
        else:
            for k in used:
                images[k] ^= 1 << col
    # Reduced pivot k is pivot column k plus the reduced pivots it used, so a
    # column summing it also sums those: expand from the last pivot down.
    for k in range(len(pivots) - 1, -1, -1):
        if images[k]:
            for h in used_by[k]:
                images[h] ^= images[k]
    return [image | 1 << col for image, col in zip(images, pivots)], pivots


def _eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon over GF(2); returns (nonzero rows, pivot columns).

    Every row fits in ``ncols`` bits.  The form is unique, and each of three
    paths returns it.  Reduced input (lowest set bits strictly rising, and
    alone in their columns) is returned as is.

    Tall sparse blocks (at least ``_COLUMN_MIN_ROWS`` rows, at most
    ``_COLUMN_MAX_BITS`` set bits per column on average) try the column path
    first: each column, packed over the rows, is reduced against the pivot
    columns before it, keyed by first row.  One that stays nonzero is the
    next pivot; one that vanishes is the sum of some pivot columns, and in
    the reduced form it has a 1 in exactly those pivots' rows.  A run past
    ``_COLUMN_STEPS`` reduction steps per column hands the block to the sweep.

    The sweep finds the pivots of ``_WINDOW`` columns at a time, then clears
    them from every other row by one table lookup (the method of four
    Russians).
    """
    lows = [(row & -row).bit_length() - 1 for row in rows]
    if all(-1 < a < b for a, b in zip(lows, lows[1:])) and (not lows or lows[-1] > -1):
        low_bits = sum(1 << col for col in lows)
        if all(row & low_bits == 1 << col for row, col in zip(rows, lows)):
            return list(rows), lows
    done = _eliminate_by_columns(rows, ncols)
    if done is not None:
        return done
    work = list(rows)
    pivots: list[int] = []
    for base in range(0, ncols, _WINDOW):
        lo = len(pivots)  # rows lo.. of work are this window's pivot rows
        if lo == len(work):
            break
        for col in range(base, min(base + _WINDOW, ncols)):
            mask, r = 1 << col, len(pivots)
            for i in range(r, len(work)):
                for j in range(lo, r):
                    if work[i] >> pivots[j] & 1:
                        work[i] ^= work[j]
                if work[i] & mask:
                    break
            else:
                continue
            work[r], work[i] = work[i], work[r]
            for j in range(lo, r):
                if work[j] & mask:
                    work[j] ^= work[r]
            pivots.append(col)
        if lo == len(pivots):
            continue
        if lo == 0 and len(pivots) == len(work):
            break  # all rows pivot in this first window: nothing else to clear
        # table[s] sums the window's pivot rows whose pivot bits s has set;
        # repeating the table makes a non-pivot bit of s a don't-care.
        table = [0]
        for j in range(lo, len(pivots)):
            table *= 1 << (pivots[j] - base + 1 - len(table).bit_length())
            table += [v ^ work[j] for v in table]
        block, top = work[lo:len(pivots)], len(table) - 1
        work = [w ^ table[w >> base & top] for w in work]
        work[lo:len(pivots)] = block
    return work[: len(pivots)], pivots


def rref(M: BitMat) -> tuple[BitMat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and its pivot columns."""
    reduced, pivots = _eliminate(M.row_ints(), M.ncols)
    return BitMat.from_ints(M.ncols, reduced), tuple(pivots)


def rank(M: BitMat) -> int:
    """Row rank over GF(2)."""
    _, pivots = _eliminate(M.row_ints(), M.ncols)
    return len(pivots)


def null_space(M: BitMat) -> BitMat:
    """Basis of {v : M.v = 0 mod 2}, one row per free column (ascending)."""
    return RowSpace(M).kernel()


class RowSpace:
    """The row space of a matrix, eliminated once, for reducing many vectors.

    ``residue`` reduces packed bits against the reduced-echelon basis: the
    result is the canonical coset representative, zero exactly for members.
    ``kernel`` reads the null space off the same basis.
    """

    __slots__ = ("ncols", "rows", "pivots")

    def __init__(self, M: BitMat):
        self.ncols = M.ncols
        self.rows, self.pivots = _eliminate(M.row_ints(), M.ncols)

    @classmethod
    def from_ints(cls, ncols: int, rows: list[int]) -> "RowSpace":
        """The row space of packed rows of ``ncols`` bits, without a BitMat."""
        space = cls.__new__(cls)
        space.ncols, (space.rows, space.pivots) = ncols, _eliminate(rows, ncols)
        return space

    def kernel(self) -> BitMat:
        """Basis of {v : M.v = 0 mod 2}, one row per free column (ascending)."""
        pivot_set = set(self.pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = 1 << free
            for prow, pcol in zip(self.rows, self.pivots):
                if (prow >> free) & 1:
                    v |= 1 << pcol
            basis.append(v)
        return BitMat.from_ints(self.ncols, basis)

    def residue(self, bits: int) -> int:
        for prow, pcol in zip(self.rows, self.pivots):
            if (bits >> pcol) & 1:
                bits ^= prow
        return bits

    def contains(self, bits: int) -> bool:
        return self.residue(bits) == 0


def orthogonal_rows(rows: Iterable[int], others: Sequence[int]) -> bool:
    """True when every packed row overlaps every one of ``others`` evenly."""
    return not any((a & b).bit_count() & 1 for a in rows for b in others)


def span_ints(rows: Sequence[int]) -> Iterator[int]:
    """All XOR combinations of packed rows, in Gray-code order starting at zero.

    Element i flips the row at the lowest set bit of i, so it is the XOR of
    the rows selected by the bits of i ^ (i >> 1).
    """
    acc = 0
    yield acc
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        yield acc


def in_rowspan(v: BitVec, M: BitMat) -> bool:
    """True when ``v`` lies in the GF(2) row space of ``M``."""
    if v.n != M.ncols:
        raise DimensionError(f"vector length {v.n} != column count {M.ncols}")
    return RowSpace(M).contains(v.bits)


def solve(M: BitMat, b: BitVec) -> BitVec | None:
    """A particular solution x of M.x = b over GF(2), or None if inconsistent.

    Pivot variables are read off the reduced system and free variables are
    set to zero, so the result is deterministic.
    """
    if b.n != M.nrows:
        raise DimensionError(f"rhs length {b.n} != row count {M.nrows}")
    n = M.ncols
    aug = [r.bits | (((b.bits >> i) & 1) << n) for i, r in enumerate(M.rows)]
    reduced, pivots = _eliminate(aug, n + 1)
    x = 0
    for prow, pcol in zip(reduced, pivots):
        if pcol == n:
            return None
        if (prow >> n) & 1:
            x |= 1 << pcol
    return BitVec(n, x)


def parse_matrix_text(text: str) -> BitMat:
    """Parse the matrix text format: an "m n" header then m rows of {0,1}."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixParseError("missing header line", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixParseError('header must be "<rows> <cols>"', 1)
    try:
        nrows, ncols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError("header entries must be integers", 1) from None
    if nrows < 0 or ncols < 0:
        raise MatrixParseError("matrix dimensions must be nonnegative", 1)
    rows = []
    for i in range(nrows):
        lineno = i + 2
        if lineno > len(lines):
            raise MatrixParseError(f"expected {nrows} rows, found {i}", len(lines))
        line = lines[lineno - 1]
        if len(line) != ncols:
            raise MatrixParseError(
                f"row has {len(line)} characters, expected {ncols}", lineno
            )
        bad = line.translate(_NOT_BITS)
        if bad:
            col = line.index(bad[0]) + 1
            raise MatrixParseError(f"invalid character {bad[0]!r}", lineno, col)
        rows.append(int(line[::-1] or "0", 2))
    for extra in range(nrows + 2, len(lines) + 1):
        if lines[extra - 1].strip():
            raise MatrixParseError("unexpected content after matrix rows", extra)
    return BitMat.from_ints(ncols, rows)


def format_matrix_text(M: BitMat) -> str:
    """Render a matrix in the text format accepted by parse_matrix_text."""
    body = "".join(f"{r}\n" for r in M.rows)
    return f"{M.nrows} {M.ncols}\n{body}"
