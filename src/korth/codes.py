"""Stabilizer codes, exact sign tracking, and reduction to standard form.

The standard form keeps the X-bearing generators in as few rows as possible
(a full-rank block ``a_x`` with Z-parts ``b``), the remaining generators as
pure-Z rows ``a_z`` normalized to carry + signs, and single-qubit logical
supports ``r`` (Z type) and ``s`` (X type).

Pauli operators are stored as ``i**e * X_x * Z_z`` with the exponent ``e``
tracked exactly through every product and conjugation; no sign is ever
discarded.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError, InvalidCodeError
from .gf2 import BitMat, BitVec, RowSpace, orthogonal_rows, rank
from .record import Record
from .report import SCHEMA, emit, json_text, read_json

__all__ = [
    "PauliOp",
    "StabilizerCode",
    "StandardFormCode",
    "to_standard_form",
    "is_css",
    "css_standard_form",
    "code_to_json_dict",
    "code_from_json_dict",
    "code_to_json",
    "code_from_json",
]

_SIGN_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_SIGN_VALUES = {"+": 0, "+i": 1, "-": 2, "-i": 3}
_NOT_PAULI = str.maketrans("", "", "IXYZ")  # deletes every valid letter
_X_DIGITS = bytes(map(dict(zip(b"IXYZ", b"0110")).get, range(256), b"." * 256))
_Z_DIGITS = bytes(map(dict(zip(b"IXYZ", b"0011")).get, range(256), b"." * 256))
_LETTERS = str.maketrans("0123", "IXZY")  # x + 2z per qubit


class PauliOp(Record):
    """An n-qubit Pauli operator ``i**i_exp * X_x * Z_z`` (bits packed)."""

    __slots__ = ("n", "x", "z", "i_exp")

    def __init__(self, n: int, x: int, z: int, i_exp: int = 0):
        mask = (1 << n) - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", x & mask)
        object.__setattr__(self, "z", z & mask)
        object.__setattr__(self, "i_exp", i_exp % 4)

    @classmethod
    def from_label(cls, label: str) -> "PauliOp":
        """Parse a signed Pauli string such as "+XZZXI" or "-iYZ"."""
        if not isinstance(label, str):
            raise InvalidCodeError(f"Pauli label must be a string, got {label!r}")
        sign = label[:2] if label[1:2] == "i" else label[:1]
        if sign not in _SIGN_VALUES:
            raise InvalidCodeError(
                f"Pauli label must start with one of +, -, +i, -i: {label!r}"
            )
        body = label[len(sign):]
        # Qubit i is character i, so the reversed body reads as binary.  Only the
        # axes the label carries are parsed (Z when it has no X), and as the
        # tables send every other byte to ".", a bad letter fails the parse.
        y = "Y" in body
        digits = body[::-1].encode("utf-8", "replace")
        try:
            x = int(digits.translate(_X_DIGITS), 2) if y or "X" in body else 0
            z = int(digits.translate(_Z_DIGITS) or b"0", 2) if y or not x or "Z" in body else 0
        except ValueError:
            invalid = body.translate(_NOT_PAULI)
            raise InvalidCodeError(f"invalid Pauli letter {invalid[0]!r} in {label!r}") from None
        return cls(len(body), x, z, _SIGN_VALUES[sign] + (body.count("Y") if y else 0))

    def label(self) -> str:
        """Canonical signed string; inverse of :meth:`from_label`."""
        n_y = (self.x & self.z).bit_count()
        sign = _SIGN_LABELS[(self.i_exp - n_y) % 4]
        if not self.n:
            return sign
        # Read the binary digits as hex, so qubit i gets nibble i; nibble i
        # of x + 2z is then x_i + 2*z_i, the index into "IXZY".
        width = f"0{self.n}"
        x = int(format(self.x, width + "b"), 16)
        z = int(format(self.z, width + "b"), 16)
        return sign + format(x + 2 * z, width + "x").translate(_LETTERS)[::-1]

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def squares_to_identity(self) -> bool:
        return (self.i_exp + (self.x & self.z).bit_count()) % 2 == 0

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")
        e = self.i_exp + other.i_exp + 2 * (self.z & other.x).bit_count()
        return PauliOp(self.n, self.x ^ other.x, self.z ^ other.z, e)

    def commutes_with(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")
        anti = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return anti % 2 == 0

    def conjugated_by_x(self, y: int) -> "PauliOp":
        """X_y P X_y: flips the sign when y overlaps the Z part oddly."""
        return PauliOp(self.n, self.x, self.z, self.i_exp + 2 * (y & self.z).bit_count())

    def conjugated_by_z(self, w: int) -> "PauliOp":
        """Z_w P Z_w: flips the sign when w overlaps the X part oddly."""
        return PauliOp(self.n, self.x, self.z, self.i_exp + 2 * (w & self.x).bit_count())

    def conjugated_by_s(self, mask: int) -> "PauliOp":
        """Conjugation by the phase gate S on every qubit in ``mask``.

        Rotates X into Y on those sites: z ^= (mask & x) with an i per hit.
        """
        hits = mask & self.x
        return PauliOp(self.n, self.x, self.z ^ hits, self.i_exp + hits.bit_count())


class StabilizerCode(Record):
    """A stabilizer code given by generators, with optional logicals."""

    __slots__ = ("n", "generators", "logical_x", "logical_z")
    _defaults = {"logical_x": None, "logical_z": None}

    def validate(self) -> tuple[list[PauliOp], RowSpace]:
        """Check the code; return its X-bearing rows, reduced on their X
        parts with exact signs, and the row space of its signed pure-Z rows
        (Z part, then the sign as bit n), reduced once: exact products that
        generate the same group.  No X-bearing row holds a bit on a pivot of
        that space, so their Z parts are standard form's B, final.
        """
        n = self.n
        for g in self.generators:
            if g.n != n:
                raise InvalidCodeError(f"generator on {g.n} qubits in an n={n} code")
            if g.is_identity():
                raise InvalidCodeError("identity (or phase-only) generator")
            if not g.squares_to_identity():
                raise InvalidCodeError(f"generator {g.label()} does not square to +1")
        # Order-2 pure-Z generators are +-Z_z: reduce them with the sign as
        # column n (it pivots only when -I is in the group), and clear them
        # from the X-bearing generators' Z parts, signs included.  One
        # elimination then reduces those, clearing from the X-bearing rows the
        # pivots of the rows it leaves without X, which join the Z rows.
        signed_z = RowSpace.from_ints(n + 1, [g.z | (g.i_exp >> 1) << n
                                              for g in self.generators if not g.x])
        x_gens = [g for g in self.generators if g.x]
        for i, g in enumerate(x_gens):
            if g.z:
                z = signed_z.residue(g.z)
                x_gens[i] = PauliOp(n, g.x, z, g.i_exp + 2 * (z >> n))  # PauliOp masks z
        x_rows, rest = _pauli_reduce(x_gens, n)
        # Commutation holds on the span, so the reduced rows may stand in for
        # the generators; pure-Z rows commute with each other.
        anticommute = any(((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1
                          for i, a in enumerate(x_rows) for b in x_rows[i + 1:])
        z_rows = signed_z.rows + [g.z | (g.i_exp >> 1) << n for g in rest]
        if anticommute or not orthogonal_rows(z_rows, [a.x for a in x_rows]):
            gens = self.generators
            g, h = next((g, h) for i, g in enumerate(gens) for h in gens[i + 1:]
                        if not g.commutes_with(h))
            raise InvalidCodeError(f"generators {g.label()} and {h.label()} anticommute")
        if rest:  # commuting products of order-2 generators have order 2
            signed_z = RowSpace.from_ints(n + 1, z_rows)
        if len(x_rows) + len(signed_z.rows) != len(self.generators) or n in signed_z.pivots:
            raise InvalidCodeError("generators are dependent")
        for name, op in (("logical_x", self.logical_x), ("logical_z", self.logical_z)):
            if op is None:
                continue
            if op.n != self.n:
                raise InvalidCodeError(f"{name} acts on {op.n} qubits, code has {self.n}")
            if op.is_identity() or not op.squares_to_identity():
                raise InvalidCodeError(f"{name} is not a valid order-2 Pauli")
            for g in self.generators:
                if ((op.x & g.z) ^ (op.z & g.x)).bit_count() & 1:
                    raise InvalidCodeError(f"{name} anticommutes with stabilizer {g.label()}")
        if self.logical_x is not None and self.logical_z is not None:
            if self.logical_x.commutes_with(self.logical_z):
                raise InvalidCodeError("logical X and logical Z must anticommute")
        return x_rows, signed_z


class StandardFormCode(Record):
    """A single-logical-qubit code in standard form.

    ``a_x`` (m x n, full rank) and ``b`` hold the X-bearing generators
    ``i**x_phases[i] * X_{a_x[i]} * Z_{b[i]}``; ``a_z`` holds the pure-Z
    generators, all with + sign; ``r`` and ``s`` are the supports of the
    logical Z and logical X.

    Reaching all-plus Z signs may require conjugating the whole code by a
    local frame change; the reduction records it in the three masks (applied
    to the input in the order X, S-rotation, Z).  All masks are zero for a
    CSS code written with + signs, whose output blocks then generate exactly
    the input group; the S mask is nonzero only when no pure-X logical exists.
    """

    __slots__ = ("a_x", "b", "a_z", "r", "s", "x_phases",
                 "local_x_mask", "local_s_mask", "local_z_mask")

    def __init__(self, a_x: BitMat, b: BitMat, a_z: BitMat, r: BitVec, s: BitVec,
                 x_phases: tuple[int, ...] = (), local_x_mask: BitVec | None = None,
                 local_s_mask: BitVec | None = None, local_z_mask: BitVec | None = None):
        zero = BitVec.zeros(a_x.ncols)
        masks = [zero if mask is None else mask
                 for mask in (local_x_mask, local_s_mask, local_z_mask)]
        Record.__init__(self, a_x, b, a_z, r, s, x_phases or (0,) * a_x.nrows, *masks)

    @property
    def n(self) -> int:
        return self.a_x.ncols

    @property
    def m(self) -> int:
        return self.a_x.nrows

    def x_row_pauli(self, i: int) -> PauliOp:
        return PauliOp(self.n, self.a_x.rows[i].bits, self.b.rows[i].bits, self.x_phases[i])

    def z_row_pauli(self, j: int) -> PauliOp:
        return PauliOp(self.n, 0, self.a_z.rows[j].bits, 0)

    def to_stabilizer_code(self) -> StabilizerCode:
        gens = [self.x_row_pauli(i) for i in range(self.m)]
        gens += [self.z_row_pauli(j) for j in range(self.a_z.nrows)]
        return StabilizerCode(
            self.n,
            tuple(gens),
            logical_x=PauliOp(self.n, self.s.bits, 0, 0),
            logical_z=PauliOp(self.n, 0, self.r.bits, 0),
        )

    def validate(self) -> None:
        n, m = self.n, self.m
        if self.b.nrows != m or self.b.ncols != n:
            raise InvalidCodeError("B block shape must match A_X")
        if self.a_z.ncols != n or self.r.n != n or self.s.n != n:
            raise InvalidCodeError("block widths disagree")
        if len(self.x_phases) != m:
            raise InvalidCodeError("one phase per X-bearing row required")
        if rank(self.a_x) != m:
            raise InvalidCodeError("A_X is not full rank")
        x_ints, z_ints = self.a_x.row_ints(), self.a_z.row_ints()
        z_space = RowSpace.from_ints(n, z_ints)
        if len(z_space.rows) != self.a_z.nrows:
            raise InvalidCodeError("A_Z rows are dependent")
        if m + self.a_z.nrows != n - 1:
            raise InvalidCodeError(
                f"{m} + {self.a_z.nrows} generators on {n} qubits does not leave one logical qubit"
            )
        for i in range(m):
            gi = self.x_row_pauli(i)
            if self.x_phases[i] not in (0, 1) or not gi.squares_to_identity():
                raise InvalidCodeError(f"X-bearing row {i} has a non-normalized sign")
            for j in range(i + 1, m):
                if not gi.commutes_with(self.x_row_pauli(j)):
                    raise InvalidCodeError(f"X-bearing rows {i} and {j} anticommute")
        if not orthogonal_rows(z_ints, x_ints):
            raise InvalidCodeError("a Z row anticommutes with an X-bearing row")
        if any(self.r.dot_parity(a) for a in self.a_x.rows):
            raise InvalidCodeError("logical Z support anticommutes with A_X")
        if z_space.contains(self.r.bits):
            raise InvalidCodeError("logical Z support lies in the stabilizer")
        if any(self.s.dot_parity(row) for row in self.b.rows):
            raise InvalidCodeError("logical X support anticommutes with a B part")
        if not orthogonal_rows(z_ints, [self.s.bits]):
            raise InvalidCodeError("logical X support anticommutes with A_Z")
        if not self.r.dot_parity(self.s):
            raise InvalidCodeError("logical X and Z supports overlap evenly")


def is_css(sf: StandardFormCode) -> bool:
    """True when the B block vanishes (pure X / pure Z generator split)."""
    return all(row.bits == 0 for row in sf.b.rows)


def _pauli_reduce(gens: Sequence[PauliOp], n: int) -> tuple[list[PauliOp], list[PauliOp]]:
    """Pauli rows reduced by one elimination: those pivoting on X (their X
    parts in reduced echelon form), then those pivoting on Z.

    Row i goes in as x | z << n | 1 << (2n + i), so the tags of a reduced row
    name the rows it sums, and its phase is that of their product in index
    order (the row sum of Aaronson and Gottesman).  A row left with tags
    alone is a phase, and is dropped.
    """
    space = RowSpace.from_ints(2 * n + len(gens),
                               [g.x | g.z << n | 1 << (2 * n + i) for i, g in enumerate(gens)])
    x_rows, rest = [], []
    for row, pivot in zip(space.rows, space.pivots):
        if pivot >= 2 * n:
            break  # pivots rise, so only phases are left
        tags, e, z = row >> 2 * n, 0, 0
        while tags:
            g = gens[(tags & -tags).bit_length() - 1]
            e += g.i_exp + 2 * (z & g.x).bit_count()  # as PauliOp.__mul__
            z ^= g.z
            tags &= tags - 1
        (x_rows if pivot < n else rest).append(PauliOp(n, row, row >> n, e))  # masks x, z
    return x_rows, rest


def _derive_r(checks: RowSpace, stabilizers: RowSpace) -> BitVec:
    """The first kernel member of ``checks`` outside ``stabilizers``,
    reduced against them."""
    for v in checks.kernel().row_ints():
        res = stabilizers.residue(v)
        if res:
            return BitVec(checks.ncols, res)
    raise InvalidCodeError("no pure-Z logical operator exists; not a one-qubit code")


def to_standard_form(code: StabilizerCode) -> StandardFormCode:
    """Reduce a one-logical-qubit stabilizer code to standard form.

    Pure-Z rows come out with + signs and declared pure-type logicals are
    kept verbatim.  The output blocks generate the input stabilizer group
    conjugated by the recorded local frame masks: all zero for a CSS code
    with + signs, and the S mask nonzero only when no pure-X logical exists.

    :meth:`StabilizerCode.validate` checks commutation, independence and the
    generator count, and hands over A_X, B (final) and A_Z; the reduction
    gives the signs and logicals (A_X r = B s = A_Z s = 0, r.s = 1: r is no
    Z stabilizer), so the output is not re-checked with
    :meth:`StandardFormCode.validate`.
    """
    x_rows, signed_z = code.validate()
    n = code.n
    k = n - len(code.generators)  # at least 0: validate leaves them independent
    if k == 0:
        raise InvalidCodeError(
            f"expected one logical qubit, but {n} generators on {n} qubits encode none")
    if k > 1:
        raise InvalidCodeError(
            f"expected one logical qubit ({n - 1} generators on {n} qubits), got {k}; "
            "promote the logical operators of the extra qubits to stabilizers first"
        )

    # Normalize the pure-Z signs with a single X-type conjugation: X on the
    # pivot of a reduced row meets no other row, so every Z row comes out +,
    # and no B row (validate left B clear of the pivots), so no X row flips.
    x_mask = sum(1 << p for row, p in zip(signed_z.rows, signed_z.pivots) if row >> n)

    a_x = BitMat.from_ints(n, [g.x for g in x_rows])
    z_block = BitMat.from_ints(n, signed_z.rows)  # BitVec masks off the sign bit

    # Logical Z support: clear a declared logical's X content with the
    # X-bearing rows (reduced on X, so each pivot is hit only by its own
    # row), which stays within its coset; else derive one.
    r = None
    if code.logical_z is not None:
        lz = code.logical_z
        for g in x_rows:
            if lz.x & g.x & -g.x:
                lz = lz * g
        if not lz.x:
            r = BitVec(n, lz.z)
    if r is None:
        r = _derive_r(RowSpace(a_x), RowSpace(z_block))

    # Logical X support, preferring a declared pure-X operator.
    s_mask = 0
    if (
        code.logical_x is not None
        and code.logical_x.z == 0
        and BitVec(n, code.logical_x.x).dot_parity(r)
    ):
        s = BitVec(n, code.logical_x.x)
    else:
        # Read one off a reduction: the kernel member of a row space at free
        # column f is f plus the pivots of the rows holding f, and meets r as
        # bit f of w, r reduced against the space.  Against B and A_Z, w != 0
        # gives a pure-X logical (solving [B; A_Z; r] s = e_last, free columns 0).
        space = RowSpace.from_ints(n, [g.z for g in x_rows if g.z] + z_block.row_ints())
        w = space.residue(r.bits)
        if not w:
            # None exists.  ker(A_Z) / span(A_X) has one dimension and A_X r = 0,
            # so a kernel member of A_Z lies outside A_X's span when it meets r
            # oddly: the lowest bit of w against A_Z names the first (w = 0 only
            # when r, declared, is a stabilizer).
            space, w = signed_z, signed_z.residue(r.bits) & ~(1 << n)  # drop the sign bit
            if not w:
                raise InvalidCodeError("logical_z lies in the stabilizer group")
        f = w & -w
        s = f | sum(1 << p for row, p in zip(space.rows, space.pivots) if row & f)
        if space is signed_z:
            # Adding the rows of A_X whose pivot it misses makes s cover each
            # pivot once; A_X is reduced, so S on pivot p_i then rotates row i
            # alone, to b_i + [s.b_i] e_{p_i}, which s meets evenly.
            for g in x_rows:
                if not s & g.x & -g.x:
                    s ^= g.x
            s_mask = sum(g.x & -g.x for g in x_rows if (s & g.z).bit_count() & 1)
            x_rows = [g.conjugated_by_s(s_mask) for g in x_rows]
        s = BitVec(n, s)

    # Normalize the X-bearing signs to + (or +i where the row squares demand)
    # by Z on the X pivot of each row that needs a flip.
    z_mask = sum(g.x & -g.x for g in x_rows if g.i_exp >= 2)
    x_rows = [g.conjugated_by_z(z_mask) for g in x_rows]

    return StandardFormCode(
        a_x=a_x,
        b=BitMat.from_ints(n, [g.z for g in x_rows]),
        a_z=z_block,
        r=r,
        s=s,
        x_phases=tuple(g.i_exp for g in x_rows),
        local_x_mask=BitVec(n, x_mask),
        local_s_mask=BitVec(n, s_mask),
        local_z_mask=BitVec(n, z_mask),
    )


def css_standard_form(
    a_x: BitMat,
    a_z: BitMat,
    r: BitVec | None = None,
    s: BitVec | None = None,
) -> StandardFormCode:
    """Assemble a standard-form CSS code from its two parity-check blocks.

    The blocks must be independent and mutually orthogonal and must leave
    exactly one logical qubit; omitted logical supports are derived from the
    null spaces.  Widths and orthogonality are checked here, before the
    logicals are derived; :meth:`StandardFormCode.validate` checks the rest.
    """
    n = a_x.ncols
    if a_z.ncols != n:
        raise DimensionError("check blocks have different widths")
    if not orthogonal_rows(a_z.row_ints(), a_x.row_ints()):
        raise InvalidCodeError("A_Z is not orthogonal to A_X")
    if r is None or s is None:
        x_space, z_space = RowSpace(a_x), RowSpace(a_z)
        r = _derive_r(x_space, z_space) if r is None else r
        s = _derive_r(z_space, x_space) if s is None else s
    sf = StandardFormCode(
        a_x=a_x, b=BitMat.zero(a_x.nrows, n), a_z=a_z, r=r, s=s
    )
    sf.validate()
    return sf


def code_to_json_dict(code: StabilizerCode) -> dict:
    """JSON descriptor: {"n", "stabilizers", "logical_x"?, "logical_z"?}."""
    out: dict = {
        "n": code.n,
        "stabilizers": [g.label() for g in code.generators],
    }
    if code.logical_x is not None:
        out["logical_x"] = code.logical_x.label()
    if code.logical_z is not None:
        out["logical_z"] = code.logical_z.label()
    return out


def code_from_json_dict(data: dict) -> StabilizerCode:
    try:
        n, labels = data["n"], data["stabilizers"]
    except (KeyError, TypeError) as exc:
        raise InvalidCodeError(f"code descriptor needs integer n, stabilizers: {exc}") from None
    if type(n) is not int or n < 0:  # JSON floats and booleans are not qubit counts
        raise InvalidCodeError(f"code descriptor needs integer n >= 0, got {n!r}")
    if not isinstance(labels, list):
        raise InvalidCodeError(f"stabilizers must be a list of Pauli labels, got {labels!r}")
    gens = []
    for label in labels:
        op = PauliOp.from_label(label)
        if op.n != n:
            raise InvalidCodeError(f"stabilizer {label!r} acts on {op.n} qubits, n={n}")
        gens.append(op)
    lx = data.get("logical_x")
    lz = data.get("logical_z")
    return StabilizerCode(
        n,
        tuple(gens),
        logical_x=PauliOp.from_label(lx) if lx is not None else None,
        logical_z=PauliOp.from_label(lz) if lz is not None else None,
    )


def code_to_json(code: StabilizerCode) -> str:
    return json_text(code_to_json_dict(code))


def code_from_json(text: str) -> StabilizerCode:
    try:
        data = read_json(text)
    except (ValueError, RecursionError) as exc:  # bad, too deeply nested or too long a number
        raise InvalidCodeError(f"invalid JSON: {exc}") from None
    return code_from_json_dict(data)


def load_standard_form(path: str) -> StandardFormCode:
    """The standard form of the JSON code descriptor in the file ``path``."""
    with open(path, encoding="utf-8") as f:
        return to_standard_form(code_from_json(f.read()))


def cmd_standard_form(args) -> int:
    """``korth standard-form``."""
    sf = load_standard_form(args.code)
    payload = {
        "schema": SCHEMA,
        "command": "standard-form",
        "n": sf.n,
        "m": sf.m,
        "css": is_css(sf),
        "a_x": [str(r) for r in sf.a_x.rows],
        "b": [str(r) for r in sf.b.rows],
        "a_z": [str(r) for r in sf.a_z.rows],
        "r": str(sf.r),
        "s": str(sf.s),
        "x_phases": list(sf.x_phases),
        "local_s_mask": str(sf.local_s_mask),
    }
    emit(payload, args.out)
    return 0

