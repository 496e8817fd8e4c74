"""Exact dyadic phases: angles p*pi/2**(k-1) held as integers modulo 2**k.

No floating point is used anywhere; every angle comparison is a congruence.
"""

from __future__ import annotations

import operator
import struct

from .errors import MAX_K, DimensionError, KorthError, RangeError
from .record import Record

__all__ = ["DyadicPhase", "DyadicPhaseVector", "lane_planes"]

_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bit values
_LANES = "BBHIIQQQQ"  # by bytes of room needed: the struct code of a 1-, 2-, 4- or 8-byte lane


def lane_planes(x: int, n: int, w: int, depth: int) -> tuple[int, ...]:
    """Bit planes 0..depth-1 of the n lanes of ``x``, each w >= depth bits
    wide, lane i at bit w*i: plane b has bit i set when lane i has bit b.
    Zero top planes are dropped."""
    digits = format(x, f"0{n * w}b")  # lane n - 1 first, each top bit first
    planes = [int(digits[w - 1 - b::w], 2) for b in range(depth)] if x else []
    while planes and not planes[-1]:
        planes.pop()
    return tuple(planes)


class DyadicPhase(Record):
    """The angle numerator*pi/2**(k-1), stored in lowest terms.

    The numerator is reduced modulo 2**k and shared factors of two are
    cancelled, so equal angles compare equal regardless of how they were
    produced.  Zero is represented as (0, 1).
    """

    __slots__ = ("numerator", "k")

    def __init__(self, numerator: int, k: int):
        if not 1 <= k <= MAX_K:
            raise RangeError(f"denominator exponent must be in 1..{MAX_K}, got {k}")
        num = numerator % (1 << k)
        while num and num % 2 == 0 and k > 1:
            num //= 2
            k -= 1
        if num == 0:
            k = 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "k", k)

    def is_zero(self) -> bool:
        return self.numerator == 0

    def __str__(self) -> str:
        if self.numerator == 0:
            return "0"
        denom = 1 << (self.k - 1)
        num = "pi" if self.numerator == 1 else f"{self.numerator}pi"
        return num if denom == 1 else f"{num}/{denom}"


class DyadicPhaseVector(Record):
    """Per-qubit phase exponents: qubit i receives P(p[i]*pi/2**(k-1)).

    The vector holds its length n and its bit planes: ``planes[b]`` packs
    bit b of every exponent (bit i = qubit i), with no zero top plane, so a
    masked sum is at most k popcounts instead of a loop over the mask.  The
    exponents ``p`` are read off the planes on demand.
    """

    __slots__ = ("k", "n", "planes")
    _fields = ("k", "p")  # p is a property: equality, hashing and repr read it

    def __init__(self, k: int, p: tuple[int, ...]):
        if not 1 <= k <= MAX_K:
            raise RangeError(f"denominator exponent must be in 1..{MAX_K}, got {k}")
        q = 1 << k
        p = tuple(map(operator.index, p))  # exact ints only
        if max(p, default=0) >= q or min(p, default=0) < 0:
            p = tuple(x % q for x in p)
        n, depth = len(p), max(p, default=0).bit_length()
        code = _LANES[(depth + 7) // 8]
        packed = int.from_bytes(struct.pack(f"<{n}{code}", *p), "little")  # exponent i in lane i
        planes = lane_planes(packed, n, 8 * struct.calcsize(code), depth)
        for name, value in zip(self.__slots__, (k, n, planes)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_planes(cls, k: int, n: int, planes: tuple[int, ...]) -> "DyadicPhaseVector":
        """The vector of n exponents whose bit planes are ``planes``: at most
        k of them, each below 2**n, the top one nonzero.  Unchecked."""
        vec = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (k, n, planes)):
            object.__setattr__(vec, name, value)
        return vec

    @property
    def p(self) -> tuple[int, ...]:
        """The exponents.  Each distinct plane is spread once to lanes of 1,
        2, 4 or 8 bytes, one per qubit, and weighted by the bits it holds."""
        n, planes = self.n, self.planes
        code = _LANES[(len(planes) + 7) // 8]
        size = struct.calcsize(code)
        weights: dict[int, int] = {}
        for b, plane in enumerate(planes):
            if plane:
                weights[plane] = weights.get(plane, 0) | 1 << b
        packed = 0
        for plane, weight in weights.items():
            lanes = bytearray(n * size)  # big-endian, qubit n - 1 first
            lanes[size - 1::size] = format(plane, f"0{n}b").encode().translate(_BITS)
            packed += int.from_bytes(lanes, "big") * weight
        return struct.unpack(f"<{n}{code}", packed.to_bytes(n * size, "little"))

    @classmethod
    def all_ones(cls, n: int, k: int) -> "DyadicPhaseVector":
        return cls(k, (1,) * n)

    @classmethod
    def zeros(cls, n: int, k: int) -> "DyadicPhaseVector":
        return cls(k, (0,) * n)

    @property
    def modulus(self) -> int:
        return 1 << self.k

    def check_length(self, n: int) -> None:
        if self.n != n:
            raise DimensionError(f"phase vector length {self.n} != {n} qubits")

    def masked_sum(self, bits: int) -> int:
        """Sum of p[i] over the set bits i < n of ``bits`` (plain integer sum)."""
        return sum((bits & plane).bit_count() << b for b, plane in enumerate(self.planes))


def parse_phase_list(spec: str, n: int, k: int) -> DyadicPhaseVector:
    """The phase vector a ``--p`` value names: ``all-ones`` or n
    comma-separated integer exponents."""
    if spec == "all-ones":
        return DyadicPhaseVector.all_ones(n, k)
    try:
        values = [int(x) for x in spec.split(",")]
    except ValueError:
        raise KorthError(
            f"--p expects 'all-ones' or a comma-separated integer list, got {spec!r}"
        ) from None
    if len(values) != n:
        raise KorthError(f"--p lists {len(values)} entries for an n={n} code")
    return DyadicPhaseVector(k, tuple(values))
