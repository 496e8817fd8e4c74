"""Exact dyadic phases: angles p*pi/2**(k-1) held as integers modulo 2**k.

No floating point is used anywhere; every angle comparison is a congruence.
"""

from __future__ import annotations

import operator

from .errors import MAX_K, DimensionError, KorthError, RangeError
from .record import Record

__all__ = ["DyadicPhase", "DyadicPhaseVector"]

# _DIGITS[b] maps a byte to the ASCII digit of its bit b.
_DIGITS = tuple(bytes(48 + ((v >> b) & 1) for v in range(256)) for b in range(8))


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

    ``planes[b]`` packs bit b of every exponent (bit i = qubit i), so a
    masked sum is at most k popcounts instead of a loop over the mask.
    """

    __slots__ = ("k", "p", "planes")
    _fields = ("k", "p")  # planes is derived: not compared, hashed or shown

    def __init__(self, k: int, p: tuple[int, ...]):
        if not 1 <= k <= MAX_K:
            raise RangeError(f"denominator exponent must be in 1..{MAX_K}, got {k}")
        q = 1 << k
        p = tuple(map(operator.index, p))  # exact ints only
        top = max(p, default=0)
        if top >= q or min(p, default=0) < 0:
            p = tuple(x % q for x in p)
            top = max(p, default=0)
        width, last_first = top.bit_length(), p[::-1]
        self._fill(k, p, width, [bytes(last_first) if width <= 8 else bytes(
            (x >> base) & 255 for x in last_first) for base in range(0, width, 8)])

    @classmethod
    def _from_planes(cls, k: int, p: tuple[int, ...], planes: tuple[int, ...]) -> "DyadicPhaseVector":
        """The vector with exponents ``p``, each already in [0, 2**k), and
        bit planes ``planes``, the top one nonzero: unchecked."""
        vec = cls.__new__(cls)
        for name, value in (("k", k), ("p", p), ("planes", planes)):
            object.__setattr__(vec, name, value)
        return vec

    def _fill(self, k: int, p: tuple[int, ...], width: int, chunks: list[bytes]) -> None:
        """Set the fields.  ``chunks[j]`` holds byte j of every exponent, one
        byte per qubit, last qubit first, so bit i lands at bit i; the planes
        are the bits below ``width``, zero top ones dropped."""
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "p", p)
        planes = []
        for j, chunk in enumerate(chunks):
            for b in range(min(8, width - 8 * j)):
                planes.append(int(chunk.translate(_DIGITS[b]), 2))
        while planes and not planes[-1]:
            planes.pop()
        object.__setattr__(self, "planes", tuple(planes))

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
        if len(self.p) != n:
            raise DimensionError(f"phase vector length {len(self.p)} != {n} qubits")

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
