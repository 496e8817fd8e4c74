"""Exception types shared across the package, and the largest k it accepts."""

# The largest phase exponent or orthogonality level k: a modulus 2**k stays
# a few machine words, and every report prints it in full.
MAX_K = 64


class KorthError(Exception):
    """Base class for all library errors."""


class DimensionError(KorthError, ValueError):
    """Operands have incompatible lengths or shapes."""


class RangeError(KorthError, ValueError):
    """A numeric argument is outside its admissible range."""


class MatrixParseError(KorthError, ValueError):
    """Malformed matrix text input."""

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class InvalidCodeError(KorthError, ValueError):
    """Input does not describe a valid stabilizer code."""


class UnsupportedCodeError(KorthError, ValueError):
    """Operation is only defined for a narrower class of codes (e.g. CSS)."""
