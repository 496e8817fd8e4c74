"""The report writer and reader: ``json_text`` writes every korth report and
code descriptor, ``emit`` sends a report to its file or to stdout, and
``read_json`` reads a code or gate descriptor.  They need only the standard
library, and not the ``json`` package either (the string escaper and the
scanner are json's C ones), so a command that writes a report or reads a
well-formed file loads no other layer for it."""

from __future__ import annotations

import math
import sys

from _json import encode_basestring_ascii as _quote, make_scanner

__all__ = ["SCHEMA", "emit", "json_text", "read_json"]

SCHEMA = 1  # the "schema" number every JSON report carries

_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_text(obj) -> str:
    r"""``json.dumps(obj, indent=2) + "\n"``, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder, one generator
    step per value.  Here each list of plain ints (``type(x) is int``, so
    never a bool) or plain strings is one ``join``, and every piece goes to
    one list that is joined once, so no level of nesting copies the text
    below it.  Dict keys must be strings.  An int past the interpreter's
    limit on digits converted (``sys.get_int_max_str_digits``) is written in
    full all the same, without lifting that limit.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def emit(payload: dict, out: str | None) -> None:
    """Write ``payload`` as a JSON report to the file ``out``, or to stdout."""
    text = json_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            _write(f, text)
    else:
        _write(sys.stdout, text)


def _write(stream, text: str) -> None:
    """``stream.write(text)`` in slices of 64 KiB: a text stream encodes what
    it is given at once, so a whole report would sit in memory twice.  A
    slice and its bytes stay under glibc's default mmap threshold (128 KiB),
    so each reuses heap memory instead of a fresh mapping."""
    step = 1 << 16
    for i in range(0, len(text), step):
        stream.write(text[i:i + step])


class _Decoding:
    """json's decoding defaults, as ``_json.make_scanner`` reads them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__


_scan = make_scanner(_Decoding)
_WHITESPACE = " \t\n\r"  # what json skips around the value


def read_json(text: str):
    """``json.loads(text)`` for a string.  The value is read by json's C
    scanner with json's defaults; when that scan fails, or leaves anything
    but whitespace after the value, ``json.loads`` reads the text again, so
    every malformed text raises json's own exception with json's message."""
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except (StopIteration, ValueError, RecursionError):  # no value, bad, too long or too deep
        end = None
    if end is None or text[end:].strip(_WHITESPACE):
        import json

        return json.loads(text)
    return value


def _write_json(obj, nl: str, out: list[str]) -> None:
    """Append the pieces of ``obj`` at the indent ``nl`` (a newline and the
    current indent), checking types in the order json's encoder does."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_JSON_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(_int_text(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {str}:
            writer = int.__repr__ if kinds == {int} else _quote
            try:
                text = ("," + inner).join(map(writer, obj))
            except ValueError:  # an int past the digit limit
                text = ("," + inner).join(map(_int_text, obj))
            out += ("[", inner, text, nl, "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out += (sep, _quote(key), ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _int_text(n: int) -> str:
    """``str(n)``, also past the digit limit, which ``Decimal`` does not have."""
    try:
        return int.__repr__(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))
