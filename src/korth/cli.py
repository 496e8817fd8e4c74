"""The ``korth`` command: its command table, a reader for plain command
lines, and :func:`main`.

Exit status: 0 on success/PASS, 1 when a verification ran and failed (a gate
check fails, an orthogonality check fails, or a minimality search finds a
witness), 2 on usage or input errors.  JSON reports carry ``"schema": 1``.

Each subcommand's handler lives in the layer it drives, and :data:`COMMANDS`
names it as ``"module.function"``, so the table imports no layer and
:func:`main` imports only the module of the command it runs.  A line of
whole flag names, each followed by one value that does not start with "-",
is read here.  Every other line (help, abbreviations, ``--flag=value``,
negative numbers as values and every usage error) goes to the standard
parser in :mod:`korth.usage`, built from the same table; neither it nor
argparse is imported for a plain line.
"""

from __future__ import annotations

import gc
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import Optional, Sequence

from .errors import KorthError

# The command table: each subcommand's handler ("module.function" in the
# layer it drives), help line and flags.  A flag is (name, type, default,
# choices, help): the default REQUIRED marks one that must be given, and the
# type None one that takes no value.  Both parsers read it, and argparse
# writes -h/--help and the usage lines from it.
REQUIRED = object()


def _flag(name: str, convert: Optional[type] = str, default: object = None,
          choices: Optional[tuple[str, ...]] = None, help: str = "") -> tuple:
    return name, convert, default, choices, help


TOP_FLAGS = (_flag("--verbose", None, False,
              help="report the exit status, time and loaded modules on stderr"),)
COMMANDS = {
    "construct": ("families.cmd_construct", "build the sub-dual CSS code for m check rows", (
        _flag("--m", int, REQUIRED),
        _flag("--out", help="write the JSON code descriptor here"),
        _flag("--ax", help="write A_X in matrix text format"),
        _flag("--az", help="write A_Z in matrix text format"),
    )),
    "standard-form": ("codes.cmd_standard_form", "reduce a JSON code to standard form", (
        _flag("--code", default=REQUIRED),
        _flag("--out"),
    )),
    "check-orth": ("ortho.cmd_check_orth", "certify k-orthogonality of a matrix", (
        _flag("--matrix", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--r", help="restriction bit string (defaults to all ones)"),
        _flag("--out"),
    )),
    "find-gates": ("gates.cmd_find_gates", "solve for all transversal phase vectors", (
        _flag("--code", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--out"),
    )),
    "verify-gate": ("gates.cmd_verify_gate", "verify a transversal (controlled) phase gate", (
        _flag("--code", default=REQUIRED),
        _flag("--gate", help="JSON gate descriptor {k, controls, p}"),
        _flag("--k", int),
        _flag("--p", help="'all-ones' or comma-separated exponents"),
        _flag("--controls", int, 0),
        _flag("--out"),
    )),
    "distance": ("distance.cmd_distance", "exact CSS distances", (
        _flag("--code"),
        _flag("--ax"),
        _flag("--az"),
        _flag("--weight-cap", int),
        _flag("--out"),
    )),
    "search-min": ("search.cmd_search_min", "exhaustive k-orthogonality minimality search", (
        _flag("--k", int, REQUIRED),
        _flag("--m-min", int, REQUIRED),
        _flag("--m-max", int, REQUIRED),
        _flag("--n-max", int, REQUIRED),
        _flag("--budget-seconds", float),
        _flag("--prune", default="none", choices=("none", "orbit")),
        _flag("--out"),
    )),
    "reduce-degenerate": ("degenerate.cmd_reduce_degenerate",
                          "aggregate phases onto degeneracy class representatives", (
        _flag("--code", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--p", default=REQUIRED),
        _flag("--out"),
    )),
}


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read a command line from :data:`COMMANDS`: the subcommand's flags by
    their names with dashes as underscores, plus ``verbose``, ``subcommand``
    and ``func``, the handler's name.  A line of whole flag names, each with
    one value that does not start with "-", is read here; the standard
    parser reads any other line, and reads such a line the same way.
    Raises SystemExit: 0 after -h/--help, 2 after a usage error."""
    argv = list(argv)
    args = _read_plain(argv)
    if args is None:
        from . import usage

        args = usage._parse_standard(argv)
    return args


def _read_plain(argv: list[str]) -> Optional[SimpleNamespace]:
    """The fields of a plain line, or None for any other line."""
    verbose = argv[:1] == ["--verbose"]
    command, *rest = argv[verbose:] or [None]
    if command not in COMMANDS or len(rest) % 2:
        return None
    flags = {flag[0]: flag for flag in COMMANDS[command][2]}
    values = {name: flag[2] for name, flag in flags.items()}
    for name, value in zip(rest[::2], rest[1::2]):  # the last occurrence wins
        if name not in flags or value[:1] == "-":
            return None
        _, convert, _, choices, _ = flags[name]
        try:
            values[name] = convert(value)
        except ValueError:
            return None
        if choices and values[name] not in choices:
            return None
    if any(value is REQUIRED for value in values.values()):
        return None
    return SimpleNamespace(verbose=verbose, subcommand=command, func=COMMANDS[command][0],
                           **{name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line ``argv``, or ``sys.argv[1:]`` when run as the
    process, and return its exit status."""
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    finally:
        if argv is None:
            # Run as the process: the interpreter's exit-time collections
            # then skip the start-up heap, which the OS frees anyway.  Not
            # before the command, whose own collections it would change.
            gc.freeze()


def _run(argv: Sequence[str]) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code
    start = time.perf_counter()
    module, _, handler = args.func.partition(".")
    try:
        status = getattr(import_module(f"korth.{module}"), handler)(args)
    except (KorthError, OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        # Which layers the command loaded: each handler's module imports its own.
        layers = sorted(name[6:] for name in sys.modules
                        if name.startswith("korth.") and name not in ("korth.cli", "korth.usage"))
        print(
            f"{args.subcommand}: exit {status} in {time.perf_counter() - start:.3f}s; "
            f"layers {' '.join(layers)}",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    sys.modules["korth.cli"] = sys.modules[__name__]  # korth.usage imports the table from here
    sys.exit(main())
