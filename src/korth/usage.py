"""The standard parser of the ``korth`` command, built from
:data:`korth.cli.COMMANDS`; argparse writes its help, usage lines and usage
errors.  :func:`korth.cli.parse_args` imports this module only for a line
its own reader leaves: help, abbreviations, ``--flag=value``, negative
numbers as values and every usage error."""

from __future__ import annotations

from types import SimpleNamespace

from .cli import COMMANDS, REQUIRED, TOP_FLAGS

_DESCRIPTION = "Stabilizer codes with transversal phase gates: construct, certify, measure, search."


def _parse_standard(argv: list[str]) -> SimpleNamespace:
    """Read any command line with argparse.  Each flag's help ends with
    ``(required)`` or ``(default: X)`` when it has one."""
    import argparse

    def with_flags(parser, flags):
        for name, convert, default, choices, text in flags:
            if convert is None:
                parser.add_argument(name, action="store_true", help=text)
                continue
            required = default is REQUIRED
            note = "(required)" if required else "" if default is None else f"(default: {default})"
            parser.add_argument(name, type=convert, choices=choices, required=required,
                                default=None if required else default, help=f"{text} {note}".strip())
        return parser

    top = with_flags(argparse.ArgumentParser(prog="korth", description=_DESCRIPTION), TOP_FLAGS)
    subparsers = top.add_subparsers(dest="subcommand", required=True, title="commands")
    for command, (handler, summary, flags) in COMMANDS.items():
        parser = subparsers.add_parser(command, help=summary, description=summary)
        with_flags(parser, flags).set_defaults(func=handler)
    return SimpleNamespace(**vars(top.parse_args(argv)))
