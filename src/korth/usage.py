"""Usage lines, help text and the standard parser of the ``korth`` command,
all built from :data:`korth.cli.COMMANDS`.  :func:`korth.cli.parse_args`
imports this module only for a line its own reader leaves: help,
abbreviations, ``--flag=value``, negative numbers as values and every usage
error."""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import NoReturn, Optional

from .cli import COMMANDS, REQUIRED, TOP_FLAGS

_HELP = ("-h, --help", None, None, None, "show this help message and exit")
_DESCRIPTION = "Stabilizer codes with transversal phase gates: construct, certify, measure, search."


def _spelled(flag: tuple) -> str:
    """A flag as usage and help show it: its name, then its value's name."""
    name, convert, _, choices, _ = flag
    if convert is None:
        return name
    return f"{name} {'{' + ','.join(choices) + '}' if choices else name[2:].replace('-', '_').upper()}"


def _usage(command: Optional[str]) -> str:
    flags = TOP_FLAGS if command is None else COMMANDS[command][2]
    parts = [f"korth {command or ''}".rstrip(), "[-h]"]
    parts += [_spelled(f) if f[2] is REQUIRED else f"[{_spelled(f)}]" for f in flags]
    if command is None:
        parts.append("{" + ",".join(COMMANDS) + "} ...")
    return " ".join(parts)


def _help(command: Optional[str]) -> NoReturn:
    """Help on stdout, in fixed columns: exit status 0."""
    lines = [f"usage: {_usage(command)}", ""]
    if command is None:
        lines += [_DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<22}{spec[1]}" for name, spec in COMMANDS.items()]
    else:
        lines.append(COMMANDS[command][1])
    lines += ["", "options:"]
    for flag in (_HELP, *(TOP_FLAGS if command is None else COMMANDS[command][2])):
        default = flag[2]
        note = ("(required)" if default is REQUIRED else "" if default is None or default is False
                else f"(default: {default})")
        left, text = _spelled(flag), f"{flag[4]} {note}".strip()
        left = f"  {left:<22}" if len(left) < 22 else f"  {left}\n{'':24}"  # a long one on its own line
        lines.append(f"{left}{text}".rstrip())
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _parse_standard(argv: list[str]) -> SimpleNamespace:
    """Read any command line with the standard parser, built from
    :data:`COMMANDS` with the usage lines and help text above."""
    import argparse

    class Help(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            _help(self.const)

    def with_flags(parser, command, flags):  # -h/--help, then the table's flags
        parser.add_argument("-h", "--help", action=Help, nargs=0, const=command,
                            default=argparse.SUPPRESS)
        for name, convert, default, choices, _ in flags:
            if convert is None:
                parser.add_argument(name, action="store_true")
            elif default is REQUIRED:
                parser.add_argument(name, type=convert, choices=choices, required=True)
            else:
                parser.add_argument(name, type=convert, choices=choices, default=default)
        return parser

    top = with_flags(argparse.ArgumentParser(prog="korth", usage=_usage(None), add_help=False),
                     None, TOP_FLAGS)
    subparsers = top.add_subparsers(dest="subcommand", required=True, prog="korth")
    for command, (handler, _, flags) in COMMANDS.items():
        parser = subparsers.add_parser(command, prog=f"korth {command}", usage=_usage(command),
                                       add_help=False)
        with_flags(parser, command, flags).set_defaults(func=handler)
    return SimpleNamespace(**vars(top.parse_args(argv)))
