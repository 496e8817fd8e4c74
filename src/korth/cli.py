"""Command-line surface: construct, certify, measure, and search codes.

Exit status: 0 on success/PASS, 1 when a verification ran and failed (a gate
check fails, an orthogonality check fails, or a minimality search finds a
witness), 2 on usage or input errors.  JSON reports carry ``"schema": 1``.

The command line is read from one table, :data:`COMMANDS`.  A line of
whole flag names, each followed by one value that does not start with "-",
is read without the standard parser: its import costs every command more
start-up than the rest of the parse.  The standard parser, built from the
same table, reads every other line (help, abbreviations, ``--flag=value``,
negative numbers as values and every usage error).  Files are opened with
:func:`open`, so the path classes are not imported either.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .errors import KorthError

if TYPE_CHECKING:  # each handler imports the layers it runs
    from .codes import StandardFormCode
    from .phases import DyadicPhaseVector

SCHEMA = 1


def _parse_phase_list(spec: str, n: int, k: int) -> DyadicPhaseVector:
    from .phases import DyadicPhaseVector

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


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _emit(payload: dict, out: Optional[str]) -> None:
    from . import report

    text = report.json_text(payload)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_standard_form(path: str) -> StandardFormCode:
    from . import codes

    code = codes.code_from_json(_read_text(path))
    return codes.to_standard_form(code)


def _cmd_construct(args) -> int:
    from . import codes, families
    from .gf2 import format_matrix_text

    sf = families.subdual_css(args.m)
    _emit(codes.code_to_json_dict(sf.to_stabilizer_code()), args.out)
    if args.ax:
        _write_text(args.ax, format_matrix_text(sf.a_x))
    if args.az:
        _write_text(args.az, format_matrix_text(sf.a_z))
    return 0


def _cmd_standard_form(args) -> int:
    from . import codes

    sf = _load_standard_form(args.code)
    payload = {
        "schema": SCHEMA,
        "command": "standard-form",
        "n": sf.n,
        "m": sf.m,
        "css": codes.is_css(sf),
        "a_x": [str(r) for r in sf.a_x.rows],
        "b": [str(r) for r in sf.b.rows],
        "a_z": [str(r) for r in sf.a_z.rows],
        "r": str(sf.r),
        "s": str(sf.s),
        "x_phases": list(sf.x_phases),
        "local_s_mask": str(sf.local_s_mask),
    }
    _emit(payload, args.out)
    return 0


def _cmd_check_orth(args) -> int:
    from . import ortho
    from .gf2 import BitVec, parse_matrix_text

    mat = parse_matrix_text(_read_text(args.matrix))
    restriction = BitVec.from_string(args.r) if args.r else None
    report = ortho.is_k_orthogonal(mat, args.k, restriction)
    payload = {
        "schema": SCHEMA,
        "command": "check-orth",
        "k": args.k,
        "holds": report.holds,
    }
    if report.witness is not None:
        payload["witness"] = {
            "t": report.witness.t,
            "rows": list(report.witness.rows),
            "restriction": str(report.witness.restriction),
        }
    if args.out:
        _emit(payload, args.out)
    if report.holds:
        print(f"PASS: matrix is {args.k}-orthogonal")
        return 0
    wit = report.witness
    print(
        f"FAIL: rows {list(wit.rows)} have an odd {wit.t}-fold product "
        f"(restriction {wit.restriction})"
    )
    return 1


def _cmd_find_gates(args) -> int:
    from . import gates

    sf = _load_standard_form(args.code)
    sol = gates.find_transversal_phases(sf, args.k)
    payload = {
        "schema": SCHEMA,
        "command": "find-gates",
        "k": sol.k,
        "modulus": 1 << sol.k,
        "count": sol.count(),
        "generators": [
            {
                "p": list(gen.p),
                "order": order,
                "logical_phase": str(phase),
            }
            for gen, order, phase in zip(sol.generators, sol.orders, sol.phases)
        ],
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify_gate(args) -> int:
    from . import gates
    from .phases import DyadicPhaseVector

    sf = _load_standard_form(args.code)
    if args.gate:
        try:
            spec = json.loads(_read_text(args.gate))
        except (ValueError, RecursionError) as exc:  # bad, too deeply nested or too long a number
            raise KorthError(str(exc)) from None
        need = "gate descriptor needs integer k, optional controls and a list p"
        try:
            k, controls, p = spec["k"], spec.get("controls", 0), spec["p"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise KorthError(f"{need}: {exc!r}") from None
        # JSON floats and booleans would otherwise truncate to other values.
        if not isinstance(p, list) or any(type(v) is not int for v in (k, controls, *p)):
            raise KorthError(f"{need} of integers, got k={k!r}, controls={controls!r}")
        theta = DyadicPhaseVector(k, tuple(p))
    else:
        if args.k is None or args.p is None:
            raise KorthError("verify-gate needs --gate FILE or both --k and --p")
        k = args.k
        controls = args.controls
        theta = _parse_phase_list(args.p, sf.n, k)
    payload: dict = {
        "schema": SCHEMA,
        "command": "verify-gate",
        "k": k,
        "controls": controls,
    }
    if controls == 0:
        result = gates.logical_phase_action(sf, theta)
        payload["pass"] = result.ok
        if result.ok:
            payload["logical_phase"] = str(result.phase)
            print(f"PASS: logical phase {result.phase}")
        else:
            payload["violation"] = str(result.violation)
            payload["residue"] = result.residue
            print(
                f"FAIL: support {result.violation} picks up residue "
                f"{result.residue} mod {1 << k}"
            )
    else:
        report = gates.controlled_phase_action(
            sf, gates.GateDescriptor(controls=controls, realized=theta)
        )
        payload["pass"] = report.passed
        payload["induced_r"] = str(report.induced_r)
        payload["non_clifford"] = report.non_clifford
        if report.passed:
            payload["logical_numerator"] = report.logical_numerator
            print(
                f"PASS: {controls}-controlled phase, logical numerator "
                f"{report.logical_numerator} mod {1 << (k - controls)}"
            )
        else:
            payload["witness_rows"] = list(report.witness_rows)
            payload["residue"] = report.witness_residue
            payload["modulus"] = report.witness_modulus
            print(
                f"FAIL: rows {list(report.witness_rows)} break the congruence "
                f"mod {report.witness_modulus}"
            )
    if args.out:
        _emit(payload, args.out)
    return 0 if payload["pass"] else 1


def _cmd_distance(args) -> int:
    from . import distance
    from .gf2 import parse_matrix_text

    if args.code:
        from . import codes

        sf = _load_standard_form(args.code)
        if not codes.is_css(sf):
            raise KorthError("distance computation needs a CSS code")
        a_x, a_z = sf.a_x, sf.a_z
    else:
        if not (args.ax and args.az):
            raise KorthError("distance needs --code or both --ax and --az")
        a_x = parse_matrix_text(_read_text(args.ax))
        a_z = parse_matrix_text(_read_text(args.az))
    report = distance.css_distances(a_x, a_z, weight_cap=args.weight_cap)
    payload = {
        "schema": SCHEMA,
        "command": "distance",
        "d_z": report.d_z,
        "d_x": report.d_x,
        "exact_z": report.exact_z,
        "exact_x": report.exact_x,
        "method_z": report.method_z,
        "method_x": report.method_x,
        "witness_z": str(report.witness_z) if report.witness_z else None,
        "witness_x": str(report.witness_x) if report.witness_x else None,
    }
    if args.out:
        _emit(payload, args.out)
    bound_z = "" if report.exact_z else ">="
    bound_x = "" if report.exact_x else ">="
    print(f"d_Z={bound_z}{report.d_z} d_X={bound_x}{report.d_x}")
    if report.witness_z is not None:
        print(f"witness_Z {report.witness_z}")
    if report.witness_x is not None:
        print(f"witness_X {report.witness_x}")
    return 0


def _cmd_search_min(args) -> int:
    from . import search

    if args.m_min > args.m_max:
        raise KorthError(f"the row-count range is empty: --m-min {args.m_min} "
                         f"exceeds --m-max {args.m_max}")
    m_range = tuple(range(args.m_min, args.m_max + 1))
    space = search.SearchSpace(
        k=args.k,
        m_range=m_range,
        n_max=args.n_max,
        budget_seconds=args.budget_seconds,
    )
    report = search.minimality_search(space, prune=args.prune)
    if args.verbose:
        for line in report.engines:
            print(f"search-min {line}", file=sys.stderr)
    payload = report.to_dict()
    payload["command"] = "search-min"
    _emit(payload, args.out)
    return 1 if report.witnesses else 0


def _cmd_reduce_degenerate(args) -> int:
    from . import codes

    sf = _load_standard_form(args.code)
    theta = _parse_phase_list(args.p, sf.n, args.k)
    view, reduced = codes.nondegenerate_reduction(sf, theta)
    payload = {
        "schema": SCHEMA,
        "command": "reduce-degenerate",
        "classes": [
            {
                "indices": list(c.indices),
                "representative": c.representative,
                "undetectable": c.undetectable,
            }
            for c in view.partition.classes
        ],
        "representatives": list(view.representatives),
        "a_x_reduced": [str(r) for r in view.a_x.rows],
        "p_reduced": list(reduced.p),
        "k": reduced.k,
    }
    _emit(payload, args.out)
    return 0


# The command table: each subcommand's handler, help line and flags.  A flag
# is (name, type, default, choices, help): the default REQUIRED marks one
# that must be given, and the type None one that takes no value.  Both
# parsers, the usage lines and -h/--help read it.
REQUIRED = object()


def _flag(name: str, convert: Optional[type] = str, default: object = None,
          choices: Optional[tuple[str, ...]] = None, help: str = "") -> tuple:
    return name, convert, default, choices, help


_TOP = (_flag("--verbose", None, False,
              help="report the exit status, time and loaded modules on stderr"),)
_HELP = _flag("-h", None, help="show this help message and exit")
COMMANDS = {
    "construct": (_cmd_construct, "build the sub-dual CSS code for m check rows", (
        _flag("--m", int, REQUIRED),
        _flag("--out", help="write the JSON code descriptor here"),
        _flag("--ax", help="write A_X in matrix text format"),
        _flag("--az", help="write A_Z in matrix text format"),
    )),
    "standard-form": (_cmd_standard_form, "reduce a JSON code to standard form", (
        _flag("--code", default=REQUIRED),
        _flag("--out"),
    )),
    "check-orth": (_cmd_check_orth, "certify k-orthogonality of a matrix", (
        _flag("--matrix", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--r", help="restriction bit string (defaults to all ones)"),
        _flag("--out"),
    )),
    "find-gates": (_cmd_find_gates, "solve for all transversal phase vectors", (
        _flag("--code", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--out"),
    )),
    "verify-gate": (_cmd_verify_gate, "verify a transversal (controlled) phase gate", (
        _flag("--code", default=REQUIRED),
        _flag("--gate", help="JSON gate descriptor {k, controls, p}"),
        _flag("--k", int),
        _flag("--p", help="'all-ones' or comma-separated exponents"),
        _flag("--controls", int, 0),
        _flag("--out"),
    )),
    "distance": (_cmd_distance, "exact CSS distances", (
        _flag("--code"),
        _flag("--ax"),
        _flag("--az"),
        _flag("--weight-cap", int),
        _flag("--out"),
    )),
    "search-min": (_cmd_search_min, "exhaustive k-orthogonality minimality search", (
        _flag("--k", int, REQUIRED),
        _flag("--m-min", int, REQUIRED),
        _flag("--m-max", int, REQUIRED),
        _flag("--n-max", int, REQUIRED),
        _flag("--budget-seconds", float),
        _flag("--prune", default="none", choices=("none", "orbit")),
        _flag("--out"),
    )),
    "reduce-degenerate": (_cmd_reduce_degenerate,
                          "aggregate phases onto degeneracy class representatives", (
        _flag("--code", default=REQUIRED),
        _flag("--k", int, REQUIRED),
        _flag("--p", default=REQUIRED),
        _flag("--out"),
    )),
}
_DESCRIPTION = "Stabilizer codes with transversal phase gates: construct, certify, measure, search."


def _spelled(flag: tuple) -> str:
    """A flag as usage and help show it: its name, then its value's name."""
    name, convert, _, choices, _ = flag
    if convert is None:
        return name
    return f"{name} {'{' + ','.join(choices) + '}' if choices else name[2:].replace('-', '_').upper()}"


def _usage(command: Optional[str]) -> str:
    flags = _TOP if command is None else COMMANDS[command][2]
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
    for flag in (("-h, --help", *_HELP[1:]), *(_TOP if command is None else COMMANDS[command][2])):
        default = flag[2]
        note = ("(required)" if default is REQUIRED else "" if default is None or default is False
                else f"(default: {default})")
        left, text = _spelled(flag), f"{flag[4]} {note}".strip()
        left = f"  {left:<22}" if len(left) < 22 else f"  {left}\n{'':24}"  # a long one on its own line
        lines.append(f"{left}{text}".rstrip())
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read a command line from :data:`COMMANDS`: the subcommand's flags by
    their names with dashes as underscores, plus ``verbose``, ``subcommand``
    and ``func``.  A line of whole flag names, each with one value that does
    not start with "-", is read here; the standard parser reads any other
    line, and reads such a line the same way.  Raises SystemExit: 0 after
    -h/--help, 2 after a usage error."""
    argv = list(argv)
    verbose = argv[:1] == ["--verbose"]
    command, *rest = argv[verbose:] or [None]
    if command not in COMMANDS or len(rest) % 2:
        return _parse_standard(argv)
    flags = {flag[0]: flag for flag in COMMANDS[command][2]}
    values = {name: flag[2] for name, flag in flags.items()}
    for name, value in zip(rest[::2], rest[1::2]):  # the last occurrence wins
        if name not in flags or value[:1] == "-":
            return _parse_standard(argv)
        _, convert, _, choices, _ = flags[name]
        try:
            values[name] = convert(value)
        except ValueError:
            return _parse_standard(argv)
        if choices and values[name] not in choices:
            return _parse_standard(argv)
    if any(value is REQUIRED for value in values.values()):
        return _parse_standard(argv)
    return SimpleNamespace(verbose=verbose, subcommand=command, func=COMMANDS[command][0],
                           **{name[2:].replace("-", "_"): value for name, value in values.items()})


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
                     None, _TOP)
    subparsers = top.add_subparsers(dest="subcommand", required=True, prog="korth")
    for command, (handler, _, flags) in COMMANDS.items():
        parser = subparsers.add_parser(command, prog=f"korth {command}", usage=_usage(command),
                                       add_help=False)
        with_flags(parser, command, flags).set_defaults(func=handler)
    return SimpleNamespace(**vars(top.parse_args(argv)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
    start = time.perf_counter()
    try:
        status = args.func(args)
    except (KorthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        # Which layers the command loaded: each handler imports its own.
        layers = sorted(name[6:] for name in sys.modules
                        if name.startswith("korth.") and name != __name__)
        print(
            f"{args.subcommand}: exit {status} in {time.perf_counter() - start:.3f}s; "
            f"layers {' '.join(layers)}",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
