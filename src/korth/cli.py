"""Command-line surface: construct, certify, measure, and search codes.

Exit status: 0 on success/PASS, 1 when a verification ran and failed (a gate
check fails, an orthogonality check fails, or a minimality search finds a
witness), 2 on usage or input errors.  JSON reports carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

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
    return Path(path).read_text(encoding="utf-8")


def _emit(payload: dict, out: Optional[str]) -> None:
    from . import report

    text = report.json_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
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
        Path(args.ax).write_text(format_matrix_text(sf.a_x), encoding="utf-8")
    if args.az:
        Path(args.az).write_text(format_matrix_text(sf.a_z), encoding="utf-8")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korth",
        description="Stabilizer codes with transversal phase gates: "
        "construct, certify, measure, search.",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build the sub-dual CSS code for m check rows")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="write the JSON code descriptor here")
    p.add_argument("--ax", help="write A_X in matrix text format")
    p.add_argument("--az", help="write A_Z in matrix text format")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("standard-form", help="reduce a JSON code to standard form")
    p.add_argument("--code", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_standard_form)

    p = sub.add_parser("check-orth", help="certify k-orthogonality of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", help="restriction bit string (defaults to all ones)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_orth)

    p = sub.add_parser("find-gates", help="solve for all transversal phase vectors")
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_find_gates)

    p = sub.add_parser("verify-gate", help="verify a transversal (controlled) phase gate")
    p.add_argument("--code", required=True)
    p.add_argument("--gate", help="JSON gate descriptor {k, controls, p}")
    p.add_argument("--k", type=int)
    p.add_argument("--p", help="'all-ones' or comma-separated exponents")
    p.add_argument("--controls", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_gate)

    p = sub.add_parser("distance", help="exact CSS distances")
    p.add_argument("--code")
    p.add_argument("--ax")
    p.add_argument("--az")
    p.add_argument("--weight-cap", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("search-min", help="exhaustive k-orthogonality minimality search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--prune", choices=("none", "orbit"), default="none")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search_min)

    p = sub.add_parser("reduce-degenerate",
                       help="aggregate phases onto degeneracy class representatives")
    p.add_argument("--code", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce_degenerate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
