"""Degeneracy classes and the ``reduce-degenerate`` command.

Qubits whose X-check columns coincide are indistinguishable to every
codeword support, so a phase vector acts through the sum of its exponents
over each class.  Only ``reduce-degenerate`` and the paper's lemmas run this
layer, so no other command loads it.
"""

from __future__ import annotations

from .codes import StandardFormCode, load_standard_form
from .gf2 import BitMat
from .phases import DyadicPhaseVector, parse_phase_list
from .record import Record
from .report import SCHEMA, emit

__all__ = [
    "DegeneracyClass",
    "DegeneracyPartition",
    "ReducedView",
    "degeneracy_classes",
    "nondegenerate_reduction",
]


class DegeneracyClass(Record):
    """Qubits whose check columns coincide; undetectable when all zero."""

    __slots__ = ("indices", "representative", "undetectable")


class DegeneracyPartition(Record):
    __slots__ = ("n", "classes")

    def representatives(self) -> tuple[int, ...]:
        return tuple(c.representative for c in self.classes)


def degeneracy_classes(a_x: BitMat) -> DegeneracyPartition:
    """Partition qubit indices by identical columns of ``a_x``."""
    groups: dict[int, list[int]] = {}
    cols = a_x.column_ints()
    for j, col in enumerate(cols):
        groups.setdefault(col, []).append(j)
    classes = [
        DegeneracyClass(tuple(idx), idx[0], col == 0)
        for col, idx in groups.items()
    ]
    classes.sort(key=lambda c: c.representative)
    return DegeneracyPartition(a_x.ncols, tuple(classes))


class ReducedView(Record):
    """Restriction of a check matrix to one representative per class."""

    __slots__ = ("partition", "representatives", "a_x")


def nondegenerate_reduction(
    sf: StandardFormCode, theta: DyadicPhaseVector
) -> tuple[ReducedView, DyadicPhaseVector]:
    """Aggregate per-class phase exponents onto class representatives.

    The returned phase vector acts identically on the code: every class sums
    its exponents modulo 2**k onto the representative qubit, and all other
    members carry zero.
    """
    theta.check_length(sf.n)
    part = degeneracy_classes(sf.a_x)
    q, p = theta.modulus, theta.p
    agg = [0] * sf.n
    for cls in part.classes:
        agg[cls.representative] = sum(p[i] for i in cls.indices) % q
    reps = part.representatives()
    cols = sf.a_x.column_ints()
    reduced = BitMat.from_columns(sf.m, [cols[j] for j in reps])
    return ReducedView(part, reps, reduced), DyadicPhaseVector(theta.k, tuple(agg))


def cmd_reduce_degenerate(args) -> int:
    """``korth reduce-degenerate``."""
    sf = load_standard_form(args.code)
    theta = parse_phase_list(args.p, sf.n, args.k)
    view, reduced = nondegenerate_reduction(sf, theta)
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
        "p_reduced": reduced.p,
        "k": reduced.k,
    }
    emit(payload, args.out)
    return 0
