"""In-process tracing of korth's public functions, from outside the package.

Each wrapped function records a span (name, start, end, parent) and its self
time: the span's duration minus the time its wrapped children cover.  Calls
to hot functions are only aggregated per (parent, function).  Counters are
computed at the same boundaries from each call's inputs and result, and the
time spent computing them is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

import oracle

WRAPPED = (
    "cli.main",
    "codes.code_from_json",
    "codes.to_standard_form",
    "codes.StabilizerCode.validate",
    "codes.StandardFormCode.validate",
    "gf2.rank",
    "gf2.rref",
    "gf2.null_space",
    "gf2.solve",
    "gf2.in_rowspan",
    "gf2.parse_matrix_text",
    "phases.DyadicPhaseVector.masked_sum",
    "ortho.is_k_orthogonal",
    "gates.logical_phase_action",
    "gates.controlled_phase_action",
    "gates.find_transversal_phases",
    "distance.css_distances",
    "search.minimality_search",
    "search.subset_parity_table",
    "families.subdual_css",
)

# About 180k rank and 92k orthogonality calls per search pass, and 2**m
# masked sums per span walk: these keep aggregates only, no span records.
HOT = {"gf2.rank", "ortho.is_k_orthogonal", "phases.DyadicPhaseVector.masked_sum"}

COUNTERS = (
    "gates.span_elements",
    "gates.solver_entries",
    "ortho.subsets_checked",
    "distance.coset_sides",
    "distance.weight_sides",
    "search.subsets",
    "search.candidates",
    "search.hits",
    "search.witnesses",
    "codes.qubits",
)


def _subsets_checked(nrows: int, k: int, witness: tuple | None) -> int:
    """Row subsets is_k_orthogonal examined, in (t, lexicographic) order,
    up to and including the failing one."""
    if witness is None:
        return sum(math.comb(nrows, t) for t in range(1, min(k, nrows) + 1))
    t = len(witness)
    before = sum(math.comb(nrows, s) for s in range(1, t))
    prev = -1
    for i, c in enumerate(witness):
        before += sum(math.comb(nrows - 1 - j, t - 1 - i) for j in range(prev + 1, c))
        prev = c
    return before + 1


class Tracer:
    """Spans and counters of one pass; ``install`` wraps, ``remove`` restores."""

    def __init__(self):
        self.originals: list[tuple[object, str, object]] = []
        self.hooks = {
            "gates.logical_phase_action": self._phase_walk,
            "gates.find_transversal_phases": self._solver,
            "ortho.is_k_orthogonal": self._orth,
            "distance.css_distances": self._distances,
            "search.minimality_search": self._scan,
            "codes.to_standard_form": self._reduce,
        }
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay installed."""
        self.stack = [[None, -1, 0.0]]  # name, span id, time covered by children
        self.spans: list[tuple] = []
        self.aggregate: dict[tuple, list] = {}  # (parent, name) -> calls, total, self
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.orth_calls: dict[tuple, int] = {}

    # ------------------------------------------------------------ counters

    def _phase_walk(self, args, result) -> None:
        sf = args[0]
        if result.ok:
            self.counts["gates.span_elements"] += 1 << sf.m
        else:
            self.counts["gates.span_elements"] += oracle.gray_index(
                sf.a_x.row_ints(), result.violation.bits)

    def _solver(self, args, result) -> None:
        sf = args[0]
        self.counts["gates.solver_entries"] += (1 << sf.m) * sf.n

    def _orth(self, args, result) -> None:
        w = result.witness
        key = (args[0].nrows, args[1], None if w is None else w.rows)
        self.orth_calls[key] = self.orth_calls.get(key, 0) + 1

    def _distances(self, args, result) -> None:
        for method in (result.method_z, result.method_x):
            self.counts[f"distance.{method}_sides"] += 1

    def _scan(self, args, result) -> None:
        for b in result.boxes:
            self.counts["search.subsets"] += b.subsets
            self.counts["search.candidates"] += b.candidates or 0
            self.counts["search.hits"] += b.hits
            self.counts["search.witnesses"] += len(b.witnesses)

    def _reduce(self, args, result) -> None:
        self.counts["codes.qubits"] += args[0].n

    def finish_counts(self) -> dict:
        self.counts["ortho.subsets_checked"] = sum(
            n * _subsets_checked(*key) for key, n in self.orth_calls.items()
        )
        return self.counts

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        hot = name in HOT
        hook = self.hooks.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            span_id = -1 if hot else len(tracer.spans)
            if not hot:
                tracer.spans.append(None)
            frame = [name, span_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                agg = tracer.aggregate.get((parent[0], name))
                if agg is None:
                    agg = tracer.aggregate[(parent[0], name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if not hot:
                    tracer.spans[span_id] = (span_id, parent[1], name, t0, t1)
            if hook is not None:
                hook(args, result)
                # Counting is not the caller's work either.
                parent[2] += perf() - t1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED wherever a korth module bound it."""
        for dotted in WRAPPED:
            module_name, *attrs = dotted.split(".")
            module = importlib.import_module(f"korth.{module_name}")
            owner = module
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapper = self._wrap(dotted, original)
            self.originals.append((owner, attrs[-1], original))
            setattr(owner, attrs[-1], wrapper)
            if owner is not module:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "korth" or mod is module:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.originals.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals.clear()

    # ------------------------------------------------------------ results

    def per_function(self) -> dict[str, tuple[int, float, float]]:
        """calls, inclusive seconds and self seconds of each wrapped name."""
        out = {name: [0, 0.0, 0.0] for name in WRAPPED}
        for (_, name), (calls, total, own) in self.aggregate.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += own
        return {name: tuple(row) for name, row in out.items()}

    def records(self) -> dict:
        """The pass's spans and per-(parent, function) aggregates."""
        return {
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                      for s in self.spans],
            "aggregates": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                           for (p, n), (c, t, s) in self.aggregate.items()],
        }
