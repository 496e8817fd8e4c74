"""The workloads: seeded input files and fixed lists of korth invocations.

Every workload is a list of CLI argument vectors with one oracle check each.
The seed only shapes the files the benchmark writes (scrambled descriptors
and late-failing phase vectors); the program receives nothing but files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import Check, Code

# Codes each workload builds with `korth construct` during set-up.
CONSTRUCTS = {
    "certify": {False: (10, 9), True: (5, 4)},
    "solve": {False: (7, 8, 9), True: (4, 5, 6)},
    "search": {False: (), True: ()},
}


@dataclass
class Invocation:
    """One korth run: its per-command metric group, arguments and check."""

    group: str
    argv: list[str]
    out: str
    check: Check


def construct_argv(work: Path, m: int) -> list[str]:
    stem = work / f"code{m}"
    return ["construct", "--m", str(m), "--out", f"{stem}.json",
            "--ax", f"{stem}.ax", "--az", f"{stem}.az"]


def load_construct(work: Path, m: int) -> tuple[Code, list[str]]:
    """Parse a construct output with plain string handling and check it."""
    stem = work / f"code{m}"
    descriptor = json.loads(Path(f"{stem}.json").read_text())
    x_rows, z_rows = _split_labels(descriptor["stabilizers"])
    code = Code(f"{stem}.json", m, (1 << m) - 1, x_rows, z_rows,
                ax_path=f"{stem}.ax", az_path=f"{stem}.az")
    problems = oracle.check_construct(
        code, descriptor, Path(code.ax_path).read_text(), Path(code.az_path).read_text()
    )
    return code, problems


def _split_labels(labels: list[str]) -> tuple[list[int], list[int]]:
    x_rows, z_rows = [], []
    for label in labels:
        if label[0] != "+":
            raise ValueError(f"unsigned or negative stabilizer {label[:20]!r}")
        body = label[1:]
        if set(body) <= {"I", "X"}:
            x_rows.append(oracle.bits(body.replace("I", "0").replace("X", "1")))
        elif set(body) <= {"I", "Z"}:
            z_rows.append(oracle.bits(body.replace("I", "0").replace("Z", "1")))
        else:
            raise ValueError("mixed stabilizer in a CSS descriptor")
    return x_rows, z_rows


class Inputs:
    """Seeded files for one run, written under ``work``."""

    def __init__(self, work: Path, seed: int, codes: dict[int, Code]):
        self.work = work
        self.seed = seed
        self.codes = codes
        self.count = 0
        self.find_gates_counts: dict = {}

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{tag}")

    def scrambled(self, m: int) -> Code:
        """The same code after a random qubit permutation and random products
        of same-type generators: group, signs and all-ones logicals are kept."""
        key = ("scrambled", m)
        if key in self.codes:
            return self.codes[key]
        src = self.codes[m]
        n = src.n
        rng = self.rng(f"scramble{m}")
        perm = list(range(n))
        rng.shuffle(perm)

        def permute(row: int) -> int:
            body = oracle.bitstring(row, n)
            return oracle.bits("".join(body[perm[j]] for j in range(n)))

        x_rows = [permute(r) for r in src.x_rows]
        z_rows = [permute(r) for r in src.z_rows]
        for rows in (x_rows, z_rows):
            for _ in range(2 * len(rows)):
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                if i != j:
                    rows[i] ^= rows[j]
        table = str.maketrans("01", "IX"), str.maketrans("01", "IZ")
        labels = ["+" + oracle.bitstring(r, n).translate(table[0]) for r in x_rows]
        labels += ["+" + oracle.bitstring(r, n).translate(table[1]) for r in z_rows]
        rng.shuffle(labels)
        path = self.work / f"scrambled{m}.json"
        path.write_text(json.dumps({
            "n": n, "stabilizers": labels,
            "logical_x": "+" + "X" * n, "logical_z": "+" + "Z" * n,
        }, indent=2) + "\n")
        code = Code(str(path), m, n, x_rows, z_rows)
        self.codes[key] = code
        return code

    def late_fail_gate(self, code: Code, k: int) -> tuple[str, list[int]]:
        """All-ones plus 2**(k-1) on two qubits whose columns differ only in
        the last row: the Gray-code walk first fails at index 2**(m-1)."""
        m = code.m
        column = {sum(((r >> j) & 1) << i for i, r in enumerate(code.x_rows)): j
                  for j in range(code.n)}
        a = self.rng(f"gate{m}/{k}").randrange(1, 1 << (m - 1))
        p = [1] * code.n
        for col in (a, a | 1 << (m - 1)):
            p[column[col]] += 1 << (k - 1)
        path = self.work / f"gate{m}_{k}.json"
        path.write_text(json.dumps({"k": k, "controls": 0, "p": p}) + "\n")
        return str(path), p

    def invocation(self, group: str, argv: list[str], check: Check) -> Invocation:
        self.count += 1
        out = str(self.work / f"report{self.count}.json")
        return Invocation(group, argv + ["--out", out], out, check)


def certify(inp: Inputs, tiny: bool) -> list[Invocation]:
    hi, lo = CONSTRUCTS["certify"][tiny]
    big, small = inp.codes[hi], inp.codes[lo]
    inv = []
    for code, k in ((big, hi - 1), (small, 3)):
        inv.append(inp.invocation(
            "verify_gate", ["verify-gate", "--code", code.path, "--k", str(k), "--p", "all-ones"],
            oracle.verify_pass(code, k)))
    for code, k in ((big, hi - 1), (small, 3)):
        gate, p = inp.late_fail_gate(code, k)
        inv.append(inp.invocation(
            "verify_gate", ["verify-gate", "--code", code.path, "--gate", gate],
            oracle.verify_late_fail(code, k, p)))
    for code, k, q in ((big, 3, 1), (small, lo - 1, 2)):
        inv.append(inp.invocation(
            "verify_cphase", ["verify-gate", "--code", code.path, "--k", str(k),
                              "--p", "all-ones", "--controls", str(q)],
            oracle.verify_controlled(code, k, q)))
    for m in (hi, lo):
        code = inp.scrambled(m)
        inv.append(inp.invocation(
            "standard_form", ["standard-form", "--code", code.path], oracle.standard_form(code)))
    for k in (hi - 1, hi):
        inv.append(inp.invocation(
            "check_orth", ["check-orth", "--matrix", big.ax_path, "--k", str(k)],
            oracle.check_orth(big, k)))
    return inv


def solve(inp: Inputs, tiny: bool) -> list[Invocation]:
    a, b, c = CONSTRUCTS["solve"][tiny]
    counts = inp.find_gates_counts
    inv = []
    for code, k in ((inp.codes[a], 3), (inp.scrambled(a), 3),
                    (inp.scrambled(b), 3), (inp.codes[b], b - 1)):
        inv.append(inp.invocation(
            "find_gates", ["find-gates", "--code", code.path, "--k", str(k)],
            oracle.find_gates(code, k, counts)))
    for code in (inp.scrambled(b), inp.codes[c]):
        inv.append(inp.invocation(
            "distance", ["distance", "--code", code.path], oracle.distance(code)))
    code = inp.codes[b]
    inv.append(inp.invocation(
        "distance", ["distance", "--ax", code.ax_path, "--az", code.az_path],
        oracle.distance(code)))
    return inv


# (k, m_min, m_max, n_max, prune, witnesses expected per (m, n) box).  The
# last scan is the only one whose fingerprint (fast-path) boxes have hits:
# orbit pruning keeps, of the 15 witnesses at (4, 8), the one holding the
# identity columns.
SEARCHES = {
    False: (
        (3, 4, 5, 14, "orbit", {}),
        (2, 3, 5, 6, "none", {}),
        (2, 3, 4, 8, "none", {(3, 7): 1, (4, 8): 15}),
        (2, 3, 4, 8, "orbit", {(3, 7): 1, (4, 8): 1}),
    ),
    True: (
        (3, 4, 4, 14, "orbit", {}),
        (2, 3, 4, 6, "none", {}),
        (2, 3, 4, 8, "none", {(3, 7): 1, (4, 8): 15}),
        (2, 3, 4, 8, "orbit", {(3, 7): 1, (4, 8): 1}),
    ),
}


def search(inp: Inputs, tiny: bool) -> list[Invocation]:
    inv = []
    for k, m_min, m_max, n_max, prune, witnesses in SEARCHES[tiny]:
        inv.append(inp.invocation(
            "search_orbit" if prune == "orbit" else "search_full",
            ["search-min", "--k", str(k), "--m-min", str(m_min), "--m-max", str(m_max),
             "--n-max", str(n_max), "--prune", prune],
            oracle.search(k, prune, witnesses)))
    return inv


LISTS = {"certify": certify, "solve": solve, "search": search}


def provenance(name: str, inp: Inputs, tiny: bool) -> dict:
    """Sizes of every code and search box the workload touches."""
    codes = [
        {"file": Path(c.path).name, "m": c.m, "qubits": c.n,
         "x_checks": len(c.x_rows), "z_checks": len(c.z_rows)}
        for c in inp.codes.values()
    ]
    boxes = []
    if name == "search":
        for k, m_min, m_max, n_max, prune, _ in SEARCHES[tiny]:
            for m in range(max(m_min, k + 1), m_max + 1):
                values = (1 << m) - 1
                for n in range(m, min(n_max, values) + 1):
                    boxes.append({"k": k, "prune": prune, "m": m, "n": n,
                                  "C(N,n)": math.comb(values, n),
                                  "subsets": oracle.box_subsets(m, n, prune)})
    return {"codes": codes, "search_boxes": boxes}
