"""Output oracle: re-checks every korth report with plain integer arithmetic.

Nothing here imports korth.  Bit strings are packed into ints with the
leftmost character at bit 0, as in the korth text formats.  Each check returns
a list of problems; an empty list means the invocation's output is correct.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional


@dataclass
class Outcome:
    """What one CLI invocation produced."""

    exit: int
    stdout: str
    stderr: str
    report: Optional[dict]


@dataclass
class Code:
    """A one-qubit sub-dual Hamming code as a file on disk.

    ``x_rows`` and ``z_rows`` generate the X- and Z-type stabilizers in the
    file's own qubit order; both logicals are all ones on every code here.
    """

    path: str
    m: int
    n: int
    x_rows: list[int]
    z_rows: list[int]
    ax_path: Optional[str] = None
    az_path: Optional[str] = None

    @property
    def ones(self) -> int:
        return (1 << self.n) - 1


@dataclass
class Check:
    """An expected exit code, a report check and a corruption it must catch."""

    expect_exit: int
    report: Callable[[Outcome], list[str]]
    corrupt: Callable[[dict], None]
    stdout_prefix: str = ""

    def __call__(self, out: Outcome) -> list[str]:
        problems = []
        if out.exit != self.expect_exit:
            problems.append(f"exit {out.exit}, expected {self.expect_exit}")
        if "Traceback" in out.stderr:
            problems.append("traceback on stderr")
        if self.stdout_prefix and not out.stdout.startswith(self.stdout_prefix):
            problems.append(f"stdout does not start with {self.stdout_prefix!r}")
        if out.report is None:
            problems.append("no JSON report")
            return problems
        try:
            problems.extend(self.report(out))
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems


# ---------------------------------------------------------------- helpers


def bits(text: str) -> int:
    """Pack a 0/1 string, position 0 at bit 0."""
    if text.strip("01"):
        raise ValueError(f"not a bit string: {text[:40]!r}")
    return int(text[::-1], 2) if text else 0


def bitstring(value: int, n: int) -> str:
    return format(value, f"0{n}b")[::-1] if n else ""


def parity(x: int) -> int:
    return x.bit_count() & 1


def rank(rows: list[int]) -> int:
    """GF(2) rank by inserting rows into a basis keyed by lowest set bit."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            b = basis.get(low)
            if b is None:
                basis[low] = v
                break
            v ^= b
    return len(basis)


def coordinates(rows: list[int], v: int) -> Optional[int]:
    """Mask c with XOR of rows[i] for i in c equal to v, or None."""
    basis: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rows):
        tag = 1 << i
        while r:
            low = r & -r
            if low not in basis:
                basis[low] = (r, tag)
                break
            br, bt = basis[low]
            r ^= br
            tag ^= bt
    coeff = 0
    while v:
        low = v & -v
        if low not in basis:
            return None
        br, bt = basis[low]
        v ^= br
        coeff ^= bt
    return coeff


def gray_index(rows: list[int], v: int) -> Optional[int]:
    """Position of span element v in the Gray-code walk over ``rows``."""
    c = coordinates(rows, v)
    if c is None:
        return None
    index, shift = c, c >> 1
    while shift:
        index ^= shift
        shift >>= 1
    return index


def span(rows: list[int]) -> list[int]:
    out = [0]
    for r in rows:
        out += [x ^ r for x in out]
    return out


def masked_sum(p: list[int], support: int) -> int:
    total = 0
    while support:
        low = support & -support
        total += p[low.bit_length() - 1]
        support ^= low
    return total


def phase_string(numerator: int, k: int) -> str:
    """numerator*pi/2**(k-1) in lowest terms, as korth prints it."""
    num = numerator % (1 << k)
    while num and num % 2 == 0 and k > 1:
        num //= 2
        k -= 1
    if num == 0:
        return "0"
    text = "pi" if num == 1 else f"{num}pi"
    return text if k == 1 else f"{text}/{1 << (k - 1)}"


def in_x_span(code: Code, v: int) -> bool:
    """v lies in span(X checks) = (span(Z checks) + all-ones)^perp."""
    return not parity(v) and not any(parity(v & z) for z in code.z_rows)


def in_z_span(code: Code, v: int) -> bool:
    return not parity(v) and not any(parity(v & x) for x in code.x_rows)


def floor_size(k: int) -> int:
    return (1 << (k + 1)) - 1


def gaussian_binomial(m: int, j: int) -> int:
    num = den = 1
    for i in range(j):
        num *= (1 << (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def full_rank_count(m: int, n: int) -> int:
    """Full-rank m x n matrices with distinct nonzero columns, as column sets
    (a Moebius sum over the subspace lattice)."""
    return sum(
        (-1) ** j * (1 << math.comb(j, 2)) * gaussian_binomial(m, j)
        * math.comb((1 << (m - j)) - 1, n)
        for j in range(m + 1)
    )


def box_subsets(m: int, n: int, prune: str) -> int:
    values = (1 << m) - 1
    if prune == "orbit":
        return math.comb(values - m, n - m)
    return math.comb(values, n)


def orthogonal_upto(rows: list[int], k: int, mask: int) -> bool:
    """Every AND of at most k rows has even weight on ``mask``."""
    for t in range(1, min(k, len(rows)) + 1):
        for subset in combinations(rows, t):
            acc = mask
            for r in subset:
                acc &= r
            if parity(acc):
                return False
    return True


# ---------------------------------------------------------------- setup


def check_construct(code: Code, descriptor: dict, ax_text: str, az_text: str) -> list[str]:
    """The construct output is the sub-dual Hamming code on 2**m - 1 qubits."""
    m, n = code.m, code.n
    problems = []
    if descriptor.get("n") != n:
        problems.append(f"n={descriptor.get('n')}, expected {n}")
    if descriptor.get("logical_x") != "+" + "X" * n:
        problems.append("logical_x is not all-ones X")
    if descriptor.get("logical_z") != "+" + "Z" * n:
        problems.append("logical_z is not all-ones Z")
    if len(code.x_rows) != m or len(code.z_rows) != n - m - 1:
        problems.append(f"{len(code.x_rows)} X rows and {len(code.z_rows)} Z rows")
    cols = {sum(((r >> j) & 1) << i for i, r in enumerate(code.x_rows)) for j in range(n)}
    if len(cols) != n or 0 in cols:
        problems.append("X checks are not the Hamming matrix")
    if any(parity(z) for z in code.z_rows):
        problems.append("a Z check has odd weight")
    if any(parity(z & x) for z in code.z_rows for x in code.x_rows):
        problems.append("Z checks are not orthogonal to X checks")
    if rank(code.z_rows) != len(code.z_rows):
        problems.append("Z checks are dependent")
    for label, text, rows in (("ax", ax_text, code.x_rows), ("az", az_text, code.z_rows)):
        lines = text.split()
        if lines[:2] != [str(len(rows)), str(n)] or [bits(s) for s in lines[2:]] != rows:
            problems.append(f"the .{label} file disagrees with the descriptor")
    return problems


# ---------------------------------------------------------------- checks


def verify_pass(code: Code, k: int) -> Check:
    expected = phase_string(code.n, k)

    def report(out):
        r = out.report
        problems = []
        if r["pass"] is not True or r["logical_phase"] != expected:
            problems.append(f"verdict {r.get('pass')} {r.get('logical_phase')}, expected {expected}")
        if out.stdout.strip() != f"PASS: logical phase {expected}":
            problems.append("stdout verdict line differs")
        return problems

    def corrupt(r):
        r["logical_phase"] = phase_string(code.n + 2, k)

    return Check(0, report, corrupt, stdout_prefix="PASS:")


def verify_late_fail(code: Code, k: int, p: list[int]) -> Check:
    """The walk must fail first at Gray index 2**(m-1) with residue 2**(k-1)."""
    q = 1 << k

    def report(out):
        r = out.report
        v = bits(r["violation"])
        residue = masked_sum(p, v) % q
        problems = []
        if r["pass"] is not False:
            problems.append("gate passed")
        if len(r["violation"]) != code.n or not in_x_span(code, v):
            problems.append("violation is not in the X-check row span")
        if residue == 0 or residue != r["residue"]:
            problems.append(f"residue {r['residue']}, recomputed {residue}")
        if residue != q // 2:
            problems.append(f"residue {residue}, expected {q // 2}")
        if gray_index(code.x_rows, v) != 1 << (code.m - 1):
            problems.append("violation is not the first failing span element")
        return problems

    def corrupt(r):
        r["residue"] = (r["residue"] + 1) % q

    return Check(1, report, corrupt, stdout_prefix="FAIL:")


def verify_controlled(code: Code, k: int, controls: int) -> Check:
    expected = code.n % (1 << (k - controls))

    def report(out):
        r = out.report
        problems = []
        if r["pass"] is not True or r["logical_numerator"] != expected:
            problems.append(f"verdict {r.get('pass')} {r.get('logical_numerator')}, expected {expected}")
        if r["induced_r"] != "1" * code.n or r["non_clifford"] is not (k >= 3):
            problems.append("induced parity subset or Clifford flag wrong")
        for t in range(1, min(k, code.m) + 1):
            modulus = 1 << (k - max(controls, t - 1))
            for subset in combinations(code.x_rows, t):
                acc = code.ones
                for row in subset:
                    acc &= row
                if acc.bit_count() % modulus:
                    problems.append(f"{t}-fold product breaks the congruence mod {modulus}")
                    return problems
        return problems

    def corrupt(r):
        r["logical_numerator"] += 1

    return Check(0, report, corrupt, stdout_prefix="PASS:")


def standard_form(code: Code) -> Check:
    n, m = code.n, code.m

    def report(out):
        r = out.report
        a_x = [bits(s) for s in r["a_x"]]
        a_z = [bits(s) for s in r["a_z"]]
        rr, ss = bits(r["r"]), bits(r["s"])
        problems = []
        if (r["n"], r["m"], r["css"]) != (n, m, True):
            problems.append(f"n, m, css = {r['n']}, {r['m']}, {r['css']}")
        if any(bits(s) for s in r["b"]) or any(r["x_phases"]) or bits(r["local_s_mask"]):
            problems.append("B block, X phases or S mask not zero")
        if len(a_x) != m or rank(a_x) != m or not all(in_x_span(code, v) for v in a_x):
            problems.append("A_X does not span the X checks")
        if len(a_z) != n - m - 1 or rank(a_z) != len(a_z) or not all(in_z_span(code, v) for v in a_z):
            problems.append("A_Z does not span the Z checks")
        if any(parity(rr & x) for x in code.x_rows) or any(parity(ss & z) for z in code.z_rows):
            problems.append("logical supports do not commute with the checks")
        if not parity(rr & ss):
            problems.append("logical supports overlap evenly")
        return problems

    def corrupt(r):
        row = r["a_z"][-1]
        r["a_z"][-1] = ("1" if row[0] == "0" else "0") + row[1:]

    return Check(0, report, corrupt)


def check_orth(code: Code, k: int) -> Check:
    holds = k <= code.m - 1

    def report(out):
        r = out.report
        problems = []
        if r["holds"] is not holds:
            problems.append(f"holds={r['holds']}, expected {holds}")
        if holds:
            if not orthogonal_upto(code.x_rows, k, code.ones):
                problems.append("matrix is not k-orthogonal after all")
            return problems
        w = r["witness"]
        acc = bits(w["restriction"])
        for i in w["rows"]:
            acc &= code.x_rows[i]
        if not parity(acc) or w["t"] != len(w["rows"]) or w["t"] > k:
            problems.append("witness product has even weight")
        if tuple(w["rows"]) != tuple(range(code.m)):
            problems.append("witness is not the first failing row subset")
        return problems

    def corrupt(r):
        r["holds"] = not r["holds"]

    return Check(0 if holds else 1, report, corrupt,
                 stdout_prefix="PASS:" if holds else "FAIL:")


def find_gates(code: Code, k: int, counts: dict) -> Check:
    """Every generator solves the congruences; canonical and scrambled copies
    of one code agree on the solution count (``counts`` is shared)."""
    q = 1 << k

    def report(out):
        r = out.report
        problems = []
        if (r["k"], r["modulus"]) != (k, q):
            problems.append("k or modulus differs")
        elements = span(code.x_rows)
        total = 1
        for gen in r["generators"]:
            p, order = gen["p"], gen["order"]
            total *= order
            if len(p) != code.n or not all(0 <= x < q for x in p):
                problems.append("generator has the wrong shape")
                break
            planes = [bits("".join(str((x >> b) & 1) for x in p)) for b in range(k)]
            if any(sum((e & pl).bit_count() << b for b, pl in enumerate(planes)) % q
                   for e in elements):
                problems.append("generator fails a span congruence")
                break
            low = min(((x & -x).bit_length() - 1 for x in p if x), default=k)
            if order != 1 << (k - low):
                problems.append(f"order {order} is not the additive order")
                break
            if gen["logical_phase"] != phase_string(sum(p), k):
                problems.append("generator logical phase differs")
                break
        if total != r["count"]:
            problems.append("count is not the product of the orders")
        seen = counts.setdefault((code.m, k), r["count"])
        if seen != r["count"]:
            problems.append(f"count {r['count']} differs from {seen} on another copy")
        return problems

    def corrupt(r):
        r["generators"][0]["p"][0] = (r["generators"][0]["p"][0] + 1) % q

    return Check(0, report, corrupt)


def distance(code: Code) -> Check:
    d_x = (1 << (code.m - 1)) - 1

    def report(out):
        r = out.report
        wz, wx = bits(r["witness_z"]), bits(r["witness_x"])
        problems = []
        if (r["d_z"], r["d_x"], r["exact_z"], r["exact_x"]) != (3, d_x, True, True):
            problems.append(f"d_Z={r['d_z']} d_X={r['d_x']}, expected 3 and {d_x}")
        if wz.bit_count() != r["d_z"] or wx.bit_count() != r["d_x"]:
            problems.append("witness weights do not match the distances")
        if any(parity(wz & x) for x in code.x_rows) or not parity(wz):
            problems.append("Z witness is not a nontrivial Z logical")
        if any(parity(wx & z) for z in code.z_rows) or not parity(wx):
            problems.append("X witness is not a nontrivial X logical")
        if not out.stdout.startswith(f"d_Z={r['d_z']} d_X={r['d_x']}"):
            problems.append("stdout distances differ")
        return problems

    def corrupt(r):
        w = r["witness_z"]
        r["witness_z"] = ("1" if w[0] == "0" else "0") + w[1:]

    return Check(0, report, corrupt)


def search(k: int, prune: str, floor_witnesses: dict) -> Check:
    """Complete scan, exact subset and candidate counts, re-verified
    witnesses, none below the floor, and exactly the expected witness count
    per box."""

    def report(out):
        r = out.report
        problems = []
        if r["complete"] is not True or r["k"] != k or r["prune"] != prune:
            problems.append("report incomplete or for other parameters")
        per_box: dict = {}
        for w in r["witnesses"]:
            m, n, cols = w["m"], w["n"], w["columns"]
            per_box[(m, n)] = per_box.get((m, n), 0) + 1
            rows = [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m)]
            if n < floor_size(k):
                problems.append(f"witness below the floor at ({m}, {n})")
            if (len(set(cols)) != n or not all(0 < c < 1 << m for c in cols)
                    or [bits(s) for s in w["rows"]] != rows
                    or rank(rows) != m or not orthogonal_upto(rows, k, (1 << n) - 1)):
                problems.append(f"witness at ({m}, {n}) fails re-verification")
        for b in r["boxes"]:
            key = (b["m"], b["n"])
            expect_w = floor_witnesses.get(key, 0)
            if b["witnesses"] != expect_w or per_box.get(key, 0) != expect_w:
                problems.append(f"box {key}: {b['witnesses']} witnesses, expected {expect_w}")
            if b["mode"] == "skip":
                continue
            if b["subsets"] != box_subsets(*key, prune):
                problems.append(f"box {key}: {b['subsets']} subsets visited")
            if b["mode"] == "slow" and (b["candidates"] != full_rank_count(*key)
                                        or b["hits"] != b["witnesses"]):
                problems.append(f"box {key}: candidate or hit count wrong")
        return problems

    def corrupt(r):
        r["complete"] = False

    return Check(1 if floor_witnesses else 0, report, corrupt)


def corruptions(check: Check, out: Outcome) -> list[tuple[str, Outcome]]:
    """Deliberately broken copies of a correct outcome, for the self-test."""
    bad_report = copy.deepcopy(out.report)
    check.corrupt(bad_report)
    return [
        ("exit code", Outcome(out.exit ^ 1, out.stdout, out.stderr, out.report)),
        ("traceback", Outcome(out.exit, out.stdout, "Traceback (most recent call last):\n", out.report)),
        ("report", Outcome(out.exit, out.stdout, out.stderr, bad_report)),
    ]
