import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from contextlib import redirect_stderr, redirect_stdout
from hypothesis import given, settings
from hypothesis import strategies as st

import korth
from korth import usage
from korth.cli import COMMANDS, REQUIRED, main, parse_args
from korth.codes import (
    PauliOp, StabilizerCode, code_from_json, code_to_json, is_css, to_standard_form,
)
from korth.families import subdual_css
from korth.gf2 import format_matrix_text, parse_matrix_text

from conftest import (build_parser, five_qubit_code, random_css_sf, rotated, scrambled,
                      spans_equal)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_reed_muller_descriptor(self, tmp_path, capsys):
        out = tmp_path / "rm15.json"
        status, _, _ = run(capsys, "construct", "--m", "4", "--out", str(out))
        assert status == 0
        data = json.loads(out.read_text())
        assert data["n"] == 15
        assert len(data["stabilizers"]) == 14
        assert data["logical_x"] == "+" + "X" * 15
        assert data["logical_z"] == "+" + "Z" * 15

    def test_matrix_exports_parse_back(self, tmp_path, capsys):
        ax, az = tmp_path / "ax.txt", tmp_path / "az.txt"
        status, _, _ = run(
            capsys, "construct", "--m", "3", "--ax", str(ax), "--az", str(az)
        )
        assert status == 0
        sf = subdual_css(3)
        assert parse_matrix_text(ax.read_text()) == sf.a_x
        assert parse_matrix_text(az.read_text()) == sf.a_z

    def test_round_trip_standard_form(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(capsys, "construct", "--m", "4", "--out", str(out))
        code = code_from_json(out.read_text())
        sf = to_standard_form(code)
        base = subdual_css(4)
        assert is_css(sf)
        assert spans_equal(sf.a_x, base.a_x)
        assert spans_equal(sf.a_z, base.a_z)

    @pytest.mark.parametrize("m", [2, 1, 0, -1, -3])
    def test_m_too_small(self, m, capsys):
        status, _, err = run(capsys, "construct", "--m", str(m))
        assert status == 2
        assert f"m={m} " in err
        # Only m = 2 has Z-check rows to count, and it has none.
        assert all(count == "0" for count in re.findall(r"(\S+) Z-check rows", err))


class TestVerifyGate:
    @pytest.fixture
    def rm15(self, tmp_path, capsys):
        out = tmp_path / "rm15.json"
        run(capsys, "construct", "--m", "4", "--out", str(out))
        return str(out)

    def test_pass_logical_t(self, rm15, capsys):
        status, out, _ = run(
            capsys, "verify-gate", "--code", rm15, "--k", "3", "--p", "all-ones"
        )
        assert status == 0
        assert "PASS" in out and "7pi/4" in out

    def test_fail_exit_one(self, rm15, capsys):
        status, out, _ = run(
            capsys, "verify-gate", "--code", rm15, "--k", "3",
            "--p", ",".join(["1"] + ["0"] * 14),
        )
        assert status == 1
        assert "FAIL" in out

    def test_controlled(self, rm15, capsys):
        status, out, _ = run(
            capsys, "verify-gate", "--code", rm15, "--k", "3", "--p", "all-ones",
            "--controls", "1",
        )
        assert status == 0
        assert "PASS" in out

    def test_gate_descriptor_file(self, rm15, tmp_path, capsys):
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"k": 3, "controls": 0, "p": [1] * 15}))
        status, out, _ = run(capsys, "verify-gate", "--code", rm15, "--gate", str(gate))
        assert status == 0
        assert "7pi/4" in out

    def test_report_written(self, rm15, tmp_path, capsys):
        report = tmp_path / "report.json"
        run(
            capsys, "verify-gate", "--code", rm15, "--k", "3", "--p", "all-ones",
            "--out", str(report),
        )
        data = json.loads(report.read_text())
        assert data["schema"] == 1
        assert data["pass"] is True
        assert data["logical_phase"] == "7pi/4"


class TestCheckOrth:
    @pytest.fixture
    def h4(self, tmp_path):
        path = tmp_path / "h4.txt"
        path.write_text(format_matrix_text(subdual_css(4).a_x))
        return str(path)

    def test_pass(self, h4, capsys):
        status, out, _ = run(capsys, "check-orth", "--matrix", h4, "--k", "3")
        assert status == 0 and "PASS" in out

    def test_fail_with_witness(self, h4, capsys):
        status, out, _ = run(capsys, "check-orth", "--matrix", h4, "--k", "4")
        assert status == 1
        assert "FAIL" in out and "[0, 1, 2, 3]" in out

    def test_malformed_matrix_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3\n101\n1x1\n")
        status, _, err = run(capsys, "check-orth", "--matrix", str(bad), "--k", "1")
        assert status == 2
        assert "line 3" in err and "column 2" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "check-orth", "--matrix", "nope.txt", "--k", "1")
        assert status == 2
        assert "error" in err


class TestDistance:
    def test_from_code_json(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(capsys, "construct", "--m", "4", "--out", str(out))
        status, text, _ = run(capsys, "distance", "--code", str(out))
        assert status == 0
        assert "d_Z=3 d_X=7" in text

    def test_from_matrices(self, tmp_path, capsys):
        sf = subdual_css(3)
        ax, az = tmp_path / "ax.txt", tmp_path / "az.txt"
        ax.write_text(format_matrix_text(sf.a_x))
        az.write_text(format_matrix_text(sf.a_z))
        status, text, _ = run(capsys, "distance", "--ax", str(ax), "--az", str(az))
        assert status == 0
        assert "d_Z=3 d_X=3" in text

    def test_needs_input(self, capsys):
        status, _, err = run(capsys, "distance")
        assert status == 2


class TestSearchMin:
    def test_clean_run_json(self, capsys):
        status, out, _ = run(
            capsys, "search-min", "--k", "2", "--m-min", "3", "--m-max", "3",
            "--n-max", "6",
        )
        assert status == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["complete"] is True
        assert data["witnesses"] == []

    def test_witness_exit_code(self, capsys):
        status, out, _ = run(
            capsys, "search-min", "--k", "1", "--m-min", "2", "--m-max", "2",
            "--n-max", "3",
        )
        assert status == 1
        data = json.loads(out)
        assert data["witnesses"][0]["columns"] == [1, 2, 3]

    def test_deterministic_reports(self, capsys, tmp_path):
        argv = [
            "search-min", "--k", "2", "--m-min", "3", "--m-max", "4",
            "--n-max", "5", "--out",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *argv, str(a))
        run(capsys, *argv, str(b))
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("elapsed_seconds")
        db.pop("elapsed_seconds")
        assert da == db

    # sha256 of the `search-min --out` report without its `elapsed_seconds`
    # line: the four scans of the benchmark search workload at their tiny
    # sizes, and one more.  The k = 2 scan at m = 5 (620 hits, none full
    # rank) pins the hit count.
    GOLDEN = {
        ("2", "5", "5", "8", "none"):
            "fae63e7250d30b2929fc26972d0000173a10f196b4f72885041a05cf88a434b2",
        ("3", "4", "4", "14", "orbit"):
            "7c92b5d55a264bbc9e2865348dcb36f6eafd6ced9d29e75557377f74b267d91c",
        ("2", "3", "4", "6", "none"):
            "d17cd1126398c49fc6a919e0e56be748998412d4aa2d9e662f5ce70e89cf0457",
        ("2", "3", "4", "8", "none"):
            "451c72aca83467eb0734c27a783877b5bc6fb6a74f4b182e7f31e4a3cfc3b488",
        ("2", "3", "4", "8", "orbit"):
            "5de92ba2bdcdf6a5c2deb7ec1700e11ce09a8c1b703e0387ca80e991dea30502",
    }

    @pytest.mark.parametrize("k,m_min,m_max,n_max,prune", sorted(GOLDEN), ids=lambda v: str(v))
    def test_golden_report_digest(self, k, m_min, m_max, n_max, prune, tmp_path, capsys):
        report = tmp_path / "report.json"
        status, _, _ = run(
            capsys, "search-min", "--k", k, "--m-min", m_min, "--m-max", m_max,
            "--n-max", n_max, "--prune", prune, "--out", str(report),
        )
        lines = report.read_bytes().splitlines(keepends=True)
        assert status == (1 if json.loads(b"".join(lines))["witnesses"] else 0)
        kept = [line for line in lines if not line.startswith(b'  "elapsed_seconds": ')]
        assert len(kept) == len(lines) - 1
        digest = hashlib.sha256(b"".join(kept)).hexdigest()
        assert digest == self.GOLDEN[k, m_min, m_max, n_max, prune]

    @pytest.mark.parametrize("argv", [
        *(f"--k {k} --m-min {k + 1} --m-max {k + 2} --n-max {(1 << (k + 1)) + 1}"
          for k in range(1, 5)),
        # Once a golden scan: its boxes past n = 4 hold no counterexample.
        "--k 1 --m-min 3 --m-max 5 --n-max 6 --prune none",
    ])
    def test_n_max_past_the_floor_exits_two(self, argv, capsys):
        k = int(argv.split()[1])
        status, out, err = run(capsys, "search-min", *argv.split())
        assert status == 2 and out == ""
        assert err == (f"error: n_max must be <= 2**{k + 1}: a counterexample to the k={k} "
                       f"size floor {(1 << (k + 1)) - 1} has fewer columns, "
                       f"got {argv.split()[7]}\n")

    def test_verbose_names_the_engine_per_row_count(self, tmp_path, capsys):
        # At the k=1 bound of 4 columns, every row count with a box to scan
        # takes the flat engine; m=5 has none, since full rank needs n >= m.
        argv = ["search-min", "--k", "1", "--m-min", "3", "--m-max", "5", "--n-max", "4",
                "--out"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        status, _, err = run(capsys, *argv, str(quiet))
        assert status == 1 and err == ""
        status, _, err = run(capsys, "--verbose", *argv, str(loud))
        assert status == 1
        assert err.splitlines()[:2] == [
            f"search-min m={m}: flat engine for n <= 4 (RM({m - 2}, {m}) has minimum weight 4, "
            "met only by its 2-flats)" for m in (3, 4)]
        assert err.splitlines()[2].startswith("search-min: exit 1 in ")
        # The engine lines stay out of the report.
        reports = [json.loads(p.read_text()) for p in (quiet, loud)]
        for report in reports:
            del report["elapsed_seconds"]
        assert reports[0] == reports[1]


    def test_empty_row_count_range_names_both_flags(self, capsys):
        status, out, err = run(capsys, "search-min", "--k", "2", "--m-min", "5", "--m-max", "3",
                               "--n-max", "6")
        assert status == 2 and out == ""
        assert err == "error: the row-count range is empty: --m-min 5 exceeds --m-max 3\n"


class TestStandardFormCommand:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(capsys, "construct", "--m", "3", "--out", str(out))
        status, text, _ = run(capsys, "standard-form", "--code", str(out))
        assert status == 0
        data = json.loads(text)
        assert data["schema"] == 1
        assert data["css"] is True
        assert data["n"] == 7 and data["m"] == 3

    @pytest.mark.parametrize("command", [
        "standard-form", "verify-gate --k 2 --p all-ones", "find-gates --k 2", "distance",
    ])
    def test_stabilizer_declared_as_logical_z_exits_two(self, command, tmp_path, capsys):
        # It commutes with every generator, so only the reduction can refuse it.
        steane = subdual_css(3).to_stabilizer_code()
        code = tmp_path / "code.json"
        code.write_text(code_to_json(StabilizerCode(
            7, steane.generators, logical_z=steane.generators[-1])))
        name, *flags = command.split()
        status, out, err = run(capsys, name, "--code", str(code), *flags)
        assert (status, out) == (2, "")
        assert "logical_z lies in the stabilizer group" in err


class TestFindGates:
    def test_solution_set(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(capsys, "construct", "--m", "3", "--out", str(out))
        status, text, _ = run(capsys, "find-gates", "--code", str(out), "--k", "2")
        assert status == 0
        data = json.loads(text)
        assert data["count"] == 32
        assert all(len(g["p"]) == 7 for g in data["generators"])

    # sha256 of the `find-gates --out` report.  The sub-dual codes
    # ("construct" and "scrambled") were recorded with the Moebius basis
    # (gates._moebius_basis), after their count and multiset of orders were
    # checked against the solver's reports; the "random" codes (A_X of m
    # rows and 4m - 1 columns, not all distinct and nonzero) with the
    # solver, whose reports they pin: a change to the generators, their
    # order or the report layout breaks them.
    GOLDEN = {
        ("construct", 7, 3): "33eb65f5952750d5444823356b20e07b0aefa70df6a6099a7188179b76f86f7e",
        ("construct", 8, 7): "54f96c4bab2f3e3df45ac52a20250626ba4f54b8051dde841e38bd3cd6e53983",
        ("construct", 5, 1): "a5d42df161c895318a1aad140760bd10b4825fb6a55ec51b2751bcfa8774da16",
        ("construct", 5, 3): "9a470f2ab51960ccfa2509d2462f35c5326da07320646fc060b4745db1dfac5b",
        ("construct", 5, 4): "8978d74a8fca412605d97de94a25bb7ae8a011fdb2c6956bf76a06bacdcc3cf3",
        ("construct", 6, 1): "e77d5c87cd4a810829df44933c4f6fd5389da69958ba5ba140142494633a90df",
        ("construct", 6, 3): "ca86e4905f222c9565f96b1af062d642a28a217f7d895f6d8f3358a3b1b56393",
        ("construct", 6, 5): "51c7d7c73385a75d1b2cf1b2ad0f860572edfc936370fd88d64a5c09eec2d86e",
        ("scrambled", 6, 3): "d8505954b204901ac6cfa37f6d0221f8587b7da86dd25ada1ded42224788548e",
        ("random", 4, 3): "4921a42f7ead726be8e71452a174eaa16270cc32c0b15a9196e4c2ab06c8c5a6",
        ("random", 5, 2): "fb0a40ac20ef43241d2e523d844d268edc82ed04169919e3bf166eac8dd291ef",
        # Exponents wider than one byte, on each path.
        ("construct", 5, 9): "5a49641bdf5665f8953750bc5bbbf85c550be103793d03806ac52bb37f0f9193",
        ("random", 4, 9): "3b8273e315e5c5b0ffec5f5d805d1782b5e9c6a519572f3476a65e353c551c93",
    }

    @pytest.mark.parametrize("source,m,k", sorted(GOLDEN), ids=lambda v: str(v))
    def test_golden_report_digest(self, source, m, k, tmp_path, capsys):
        code = tmp_path / "code.json"
        if source == "construct":
            run(capsys, "construct", "--m", str(m), "--out", str(code))
        elif source == "random":
            sf = random_css_sf(random.Random(m), 4 * m - 1, m)
            code.write_text(code_to_json(sf.to_stabilizer_code()))
        else:
            base = subdual_css(m).to_stabilizer_code()
            code.write_text(code_to_json(scrambled(base, random.Random(m), permute_qubits=True)))
        report = tmp_path / "report.json"
        status, _, _ = run(capsys, "find-gates", "--code", str(code), "--k", str(k),
                           "--out", str(report))
        assert status == 0
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[source, m, k]


class TestCertificateGoldens:
    """sha256 of the ``standard-form``, ``verify-gate --out`` and ``distance
    --out`` reports, recorded before validation and standard form shared one
    reduction (the ``distance`` and ``bare`` cases before standard form and
    distances reused each block's reduction): a change to the reduction, the
    signs or the report layout breaks them.  ``bare`` is the scrambled code
    without its logicals, so standard form derives both.  The non-CSS inputs
    were recorded before validation reduced only the X-bearing generators:
    ``s-conjugated`` is the scrambled, sign-flipped code conjugated by S on
    random qubits (Y content, B nonzero; a pure-X logical still exists, so
    its local S mask stays zero), ``five-qubit`` the [[5,1,3]] code and
    ``y-pair`` the one-generator code +YY, whose standard form needs a
    nonzero local S mask (m is unused for the last two).  ``rotated`` is the
    code under a seeded single-qubit Clifford on every qubit (``ROTATION``):
    it has no pure-X logical, so its logical X and S mask are read off A_Z's
    kernel and A_X's pivots; it was recorded when that replaced a candidate
    search, which refused this code (exit 2)."""

    GOLDEN = {
        ("construct", 5, "standard-form"):
            "1561e61388affbcb71180af472b08e1892db9d51ba494b5a3a37b7881abcc348",
        ("construct", 5, "pass"):
            "a6e2b024dc5fcfec89100d36ee7a1a4021f00f402ea5e1633db71937507d9a37",
        ("construct", 5, "late-fail"):
            "9f2cb1aeddfd4d58ed54211ac483c19f821a77afabe12a445e07fa0df44f7b28",
        ("construct", 5, "controlled"):
            "8a84f5511da7fc74017a59bafe613b198876f749b68e36b6bb11ab239419ba8d",
        ("construct", 6, "standard-form"):
            "a8d6ac69553f9c3ec7816438d589460600e8b378c7871232087c1dc1805c1596",
        ("construct", 6, "pass"):
            "36fd55302718c26ecec98817dd34e7429ef53b9f1abee0919e72f643c28cf664",
        ("construct", 6, "late-fail"):
            "cb031b0e91c94617cd3fc6d3b6b22ebd8265863c8d7068f22c53c25632e5bf49",
        ("construct", 6, "controlled"):
            "d969971711af771b24a06c0f50653d1f53ea34ebc57c1ab2fe6cd6c53cfe80d2",
        ("scrambled", 6, "standard-form"):
            "0b57ef4215929e760c1f14c40f29b37c849c12e37208be6448b37eadb5bd9803",
        ("scrambled", 6, "pass"):
            "36fd55302718c26ecec98817dd34e7429ef53b9f1abee0919e72f643c28cf664",
        ("scrambled", 6, "late-fail"):
            "33ed5e71deabe82cc9828aa531872876aa0b30be6a9797693ae846bb893ba417",
        ("scrambled", 6, "controlled"):
            "d969971711af771b24a06c0f50653d1f53ea34ebc57c1ab2fe6cd6c53cfe80d2",
        ("construct", 5, "distance"):
            "65559e0de98870c648229e32945ec40ca6d0f6924f9422d7bf9a11b20c3e7de8",
        ("construct", 6, "distance"):
            "b5bb0c901c80dca7f26088526bba5ed5ecc134ad25b6d2bc5421f3efd52e062f",
        ("construct", 6, "distance-blocks"):
            "b5bb0c901c80dca7f26088526bba5ed5ecc134ad25b6d2bc5421f3efd52e062f",
        ("scrambled", 6, "distance"):
            "88ba02479b6e669f491a81eaccb998a29d2c0bf0fc87203c4f019f7717311d9f",
        ("bare", 6, "standard-form"):
            "b97c437626985a4c451ad082361e875102a7a52d497b21b5adebda1109ec2ac9",
        ("s-conjugated", 5, "standard-form"):
            "1842f2890dae0fe4153acb7c8cd35941b1aadb9656a41463ef604ff965028e25",
        ("s-conjugated", 5, "pass"):
            "a6e2b024dc5fcfec89100d36ee7a1a4021f00f402ea5e1633db71937507d9a37",
        ("s-conjugated", 5, "late-fail"):
            "6401181c51d37e144072ede8fa623df1903eb9e0177eb10ea57b9875dc6d2f1b",
        ("five-qubit", 0, "standard-form"):
            "b0414809a0a11999f12a152f4400f79d3a7600dbe2fbe126642e31f8c4ae7653",
        ("y-pair", 0, "standard-form"):
            "38cc08210490d246db0660dbb7dbce51e799cb736503327ba15ff25f9e09e6fd",
        ("y-pair", 0, "pass"):
            "9b413134b2a80352c987053bf1405a340fc7bf5697e07e7ed9220fefea29cdc7",
        ("rotated", 4, "standard-form"):
            "ded865d572de916432f26aede1db79089d7983742ea616d70dfda8d2eb67e0d7",
    }
    ROTATION = 14  # the seed of the rotated code's local frame
    FIXED = {"five-qubit": five_qubit_code,
             "y-pair": lambda: StabilizerCode(2, (PauliOp.from_label("+YY"),))}

    @staticmethod
    def late_fail_gate(code, k: int) -> dict:
        """All-ones plus 2**(k-1) on the two qubits whose columns are 3 and
        3 + 2**(m-1): the span walk first fails at element 2**(m-1)."""
        sf = to_standard_form(code_from_json(code.read_text()))
        cols = sf.a_x.column_ints()
        p = [1] * sf.n
        for col in (3, 3 | 1 << (sf.m - 1)):
            p[cols.index(col)] += 1 << (k - 1)
        return {"k": k, "controls": 0, "p": p}

    @pytest.mark.parametrize("source,m,command", sorted(GOLDEN), ids=lambda v: str(v))
    def test_report_digest(self, source, m, command, tmp_path, capsys):
        code = tmp_path / "code.json"
        if source == "construct":
            run(capsys, "construct", "--m", str(m), "--out", str(code))
        elif source in self.FIXED:
            code.write_text(code_to_json(self.FIXED[source]()))
        elif source == "rotated":
            base = subdual_css(m).to_stabilizer_code()
            code.write_text(code_to_json(rotated(base, random.Random(self.ROTATION))))
        else:
            base = subdual_css(m).to_stabilizer_code()
            s_mask = random.Random(55).getrandbits(base.n) if source == "s-conjugated" else 0
            code.write_text(code_to_json(scrambled(
                base, random.Random(m), permute_qubits=True, drop_logicals=source == "bare",
                s_mask=s_mask,
            )))
        k = str(max(m - 1, 1))
        ax, az = tmp_path / "ax.txt", tmp_path / "az.txt"
        argv = {
            "standard-form": ["standard-form", "--code", str(code)],
            "pass": ["verify-gate", "--code", str(code), "--k", k, "--p", "all-ones"],
            "late-fail": ["verify-gate", "--code", str(code), "--gate", str(tmp_path / "gate.json")],
            "controlled": ["verify-gate", "--code", str(code), "--k", "3", "--p", "all-ones",
                           "--controls", "1"],
            "distance": ["distance", "--code", str(code)],
            "distance-blocks": ["distance", "--ax", str(ax), "--az", str(az)],
        }[command]
        if command == "distance-blocks":
            run(capsys, "construct", "--m", str(m), "--ax", str(ax), "--az", str(az))
        if command == "late-fail":
            (tmp_path / "gate.json").write_text(json.dumps(self.late_fail_gate(code, m - 1)))
        report = tmp_path / "report.json"
        status, _, _ = run(capsys, *argv, "--out", str(report))
        assert status == (1 if command == "late-fail" else 0)
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[source, m, command]


class TestReduceDegenerate:
    def test_aggregation(self, tmp_path, capsys):
        # a degenerate four-qubit code: two pairs of repeated columns
        code = {
            "n": 4,
            "stabilizers": ["+XXXX", "+ZZII", "+IIZZ"],
        }
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(code))
        status, text, _ = run(
            capsys, "reduce-degenerate", "--code", str(path), "--k", "2",
            "--p", "1,1,1,2",
        )
        assert status == 0
        data = json.loads(text)
        assert data["schema"] == 1
        # a single X check: every qubit shares one syndrome class
        assert data["representatives"] == [0]
        assert data["p_reduced"] == [1, 0, 0, 0]


class TestLoadedLayers:
    """A command loads only the korth modules its handler imports.  The
    in-process tests import every module, so each case runs a fresh
    interpreter."""

    ENV = dict(os.environ, PYTHONPATH=str(Path(korth.__file__).resolve().parent.parent))
    PROBE = ("import sys\n"
             "before = set(sys.modules)\n"
             "from korth.cli import main\n"
             "status = main(sys.argv[1:])\n"
             "heavy = {'argparse', 'dataclasses', 'gettext', 'inspect', 'json', 'locale'} "
             "& (set(sys.modules) - before)\n"
             "assert not heavy, f'loaded {sorted(heavy)}'\n"
             "print(*sorted(m for m in sys.modules if m.startswith('korth')), file=sys.stderr)\n"
             "sys.exit(status)\n")

    @pytest.fixture
    def files(self, tmp_path):
        sf = subdual_css(4)
        (tmp_path / "code.json").write_text(code_to_json(sf.to_stabilizer_code()))
        (tmp_path / "ax.txt").write_text(format_matrix_text(sf.a_x))
        (tmp_path / "az.txt").write_text(format_matrix_text(sf.a_z))
        (tmp_path / "deg.json").write_text(
            json.dumps({"n": 4, "stabilizers": ["+XXXX", "+ZZII", "+IIZZ"]}))
        (tmp_path / "gate.json").write_text(json.dumps({"k": 3, "controls": 0, "p": [1] * 15}))
        # A_X of 4 rows and 15 columns, not the 15 nonzero points: the solver path.
        off_family = random_css_sf(random.Random(4), 15, 4)
        (tmp_path / "rand.json").write_text(code_to_json(off_family.to_stabilizer_code()))
        return tmp_path

    def spawn(self, cwd, *args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=self.ENV, cwd=cwd, timeout=120)

    # A command that loads codes loads the report writer, which also reads
    # the code, with it; only a command that reads or writes phases loads
    # phases.  No command loads the paper's lemmas, and none loads json.
    CASES = [
        ("construct --m 5 --out c5.json", 0, "codes families gf2 record report"),
        ("standard-form --code code.json", 0, "codes gf2 record report"),
        ("check-orth --matrix ax.txt --k 3", 0, "gf2 ortho record"),
        ("find-gates --code code.json --k 3", 0, "codes gates gf2 phases record report"),
        ("find-gates --code rand.json --k 3", 0, "codes gates gf2 ortho phases record report ring"),
        ("verify-gate --code code.json --k 3 --p all-ones", 0, "codes gates gf2 phases record report"),
        ("verify-gate --code code.json --gate gate.json", 0, "codes gates gf2 phases record report"),
        ("verify-gate --code code.json --k 3 --p all-ones --controls 1", 0,
         "codes gates gf2 ortho phases record report"),
        ("distance --code code.json", 0, "codes distance gf2 record report"),
        ("distance --ax ax.txt --az az.txt", 0, "distance gf2 record"),
        ("search-min --k 2 --m-min 3 --m-max 4 --n-max 8", 1, "gf2 ortho record report search"),
        ("reduce-degenerate --code deg.json --k 2 --p 1,1,1,2", 0,
         "codes degenerate gf2 phases record report"),
    ]

    @pytest.mark.parametrize("argv, status, layers", CASES,
                             ids=[" ".join(c[0].split()[:2]) + " --controls" * ("--controls" in c[0])
                                  + " off-family" * ("rand.json" in c[0])
                                  + " --gate" * ("--gate" in c[0]) for c in CASES])
    def test_command_loads_only_its_layers(self, files, argv, status, layers):
        proc = self.spawn(files, "-c", self.PROBE, *argv.split())
        assert proc.returncode == status, proc.stderr
        loaded = proc.stderr.splitlines()[-1].split()
        assert "korth.lemmas" not in loaded
        assert loaded == ["korth"] + [f"korth.{m}" for m in sorted(["cli", "errors", *layers.split()])]

    @pytest.mark.parametrize("argv, status", [
        ("search-min --k 3 --m-min 4 --m-max 5 --n-max 14 --prune orbit", 0),
        ("search-min --k 2 --m-min 3 --m-max 4 --n-max 8 --out r.json", 1),
        ("check-orth --matrix ax.txt --k 3 --out r.json", 0),
        ("verify-gate --code code.json --k 3 --p all-ones", 0),
        ("verify-gate --code code.json --gate gate.json --out r.json", 0),
    ], ids=["search-min", "search-min-witnesses", "check-orth", "verify-gate", "verify-gate-gate"])
    def test_no_site_preloads_and_no_parser_modules(self, files, argv, status):
        # Under -S nothing is preloaded, so every module the command needs
        # shows.  The report writer and reader do without the json package.
        heavy = {"argparse", "gettext", "json", "locale", "shutil", "pathlib"}
        probe = ("import sys\n"
                 "from korth.cli import main\n"
                 "status = main(sys.argv[1:])\n"
                 f"heavy = {sorted(heavy)!r} & sys.modules.keys()\n"
                 "assert not heavy, f'loaded {sorted(heavy)}'\n"
                 "sys.exit(status)\n")
        proc = self.spawn(files, "-S", "-c", probe, *argv.split())
        assert proc.returncode == status, proc.stderr

    def test_every_handler_is_in_a_layer_its_command_loads(self):
        for command, (handler, _, _) in COMMANDS.items():
            module, _, name = handler.partition(".")
            loads = [layers.split() for argv, _, layers in self.CASES if argv.split()[0] == command]
            assert loads and all(module in layers for layers in loads), handler
            assert callable(getattr(importlib.import_module(f"korth.{module}"), name)), handler

    @pytest.mark.parametrize("argv", ["--help", "search-min --k x"], ids=["help", "usage-error"])
    def test_run_as_main_loads_cli_once(self, tmp_path, argv):
        # korth.usage takes the table from the running copy of cli.
        proc = self.spawn(tmp_path, "-X", "importtime", "-m", "korth.cli", *argv.split())
        assert proc.returncode in (0, 2) and "Traceback" not in proc.stderr
        imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "korth.usage" in imported and "korth.cli" not in imported

    def test_import_korth_loads_no_layer(self, tmp_path):
        proc = self.spawn(tmp_path, "-c", "import sys, korth; "
                          "print(*sorted(m for m in sys.modules if m.startswith('korth')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["korth"]

    def test_verbose_line_names_the_layers(self, tmp_path):
        proc = self.spawn(tmp_path, "-m", "korth.cli", "--verbose", "search-min", "--k", "3",
                          "--m-min", "4", "--m-max", "4", "--n-max", "15", "--prune", "orbit")
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(r"search-min: exit 1 in \d+\.\d{3}s; layers errors gf2 ortho record report search",
                            proc.stderr.splitlines()[-1])

    def test_verbose_line_read_by_the_standard_parser_names_the_same_layers(self, tmp_path):
        # usage is no layer.
        proc = self.spawn(tmp_path, "-m", "korth.cli", "--verbose", "search-min", "--k=3",
                          "--m-min", "4", "--m-max", "4", "--n-max", "15", "--pr", "orbit")
        assert proc.returncode == 1, proc.stderr
        assert re.fullmatch(r"search-min: exit 1 in \d+\.\d{3}s; layers errors gf2 ortho record report search",
                            proc.stderr.splitlines()[-1])


class TestRunAsProcess:
    """Run as the process, ``main`` freezes the heap once the command has
    run, on every way out, so the interpreter's exit-time collections skip
    it; called in process it never does.  Teardown still writes every byte."""

    # An atexit hook reads the freeze count after main has returned: through
    # ``python -m korth.cli`` (runpy, as -m runs it) or the console script's
    # ``sys.exit(main())``.
    DRIVER = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
              "way = sys.argv.pop(1)\n"
              "sys.argv[0] = 'korth'\n"
              "if way == 'module':\n"
              "    import runpy\n"
              "    runpy.run_module('korth.cli', run_name='__main__', alter_sys=True)\n"
              "else:\n"
              "    from korth.cli import main\n"
              "    sys.exit(main())\n")
    EXITS = [("check-orth --matrix ax.txt --k 3", 0), ("check-orth --matrix ax.txt --k 4", 1),
             ("standard-form --code missing.json", 2), ("--help", 0), ("search-min --k x", 2)]
    EXIT_IDS = ["pass", "fail", "error", "help", "usage-error"]

    @pytest.fixture
    def files(self, tmp_path, capsys):
        code, ax = tmp_path / "code.json", tmp_path / "ax.txt"
        assert run(capsys, "construct", "--m", "4", "--out", str(code), "--ax", str(ax))[0] == 0
        return tmp_path

    def spawn(self, cwd, *args):
        return subprocess.run([sys.executable, *args], capture_output=True, env=TestLoadedLayers.ENV,
                              cwd=cwd, timeout=120)

    @pytest.mark.parametrize("way", ["module", "console-script"])
    @pytest.mark.parametrize("argv, status", EXITS, ids=EXIT_IDS)
    def test_heap_frozen_at_exit(self, files, way, argv, status):
        proc = self.spawn(files, "-c", self.DRIVER, way, *argv.split())
        err = proc.stderr.decode()
        assert proc.returncode == status and "Traceback" not in err, err
        frozen = err.splitlines()[-1].split()
        assert frozen[0] == "frozen" and int(frozen[1]) > 0, err

    @pytest.mark.parametrize("argv, status", EXITS, ids=EXIT_IDS)
    def test_in_process_main_never_freezes(self, files, argv, status, monkeypatch, capsys):
        monkeypatch.chdir(files)
        before = gc.get_freeze_count()
        assert run(capsys, *argv.split())[0] == status
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("command", ["find-gates", "standard-form"])
    def test_stdout_report_equals_out_file(self, tmp_path, command, capsys):
        code = tmp_path / "code.json"
        if command == "find-gates":
            run(capsys, "construct", "--m", "7", "--out", str(code))
            argv = ["find-gates", "--code", str(code), "--k", "3"]
        else:
            base = subdual_css(6).to_stabilizer_code()
            code.write_text(code_to_json(scrambled(base, random.Random(6), permute_qubits=True)))
            argv = ["standard-form", "--code", str(code)]
        assert run(capsys, *argv, "--out", str(tmp_path / "report.json"))[0] == 0
        proc = self.spawn(tmp_path, "-m", "korth.cli", *argv)
        assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
        assert proc.stdout == (tmp_path / "report.json").read_bytes()

    def test_late_fail_keeps_its_line(self, tmp_path, capsys):
        code, gate = tmp_path / "code.json", tmp_path / "gate.json"
        run(capsys, "construct", "--m", "7", "--out", str(code))
        gate.write_text(json.dumps(TestCertificateGoldens.late_fail_gate(code, 6)))
        argv = ["verify-gate", "--code", str(code), "--gate", str(gate)]
        status, out, _ = run(capsys, *argv)
        assert status == 1 and out.startswith("FAIL: ")
        proc = self.spawn(tmp_path, "-m", "korth.cli", *argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (1, out, b"")


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["construct", "--bogus"]) == 2

    def test_distance_has_no_strategy_flag(self, tmp_path, capsys):
        # Each side's method follows from its null-space dimension alone.
        code = tmp_path / "code.json"
        run(capsys, "construct", "--m", "3", "--out", str(code))
        status, out, err = run(capsys, "distance", "--code", str(code), "--strategy", "weight")
        assert status == 2 and out == ""
        assert err.startswith("usage: ") and "Traceback" not in err
        assert "unrecognized arguments: --strategy weight" in err


def _outcome(parse, argv: list[str]) -> tuple[int, dict[str, str] | str | None]:
    """The exit status and, on success, the repr of every parsed field
    (repr, so that nan equals nan); after a usage error, the whole stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue() if exc.code else None
    return 0, {name: repr(value) for name, value in vars(args).items()}


_VALUES = st.sampled_from(["3", "0", "12", "+3", "3_000", "x", "nan", "inf", "1.5", "-1", "-.5",
                           "-0", "", "-", "none", "orbit", "all-ones", "1,2", "code.json"])


@st.composite
def _flag_tokens(draw, names: list[str], values: st.SearchStrategy = _VALUES) -> list[str]:
    """One flag, maybe a prefix of it, maybe with "=value", maybe without its value."""
    name = draw(st.sampled_from(names))
    if name.startswith("--") and draw(st.integers(0, 3)) == 0:
        name = name[:draw(st.integers(3, len(name)))]
    form = draw(st.sampled_from(["value", "value", "value", "equals", "bare"]))
    if form == "equals":
        return [f"{name}={draw(values)}"]
    return [name] if form == "bare" else [name, draw(values)]


@st.composite
def _command_lines(draw) -> list[str]:
    """Mostly a command with its required flags, among other flags, unknown
    ones, stray values and now and then -h, in any order."""
    argv = draw(st.lists(st.sampled_from(["--verbose", "--verb", "--bogus"]), max_size=2))
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    argv.append(command)
    flags = COMMANDS.get(command, COMMANDS["search-min"])[2]
    own = [flag[0] for flag in flags]
    others = ["--verbose", "--strategy", "--threads", "-x", "--ou", "--code", "--k", "--m-min"]
    groups = [draw(_flag_tokens([name], st.sampled_from(["3", "+3", "3_000", "-1", "c.json"])))
              for name, _, default, _, _ in flags if default is REQUIRED and draw(st.integers(0, 7))]
    groups += draw(st.lists(st.one_of(_flag_tokens(own), _flag_tokens(own), _flag_tokens(others),
                                      _VALUES.map(lambda v: [v])), max_size=4))
    if draw(st.integers(0, 5)) == 0:
        groups.append([draw(st.sampled_from(["-h", "--help", "--he"]))])
    for group in draw(st.permutations(groups)):
        argv += group
    return argv


class TestParserAgainstArgparse:
    """The command-table parser accepts and rejects what argparse did, and
    writes the same usage errors."""

    REFERENCE = build_parser()

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    def test_same_outcome(self, argv):
        assert _outcome(parse_args, argv) == _outcome(self.REFERENCE.parse_args, argv)

    @pytest.mark.parametrize("argv", [
        "construct --m=3", "construct --m 3 --m 4", "--verbose construct --m -1",
        "search-min --k 3 --m-min 4 --m-max 5 --n-max 14 --pr orbit --budget-seconds -.5",
        "search-min --k 3 --m-min 4 --m-max 5 --n-max 14 --budget-seconds nan",
        "search-min --k +3 --m-min 3_000 --m-max 4 --n-max 1", "verify-gate --code c --out= --k 3",
        "distance --weight-cap -2 --o=-x", "--verb --verbose check-orth --matrix m --k 2 --r 1",
    ])
    def test_accepts(self, argv):
        status, fields = _outcome(parse_args, argv.split())
        assert status == 0 and fields == _outcome(self.REFERENCE.parse_args, argv.split())[1]

    @pytest.mark.parametrize("argv, message", [
        ("", "the following arguments are required: subcommand"),
        ("bogus", "argument subcommand: invalid choice: 'bogus'"),
        ("construct --m 3 --verbose", "unrecognized arguments: --verbose"),
        ("--bogus construct --m 3 --zz 1", "unrecognized arguments: --bogus --zz 1"),
        ("search-min --k 3", "the following arguments are required: --m-min, --m-max, --n-max"),
        ("search-min --k x", "argument --k: invalid int value: 'x'"),
        ("search-min --budget-seconds y", "argument --budget-seconds: invalid float value: 'y'"),
        ("search-min --prune all", "argument --prune: invalid choice: 'all'"),
        ("construct --out", "argument --out: expected one argument"),
        ("construct --out --m 3", "argument --out: expected one argument"),
        ("construct --m -1e5", "argument --m: expected one argument"),
        ("search-min --m 3", "ambiguous option: --m could match --m-min, --m-max"),
        ("--verbose=1 construct", "argument --verbose: ignored explicit argument '1'"),
        ("construct --m 3 -hx", "argument -h/--help: ignored explicit argument 'x'"),
        ("construct --m 3 -- --ax a", "unrecognized arguments: -- --ax a"),
    ])
    def test_rejects(self, argv, message, capsys):
        status, reference = _outcome(self.REFERENCE.parse_args, argv.split())
        assert status == 2 and main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == reference
        command = argv.split()[0] if argv.split()[:1] in (["construct"], ["search-min"]) else None
        assert captured.err.startswith("usage: korth ")
        prog = "korth" if command is None or "unrecognized" in message else f"korth {command}"
        assert captured.err.splitlines()[-1].startswith(f"{prog}: error: {message}")


_WHOLE_VALUES = ["3", "+3", "3_000", " 3", "\u0663", "", "nan", "1e400", "x", "orbit", "none", "all"]


def _whole_value(flag: tuple) -> st.SearchStrategy[str]:
    """Mostly a value the flag takes, else one of the odd values above."""
    _, convert, _, choices, _ = flag
    good = st.sampled_from(choices or {int: ["3", "4"], float: ["0.5"], str: ["c.json"]}[convert])
    return st.one_of(good, good, st.sampled_from(_WHOLE_VALUES))


@st.composite
def _whole_flag_lines(draw) -> list[str]:
    """A line of the plain shape: maybe --verbose, a subcommand, then whole
    flag names of that subcommand, each with one value that does not start
    with "-"; now and then a required flag left out."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = ["--verbose"] * draw(st.integers(0, 1)) + [command]
    flags = COMMANDS[command][2]
    pairs = [[flag[0], draw(_whole_value(flag))]
             for flag in flags if flag[2] is REQUIRED and draw(st.integers(0, 9))]
    pairs += draw(st.lists(st.sampled_from(flags).flatmap(
        lambda flag: _whole_value(flag).map(lambda value: [flag[0], value])), max_size=4))
    for pair in draw(st.permutations(pairs)):
        argv += pair
    return argv


def _lines_in_readme() -> list[list[str]]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [line.split("#")[0].split()[1:]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("korth ")]


class TestWholeFlagLines:
    """A line of whole flag names with plain values is read without the
    standard parser, to the same fields the reference parser gives."""

    REFERENCE = build_parser()

    @settings(max_examples=400, deadline=None)
    @given(_whole_flag_lines())
    def test_same_outcome_and_no_standard_parser_on_success(self, argv):
        calls = []

        def recorded(line):
            calls.append(line)
            return standard(line)

        standard = usage._parse_standard
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(usage, "_parse_standard", recorded)
            outcome = _outcome(parse_args, argv)
        assert outcome == _outcome(self.REFERENCE.parse_args, argv)
        if outcome[0] == 0:
            assert calls == []

    # The command lines CI, the benchmark and README run.
    LINES = [line.split() for line in (
        "construct --m 12 --out /tmp/m12.json",
        "standard-form --code /tmp/m12.json --out /tmp/m12_sf.json",
        "verify-gate --code /tmp/m12.json --k 11 --p all-ones",
        "distance --code /tmp/m12.json",
        "find-gates --code /tmp/m9.json --k 3 --out /tmp/m9_gates.json",
        "search-min --k 3 --m-min 4 --m-max 6 --n-max 15 --prune orbit --out /tmp/floor.json",
        "search-min --k 12 --m-min 14 --m-max 14 --n-max 14 --budget-seconds 5 --out /tmp/h.json",
        "search-min --k 3 --m-min 4 --m-max 7 --n-max 17 --prune orbit",
        "search-min --k 9 --m-min 11 --m-max 11 --n-max 1024 --budget-seconds 1 --out /tmp/k9.json",
        "search-min --k 12 --m-min 15 --m-max 15 --n-max 3000 --out /tmp/k12.json",
        "verify-gate --code /tmp/m4.json --k 1000000000000 --p all-ones",
        "search-min --k 1000000000000 --m-min 4 --m-max 4 --n-max 5",
        "construct --m 10 --out /tmp/w/m10.json --ax /tmp/w/m10.ax --az /tmp/w/m10.az",
        "verify-gate --code /tmp/w/m10.json --gate /tmp/w/gate10_9.json --out /tmp/w/report2.json",
        "verify-gate --code /tmp/w/m5.json --k 4 --p all-ones --controls 2 --out /tmp/w/r6.json",
        "check-orth --matrix /tmp/w/m10.ax --k 10 --out /tmp/w/report9.json",
        "distance --ax /tmp/w/m8.ax --az /tmp/w/m8.az --out /tmp/w/report7.json",
        "search-min --k 2 --m-min 3 --m-max 4 --n-max 8 --prune none --out /tmp/w/report3.json",
    )]

    @pytest.mark.parametrize("argv", LINES + _lines_in_readme(), ids=" ".join)
    def test_read_without_the_standard_parser(self, argv, monkeypatch):
        def refused(line):
            raise AssertionError(f"the standard parser read {line}")

        monkeypatch.setattr(usage, "_parse_standard", refused)
        assert _outcome(parse_args, argv) == _outcome(self.REFERENCE.parse_args, argv)

    def test_readme_lines_are_found(self):
        assert len(_lines_in_readme()) >= 10


class TestHelp:
    def test_top_level_names_every_command(self, capsys):
        for flag in ("-h", "--help", "--he"):
            status, out, err = run(capsys, flag)
            assert status == 0 and err == "" and out.startswith("usage: korth ")
            # argparse lists each command on its own line, under the choices
            assert len(COMMANDS) == 8
            assert all(re.search(rf"^    {name}( |$)", out, re.M) for name in COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_names_every_flag(self, command, capsys):
        status, out, err = run(capsys, command, "-h")
        assert status == 0 and err == "" and out.startswith(f"usage: korth {command} ")
        for flag in COMMANDS[command][2]:
            assert f"\n  {flag[0]} " in out

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_notes_each_default(self, command, capsys):
        status, out, _ = run(capsys, command, "-h")
        words = " ".join(out.split())  # argparse wraps at the terminal width
        for name, _, default, _, text in COMMANDS[command][2]:
            if default is not None:
                note = "(required)" if default is REQUIRED else f"(default: {default})"
                assert re.search(rf" {name} \S+ {re.escape(f'{text} {note}'.strip())}", words), name

    def test_help_before_a_bad_flag_wins_and_after_one_loses(self, capsys):
        assert main(["search-min", "-h", "--k", "x"]) == 0
        assert main(["search-min", "--k", "x", "-h"]) == 2


class TestFileNames:
    def test_dotted_names_read_and_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        assert run(capsys, "construct", "--m", "3", "--out", "./dir//code.json")[0] == 0
        status, _, _ = run(capsys, "standard-form", "--code", "./dir//code.json",
                           "--out", "./dir//r.json")
        assert status == 0
        assert json.loads((tmp_path / "dir" / "r.json").read_text())["n"] == 7


class TestHugeK:
    """A k past the library's bound is a usage error, not an attempt at a
    modulus 2**k: each run gets 1 GB of address space."""

    PROBE = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from korth.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("huge")
        sf = subdual_css(4)
        (path / "code.json").write_text(code_to_json(sf.to_stabilizer_code()))
        for k in (14285, 10 ** 12):
            (path / f"gate{k}.json").write_text(json.dumps({"k": k, "p": [1] * 15}))
        return path

    @pytest.mark.parametrize("argv", [
        "verify-gate --code code.json --k 14285 --p all-ones",
        "find-gates --code code.json --k 14285",
        "verify-gate --code code.json --gate gate14285.json",
        "verify-gate --code code.json --k 1000000000000 --p all-ones",
        "verify-gate --code code.json --k 1000000000000 --p all-ones --controls 1",
        "find-gates --code code.json --k 1000000000000",
        "search-min --k 1000000000000 --m-min 4 --m-max 4 --n-max 5",
        "verify-gate --code code.json --gate gate1000000000000.json",
    ])
    def test_exit_two(self, files, argv):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv.split()], cwd=files,
                              env=TestLoadedLayers.ENV, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestHugeSearch:
    """A search over more (m, n) boxes than one report may list is refused
    before any box is built: each run gets 2,000,000 KB of address space."""

    PROBE = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2_000_000 << 10, 2_000_000 << 10))\n"
             "from korth.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("argv", [
        "--k 3 --m-min 4 --m-max 1000000000000 --n-max 14 --budget-seconds 1",
        "--k 64 --m-min 64 --m-max 64 --n-max 18446744073709551615 --budget-seconds 1",
        "--k 3 --m-min 4 --m-max 1000000000000000000000000000000 --n-max 14",
    ], ids=["wide-m-range", "huge-n-max", "m-range-past-a-c-index"])
    def test_exit_two(self, tmp_path, argv):
        proc = subprocess.run([sys.executable, "-c", self.PROBE, "search-min", *argv.split()],
                              cwd=tmp_path, env=TestLoadedLayers.ENV, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert re.fullmatch(r"error: the scan holds \d+ \(m, n\) boxes, more than the 65536 "
                            r"one run may list\n", proc.stderr)
        assert proc.stdout == ""


class TestHugeConstruct:
    """An m past ``families.MAX_M`` is refused before any column is built:
    each run gets 2,000,000 KB of address space."""

    @pytest.mark.parametrize("m", [15, 40, 64, 10 ** 12])
    def test_exit_two(self, tmp_path, m):
        proc = subprocess.run([sys.executable, "-c", TestHugeSearch.PROBE, "construct", "--m",
                               str(m), "--out", "code.json"], cwd=tmp_path,
                              env=TestLoadedLayers.ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: m={m} asks for 2**{m} - 1 qubits; the construction "
                               f"takes at most m=14, 2**14 - 1 = 16,383 qubits\n")
        assert proc.stdout == "" and not (tmp_path / "code.json").exists()


class TestBadInput:
    """Malformed input exits 2 with an ``error:`` line, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        code, ax, az = tmp_path / "code.json", tmp_path / "ax.txt", tmp_path / "az.txt"
        run(capsys, "construct", "--m", "3", "--out", str(code), "--ax", str(ax), "--az", str(az))
        files = {"code": code, "ax": ax, "az": az}
        descriptor = json.loads(code.read_text())
        for name, content in (
            ("gate_without_p", {"k": 2, "controls": 0}),
            ("letter_q", {"n": 3, "stabilizers": ["+QZI", "+ZZI"]}),
            ("stabilizers_int", {"n": 3, "stabilizers": 5}),
            # JSON numbers that int() would truncate to a different input
            ("n_float", {**descriptor, "n": 7.9}),
            ("n_bool", {**descriptor, "n": True}),
            ("gate_floats", {"k": 3.7, "p": [1.9] * 7}),
            ("gate_k_bool", {"k": True, "p": [1] * 7}),
            ("gate_controls_bool", {"k": 3, "controls": True, "p": [1] * 7}),
            ("gate_p_entry_float", {"k": 3, "controls": 0, "p": [1] * 6 + [2.0]}),
            ("gate_p_string", {"k": 3, "controls": 0, "p": "1111111"}),
        ):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(content))
        # a JSON number longer than int() parses by default
        files["gate_huge_number"] = tmp_path / "gate_huge_number.json"
        files["gate_huge_number"].write_text('{"k": 3, "p": [' + "9" * 5000 + "]}")
        files["n_huge"] = tmp_path / "n_huge.json"
        files["n_huge"].write_text('{"n": ' + "9" * 5000 + ', "stabilizers": []}')
        # nesting past the JSON decoder's recursion limit
        files["deep"] = tmp_path / "deep.json"
        files["deep"].write_text("[" * 200_000)
        files["not_utf8"] = tmp_path / "not_utf8"
        files["not_utf8"].write_bytes(b"\xff\xfe")
        for name, text in (("header_words", "a b\n"), ("header_negative", "-1 3\n")):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        return {name: str(path) for name, path in files.items()}

    @pytest.mark.parametrize("argv", [
        ["verify-gate", "--code", "{code}", "--gate", "{gate_without_p}"],
        ["standard-form", "--code", "{letter_q}"],
        ["standard-form", "--code", "{stabilizers_int}"],
        ["check-orth", "--matrix", "{ax}", "--k", "1", "--r", "1012"],
        ["distance", "--code", "{code}", "--weight-cap", "-3"],
        ["search-min", "--k", "1", "--m-min", "2", "--m-max", "2", "--n-max", "3",
         "--budget-seconds", "-1"],
        ["search-min", "--k", "2", "--m-min", "3", "--m-max", "4", "--n-max", "6",
         "--budget-seconds", "nan"],
        ["standard-form", "--code", "{n_float}"],
        ["standard-form", "--code", "{n_bool}"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_floats}"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_k_bool}"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_controls_bool}"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_p_entry_float}"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_p_string}"],
        ["search-min", "--k", "1", "--m-min", "5", "--m-max", "3", "--n-max", "3"],
        ["search-min", "--k", "1", "--m-min", "0", "--m-max", "2", "--n-max", "3"],
        ["search-min", "--k", "2", "--m-min", "3", "--m-max", "3", "--n-max", "8"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate_huge_number}"],
        ["standard-form", "--code", "{n_huge}"],
        ["standard-form", "--code", "{deep}"],
        ["verify-gate", "--code", "{code}", "--gate", "{deep}"],
        ["verify-gate", "--code", "{code}", "--k", "3", "--p", "1,x"],
        ["reduce-degenerate", "--code", "{code}", "--k", "3", "--p", "1,x"],
        ["verify-gate", "--code", "{code}", "--k", "3", "--p", "1,1"],
        ["verify-gate", "--code", "{code}", "--k", "3"],
        ["check-orth", "--matrix", "{header_words}", "--k", "1"],
        ["check-orth", "--matrix", "{header_negative}", "--k", "1"],
        ["search-min", "--k", "1", "--m-min", "2", "--m-max", "2", "--n-max", "0"],
        ["standard-form", "--code", "{not_utf8}"],
        ["find-gates", "--code", "{not_utf8}", "--k", "2"],
        ["verify-gate", "--code", "{not_utf8}", "--k", "2", "--p", "all-ones"],
        ["distance", "--code", "{not_utf8}"],
        ["reduce-degenerate", "--code", "{not_utf8}", "--k", "2", "--p", "1"],
        ["check-orth", "--matrix", "{not_utf8}", "--k", "1"],
        ["distance", "--ax", "{not_utf8}", "--az", "{az}"],
        ["distance", "--ax", "{ax}", "--az", "{not_utf8}"],
        ["verify-gate", "--code", "{code}", "--gate", "{not_utf8}"],
    ], ids=["gate-without-p", "pauli-letter-q", "stabilizers-int", "restriction-bit-2",
            "weight-cap-below-1", "negative-budget", "budget-nan", "n-float", "n-bool",
            "gate-floats", "gate-k-bool", "gate-controls-bool", "gate-p-entry-float",
            "gate-p-string", "m-range-empty", "m-min-0", "n-max-above-columns",
            "gate-huge-number", "n-huge", "code-deep", "gate-deep", "p-not-integers",
            "reduce-p-not-integers", "p-wrong-length", "k-without-p", "header-not-integers",
            "header-negative", "n-max-0", "standard-form-not-utf8", "find-gates-not-utf8",
            "verify-gate-not-utf8", "distance-code-not-utf8", "reduce-not-utf8",
            "matrix-not-utf8", "ax-not-utf8", "az-not-utf8", "gate-not-utf8"])
    def test_exit_two(self, files, argv, capsys):
        status, _, err = run(capsys, *(a.format(**files) for a in argv))
        assert status == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("descriptor", [
        {"n": 3, "stabilizers": ["+ZZI", "+IZZ", "+XXX"]},
        {"n": 0, "stabilizers": []},
        {"n": 1, "stabilizers": ["+Z"]},
    ], ids=["three-on-three", "empty", "one-on-one"])
    def test_no_logical_qubit(self, descriptor, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(descriptor))
        status, _, err = run(capsys, "standard-form", "--code", str(path))
        assert status == 2 and err.startswith("error: ")
        assert f"on {descriptor['n']} qubits encode none" in err
        assert "promote" not in err and not re.search(r"-\d", err)
