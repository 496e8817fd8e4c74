import hashlib
import json
import random

import pytest

from korth.cli import main
from korth.codes import code_from_json, code_to_json, is_css, to_standard_form
from korth.families import subdual_css
from korth.gf2 import format_matrix_text, parse_matrix_text

from conftest import scrambled, spans_equal


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

    def test_m_too_small(self, tmp_path, capsys):
        status, _, err = run(capsys, "construct", "--m", "2")
        assert status == 2
        assert "m=2" in err


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


class TestFindGates:
    def test_solution_set(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        run(capsys, "construct", "--m", "3", "--out", str(out))
        status, text, _ = run(capsys, "find-gates", "--code", str(out), "--k", "2")
        assert status == 0
        data = json.loads(text)
        assert data["count"] == 32
        assert all(len(g["p"]) == 7 for g in data["generators"])

    # sha256 of the `find-gates --out` report, recorded with the list-of-lists
    # solver (tests/test_gates.py::dense_kernel): a change to the generators,
    # their order or the report layout breaks them.
    GOLDEN = {
        ("construct", 5, 1): "e1d93d5aea42cfc62432b6b750c469105a6f85afbc5b3ff64df8269312031503",
        ("construct", 5, 3): "bf60d81affb20329372a239d188b2aa88080614a1a12e65e0fdde65a5556d656",
        ("construct", 5, 4): "28bc85063a25b45b75fdc1f9516f34328a1f19db702beafcaf0fa36db745c59c",
        ("construct", 6, 1): "8540e34e883f7e16210d2a688fb170a43f3520dbc8b63b4c4bddaef8bbbe5752",
        ("construct", 6, 3): "626f1184b70671887f6e3a7e737e80792c96453e1c3487bc30eafb432e4038c0",
        ("construct", 6, 5): "2d48d27aaa36a33a5366b0cd44dfc61ca3279239a6e20743d35a9898f5f1d539",
        ("scrambled", 6, 3): "b7590b450e57ec3b3c9631dea3b9d8b87ceffa7641eb43857233251aa64d09e2",
    }

    @pytest.mark.parametrize("source,m,k", sorted(GOLDEN), ids=lambda v: str(v))
    def test_golden_report_digest(self, source, m, k, tmp_path, capsys):
        code = tmp_path / "code.json"
        if source == "construct":
            run(capsys, "construct", "--m", str(m), "--out", str(code))
        else:
            base = subdual_css(m).to_stabilizer_code()
            code.write_text(code_to_json(scrambled(base, random.Random(m), permute_qubits=True)))
        report = tmp_path / "report.json"
        status, _, _ = run(capsys, "find-gates", "--code", str(code), "--k", str(k),
                           "--out", str(report))
        assert status == 0
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.GOLDEN[source, m, k]


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


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["construct", "--bogus"]) == 2


class TestBadInput:
    """Malformed input exits 2 with an ``error:`` line, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        code, ax = tmp_path / "code.json", tmp_path / "ax.txt"
        run(capsys, "construct", "--m", "3", "--out", str(code), "--ax", str(ax))
        files = {"code": code, "ax": ax}
        for name, content in (
            ("gate_without_p", {"k": 2, "controls": 0}),
            ("letter_q", {"n": 3, "stabilizers": ["+QZI", "+ZZI"]}),
            ("stabilizers_int", {"n": 3, "stabilizers": 5}),
        ):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(content))
        return {name: str(path) for name, path in files.items()}

    @pytest.mark.parametrize("argv", [
        ["verify-gate", "--code", "{code}", "--gate", "{gate_without_p}"],
        ["standard-form", "--code", "{letter_q}"],
        ["standard-form", "--code", "{stabilizers_int}"],
        ["check-orth", "--matrix", "{ax}", "--k", "1", "--r", "1012"],
        ["distance", "--code", "{code}", "--strategy", "weight", "--weight-cap", "-3"],
        ["search-min", "--k", "1", "--m-min", "2", "--m-max", "2", "--n-max", "3",
         "--budget-seconds", "-1"],
        ["search-min", "--k", "1", "--m-min", "2", "--m-max", "2", "--n-max", "3",
         "--threads", "0"],
        ["search-min", "--k", "1", "--m-min", "2", "--m-max", "2", "--n-max", "3",
         "--threads", "-1"],
    ], ids=["gate-without-p", "pauli-letter-q", "stabilizers-int", "restriction-bit-2",
            "weight-cap-below-1", "negative-budget", "threads-0", "threads-negative"])
    def test_exit_two(self, files, argv, capsys):
        status, _, err = run(capsys, *(a.format(**files) for a in argv))
        assert status == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
