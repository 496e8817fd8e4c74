"""The CLI contract under mutated input files: exit 0, 1 only with a FAIL
line, or 2 with an ``error:`` line, and never an escaping exception.

Code descriptors, gate files and matrix files start from valid ones and are
mutated the way hand-edited files go wrong: keys dropped or retyped, Pauli
letters swapped or replaced, rows truncated.  Numbers stay small, so each
run is quick.  A huge k is refused before any work (``TestHugeK`` in
``test_cli.py`` runs those lines in a memory-capped process); no mutation
here asks for a huge qubit count.  ``search-min`` is run at sizes up to 64
(k, row counts and n_max) under a half-second budget: exit 0, 1 only with
a witness in the report, or 2 with an ``error:`` line.  ``construct`` is run
at m up to 64: a code for m up to 7, an ``error:`` line past
``families.MAX_M`` = 14.  The sizes in between build codes of up to 16,383
qubits; the CI scale steps run them up to m = 12.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from korth.cli import main
from korth.codes import code_to_json_dict
from korth.families import MAX_M, subdual_css
from korth.gf2 import format_matrix_text

from conftest import five_qubit_code

STEANE = subdual_css(3)
DESCRIPTORS = (code_to_json_dict(STEANE.to_stabilizer_code()), code_to_json_dict(five_qubit_code()))
GATE = {"k": 3, "controls": 0, "p": [1] * 7}
MATRICES = (format_matrix_text(STEANE.a_x), format_matrix_text(STEANE.a_z))

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-3, 9, allow_nan=False),
    st.text("IXYZ+-i01Q", max_size=8), st.lists(st.integers(-2, 5), max_size=8), st.just({}),
)


@st.composite
def mutated_json(draw, base: dict) -> object:
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(data) or ["n"]))
        action = draw(st.sampled_from(("edit", "edit", "edit", "drop", "retype")))
        if action == "drop":
            data.pop(key, None)
        elif action == "retype":
            data[key] = draw(json_values)
        else:
            data[key] = draw(edited(data.get(key)))
    return draw(st.sampled_from((data,) * 8 + ([data], "text")))


def edited(value) -> st.SearchStrategy:
    """A nearby value of the same type: a small int, an edited label, or
    an edited list."""
    if isinstance(value, str):
        return mutated_text(value, "IXYZQxé+-i ")
    if isinstance(value, list):
        return mutated_sequence(value)
    return st.integers(-2, 9)


@st.composite
def mutated_sequence(draw, items: list) -> list:
    """Drop, duplicate, edit or retype one entry of a list."""
    items = list(items)
    if not items:
        return items
    i = draw(st.integers(0, len(items) - 1))
    action = draw(st.sampled_from(("drop", "duplicate", "edit", "edit", "retype")))
    if action == "drop":
        del items[i]
    elif action == "duplicate":
        items.insert(i, items[i])
    elif action == "retype":
        items[i] = draw(json_values)
    else:
        items[i] = draw(edited(items[i]))
    return items


@st.composite
def mutated_text(draw, text: str, alphabet: str) -> str:
    chars = list(text)
    for _ in range(draw(st.integers(1, 2))):
        if not chars:
            break
        i = draw(st.integers(0, len(chars) - 1))
        action = draw(st.sampled_from(("swap", "replace", "truncate")))
        if action == "swap":
            j = draw(st.integers(0, len(chars) - 1))
            chars[i], chars[j] = chars[j], chars[i]
        elif action == "replace":
            chars[i] = draw(st.sampled_from(alphabet))
        else:
            del chars[i:]
    return "".join(chars)


def matrix_text() -> st.SearchStrategy[str]:
    base = st.sampled_from(MATRICES)
    return st.one_of(base, base.flatmap(lambda t: mutated_text(t, "01 2\n")))


def code_commands(path: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from([
        ["standard-form", "--code", path],
        ["verify-gate", "--code", path, "--k", "3", "--p", "all-ones"],
        ["verify-gate", "--code", path, "--k", "2", "--p", "all-ones", "--controls", "1"],
        ["find-gates", "--code", path, "--k", "2"],
        ["distance", "--code", path],
        ["reduce-degenerate", "--code", path, "--k", "2", "--p", "all-ones"],
    ])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)  # an exception escaping here fails the test
    return status, out.getvalue(), err.getvalue()


def assert_contract(status: int, out: str, err: str) -> None:
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 1:
        assert any(line.startswith("FAIL") for line in out.splitlines())
    if status == 2:
        assert err.startswith("error: ")


FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_mutated_code_descriptors(workdir, data):
    descriptor = data.draw(st.sampled_from(DESCRIPTORS).flatmap(mutated_json))
    path = workdir / "code.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    assert_contract(*run_cli(data.draw(code_commands(str(path)))))


@FUZZ
@given(gate=mutated_json(GATE))
def test_mutated_gate_files(workdir, gate):
    code, path = workdir / "steane.json", workdir / "gate.json"
    code.write_text(json.dumps(DESCRIPTORS[0]), encoding="utf-8")
    path.write_text(json.dumps(gate), encoding="utf-8")
    assert_contract(*run_cli(["verify-gate", "--code", str(code), "--gate", str(path)]))


@FUZZ
@given(ax=matrix_text(), az=matrix_text(), k=st.integers(1, 3))
def test_mutated_matrix_files(workdir, ax, az, k):
    ax_path, az_path = workdir / "ax.txt", workdir / "az.txt"
    ax_path.write_text(ax, encoding="utf-8")
    az_path.write_text(az, encoding="utf-8")
    assert_contract(*run_cli(["check-orth", "--matrix", str(ax_path), "--k", str(k)]))
    assert_contract(*run_cli(["distance", "--ax", str(ax_path), "--az", str(az_path)]))


@FUZZ
@given(k=st.integers(1, 3) | st.integers(0, 64), m_min=st.integers(1, 5) | st.integers(0, 64),
       m_max=st.integers(0, 64), n_max=st.integers(0, 64), prune=st.sampled_from(("none", "orbit")))
def test_search_min_at_size(k, m_min, m_max, n_max, prune):
    status, out, err = run_cli([
        "search-min", "--k", str(k), "--m-min", str(m_min), "--m-max", str(m_max),
        "--n-max", str(n_max), "--prune", prune, "--budget-seconds", "0.5"])
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("error: ")
    else:
        assert status == (1 if json.loads(out)["witnesses"] else 0)


@FUZZ
@given(m=st.integers(-3, 7) | st.integers(MAX_M + 1, 64))
def test_construct_at_size(workdir, m):
    path = workdir / "construct.json"
    path.unlink(missing_ok=True)
    status, out, err = run_cli(["construct", "--m", str(m), "--out", str(path)])
    assert status in (0, 2)
    assert "Traceback" not in err and out == ""
    if status == 2:
        assert err.startswith("error: ") and not path.exists()
    else:
        assert 3 <= m <= MAX_M and json.loads(path.read_text())["n"] == (1 << m) - 1
