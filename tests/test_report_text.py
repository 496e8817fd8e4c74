"""The report writer ``report.json_text`` against ``json.dumps(obj, indent=2)``:
byte for byte on every CLI report and on fuzzed payloads, and with a bounded
memory peak on a large report."""

from __future__ import annotations

import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korth import cli, codes, report
from korth.report import json_text


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class TestEveryCommandReport:
    """Each subcommand's ``--out`` report: the payload the writer got and
    the bytes it wrote both match ``json.dumps``."""

    @pytest.fixture
    def files(self, tmp_path):
        code, ax = tmp_path / "code.json", tmp_path / "ax.txt"
        assert cli.main(["construct", "--m", "4", "--out", str(code), "--ax", str(ax)]) == 0
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps({"k": 3, "controls": 0, "p": [2] + [1] * 14}))
        degenerate = tmp_path / "degenerate.json"
        degenerate.write_text(json.dumps({"n": 4, "stabilizers": ["+XXXX", "+ZZII", "+IIZZ"]}))
        return {"code": str(code), "ax": str(ax), "gate": str(gate),
                "degenerate": str(degenerate)}

    @pytest.mark.parametrize("argv", [
        ["construct", "--m", "5"],
        ["standard-form", "--code", "{code}"],
        ["check-orth", "--matrix", "{ax}", "--k", "3"],
        ["check-orth", "--matrix", "{ax}", "--k", "4"],
        ["find-gates", "--code", "{code}", "--k", "3"],
        ["verify-gate", "--code", "{code}", "--k", "3", "--p", "all-ones"],
        ["verify-gate", "--code", "{code}", "--gate", "{gate}"],
        ["verify-gate", "--code", "{code}", "--k", "3", "--p", "all-ones", "--controls", "1"],
        ["verify-gate", "--code", "{code}", "--k", "4", "--p", "all-ones", "--controls", "1"],
        ["distance", "--code", "{code}"],
        ["search-min", "--k", "2", "--m-min", "3", "--m-max", "4", "--n-max", "8"],
        ["reduce-degenerate", "--code", "{degenerate}", "--k", "2", "--p", "1,1,1,2"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
    def test_report_matches_json_dumps(self, argv, files, tmp_path, monkeypatch, capsys):
        payloads = []

        def recording(obj):
            payloads.append(obj)
            return json_text(obj)

        monkeypatch.setattr(report, "json_text", recording)
        out = tmp_path / "report.json"
        cli.main([a.format(**files) for a in argv] + ["--out", str(out)])
        capsys.readouterr()
        assert len(payloads) == 1
        assert json_text(payloads[0]) == reference(payloads[0])
        text = out.read_text(encoding="utf-8")
        assert text == reference(json.loads(text))

    def test_code_to_json(self):
        from korth.families import subdual_css

        descriptor = codes.code_to_json_dict(subdual_css(4).to_stabilizer_code())
        assert codes.code_to_json(subdual_css(4).to_stabilizer_code()) == reference(descriptor)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and both infinities included
    st.text(),  # non-ASCII, quotes, backslashes and control characters
)
int_lists = st.lists(st.one_of(st.integers(-(2**70), 2**70), st.booleans()), max_size=6)
payloads = st.recursive(
    st.one_of(scalars, int_lists, st.lists(st.text(max_size=4), max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(payloads)
def test_fuzzed_payloads_match_json_dumps(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    [True, 1, False], [1, True], ["a", 1], ["a", None], [1.0, 2], [[], {}],
    {"a": [], "b": {}, "c": ()}, (1, 2), ("x",), "é \"\\\n\x00", 10**40, -0.0,
])
def test_edge_payloads_match_json_dumps(obj):
    assert json_text(obj) == reference(obj)


def _unlimited_str(n: int) -> str:
    """``str(n)`` with the interpreter's digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("n", [10**5000 + 7, -(10**5000 + 7), 2**15199, 10**4300, 10**30000 - 1],
                         ids=["1e5000+7", "-1e5000-7", "2^15199", "1e4300", "1e30000-1"])
def test_int_past_the_digit_limit_written_exactly(n):
    # find-gates counts and search box sizes can pass the 4,300-digit default.
    assert json_text(n) == _unlimited_str(n) + "\n"
    assert json_text({"count": n, "lanes": [1, n, -2]}) == (
        '{\n  "count": %s,\n  "lanes": [\n    1,\n    %s,\n    -2\n  ]\n}\n'
        % (_unlimited_str(n), _unlimited_str(n)))
    with pytest.raises(ValueError):  # the limit itself stays in force
        str(10**5000)


@pytest.mark.parametrize("obj", [[object()], {"a": {1, 2}}, {1: "an int key"}])
def test_unwritable_raises_type_error(obj):
    with pytest.raises(TypeError):
        json_text(obj)


def test_large_report_memory_peak(tmp_path, monkeypatch, capsys):
    """Emitting the 743 KB m=8, k=7 ``find-gates`` report peaks at about 2.3
    times its size: the pieces plus the one joined text.  json's own
    chunk list peaks at about 7 times, and a writer that keeps each level's
    parts while it concatenates them at about 3 times."""
    code = tmp_path / "code.json"
    cli.main(["construct", "--m", "8", "--out", str(code)])
    payloads = []
    monkeypatch.setattr(report, "json_text", lambda obj: payloads.append(obj) or "")
    cli.main(["find-gates", "--code", str(code), "--k", "7"])
    monkeypatch.undo()
    capsys.readouterr()
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        report.emit(payloads[0], str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 700_000
    assert peak < 2.5 * size
