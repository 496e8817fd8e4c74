"""The traced benchmark run wraps korth functions by dotted name; every name
it lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_names() -> tuple[str, ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("WRAPPED not found in perfbench/tracing.py")


def test_every_traced_name_resolves():
    names = _wrapped_names()
    assert names
    for dotted in names:
        module_name, *attrs = dotted.split(".")
        owner = importlib.import_module(f"korth.{module_name}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{dotted} no longer exists"
            owner = getattr(owner, attr)
        assert callable(owner), dotted
