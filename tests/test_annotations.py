"""Every name an annotation uses must be bound in its module.

Under ``from __future__ import annotations`` an annotation is never
evaluated at import, so a name missing from the module's imports only shows
when ``typing.get_type_hints`` (or a documentation tool) resolves it.  The
check reads each ``korth`` module's source with ``ast``: a name counts as
bound when the module imports, defines or assigns it at top level, inside an
``if TYPE_CHECKING:`` block or a ``try`` included, or when it is a builtin.
"""

import ast
import builtins
import typing
from pathlib import Path

import pytest

import korth

SOURCES = sorted(Path(korth.__file__).parent.glob("*.py"))


def _bound(body: list[ast.stmt]) -> set[str]:
    """Names the top-level statements of ``body`` bind."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            names |= _bound(node.body) | _bound(node.orelse)
        elif isinstance(node, ast.Try):
            names |= _bound(node.body) | _bound(node.orelse) | _bound(node.finalbody)
            for handler in node.handlers:
                names |= _bound(handler.body)
    return names


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation reads, string annotations parsed in turn."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def _annotations(tree: ast.Module) -> list[ast.expr]:
    """Every parameter, return and variable annotation in the module."""
    found: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _unbound(source: str) -> set[str]:
    tree = ast.parse(source)
    known = _bound(tree.body) | set(dir(builtins))
    return {name for a in _annotations(tree) for name in _annotation_names(a)} - known


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_annotation_names_are_bound(path):
    assert _unbound(path.read_text()) == set()


def test_the_check_sees_a_missing_import():
    source = ("from __future__ import annotations\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    from x import Seen\n"
              "def f(a: Seen, b: 'Quoted') -> Optional[int]:\n    c: list[Local] = []\n")
    assert _unbound(source) == {"Quoted", "Optional", "Local"}


def test_distance_hints_resolve():
    from korth import distance

    assert typing.get_type_hints(distance._one_side)["return"] is not None
