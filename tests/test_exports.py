"""Every exported name must resolve: a function moved out of a module, or
deleted, must leave its module's ``__all__`` and the package's re-exports
(``korth`` has no ``__all__``; its lazy table ``_EXPORTS``, name to
submodule, is its list)."""

import importlib
from pathlib import Path

import pytest

import korth

INIT = Path(korth.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py") if p.stem != "__init__")


def _reexports() -> dict[str, list[str]]:
    """Names ``korth`` resolves lazily, by the submodule they come from."""
    out: dict[str, list[str]] = {}
    for name, module in korth._EXPORTS.items():
        out.setdefault(module, []).append(name)
    return out


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"korth.{module_name}")
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"korth.{module_name}.__all__ lists missing {name}"


def test_package_reexports_are_module_exports():
    reexports = _reexports()
    assert reexports
    for module_name, names in reexports.items():
        module = importlib.import_module(f"korth.{module_name}")
        exported = getattr(module, "__all__", None)
        for name in names:
            assert hasattr(korth, name), name
            if exported is not None:
                assert name in exported, f"{name} is not in korth.{module_name}.__all__"


def test_dir_lists_every_reexport():
    assert set(korth._EXPORTS) <= set(dir(korth))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'korth' has no attribute 'no_such_name'"):
        korth.no_such_name


def test_unknown_name_import_raises_import_error():
    with pytest.raises(ImportError):
        from korth import no_such_name  # noqa: F401
