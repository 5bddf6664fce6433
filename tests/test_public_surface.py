"""The package's public names: every name a module's __all__ lists exists,
and every name circreg/__init__.py re-exports is listed in the __all__ of
the module it comes from, so a deleted function leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import circreg


def _modules():
    return [importlib.import_module(f"circreg.{info.name}") for info in pkgutil.iter_modules(circreg.__path__)]


def _reexports():
    """(module name, imported name) for each relative import in __init__.py."""
    tree = ast.parse(Path(circreg.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_name_in_each_all_resolves():
    listed = 0
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            listed += 1
    assert listed


def test_reexports_are_in_their_modules_all():
    reexports = _reexports()
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"circreg.{module}")
        assert name in getattr(mod, "__all__", ()), f"circreg re-exports {name!r}, which {mod.__name__}.__all__ does not list"
