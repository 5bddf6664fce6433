"""The package's public names: every name a module's __all__ lists exists,
and every name circreg/__init__.py re-exports is listed in the __all__ of
the module it comes from, so a deleted function leaves no stale export.
Every listed name also has a caller in the package itself, so that no name
is kept only for the tests."""

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


def _read_elsewhere(stmt: ast.stmt) -> set[str]:
    """Names and attribute names that a top-level statement reads, less the
    function or class it defines, so that a function calling itself is not
    its own caller.  An assignment's target is stored, not read."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return read - {getattr(stmt, "name", None)}


# Public names with no caller in the package, each with the reason it stays.
UNCALLED = {
    "cochordal_split_c4j": "the co-chordal cover of the circulant on 4j vertices, "
    "the certificate of reg <= 3 that certified regularity beyond the sweep builds on",
}


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


def test_every_listed_name_has_a_caller_in_the_package():
    # The strings of an __all__ and the re-exports of __init__.py are not
    # reads, so neither counts as a caller.
    read: set[str] = set()
    for path in Path(circreg.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text()).body:
                read |= _read_elsewhere(stmt)
    listed = {name for mod in _modules() for name in getattr(mod, "__all__", ())}
    assert UNCALLED.keys() <= listed
    assert sorted(listed - read - UNCALLED.keys()) == []
    assert sorted(UNCALLED.keys() & read) == [], "a listed exception has a caller now"
