"""Every name a module exports in `__all__` must exist, and `src/` must read it.

The package `__init__` re-exports from the submodules, and the benchmark
tracer calls `getattr` on each `__all__` entry of the traced modules, so a
name left behind when its definition moves or goes would break both.

`src/` holds only what a solver or driver path reads (README).  So an
exported name must be loaded, as a name or an attribute, somewhere in the
package's source outside the statement that defines it; neither its
`__all__` entry nor an import is a load.  Names are matched by identifier.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nspbox

MODULES = ["nspbox"] + [f"nspbox.{info.name}" for info in pkgutil.iter_modules(nspbox.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])  # the `cli` entry point exports nothing
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [name for name in exported if not hasattr(module, name)] == []


UNREAD_EXPORTS = {
    ("lp", "phi"),  # the cutoff definition the `ShellFilters` masks are tested against
    ("records", "read_records"),  # kept beside `write_records`: one module knows the records format
}
SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(nspbox.__file__).parent.glob("*.py"))}


def _exports(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            return [ast.literal_eval(elt) for elt in stmt.value.elts]
    return []


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _loaded() -> set[str]:
    names = set()
    for tree in SOURCES.values():
        for stmt in tree.body:
            own = _defined(stmt)
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) and name not in own:
                    names.add(name)
    return names


def test_every_export_is_read_in_src():
    loaded = _loaded()
    unread = {(module, name) for module, tree in SOURCES.items() for name in _exports(tree) if name not in loaded}
    assert unread == UNREAD_EXPORTS
