"""Every name a module exports in `__all__` must exist.

The package `__init__` re-exports from the submodules, and the benchmark
tracer calls `getattr` on each `__all__` entry of the traced modules, so a
name left behind when its definition moves or goes would break both.
"""

import importlib
import pkgutil

import pytest

import nspbox

MODULES = ["nspbox"] + [f"nspbox.{info.name}" for info in pkgutil.iter_modules(nspbox.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])  # the `cli` entry point exports nothing
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [name for name in exported if not hasattr(module, name)] == []
