"""The benchmark tracer names nspbox functions by string; each name must still resolve.

`perfbench/tracing.py` wraps only what a module lists in `__all__` (plus the
methods in `METHODS`), so a function deleted or dropped from `__all__` would
leave its per-layer metric silently at zero.  The tracer module is loaded
from its file, without writing a bytecode cache beside it, and never
installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _load_tracing()


def _traced_names() -> list[str]:
    names = [tracing.STEP, tracing.MONITOR, tracing.RHS, tracing.SPECTRUM]
    names += [*tracing.TRANSFORMS, *tracing.POSTPROCESS, *tracing.WORK_COUNTERS]
    for layer, classes in tracing.METHODS.items():
        names += [f"{layer}.{cls}.{meth}" for cls, methods in classes.items() for meth in methods]
    return sorted(set(names))


def test_every_layer_is_a_module_with_all():
    for layer in tracing.LAYERS:
        assert isinstance(importlib.import_module(f"nspbox.{layer}").__all__, list), layer


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    layer, attr, *method = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"nspbox.{layer}")
    assert callable(getattr(module, attr))
    if method:
        assert callable(getattr(getattr(module, attr), method[0]))
    else:
        # `install` wraps a module-level function only when `__all__` lists it
        assert attr in module.__all__
