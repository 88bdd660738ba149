"""Spans around the public functions of the nspbox modules, and their arithmetic.

A traced process calls `install` before the driver runs.  Every function a
module lists in `__all__` (plus the few methods in `METHODS`) is replaced,
under every name the package imported it by, with a wrapper that appends a
span: name, layer, start, end, parent index and optional work counts.  Spans
stay in memory; `process_metrics` turns them into the per-layer numbers.

Self time is a span's duration minus the time covered by its direct children.
Summed over every span it telescopes to the root span's duration, so the
per-layer self times add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# modules traced, in the order a call usually descends through them; the
# driver span (layer "experiments") is the root of every traced run
LAYERS = ("experiments", "initial_data", "stepper", "model", "energy", "lp", "records", "spectral")

# public methods that carry a layer's work but are not module-level functions
METHODS = {
    "stepper": {"FriedrichsStepper": ("step", "prepare", "run"), "LinearBlock": ("__init__",)},
    "energy": {"EnergyMonitor": ("__call__",)},
}

STEP = "stepper.FriedrichsStepper.step"
MONITOR = "energy.EnergyMonitor.__call__"
RHS = "model.explicit_rhs"
TRANSFORMS = ("spectral.transform_to_spectral", "spectral.transform_to_physical")
SPECTRUM = "lp.dyadic_spectrum"
POSTPROCESS = tuple(
    "energy." + name
    for name in (
        "fit_damping_constant",
        "damping_margins",
        "envelopes_nonincreasing",
        "linear_decay_rate_bound",
        "global_bound_check",
        "convection_weighted",
    )
)

# span fields
NAME, LAYER, START, END, PARENT, WORK = range(6)


def _forward_work(args, kwargs, out):
    """Transform to spectral: points transformed, computed bytes read + written."""
    values = args[1] if len(args) > 1 else kwargs["values"]
    return out.coef.size, getattr(values, "nbytes", 0) + out.coef.nbytes


def _inverse_work(args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    return out.size, f.coef.nbytes + out.nbytes


def _records_work(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    csv_path = args[2] if len(args) > 2 else kwargs.get("csv_path")
    csv_path = csv_path if csv_path is not None else str(path) + ".csv"
    return 0, os.path.getsize(path) + os.path.getsize(csv_path)


WORK_COUNTERS = {
    "spectral.transform_to_spectral": _forward_work,
    "spectral.transform_to_physical": _inverse_work,
    "records.write_records": _records_work,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, out)
            return out

        return traced


def install(tracer: Tracer, package: str = "nspbox") -> None:
    """Wrap the public functions of every traced module."""
    modules = [m for name, m in sys.modules.items() if name.startswith(package + ".")]
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not callable(fn) or isinstance(fn, type):  # constants and classes
                continue
            traced = tracer.wrap(fn, f"{layer}.{attr}", layer)
            # rebind every alias created by `from .module import name`
            for other in modules:
                for alias, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, alias, traced)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", layer))


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> tuple[list[float], list[float]]:
    """Per span: self time, and time exclusive of other layers.

    Self time subtracts every direct child.  The layer-exclusive time
    subtracts only children of other layers, so a helper of the same layer
    nested inside a span counts toward it (the monitor keeps the time of the
    energy helpers it calls, not that of the lp spectra).
    """
    n = len(spans)
    child = [0.0] * n
    same = [0.0] * n
    self_t = [0.0] * n
    own = [0.0] * n
    for i in range(n - 1, -1, -1):  # children always follow their parent
        s = spans[i]
        dur = s[END] - s[START]
        self_t[i] = dur - child[i]
        own[i] = self_t[i] + same[i]
        p = s[PARENT]
        if p >= 0:
            child[p] += dur
            if spans[p][LAYER] == s[LAYER]:
                same[p] += own[i]
    return self_t, own


def _inside(spans, name: str) -> list[bool]:
    """Whether each span runs beneath a span called `name`."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            flags[i] = flags[p] or spans[p][NAME] == name
    return flags


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9, p99, p90 with at least ten of n samples beyond it."""
    for q, beyond_per_mille in ((99.9, 1), (99.0, 10), (90.0, 100)):
        if n * beyond_per_mille >= 10 * 1000:
            return q
    return None


def process_metrics(spans, shell_filter_builds: int) -> dict:
    """Counts, sums and raw samples of one traced driver run."""
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    if len(roots) != 1 or spans[roots[0]][LAYER] != "experiments":
        raise ValueError(f"expected one driver root span, got {[spans[i][NAME] for i in roots]}")
    root = spans[roots[0]]
    wall = root[END] - root[START]
    self_t, own = self_times(spans)
    in_step = _inside(spans, STEP)
    in_monitor = _inside(spans, MONITOR)

    def dur(s):
        return s[END] - s[START]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    steps = named(STEP)
    monitors = named(MONITOR)
    rhs = named(RHS)
    if not steps:
        raise ValueError("the traced run took no steps")
    n_steps = len(steps)
    loop_start = spans[steps[0]][START]
    loop_time = root[END] - loop_start

    step_transforms = [i for i, s in enumerate(spans) if s[NAME] in TRANSFORMS and in_step[i]]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s[LAYER]] += self_t[i]

    counts = {
        "steps": n_steps,
        "monitor_samples": len(monitors),
        "spectral.transforms_per_step": len(step_transforms) / n_steps,
        "spectral.points_per_step": sum(spans[i][WORK][0] for i in step_transforms) / n_steps,
        "spectral.bytes_per_step": sum(spans[i][WORK][1] for i in step_transforms) / n_steps,
        "model.rhs_calls_per_step": sum(1 for i in rhs if in_step[i]) / n_steps,
        "lp.shell_filters_builds": shell_filter_builds,
        "lp.spectra_per_sample": (
            sum(1 for i in named(SPECTRUM) if in_monitor[i]) / len(monitors) if monitors else 0.0
        ),
        "records.bytes": sum(s[WORK][1] for s in spans if s[NAME] == "records.write_records"),
    }
    sums = {
        "trace.wall_s": wall,
        "spectral.transform_self_ms_per_step": 1e3 * sum(own[i] for i in step_transforms) / n_steps,
        "stepper.linear_block_s": sum(dur(spans[i]) for i in named("stepper.LinearBlock.__init__")),
        "stepper.prepare_s": sum(dur(spans[i]) for i in named("stepper.FriedrichsStepper.prepare")),
        "lp.shell_filters_s": sum(dur(spans[i]) for i in named("lp.shell_filters")),
        "energy.monitor_share": (
            sum(dur(spans[i]) for i in monitors if spans[i][START] >= loop_start) / loop_time
        ),
        "energy.postprocess_s": sum(dur(s) for s in spans if s[NAME] in POSTPROCESS),
        "initial_data.make_s": sum(dur(spans[i]) for i in named("initial_data.make_initial_data")),
        "records.write_s": sum(dur(s) for s in spans if s[NAME] == "records.write_records"),
        "experiments.driver_self_s": layer_self["experiments"],
    }
    for layer in LAYERS:
        if layer != "experiments":
            sums[f"{layer}.self_s"] = layer_self[layer]
    samples = {
        "model.rhs_ms": [1e3 * dur(spans[i]) for i in rhs],
        "model.rhs_self_ms": [1e3 * own[i] for i in rhs],
        "stepper.step_ms": [1e3 * dur(spans[i]) for i in steps],
        "stepper.step_self_ms": [1e3 * own[i] for i in steps],
        "lp.spectrum_ms": [1e3 * dur(spans[i]) for i in named(SPECTRUM)],
        "energy.monitor_ms": [1e3 * dur(spans[i]) for i in monitors],
        "energy.monitor_self_ms": [1e3 * own[i] for i in monitors],
    }
    return {"counts": counts, "sums": sums, "samples": samples, "spans": len(spans)}
