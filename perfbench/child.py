"""One measured driver run in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --out DIR [--warmup]

Runs the workload's driver with assertions enforced and writes DIR/result.json:
timings (with the interval from each step call to the next), peak RSS,
the driver's exit code, the outputs the check compares, and
with --trace 1 the per-layer span metrics.  Untraced, the only probe is a
timestamp on each FriedrichsStepper.step call.  `run.py` starts this script;
it is not meant to be run by hand except for debugging.  With --warmup the
driver stops at its first step call and only its set-up time is written:
that run exists to warm the page cache and the bytecode cache.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package() -> None:
    """Import nspbox from the checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import nspbox

    if Path(nspbox.__file__).resolve().parent != (SRC / "nspbox").resolve():
        raise ImportError(f"nspbox imported from {nspbox.__file__}, expected {SRC / 'nspbox'}")


class _SetUpDone(Exception):
    """Raised at the first step call of a warm-up run, which ends there."""


def measure(workload_name: str, seed: int, trace: bool, out_dir: str, warmup: bool = False) -> dict:
    sys.path.insert(0, str(HERE))
    import check
    import tracing
    from workloads import WORKLOADS, config_text

    _import_package()
    import numpy
    import scipy
    from nspbox import experiments, lp, stepper
    from nspbox.config import parse_config

    workload = WORKLOADS[workload_name]
    cfg = parse_config(config_text(workload, seed))

    starts: list[float] = []  # perf_counter at entry to each step call
    plain_step = stepper.FriedrichsStepper.step

    def step(self, s):
        starts.append(time.perf_counter())
        if warmup:
            raise _SetUpDone
        return plain_step(self, s)

    stepper.FriedrichsStepper.step = step

    tracer = None
    shell_filters = lp.shell_filters  # the lru_cache object, before any wrapping
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    driver = getattr(experiments, workload.driver)
    misses0 = shell_filters.cache_info().misses

    t0 = time.perf_counter()
    try:
        result = driver(cfg, out_dir, do_assert=True)
    except _SetUpDone:
        return {"workload": workload_name, "seed": cfg.seed, "warmup": True, "setup_s": starts[0] - t0}
    t1 = time.perf_counter()

    out = {
        "workload": workload_name,
        "seed": cfg.seed,
        "exit_code": result.exit_code,
        "wall_s": t1 - t0,
        "setup_s": starts[0] - t0 if starts else None,
        "steps": len(starts),
        "step_ms": [(b - a) * 1e3 for a, b in zip(starts, starts[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": check.extract(out_dir, workload.records),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        builds = shell_filters.cache_info().misses - misses0
        out["trace"] = tracing.process_metrics(tracer.spans, builds)
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            fields = ("name", "layer", "start", "end", "parent", "work")
            json.dump([dict(zip(fields, s)) for s in tracer.spans], fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, bool(args.trace), args.out, args.warmup)
    except Exception:  # reported as a failed run, never as a crash of the benchmark
        result = {"workload": args.workload, "seed": args.seed, "error": traceback.format_exc()}
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
