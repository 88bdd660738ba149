"""nspbox benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each driver run is a fresh single-threaded process (perfbench/child.py), run
one at a time: a closed loop with one client.  One discarded warm-up process
runs the driver through its set-up; then timed processes run while the next
one is expected to end within S seconds (at least MIN_PROCESSES of them).
With --trace 0 the end-to-end metrics are medians over the timed processes,
and steps_per_s is the inverse of the median interval from one step call to
the next, pooled over them.  With --trace 1 untraced and traced processes
alternate and the per-layer metrics come from the traced ones.

The driver runs with init.seed = check.reference_seed(--seed), a seed with
stored reference outputs (perfbench/reference/).  Every process is checked:
driver exit code 0 with assertions enforced, and outputs equal to the
reference within check.RTOL.  A traced process must also time the driver
as its root span, and repeat the first traced process's per-layer counts
exactly.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PROCESSES = 3
MIN_TRACE_PROCESSES = 4  # two untraced, two traced
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 170.0  # start no process after this; every run must end within 180 s
TRACE_WALL_TOL_S = 0.005  # root span vs the child's own driver timing

# Caps every BLAS/OpenMP pool at one thread; NSP_THREADS is left unset.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "spectral.transforms_per_step": "count",
    "spectral.points_per_step": "count",
    "spectral.bytes_per_step": "bytes",
    "spectral.transform_self_ms_per_step": "ms",
    "model.rhs_calls_per_step": "count",
    "model.rhs_ms_p50": "ms",
    "model.rhs_ms_p90": "ms",
    "model.rhs_self_ms_p50": "ms",
    "stepper.step_ms_p50": "ms",
    "stepper.step_ms_p90": "ms",
    "stepper.step_self_ms_p50": "ms",
    "stepper.linear_block_s": "s",
    "stepper.prepare_s": "s",
    "lp.shell_filters_builds": "count",
    "lp.shell_filters_s": "s",
    "lp.spectra_per_sample": "count",
    "lp.spectrum_ms_p50": "ms",
    "energy.monitor_ms_p50": "ms",
    "energy.monitor_ms_p90": "ms",
    "energy.monitor_self_ms_p50": "ms",
    "energy.monitor_share": "ratio",
    "energy.postprocess_s": "s",
    "initial_data.make_s": "s",
    "records.write_s": "s",
    "records.bytes": "bytes",
    "experiments.driver_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS if layer != "experiments"},
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NSP_THREADS"}
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, out_dir: Path, warmup: bool = False) -> dict:
    """One driver process; returns its result, or an error record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out", str(out_dir)] + (["--warmup"] if warmup else [])
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    result_path = out_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def failure(result: dict, expected: dict, seed: int) -> str | None:
    """Why a child run failed, or None if it passed every check."""
    if "error" in result:
        return result["error"].strip().splitlines()[-1]
    if result["seed"] != seed:
        return f"the driver ran with init.seed = {result['seed']}, not {seed}"
    if result["exit_code"] != 0:
        return f"driver exit code {result['exit_code']}"
    if result["setup_s"] is None or result["steps"] < 2:
        return "the driver took fewer than two steps"
    mismatches = check.compare(result["outputs"], expected)
    if mismatches:
        return f"{len(mismatches)} output mismatch(es), first: {mismatches[0]}"
    if "trace" in result:
        traced_wall = result["trace"]["sums"]["trace.wall_s"]
        if abs(traced_wall - result["wall_s"]) > TRACE_WALL_TOL_S:
            return f"traced wall {traced_wall:.6f} s != driver wall {result['wall_s']:.6f} s"
    return None


def provenance(versions: dict | None) -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        info["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["git_commit"] = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nspbox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = h.hexdigest()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else None
    except OSError:
        info["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    info["versions"] = versions
    info["thread_env_children"] = THREAD_ENV
    info["thread_env_parent"] = {
        k: os.environ.get(k) for k in (*THREAD_ENV, "NSP_THREADS") if os.environ.get(k) is not None
    }
    return info


def timing_line(name: str, values: list[float], unit: str) -> str:
    n = len(values)
    q = tracing.tail_percentile(n)
    tail = f"p{q:g}={tracing.percentile(values, q):.6g}" if q is not None else "no tail percentile (n<100)"
    each = f" [{', '.join(f'{v:.4g}' for v in values)}]" if n <= 10 else ""
    return f"  {name}: p50={statistics.median(values):.6g} {unit}, {tail}, n={n}{each}"


def end_to_end(passed: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the processes; steps_per_s from the median step interval.

    The step intervals of all processes are pooled: hundreds of samples spread
    over the whole run, so a slow spell of the host moves their median less
    than it moves the median of a few per-process loop times.
    """
    per = {
        "wall_s": [r["wall_s"] for r in passed],
        "setup_s": [r["setup_s"] for r in passed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
    }
    step_ms = [x for r in passed for x in r["step_ms"]]
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in per.items()}
    metrics["steps_per_s"] = {"value": 1e3 / statistics.median(step_ms), "unit": END_TO_END["steps_per_s"]}
    lines = [timing_line(k, v, END_TO_END[k]) for k, v in per.items()]
    lines.append(timing_line("step interval", step_ms, "ms"))
    return {k: metrics[k] for k in END_TO_END}, lines


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Pool the traced processes: counts must repeat, sums take the median."""
    traces = [r["trace"] for r in traced]
    counts = traces[0]["counts"]
    values = {k: counts[k] for k in counts if k in PER_LAYER_UNITS}
    for key in traces[0]["sums"]:
        values[key] = statistics.median(t["sums"][key] for t in traces)
    lines = []
    for key in traces[0]["samples"]:
        pooled = [x for t in traces for x in t["samples"][key]]
        for q in (50, 90):
            name = f"{key}_p{q}"
            if name in PER_LAYER_UNITS:
                values[name] = tracing.percentile(pooled, q) if pooled else 0.0
        lines.append(timing_line(key, pooled, "ms") if pooled else f"  {key}: no samples")
    for key in ("energy.monitor_ms", "stepper.step_ms", "model.rhs_ms"):
        n = sum(len(t["samples"][key]) for t in traces)
        if 0 < n < 100:
            lines.append(f"  {key}_p90 has fewer than ten samples beyond it (n={n})")
    wall = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_frac"] = values["trace.wall_s"] / wall - 1.0
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "experiments")
    lines.append(
        f"  median self times: layers {layer_sum:.6f} s + driver {values['experiments.driver_self_s']:.6f} s"
        f" vs median traced wall {values['trace.wall_s']:.6f} s"
    )
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nspbox" / "__init__.py").is_file():
        print(f"error: no nspbox package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    seed = check.reference_seed(args.seed)
    references = check.load_reference(HERE / "reference" / f"{args.workload}.jsonl")
    if seed not in references:
        print(f"error: no reference outputs for init.seed {seed}; stored seeds: {sorted(references)}",
              file=sys.stderr)
        return 2
    reference = references[seed]

    start = time.monotonic()
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Warm-up through set-up only: discarded, so that page-cache and
    # first-import effects stay out; no driver imports a module after its first step.
    warm = run_child(args.workload, seed, False, work / "warmup", warmup=True)

    results: list[tuple[bool, dict]] = []
    t0 = time.monotonic()
    minimum = MIN_TRACE_PROCESSES if args.trace else MIN_PROCESSES
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - t0
        # after the minimum, start a process only if it should end within --seconds
        if len(results) >= minimum and elapsed + statistics.median(durations) > args.seconds:
            break
        if time.monotonic() - start > DEADLINE_S:
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        results.append((traced, run_child(args.workload, seed, traced, work / f"p{len(results)}")))
        durations.append(time.monotonic() - t0 - elapsed)

    reasons = [failure(r, reference, seed) for _, r in results]
    traced_ok = [i for i, (t, r) in enumerate(results) if t and reasons[i] is None]
    drift = [i for i in traced_ok[1:]
             if results[i][1]["trace"]["counts"] != results[traced_ok[0]][1]["trace"]["counts"]]
    for i in drift:
        reasons[i] = "per-layer counts differ from the first traced process"
    attempted, failed = len(results), sum(why is not None for why in reasons)

    ok = [r for _, r in results if "outputs" in r]
    digests = {r["outputs"]["digest"] for r in ok}
    print(f"workload {args.workload} seed {args.seed} (init.seed {seed}) trace {args.trace}: "
          f"{attempted} timed processes in {time.monotonic() - t0:.1f} s (+ warm-up)")
    print("provenance " + json.dumps(provenance(next((r["versions"] for r in ok), None))))
    print(f"  output check against the stored reference: rtol {check.RTOL:g}, failed {failed}/{attempted}"
          f", fail_frac {failed / attempted:.6g}")
    print(f"  records digests identical across repeated runs: {len(digests) == 1}"
          f"; bitwise equal to the reference: {digests == {reference['digest']}}")
    if args.trace:
        print(f"  per-layer counts repeat exactly across {len(traced_ok)} traced processes: "
              f"{not drift}")
    if "error" in warm:
        print(f"  warm-up process failed: {warm['error'].strip().splitlines()[-1]}")
    for (traced, r), why in zip(results, reasons):
        if why is not None:
            print(f"  FAILED process ({'traced' if traced else 'untraced'}): {why}")

    # A process that failed only the output check still timed its run; the
    # metrics include it and `correct` reports the failure.
    completed = [(t, r) for t, r in results if r.get("step_ms")]
    untraced = [r for t, r in completed if not t]
    traced_runs = [r for t, r in completed if t]
    if not untraced or (args.trace and not traced_runs):
        print("error: no process ran to completion, nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics, lines = per_layer(traced_runs, untraced)
    else:
        metrics, lines = end_to_end(untraced)
    print("\n".join(lines))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.9g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
