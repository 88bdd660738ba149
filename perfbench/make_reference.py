"""Regenerate the stored reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload once per seed in check.REFERENCE_SEEDS (untraced, one
process at a time) and writes perfbench/reference/<workload>.jsonl, one line
per seed.  Regenerate only on purpose, when the program's results are meant
to change, and say why in CHANGES.md: the check exists to catch changes
nobody meant to make.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import REFERENCE_SEEDS
from run import HERE, run_child
from workloads import WORKLOADS


def main() -> int:
    work = HERE / "out" / "reference"
    for name in WORKLOADS:
        lines = []
        for seed in REFERENCE_SEEDS:
            result = run_child(name, seed, False, work / f"{name}-{seed}")
            if "error" in result or result["exit_code"] != 0:
                print(f"{name} seed {seed} failed: {result.get('error', result.get('exit_code'))}", file=sys.stderr)
                return 1
            lines.append(json.dumps({"seed": seed, **result["outputs"]}) + "\n")
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
        path = HERE / "reference" / f"{name}.jsonl"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(lines), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
