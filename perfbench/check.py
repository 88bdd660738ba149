"""Output check: compare a driver's artifacts with stored reference values.

Floats match when |a - b| <= RTOL * max(|a|, |b|) + ATOL.  RTOL leaves room
for a change that only reorders floating-point work (an rfftn transform, a
fused multiplier), whose records move at round-off, while any change to the
mathematics moves them by far more.  Booleans, strings and record counts must
match exactly.  A SHA-256 digest of the records file is kept alongside, to
tell whether two runs were bitwise identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

RTOL = 1e-9
ATOL = 1e-18
SAMPLED_RECORDS = 6  # records kept per reference: first, last and evenly spaced
REFERENCE_SEEDS = range(32)  # init.seed values with stored reference outputs


def reference_seed(seed: int) -> int:
    """The init.seed a benchmark --seed runs with: one that has a reference."""
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sample_indices(n: int, k: int = SAMPLED_RECORDS) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def extract(out_dir, records_name: str) -> dict:
    """The comparable outputs of one driver run, read back from its artifacts."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    path = os.path.join(out_dir, records_name)
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    idx = sample_indices(len(rows))
    return {
        "summary": summary,
        "records": {"count": len(rows), "index": idx, "rows": [rows[i] for i in idx]},
        "digest": digest(path),
    }


def compare(actual, expected, path: str = "") -> list[str]:
    """Mismatches between two extracted outputs (digests are not compared)."""
    where = path or "<root>"
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if actual is expected else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        a, b = float(actual), float(expected)
        if math.isnan(a) or math.isnan(b) or abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL:
            return [f"{where}: {actual!r} != {expected!r} (rtol {RTOL:g})"]
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            if key != "digest":
                out += compare(actual[key], expected[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (a, b) in enumerate(zip(actual, expected)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def load_reference(path) -> dict:
    """Reference outputs keyed by seed, one JSON line per seed."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row.pop("seed"): row for row in rows}
