"""Monitor reports as NDJSON / CSV records.

One NDJSON object per monitored instant, the `EnergyReport` of that sample,
keys in `FIELDS` order; floats are emitted with shortest round-trip
representation so read-back is exact.  `alpha` holds the [k, alpha_k^2] pairs
of the shells above `ALPHA_CUTOFF`.  The CSV companion carries the scalar
columns only (`CSV_COLUMNS`), with one fixed schema across all configurations.

Every artifact is written atomically (`atomic_open`): to a temp file in the
target directory, then moved into place, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .energy import EnergyReport

__all__ = ["FIELDS", "CSV_COLUMNS", "write_records", "read_records"]

ALPHA_CUTOFF = 1e-14

FIELDS = ("t", "hybrid_h", "hybrid_c", "hybrid_I", "hybrid_u", "V", "E", "alpha", "positivity", "guarded")
CSV_COLUMNS = tuple(name for name in FIELDS if name != "alpha")


def _row(r: EnergyReport) -> dict:
    """The NDJSON object of one report."""
    alpha = [[int(k), float(a)] for k, a in zip(r.ks, r.alpha_sq) if a > ALPHA_CUTOFF]
    values = (r.t, r.hybrid_h, r.hybrid_c, r.hybrid_I, r.hybrid_u, r.v_accum, r.e_value, alpha, r.positivity, r.guarded)
    return dict(zip(FIELDS, values))


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside `path`; move it onto `path` on success, remove it on failure."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_records(reports: list[EnergyReport], path) -> None:
    """Write NDJSON (one report per line) plus a CSV companion at `path` + ".csv"."""
    rows = [_row(r) for r in reports]
    if any(b["t"] <= a["t"] for a, b in zip(rows, rows[1:])):
        raise ValueError("records must be strictly increasing in time")
    try:
        with atomic_open(path) as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        with atomic_open(str(path) + ".csv") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row[col]) for col in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):  # np.float64 too, whose repr is not a number under numpy 2
        return repr(float(value))
    return str(value)


def read_records(path) -> list[dict]:
    """The records of an NDJSON file, one dict per line keyed by `FIELDS`; a missing key raises KeyError."""
    with open(path, "r", encoding="utf-8") as fh:
        return [{name: d[name] for name in FIELDS} for d in map(json.loads, filter(str.strip, fh))]
