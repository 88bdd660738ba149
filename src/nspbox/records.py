"""Norm time-series records and their NDJSON / CSV serialization.

One NDJSON object per monitored instant, keys in `NormRecord` field order;
floats are emitted with shortest round-trip representation so read-back is
exact.  The CSV companion carries the scalar columns only, with one fixed
schema across all configurations.

Every artifact is written atomically (`atomic_open`): to a temp file in the
target directory, then moved into place, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .energy import EnergyReport

__all__ = ["NormRecord", "record_from_report", "write_records", "read_records", "CSV_COLUMNS"]

ALPHA_CUTOFF = 1e-14

CSV_COLUMNS = ("t", "hybrid_h", "hybrid_c", "hybrid_I", "hybrid_u", "V", "E", "positivity", "guarded")


@dataclass
class NormRecord:
    t: float
    hybrid_h: float
    hybrid_c: float
    hybrid_I: float
    hybrid_u: float
    V: float
    E: float
    alpha: list  # [k, alpha_k^2] pairs for shells above the cutoff
    positivity: bool
    guarded: bool


_FIELDS = tuple(f.name for f in fields(NormRecord))  # NDJSON key order


def record_from_report(report: EnergyReport, positivity: bool, guarded: bool) -> NormRecord:
    alpha = [[sh.k, sh.alpha_sq] for sh in report.shells if sh.alpha_sq > ALPHA_CUTOFF]
    return NormRecord(
        t=report.t,
        hybrid_h=report.hybrid_h,
        hybrid_c=report.hybrid_c,
        hybrid_I=report.hybrid_I,
        hybrid_u=report.hybrid_u,
        V=report.v_accum,
        E=report.e_value,
        alpha=alpha,
        positivity=positivity,
        guarded=guarded,
    )


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


def write_records(records: list[NormRecord], path) -> None:
    """Write NDJSON (one record per line) plus a CSV companion at `path` + ".csv"."""
    last_t = None
    for rec in records:
        if last_t is not None and rec.t <= last_t:
            raise ValueError("records must be strictly increasing in time")
        last_t = rec.t
    try:
        with atomic_open(path) as fh:
            for rec in records:
                # a shallow dict: `dataclasses.asdict` would deep-copy every alpha pair
                fh.write(json.dumps({name: getattr(rec, name) for name in _FIELDS}) + "\n")
        with atomic_open(str(path) + ".csv") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                fh.write(",".join(_csv_cell(getattr(rec, col)) for col in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):  # np.float64 too, whose repr is not a number under numpy 2
        return repr(float(value))
    return str(value)


def read_records(path) -> list[NormRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            out.append(NormRecord(**{name: d[name] for name in _FIELDS}))
    return out
