"""The benchmark's workloads: which driver runs on which seeded configuration.

Each workload exercises a different layer of the solver (see README.md for
the metric -> layer -> workload map).  The seed a run is given is written into
`init.seed` unchanged; nothing else depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # function name in nspbox.experiments
    records: str  # time-series artifact the driver writes next to summary.json
    config: tuple[str, ...]  # config lines without init.seed


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # criterion-08 configuration, shortened: the step loop (two
            # explicit RHS calls and their transforms per step) takes most of
            # the wall time, the monitor samples rarely.
            name="nonlinear3d",
            driver="experiment_nonlinear",
            records="records.ndjson",
            config=(
                "grid.N = 3",
                "grid.M = 32",
                "stepper.dt = 0.02",
                "stepper.t_end = 1.2",  # 60 ETDRK2 steps
                "init.kind = random-band",
                "init.amplitude = 1e-3",
                "init.band_lo = 0",
                "init.band_hi = 2",
                "monitor.stride = 25",
            ),
        ),
        Workload(
            # linear-only steps never call the RHS; a monitor sample every
            # step makes shell spectra and record writes dominate.
            name="linear-monitor",
            driver="experiment_linear",
            records="records.ndjson",
            config=(
                "grid.N = 3",
                "grid.M = 32",
                "stepper.dt = 1e-3",
                "stepper.t_end = 0.1",  # 100 linear-only steps
                "init.kind = smooth-random",
                "monitor.stride = 1",
            ),
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """The configuration document for one run of `workload` with `seed`."""
    return "\n".join(workload.config + (f"init.seed = {int(seed)}",)) + "\n"
