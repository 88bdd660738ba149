"""Regenerate tests/frozen.py (one-shot oracle run; not collected by pytest).

Usage: python tests/make_fixtures.py [--quick]

Records ensemble maxima and calibration constants with a safety margin so
the committed values stay stable across platforms.  --quick skips the long
small-data run and keeps its previously frozen value.
"""

from __future__ import annotations

import pprint
import sys
import time

import numpy as np

from nspbox import Grid, FluidParams
from nspbox.config import parse_config
from nspbox.energy import EnergyMonitor, global_bound_check
from nspbox.initial_data import make_initial_data
from nspbox.lp import composition_check, hybrid_norm, product_estimate_ratio
from nspbox.spectral import SpectralField, random_field
from nspbox.stepper import FriedrichsStepper, StepperConfig

from analysis import smoothing_integral, state_of

MARGIN_ENSEMBLE = 1.25
MARGIN_RUN = 1.15
MARGIN_CALIBRATION = 1.05


def product_ensemble() -> float:
    grid = Grid(3, 16)
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(50):
        f = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        g = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        worst = max(worst, product_estimate_ratio(f, g, (0.5, 1.5)))
    return worst


def composition_ensemble() -> float:
    grid = Grid(3, 16)
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(50):
        f = random_field(grid, 1, rng, xi_hi=grid.xi_max / 3.0)
        f = f * (0.45 / np.max(np.abs(f.to_physical())))
        worst = max(worst, composition_check(f, 1.5, rho_bar=1.0))
    return worst


def smoothing_calibration() -> float:
    grid = Grid(3, 32)
    params = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)
    rng = np.random.default_rng(77)
    c0 = random_field(grid, 1, rng, xi_lo=2.0)  # high-frequency shells only
    s0 = state_of(h=SpectralField.zeros(grid), c=c0, I=SpectralField.zeros(grid, 3))
    cfg = StepperConfig(dt=1e-3, n=float(grid.size), t_end=1.0)
    monitor = EnergyMonitor(params)
    traj = FriedrichsStepper(grid, params, cfg, linear_only=True).run(s0, monitor=monitor, stride=5)
    reg = 1.5  # N/2
    integral = smoothing_integral(traj.records, reg)
    initial = hybrid_norm(s0.h, (reg, reg + 1.5)) + hybrid_norm(s0.c, (reg - 1.0, reg - 0.5))
    return integral / initial


def small_data_ratio() -> float:
    text = "\n".join(
        [
            "grid.N = 3",
            "grid.M = 32",
            "stepper.dt = 0.02",
            "stepper.t_end = 20.0",
            "init.kind = random-band",
            "init.amplitude = 1e-3",
            "init.seed = 8",
            "init.band_lo = 0",
            "init.band_hi = 2",
            "monitor.stride = 25",
        ]
    )
    cfg = parse_config(text)
    state0 = make_initial_data(cfg)
    monitor = EnergyMonitor(cfg.params)
    stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
    traj = stepper.run(state0, monitor=monitor, stride=cfg.monitor_stride)
    verdict = global_bound_check(traj.records, monitor.e0, cfg.bound)
    return verdict.max_ratio


def calibrations() -> dict[str, float]:
    """The values --quick recomputes: each ensemble maximum or calibration times its margin, to 6 digits."""
    return {
        "product_ratio_max": round(float(product_ensemble()) * MARGIN_ENSEMBLE, 6),
        "composition_ratio_max": round(float(composition_ensemble()) * MARGIN_ENSEMBLE, 6),
        "smoothing_majorant_constant": round(float(smoothing_calibration()) * MARGIN_CALIBRATION, 6),
    }


def main() -> None:
    quick = "--quick" in sys.argv
    t0 = time.monotonic()
    frozen = calibrations()
    if quick:
        from frozen import FROZEN as OLD

        frozen["small_data_e_ratio_bound"] = OLD["small_data_e_ratio_bound"]
    else:
        frozen["small_data_e_ratio_bound"] = round(float(small_data_ratio()) * MARGIN_RUN, 6)
    elapsed = time.monotonic() - t0

    with open("tests/frozen.py", "w", encoding="utf-8") as fh:
        fh.write('"""Frozen oracle calibrations; regenerate with tests/make_fixtures.py."""\n\n')
        fh.write("FROZEN = " + pprint.pformat(frozen, sort_dicts=True) + "\n")
    print(f"wrote tests/frozen.py in {elapsed:.1f}s:")
    pprint.pprint(frozen)


if __name__ == "__main__":
    main()
