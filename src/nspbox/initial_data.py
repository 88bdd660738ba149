"""Deterministic initial-data generation for the experiment drivers.

All kinds produce a primitive (density, velocity) pair, convert it to the
damped variables, project onto the truncation annulus, and finally rescale
the state so the measured initial energy norm equals the requested
amplitude exactly.
"""

from __future__ import annotations

import numpy as np

from . import energy, spectral as sp
from .config import RunConfig
from .model import NspState, from_primitive, PrimitiveState
from .stepper import FriedrichsProjector, load_checkpoint

__all__ = ["make_initial_data"]

# raw density contrast before the exact rescale; keeps the generator positive
_RAW_CONTRAST = 0.05


def _band_edges(k_lo: int, k_hi: int) -> tuple[float, float]:
    return 0.75 * 2.0**k_lo, (8.0 / 3.0) * 2.0**k_hi


def _primitive_fields(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    grid, rho_bar = cfg.grid, cfg.params.rho_bar
    rng = np.random.default_rng(cfg.seed)

    if cfg.init_kind == "single-mode":
        x1 = grid.coordinates()[0]
        rho = rho_bar + _RAW_CONTRAST * rho_bar * np.cos(2.0 * np.pi / grid.length * x1)
        u = np.zeros((grid.dim,) + grid.shape)
        return rho, u

    if cfg.init_kind == "random-band":
        lo, hi = _band_edges(cfg.band_lo, cfg.band_hi)
        if hi <= grid.xi_min or lo >= grid.xi_max:
            raise ValueError(f"shell band [{cfg.band_lo}, {cfg.band_hi}] is empty on this grid")
        theta = sp.random_field(grid, 1, rng, xi_lo=lo, xi_hi=min(hi, grid.xi_max))
        u_spec = sp.random_field(grid, grid.dim, rng, xi_lo=lo, xi_hi=min(hi, grid.xi_max))
    elif cfg.init_kind == "smooth-random":
        decay = cfg.decay
        theta = sp.random_field(grid, 1, rng, spectrum=lambda lam: np.exp(-decay * lam))
        u_spec = sp.random_field(grid, grid.dim, rng, spectrum=lambda lam: np.exp(-decay * lam))
    else:
        raise ValueError(f"unsupported generator kind {cfg.init_kind!r}")

    theta_phys = theta.to_physical()[0]
    peak = np.max(np.abs(theta_phys))
    if peak > 0:
        theta_phys = theta_phys * (_RAW_CONTRAST * rho_bar / peak)
    u_phys = u_spec.to_physical()
    speed = np.max(np.abs(u_phys))
    if speed > 0:
        u_phys = u_phys / speed
    return rho_bar + theta_phys, u_phys


def make_initial_data(cfg: RunConfig) -> NspState:
    """Generate, project and rescale the initial state; E(0) == amplitude."""
    grid = cfg.grid
    projector = FriedrichsProjector(grid, cfg.stepper.n)

    if cfg.init_kind == "file":
        raw, saved_params, _ = load_checkpoint(cfg.init_file)
        if raw.grid != grid:
            raise ValueError(
                f"checkpoint grid {raw.grid} does not match configured grid {grid}"
            )
        if saved_params != cfg.params:
            raise ValueError("checkpoint fluid parameters do not match the configuration")
    else:
        rho, u = _primitive_fields(cfg)
        raw = from_primitive(PrimitiveState(grid=grid, rho=rho, u=u, rho_bar=cfg.params.rho_bar), cfg.params)
    projected = NspState(projector(raw.h), projector(raw.c), projector(raw.I), t=0.0)

    if cfg.amplitude == 0.0:
        return NspState.zeros(grid)

    measured = energy.initial_energy(projected)
    if measured == 0.0:
        raise ValueError("generated data vanished after projection; widen the band or raise n")
    state = projected.scaled(cfg.amplitude / measured)

    min_density = cfg.params.rho_bar + float(np.min(state.theta().to_physical()))
    if min_density <= 0.0:
        raise ValueError(
            f"requested amplitude {cfg.amplitude} makes the density non-positive "
            f"(min = {min_density:.3e})"
        )
    return state
