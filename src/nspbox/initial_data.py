"""Deterministic initial-data generation for the experiment drivers.

Every kind is made on the half lattice, where the state lives: a density
deviation theta and a velocity u (the random kinds scale each to its peak
with one inverse transform) become the (h, c, I) stack h = Lambda^-1 theta,
(c, I) = `spectral.helmholtz_decompose(u)`.  The stack is projected onto the
truncation annulus and rescaled, in place, so the measured initial energy
norm equals the requested amplitude exactly.
"""

from __future__ import annotations

import numpy as np

from . import energy, lp, spectral as sp
from .config import RunConfig
from .model import NspState
from .stepper import FriedrichsProjector

__all__ = ["make_initial_data"]

# raw density contrast before the exact rescale; keeps the generator positive
_RAW_CONTRAST = 0.05
# spectral decay rate of smooth-random data, exp(-_DECAY |xi|)
_DECAY = 1.0


def _band_edges(k_lo: int, k_hi: int) -> tuple[float, float]:
    """The |xi| range of shells k_lo..k_hi: the annulus of shell k is 2^k `lp.ANNULUS_SUPPORT`."""
    lo, hi = lp.ANNULUS_SUPPORT
    return lo * 2.0**k_lo, hi * 2.0**k_hi


def _raw_fields(cfg: RunConfig) -> tuple[sp.SpectralField, sp.SpectralField]:
    """h = Lambda^-1 theta and u before projection: theta peaks at _RAW_CONTRAST * rho_bar, u at speed 1 (or zero)."""
    grid, contrast = cfg.grid, _RAW_CONTRAST * cfg.params.rho_bar

    if cfg.init_kind == "single-mode":
        # contrast * cos(xi_min x_1): half its amplitude at each of the lattice points +-e_1, which
        # the last-axis zero plane both stores
        theta = sp.SpectralField.zeros(grid)
        theta.coef[(0, [1, -1]) + (0,) * (grid.dim - 1)] = 0.5 * contrast
        return sp.apply_lambda(theta, -1.0), sp.SpectralField.zeros(grid, grid.dim)

    if cfg.init_kind == "random-band":
        lo, hi = _band_edges(cfg.band_lo, cfg.band_hi)
        if hi <= grid.xi_min or lo >= grid.xi_max:
            raise ValueError(f"shell band [{cfg.band_lo}, {cfg.band_hi}] is empty on this grid")
        support = dict(xi_lo=lo, xi_hi=min(hi, grid.xi_max))
    else:  # smooth-random
        support = dict(spectrum=lambda lam: np.exp(-_DECAY * lam))
    rng = np.random.default_rng(cfg.seed)
    theta = sp.random_field(grid, 1, rng, **support)
    u = sp.random_field(grid, grid.dim, rng, **support)

    peak = np.max(np.abs(theta.to_physical()))
    if peak > 0:
        theta.coef *= contrast / peak
    speed = np.max(np.abs(u.to_physical()))
    if speed > 0:
        u.coef /= speed
    return sp.apply_lambda(theta, -1.0), u


def make_initial_data(cfg: RunConfig) -> NspState:
    """Generate, project and rescale the initial state; E(0) == amplitude."""
    grid = cfg.grid
    h, u = _raw_fields(cfg)
    c, I = sp.helmholtz_decompose(u)
    del u
    state = NspState(sp.SpectralField.nyquist_free(grid, np.concatenate([h.coef, c.coef, I.coef])))
    del h, c, I
    state.x.coef *= FriedrichsProjector(grid, cfg.stepper.n).mask

    if cfg.amplitude == 0.0:
        return NspState.zeros(grid)

    measured = energy.initial_energy(state)
    if measured == 0.0:
        raise ValueError("generated data vanished after projection; widen the band or raise n")
    state.x.coef *= cfg.amplitude / measured

    min_density = cfg.params.rho_bar + float(np.min(state.theta().to_physical()))
    if min_density <= 0.0:
        raise ValueError(
            f"requested amplitude {cfg.amplitude} makes the density non-positive "
            f"(min = {min_density:.3e})"
        )
    return state
