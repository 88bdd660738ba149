"""Primitive variables of a state: the map from (density, velocity) data, its inverse and the slaved potential.

The solver makes its initial data in (h, c, I) on the half lattice and never
forms physical (density, velocity) pairs; the map both ways, the potential
phi (lap phi = rho - mean(rho)) and the derivation of the initial data
through physical space are checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nspbox import energy, initial_data, spectral as sp
from nspbox.config import RunConfig
from nspbox.model import FluidParams, NspState
from nspbox.spectral import Grid
from nspbox.stepper import FriedrichsProjector

from analysis import laplacian, poisson_solve

__all__ = [
    "PrimitiveState",
    "coordinates",
    "from_primitive",
    "potential",
    "check_potential",
    "to_primitive",
    "physical_initial_data",
]


def coordinates(grid: Grid) -> tuple[np.ndarray, ...]:
    """The physical coordinates x_i of the grid points, one (size,)*dim array per axis."""
    x1d = np.arange(grid.size) * grid.spacing
    return tuple(np.meshgrid(*([x1d] * grid.dim), indexing="ij"))


@dataclass
class PrimitiveState:
    """Physical-space density and velocity, the input of `from_primitive`."""

    grid: Grid
    rho: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.rho.shape != self.grid.shape:
            raise ValueError("density shape does not match grid")
        if self.u.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError("velocity shape does not match grid")


def from_primitive(p: PrimitiveState, params: FluidParams) -> NspState:
    """(h, c, I) of positive density data with mean rho_bar: h = Lambda^-1 theta, (c, I) = Helmholtz split of u."""
    grid = p.grid
    if np.min(p.rho) <= 0.0:
        raise ValueError(f"density must be positive everywhere, min = {np.min(p.rho):.6e}")
    mean_rho = float(np.mean(p.rho))
    if abs(mean_rho - params.rho_bar) > 1e-12 * max(1.0, params.rho_bar):
        raise ValueError(f"mean density {mean_rho!r} does not match rho_bar {params.rho_bar!r}")
    theta = sp.transform_to_spectral(grid, p.rho - params.rho_bar)
    h = sp.apply_lambda(theta, -1.0)
    c, I = sp.helmholtz_decompose(sp.transform_to_spectral(grid, p.u))
    return NspState(sp.SpectralField(grid, np.concatenate([h.coef, c.coef, I.coef])))


def _contrast(prim: PrimitiveState) -> sp.SpectralField:
    return sp.transform_to_spectral(prim.grid, prim.rho - float(np.mean(prim.rho)))


def potential(prim: PrimitiveState) -> np.ndarray:
    """The potential the density induces through the Poisson coupling."""
    return poisson_solve(_contrast(prim)).to_physical()[0]


def check_potential(prim: PrimitiveState, phi) -> None:
    """Raise unless phi solves the density Poisson coupling to 1e-10."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != prim.grid.shape:
        raise ValueError("potential shape does not match grid")
    contrast = _contrast(prim)
    residual = laplacian(sp.transform_to_spectral(prim.grid, phi)) - contrast
    if sp.l2_norm(residual) > 1e-10 * max(sp.l2_norm(contrast), 1e-300):
        raise ValueError("potential does not solve the density Poisson coupling")


def to_primitive(s: NspState, params: FluidParams) -> tuple[PrimitiveState, np.ndarray]:
    """(density, velocity) of a state and its potential, checked against the density."""
    theta = s.theta()
    rho = params.rho_bar + theta.to_physical()[0]
    prim = PrimitiveState(grid=s.grid, rho=rho, u=s.velocity().to_physical())
    phi = poisson_solve(theta).to_physical()[0]
    check_potential(prim, phi)
    return prim, phi


def _primitive_fields(cfg: RunConfig) -> PrimitiveState:
    """The generator's density and velocity in physical space, from the same draws as `make_initial_data`."""
    grid, rho_bar = cfg.grid, cfg.params.rho_bar
    contrast = initial_data._RAW_CONTRAST * rho_bar
    if cfg.init_kind == "single-mode":
        rho = rho_bar + contrast * np.cos(2.0 * np.pi / grid.length * coordinates(grid)[0])
        return PrimitiveState(grid, rho, np.zeros((grid.dim,) + grid.shape))

    rng = np.random.default_rng(cfg.seed)
    if cfg.init_kind == "random-band":
        lo, hi = initial_data._band_edges(cfg.band_lo, cfg.band_hi)
        support = dict(xi_lo=lo, xi_hi=min(hi, grid.xi_max))
    else:
        support = dict(spectrum=lambda lam: np.exp(-initial_data._DECAY * lam))
    theta = sp.random_field(grid, 1, rng, **support).to_physical()[0]
    u = sp.random_field(grid, grid.dim, rng, **support).to_physical()
    theta *= contrast / np.max(np.abs(theta))
    u /= np.max(np.abs(u))
    return PrimitiveState(grid, rho_bar + theta, u)


def physical_initial_data(cfg: RunConfig) -> NspState:
    """`make_initial_data` derived through physical space: `from_primitive`, then projected and rescaled to E(0)."""
    raw = from_primitive(_primitive_fields(cfg), cfg.params)
    projected = FriedrichsProjector(cfg.grid, cfg.stepper.n)(raw.x)
    if cfg.amplitude == 0.0:
        return NspState.zeros(cfg.grid)
    return NspState(projected * (cfg.amplitude / energy.initial_energy(NspState(projected))))
