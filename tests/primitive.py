"""Primitive variables of a state: the inverse of `model.from_primitive` and the slaved potential.

The solver only maps (density, velocity) data into (h, c, I); the way back
and the electrostatic potential phi (lap phi = rho - mean(rho)) are checks.
"""

from __future__ import annotations

import numpy as np

from nspbox import spectral as sp
from nspbox.model import FluidParams, NspState, PrimitiveState

from analysis import laplacian, poisson_solve

__all__ = ["potential", "check_potential", "to_primitive"]


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
