"""Convective-form nonlinearities, one component at a time through the public operators.

The independent check of `model.explicit_rhs`, which evaluates the same
terms in conservative and rotational form; its divergence and curl are
those of `analysis`, not the solver's `spectral.div_curl`.  Every product
is dealiased by the two-thirds rule: its factors are masked before the
inverse transform and the product after the forward transform.
"""

from __future__ import annotations

import numpy as np

from nspbox import spectral as sp
from nspbox.model import FluidParams, NspState, _viscous_quotient
from nspbox.spectral import Grid, SpectralField

from analysis import curl, divergence
from conftest import dealias_mask

__all__ = ["nonlinear_F", "nonlinear_J", "nonlinear_G", "nonlinear_H"]


def _quotient(theta_phys: np.ndarray, params: FluidParams, guarded: bool) -> np.ndarray:
    """The solver's clamped viscous quotient, or the raw theta / (rho_bar * rho) inside the band."""
    if guarded:
        return _viscous_quotient(theta_phys, params)
    den = theta_phys + params.rho_bar
    lowest = float(np.min(den))
    if lowest < 0.5 * params.rho_bar:
        raise ValueError(
            "unguarded viscous quotient outside the admissible band: "
            f"min density {lowest:.6e} < rho_bar/2 = {0.5 * params.rho_bar:.6e}"
        )
    return theta_phys / (params.rho_bar * den)


def _masked_phys(f: SpectralField) -> np.ndarray:
    return SpectralField(f.grid, f.coef * dealias_mask(f.grid)).to_physical()


def _spectralize(grid: Grid, phys: np.ndarray) -> SpectralField:
    return SpectralField(grid, sp.transform_to_spectral(grid, phys).coef * dealias_mask(grid))


def nonlinear_F(s: NspState) -> SpectralField:
    """F = -Lambda^-1 (Lambda h * div u), the quadratic mass-transport term."""
    grid = s.grid
    theta_phys = _masked_phys(s.theta())[0]
    divu_phys = _masked_phys(divergence(s.velocity()))[0]
    return -1.0 * sp.apply_lambda(_spectralize(grid, theta_phys * divu_phys), -1.0)


def nonlinear_J(s: NspState, params: FluidParams, guarded: bool = True) -> SpectralField:
    """J = u.grad u + quotient(theta) * (mu lap u + (mu+lambda) grad div u), one component at a time."""
    grid = s.grid
    xi = grid.wavenumbers
    u = s.velocity()
    u_phys = _masked_phys(u)
    divu = divergence(u)
    quot = _quotient(s.theta().to_physical()[0], params, guarded)
    out = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(grid.dim):
        adv = np.zeros(grid.shape)
        for j in range(grid.dim):
            du_ij = _masked_phys(SpectralField(grid, 1j * xi[j] * u.coef[i : i + 1]))[0]
            adv += u_phys[j] * du_ij
        # viscous stress: mu lap u_i + (mu + lambda) d_i div u
        visc = SpectralField(
            grid,
            (-params.mu * grid.lam_sq * u.coef[i] + (params.mu + params.lam) * 1j * xi[i] * divu.coef[0])[None],
        ).to_physical()[0]
        out[i] = (_spectralize(grid, adv) + _spectralize(grid, quot * visc)).coef[0]
    return SpectralField(grid, out)


def nonlinear_G(s: NspState, params: FluidParams, guarded: bool = True) -> SpectralField:
    """G = u.grad c - Lambda^-1 div J."""
    grid = s.grid
    u_phys = _masked_phys(s.velocity())
    adv = np.zeros(grid.shape)
    for j in range(grid.dim):
        dc_j = _masked_phys(SpectralField(grid, 1j * grid.wavenumbers[j] * s.c.coef))[0]
        adv += u_phys[j] * dc_j
    conv = _spectralize(grid, adv)
    J = nonlinear_J(s, params, guarded=guarded)
    return conv - sp.apply_lambda(divergence(J), -1.0)


def nonlinear_H(s: NspState, params: FluidParams, guarded: bool = True) -> SpectralField:
    """H = -Lambda^-1 curl J."""
    J = nonlinear_J(s, params, guarded=guarded)
    return -1.0 * sp.apply_lambda(curl(J), -1.0)
