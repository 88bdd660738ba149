"""Shared grids, field builders and lattice checks for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from nspbox.spectral import (
    Grid,
    SpectralField,
    _lead_axes,
    _negate_indices,
    antisym_pairs,
    transform_to_spectral,
)


@pytest.fixture(scope="session")
def grid3() -> Grid:
    return Grid(dim=3, size=16)


@pytest.fixture(scope="session")
def grid2() -> Grid:
    return Grid(dim=2, size=16)


@pytest.fixture(scope="session")
def grid32() -> Grid:
    return Grid(dim=3, size=32)


def wave(grid: Grid, nvec, kind: str = "cos", amp: float = 1.0) -> SpectralField:
    """amp * cos(n . x * 2pi/L) (or sin): its two conjugate coefficients, as far as they are stored."""
    coef = np.zeros((1,) + grid.spectral_shape, dtype=np.complex128)
    plus = tuple(n % grid.size for n in nvec)
    minus = tuple(-n % grid.size for n in nvec)
    value = 0.5 * amp if kind == "cos" else -0.5j * amp
    for index, c in ((plus, value), (minus, np.conj(value))):
        if index[-1] <= grid.size // 2:  # the other one is the unstored mirror
            coef[(0,) + index] += c
    return SpectralField(grid, coef)


def embed(f: SpectralField, grid: Grid) -> SpectralField:
    """f's coefficients on `grid`, a finer lattice of the same box, each at its own wavenumber.

    Lead-axis FFT indices 0..m-1 and -(m-1)..-1 (m = M/2 of f's grid) and the last axis's 0..m-1 keep
    their wavenumber at either size; f's Nyquist planes are dropped, so f must be zero on them.
    """
    m = f.grid.size // 2
    lead = np.r_[0:m, 1 - m : 0]
    kept = (slice(None),) + np.ix_(*[lead] * (grid.dim - 1), np.arange(m))
    out = np.zeros((f.ncomp,) + grid.spectral_shape, dtype=np.complex128)
    out[kept] = f.coef[kept]
    return SpectralField(grid, out)


def constant(grid: Grid, value: float = 1.0) -> SpectralField:
    return transform_to_spectral(grid, np.full(grid.shape, value))


def from_band(grid: Grid, band: np.ndarray) -> np.ndarray:
    """(ncomp, *band_shape) coefficients scattered into a fresh half lattice, zero off the band."""
    out = np.zeros((len(band),) + grid.spectral_shape, dtype=np.complex128)
    grid.add_band(out, band)
    return out


@lru_cache(maxsize=8)
def dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds-rule mask: 1 on the band (integer modes with every |k_i| <= size/3), else 0."""
    return from_band(grid, np.ones((1,) + grid.band_shape))[0].real


def hermitian_defect(f: SpectralField) -> float:
    """Relative departure from coef(-xi) == conj(coef(xi)) on the last-axis zero plane.

    That plane is the only stored one holding both xi and -xi, so elsewhere
    the symmetry holds by construction.
    """
    plane = f.coef[..., 0]
    mirror = np.conj(_negate_indices(plane, _lead_axes(f.grid)))
    scale = np.max(np.abs(f.coef))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(plane - mirror)) / scale)


def antisym_divergence(I: SpectralField) -> SpectralField:
    """Row divergence (div I)_i = sum_j d_j I_{ij} of the full antisymmetric matrix."""
    grid = I.grid
    pairs = antisym_pairs(grid.dim)
    if I.ncomp != len(pairs):
        raise ValueError("antisymmetric field has wrong component count")
    xi = grid.wavenumbers
    out = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for comp, (i, j) in enumerate(pairs):
        out[i] += 1j * xi[j] * I.coef[comp]
        out[j] -= 1j * xi[i] * I.coef[comp]
    return SpectralField(grid, out)
