"""Shared grids and field builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from nspbox.spectral import Grid, SpectralField, transform_to_spectral


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


def constant(grid: Grid, value: float = 1.0) -> SpectralField:
    return transform_to_spectral(grid, np.full(grid.shape, value))
