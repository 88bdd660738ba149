"""Dyadic frequency shells, Besov-type norms, and the ratio diagnostics.

The radial plateau cutoff psi equals 1 below 3/4 and 0 above 4/3, takes
values in [0, 1] and is non-increasing up to round-off; the annular cutoff
is the dyadic difference phi(r) = psi(r/2) - psi(r), supported in
[3/4, 8/3] with values in [0, 1].  Because blocks are built from that exact
difference, summing the annular cutoffs over the grid's shell range
telescopes and the partition of unity holds to round-off on every nonzero
lattice point.

A hybrid norm weights low shells (k <= 0) by 2^{ks} and high shells by
2^{kt}, so every index, a plain pair (s, t), reads off one array of block
norms: compute the spectrum of a field once and dot `hybrid_weights` of the
shells `ShellFilters.ks` with it for each index.  `hybrid_norm` and
`besov_norm`, the field-level entry points, reject non-finite exponents.

The cutoffs are radial, so `shell_filters` evaluates the profile once per
distinct |xi| of the grid (`Grid.radii`) and keeps only those (shells,
radii) masks; `ShellFilters.mask` gathers one shell's row onto the half
lattice, so it and `dyadic_block` stay plain multipliers.  A shell
spectrum needs only the radial power `radial_power(f)`: `mode_power` (re^2 +
im^2 summed over the components) Hermitian-weighted and summed over each
radius.  Block norm k is sqrt(sum_r mask_k(r)^2 power(r)); a hybrid norm is
one dot product of the block norms with the weights 2^{ks} or 2^{kt}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .spectral import SpectralField, Grid, apply_lambda, l2_norm, linf_norm, transform_to_spectral

__all__ = [
    "psi",
    "phi",
    "PLATEAU_EDGES",
    "ANNULUS_SUPPORT",
    "shell_range",
    "shell_filters",
    "dyadic_block",
    "mode_power",
    "radial_power",
    "dyadic_spectrum",
    "besov_norm",
    "hybrid_norm",
    "bernstein_ratio",
    "product_estimate_ratio",
    "product_convolution_ratio",
    "composition_check",
]

PLATEAU_EDGES = (0.75, 4.0 / 3.0)
ANNULUS_SUPPORT = (0.75, 8.0 / 3.0)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def _bump(x: np.ndarray) -> np.ndarray:
    """C-infinity bump exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=np.float64)
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros_like(x)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(-1.0 / np.where(inside, x * (1.0 - x), 1.0))
    out[inside] = vals[inside]
    return out


def _bump_integral(upper: np.ndarray) -> np.ndarray:
    """Fixed 128-point Gauss-Legendre integral of the bump over [0, upper]."""
    upper = np.asarray(upper, dtype=np.float64)
    half = 0.5 * upper[..., None]
    pts = half * (_GL_NODES + 1.0)
    return np.sum(_bump(pts) * _GL_WEIGHTS, axis=-1) * half[..., 0]


_BUMP_NORM = float(_bump_integral(np.asarray(1.0)))


def psi(r: np.ndarray) -> np.ndarray:
    """Plateau cutoff: 1 for r <= 3/4, 0 for r >= 4/3, in [0, 1] between.

    Non-increasing up to round-off.  Built from the normalized integral of
    the standard bump; the GL-128 recipe is fixed so block norms are
    bit-reproducible across runs.
    """
    r = np.asarray(r, dtype=np.float64)
    lo, hi = PLATEAU_EDGES
    out = np.where(r <= lo, 1.0, 0.0)
    inside = (r > lo) & (r < hi)  # the quadrature runs on the ramp only
    ramp = _bump_integral((r[inside] - lo) / (hi - lo)) / _BUMP_NORM
    # the GL-128 quotient rounds above 1 near tau ~ 0.97, so clamp
    out[inside] = np.clip(1.0 - ramp, 0.0, 1.0)
    return out


def phi(r: np.ndarray) -> np.ndarray:
    """Annular cutoff psi(r/2) - psi(r): in [0, 1], zero outside [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return psi(0.5 * r) - psi(r)


def hybrid_weights(ks: np.ndarray, idx: tuple[float, float]) -> np.ndarray:
    """The hybrid weights of shells `ks` at idx = (s, t): 2^{ks} for k <= 0, 2^{kt} above."""
    s, t = idx
    return 2.0 ** (ks * np.where(ks <= 0, s, t))


def shell_range(grid: Grid) -> tuple[int, int]:
    """All k whose annulus [2^k * 3/4, 2^k * 8/3] meets the nonzero lattice."""
    lo, hi = ANNULUS_SUPPORT
    k_min = int(np.ceil(np.log2(grid.xi_min / hi)))
    k_max = int(np.floor(np.log2(grid.xi_max / lo)))
    return k_min, k_max


@dataclass(frozen=True)
class ShellFilters:
    """Annular multipliers phi(2^-k |xi|) of every shell on a grid.

    `ks` is the grid's shell range (`shell_range`) as an array, the index of
    every per-shell array.  `radial_masks` has shape (shells, `Grid.radii`):
    one row per k, one column per distinct |xi|.
    """

    grid: Grid
    ks: np.ndarray
    radial_masks: np.ndarray

    def mask(self, k: int) -> np.ndarray:
        """Shell k's radial row gathered onto the half lattice; zero for a k outside `ks`."""
        if k in self.ks:
            return self.radial_masks[k - self.ks[0]][self.grid.radial_index]
        return np.zeros(self.grid.spectral_shape)

    def spectrum(self, power: np.ndarray) -> np.ndarray:
        """Block norms, one per shell of `ks`, of a field with radial power `power` (see `radial_power`)."""
        return np.sqrt(self.radial_masks**2 @ power)


@lru_cache(maxsize=8)
def shell_filters(grid: Grid) -> ShellFilters:
    """Annular masks of every shell; the profile runs once per distinct |xi|.

    Row k is phi(2^-k r) = psi(2^-(k+1) r) - psi(2^-k r), so adjacent shells
    share one psi row (halving is exact) and psi runs k_max - k_min + 2 times.
    """
    k_min, k_max = shell_range(grid)
    rows = np.stack([psi(grid.radii * 2.0 ** (-k)) for k in range(k_min, k_max + 2)])
    return ShellFilters(grid=grid, ks=np.arange(k_min, k_max + 1), radial_masks=rows[1:] - rows[:-1])


def dyadic_block(f: SpectralField, k: int) -> SpectralField:
    """Frequency-localized piece of f on the k-th dyadic annulus."""
    return SpectralField(f.grid, f.coef * shell_filters(f.grid).mask(k))


def mode_power(coef: np.ndarray) -> np.ndarray:
    """Per stored mode, re^2 + im^2 of a (ncomp, ...) array summed over the components in order."""
    return reduce(np.add, (comp.real**2 + comp.imag**2 for comp in coef))


def radial_power(f: SpectralField) -> np.ndarray:
    """`mode_power` of f summed over each distinct |xi|, Hermitian-weighted."""
    return f.grid.radial_sum(mode_power(f.coef))


def dyadic_spectrum(f: SpectralField) -> np.ndarray:
    """Block norms of f, one per shell of `shell_filters(f.grid).ks`."""
    return shell_filters(f.grid).spectrum(radial_power(f))


def besov_norm(f: SpectralField, s: float) -> float:
    """Shell-weighted norm sum_k 2^{ks} ||block_k f||_L2 over the grid's shells: `hybrid_norm` at (s, s)."""
    return hybrid_norm(f, (s, s))


def hybrid_norm(f: SpectralField, idx: tuple[float, float]) -> float:
    """Low shells weighted by 2^{ks}, high shells by 2^{kt}, split at k = 0; idx = (s, t)."""
    s, t = idx
    if not (np.isfinite(s) and np.isfinite(t)):
        raise ValueError(f"non-finite hybrid index ({s}, {t})")
    return hybrid_weights(shell_filters(f.grid).ks, idx) @ dyadic_spectrum(f)


def bernstein_ratio(f: SpectralField, k: int) -> float:
    """||Lambda block_k f|| / ||block_k f||; lands in [(3/4) 2^k, (8/3) 2^k]."""
    block = dyadic_block(f, k)
    den = l2_norm(block)
    if den == 0.0:
        raise ValueError(f"shell {k} of the field is zero")
    return l2_norm(apply_lambda(block, 1.0)) / den


def product_estimate_ratio(f: SpectralField, g: SpectralField, idx) -> float:
    """Measured constant in ||fg|| <= C (||f||_inf ||g|| + ||f|| ||g||_inf).

    The grid product is formed pointwise without truncation, so the ratio is
    exact for band-limited inputs whose product still fits on the lattice.
    """
    if not (f.is_scalar and g.is_scalar):
        raise ValueError("product estimate expects scalar fields")
    fg = transform_to_spectral(f.grid, f.to_physical() * g.to_physical())
    den = linf_norm(f) * hybrid_norm(g, idx) + hybrid_norm(f, idx) * linf_norm(g)
    if den == 0.0:
        raise ValueError("zero denominator in product estimate")
    return hybrid_norm(fg, idx) / den


def product_convolution_ratio(f: SpectralField, g: SpectralField, idx_f, idx_g) -> float:
    """Measured constant in the two-index product estimate.

    The product norm is taken at indices (s1+s2-N/2, t1+t2-N/2), the shift
    that makes the inequality dimensionally consistent; the unshifted -1
    variant sometimes quoted alongside it is not implemented.
    """
    (s1, t1), (s2, t2) = idx_f, idx_g
    half_n = 0.5 * f.grid.dim
    if min(s1 + s2, t1 + t2) <= 0 or max(s1, t1, s2, t2) > half_n:
        raise ValueError("indices outside the admissible product range")
    fg = transform_to_spectral(f.grid, f.to_physical() * g.to_physical())
    den = hybrid_norm(f, idx_f) * hybrid_norm(g, idx_g)
    if den == 0.0:
        raise ValueError("zero denominator in product estimate")
    return hybrid_norm(fg, (s1 + s2 - half_n, t1 + t2 - half_n)) / den


def composition_check(f: SpectralField, s: float, rho_bar: float) -> float:
    """Measured constant in the composition bound for F(u) = u / (u + rho_bar)."""
    if not f.is_scalar:
        raise ValueError("composition check expects a scalar field")
    if rho_bar <= 0:
        raise ValueError("rho_bar must be positive")
    vals = f.to_physical()
    if np.max(np.abs(vals)) >= rho_bar:
        raise ValueError("composition pole reachable: ||f||_inf >= rho_bar")
    den = besov_norm(f, s)
    if den == 0.0:
        raise ValueError("zero field in composition check")
    composed = transform_to_spectral(f.grid, vals / (vals + rho_bar))
    return besov_norm(composed, s) / den
