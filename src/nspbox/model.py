"""The reformulated charged-fluid system in damped variables (h, c, I).

State variables, the rows of one `NspState` stack: h is the inverse-Lambda
lift of the density deviation theta = rho - rho_bar, c the gradient-part
velocity potential, I the antisymmetric solenoidal part.  The quadratic
pressure law makes the pressure and electrostatic forces exactly linear in
these variables, so the only nonlinearities are the convection terms, the
density-weighted viscous quotient J, and their div/curl projections F, G, H.

`explicit_rhs` evaluates all of them at once, with two-thirds-rule
dealiased products, in conservative form for the mass transport
(u.grad theta + theta div u = div(theta u)) and in rotational form for
the momentum flux (u.grad u = grad(|u|^2/2) + sum_j u_j (curl u)_ij, with
(curl u)_ij = d_j u_i - d_i u_j).  Both identities are exact on
the dealiased modes, which it transforms and forms on the two-thirds-rule
band alone (`spectral.BandTransform`).  It returns one tendency stack in
(h, c, I) row order on that band and knows nothing of the Friedrichs
truncation, which lives in the stepper's propagators.

Initial data are made in these variables, on the half lattice
(`initial_data`); the electrostatic potential is slaved to the density by
the Poisson coupling and is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral as sp
from .spectral import Grid, SpectralField

__all__ = [
    "FluidParams",
    "NspState",
    "zeta",
    "CLAMP_BAND",
    "explicit_rhs",
    "RhsDiagnostics",
]


@dataclass(frozen=True)
class FluidParams:
    """Viscosities, background density and dimension; the pressure law is fixed quadratic."""

    mu: float
    lam: float
    rho_bar: float
    dim: int

    def __post_init__(self) -> None:
        if not (self.mu > 0):
            raise ValueError(f"shear viscosity must satisfy mu > 0, got mu = {self.mu}")
        if 2.0 * self.mu + self.dim * self.lam < 0:
            raise ValueError(
                f"viscosities must satisfy 2*mu + N*lambda >= 0, got {2 * self.mu + self.dim * self.lam}"
            )
        if not (self.rho_bar > 0):
            raise ValueError(f"background density must be positive, got {self.rho_bar}")
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")

    @property
    def beta(self) -> float:
        """Longitudinal viscosity 2*mu + lambda."""
        return 2.0 * self.mu + self.lam

    @property
    def nu_c(self) -> float:
        """Diffusivity of the gradient part."""
        return self.beta / self.rho_bar

    @property
    def nu_i(self) -> float:
        """Diffusivity of the solenoidal part."""
        return self.mu / self.rho_bar

    def pair_matrix(self, lam_sq) -> np.ndarray:
        """Linear generator of (h, c), [[0, -rho_bar], [|xi|^2 + 1, -nu_c |xi|^2]], shape (*lam_sq.shape, 2, 2)."""
        q = np.asarray(lam_sq, dtype=np.float64)
        out = np.zeros(q.shape + (2, 2))
        out[..., 0, 1] = -self.rho_bar
        out[..., 1, 0] = q + 1.0
        out[..., 1, 1] = -self.nu_c * q
        return out


@dataclass
class NspState:
    """Evolving state (h, c, I) at time t: one stack `x` of rows h, c, then I in `antisym_pairs` order.

    The stepper advances `x` and `explicit_rhs` returns its layout; `h`, `c`
    and `I` are views of its rows.  Physical admissibility (pointwise
    positive density, I in the image of the curl lift) is enforced by the
    generators and watched by the stepper's flags rather than carried here.
    """

    x: SpectralField
    t: float = 0.0

    def __post_init__(self) -> None:
        nrows = 2 + len(sp.antisym_pairs(self.grid.dim))
        if self.x.ncomp != nrows:
            raise ValueError(f"an (h, c, I) stack has {nrows} rows, got {self.x.ncomp}")

    @property
    def grid(self) -> Grid:
        return self.x.grid

    @property
    def h(self) -> SpectralField:
        return SpectralField.nyquist_free(self.grid, self.x.coef[:1])

    @property
    def c(self) -> SpectralField:
        return SpectralField.nyquist_free(self.grid, self.x.coef[1:2])

    @property
    def I(self) -> SpectralField:
        return SpectralField.nyquist_free(self.grid, self.x.coef[2:])

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "NspState":
        return cls(SpectralField.zeros(grid, 2 + len(sp.antisym_pairs(grid.dim))), t)

    def velocity(self) -> SpectralField:
        return sp.helmholtz_recompose(self.c, self.I)

    def theta(self) -> SpectralField:
        return sp.apply_lambda(self.h, 1.0)


CLAMP_BAND = (0.5, 1.5)  # `zeta` is the identity on this band times rho_bar and clamps outside it


def zeta(x, rho_bar: float, out: np.ndarray | None = None):
    """Smooth even clamp of the density argument onto [rho_bar/4, 7*rho_bar/4].

    Identity on `CLAMP_BAND` * rho_bar, constant plateaus outside
    [rho_bar/4, 7*rho_bar/4], monotone cubic Hermite ramps between (zero
    slope at the clamped ends, unit slope at the identity ends).  Reading
    the middle branch through |x| is what keeps the clamp >= rho_bar/4 for
    negative arguments.  An array is clamped in a fresh array, or in `out`,
    which may be `x` itself.
    """
    if rho_bar <= 0:
        raise ValueError("rho_bar must be positive")
    band_lo, band_hi = CLAMP_BAND
    r = np.abs(np.asarray(x, dtype=np.float64), out=out)
    scalar = r.ndim == 0
    out = np.atleast_1d(r)
    out /= rho_bar
    # plateaus and the identity branch, in place; clipping leaves the two gaps as they are, so
    # their masks read the clipped values and the ramps overwrite them
    np.clip(out, 0.25, 1.75, out=out)
    lo = (out > 0.25) & (out < band_lo)
    hi = (out > band_hi) & (out < 1.75)
    out[lo] = _hermite(out[lo], 0.25, band_lo, 0.25, band_lo, 0.0, 1.0)
    out[hi] = _hermite(out[hi], band_hi, 1.75, band_hi, 1.75, 1.0, 0.0)

    out *= rho_bar
    return float(out[0]) if scalar else out


def _hermite(x, a, b, fa, fb, da, db):
    t = (x - a) / (b - a)
    h00 = (1.0 + 2.0 * t) * (1.0 - t) ** 2
    h10 = t * (1.0 - t) ** 2
    h01 = t * t * (3.0 - 2.0 * t)
    h11 = t * t * (t - 1.0)
    return fa * h00 + fb * h01 + (b - a) * (da * h10 + db * h11)


# ---------------------------------------------------------------------------
# nonlinearities: the explicit right-hand side for the stepper


def _viscous_quotient(theta_phys: np.ndarray, params: FluidParams) -> np.ndarray:
    """theta / (rho_bar * rho) with the density clamped by `zeta`, formed in one array: rho_bar + theta's."""
    q = np.add(theta_phys, params.rho_bar)
    zeta(q, params.rho_bar, out=q)
    q *= params.rho_bar
    return np.divide(theta_phys, q, out=q)


@dataclass
class RhsDiagnostics:
    min_density: float
    max_density: float
    max_speed: float


class _RhsMultipliers:
    """Stored symbols, band transforms and physical rows of `explicit_rhs` for one (grid, params).

    Only what a call reads per mode and cannot form from the open axes of
    `Grid.wavenumbers` is kept: `lam` (theta = Lambda h), its band gather
    `lam_m` (-Lambda^-1 div grad of |u|^2/2) and `tend_j`, the band rows of
    -Lambda^-1 d_j, which form -Lambda^-1 div and -Lambda^-1 curl of the
    fluxes.  `ixi_m`, the symbols of d_j on the band, are open band axes.
    The viscous symbols are products of open axes, formed per call
    (`visc_lap`, `visc_grad`).  The state is Nyquist-free, hence so is every
    product with it.

    The band and full transforms take turns in one spectral `buffer` of
    max(2N + 1, N + 1 + N(N-1)/2) half-lattice components, 7 in 3D, which
    also holds the call's spectral scratch rows.  `rows` are the real
    physical rows both inverses write: the full inverse's N + 1 (raw theta,
    then the flux), then the band inverse's, which become the band
    forward's input.  Owning them keeps a warm call from faulting pages in.
    """

    def __init__(self, grid: Grid, params: FluidParams):
        dim = grid.dim
        self.grid, self.params = grid, params
        self.lam = grid.lam
        self.lam_m = grid.to_band(self.lam)
        self.tend_j = grid.to_band(-grid.riesz)
        self.ixi_m = grid.band_axes(grid.ixi)
        nband = max(2 * dim + 1, dim + 1 + len(sp.antisym_pairs(dim)))
        self.buffer = np.empty((nband,) + grid.spectral_shape, dtype=np.complex128)
        self.full = sp.BandTransform(grid, dim + 1, grid.size // 2, self.buffer)
        self.band = sp.BandTransform(grid, nband, grid.size // 3, self.buffer)
        self.rows = np.empty((dim + 1 + nband,) + grid.shape)

    def visc_lap(self) -> np.ndarray:
        """-mu |xi|^2, the symbol of mu lap, in a fresh |xi|^2."""
        lap = self.grid.lam_sq
        lap *= -self.params.mu
        return lap

    def visc_grad(self, k: int, out: np.ndarray) -> np.ndarray:
        """((mu + lambda) xi_k) Lambda into `out`, the first factor on the open axis.

        The real factor of the purely imaginary symbol (mu + lambda) i xi_k
        Lambda of (mu + lambda) d_k div, whose real part is +0 on every mode.
        """
        return np.multiply((self.params.mu + self.params.lam) * self.grid.wavenumbers[k], self.lam, out=out)


@lru_cache(maxsize=4)
def _rhs_multipliers(grid: Grid, params: FluidParams) -> _RhsMultipliers:
    return _RhsMultipliers(grid, params)


def explicit_rhs(s: NspState, params: FluidParams) -> tuple[np.ndarray, RhsDiagnostics]:
    """Convection plus forcing tendencies for (h, c, I) in three batched transforms.

    Returns one fresh (2 + N(N-1)/2, *band_shape) stack in (h, c, I) row
    order, untruncated (the stepper's propagators carry the cutoff).  It
    shares no memory with the state or the multipliers, their buffer and
    rows included, so a later call leaves it as it is.

    The advection of c cancels exactly between the left-hand convection term
    and the forcing G, so the net c tendency is -Lambda^-1 div J and the I
    tendency -Lambda^-1 curl J, with J = u.grad u + quotient * viscous
    stress; the h tendency is -Lambda^-1 (u.grad theta + theta div u).  The
    linear terms are handled by the propagator, not here.

    Products are dealiased by the two-thirds rule, so two identities hold
    exactly on the kept modes and cut what is transformed:

    - conservative form: u.grad theta + theta div u = div(theta u);
    - rotational form: u.grad u = grad(|u|^2/2) + sum_j u_j (curl u)_ij
      with (curl u)_ij = d_j u_i - d_i u_j.  The gradient adds only
      Lambda |u|^2/2 to the c tendency and nothing to the I tendency.

    All three are `spectral.BandTransform` calls, in this order, taking
    turns in the multipliers' one spectral buffer:

    1. a band inverse of u, theta and the N(N-1)/2 curl u components,
       N + 1 + N(N-1)/2 components (7 in 3D), formed on the two-thirds-rule
       band from the band gathers of h, c and I; u is `spectral.recompose_rows`
       of the Riesz rows gathered onto the band, the operations of
       `helmholtz_recompose`;
    2. a full inverse (the widest band, the half lattice) of what must stay
       unaliased: raw theta = Lambda h (for the quotient and the
       diagnostics) and the viscous stress, N + 1 components, with u
       formed in the stress rows and the viscous symbols formed per call,
       from the open axes, in the buffer's spare rows;
    3. a band forward of theta u, |u|^2/2 and the remaining flux, 2N + 1
       components (7 in 3D), whose output, a view of the buffer, is read in
       place into the tendencies before any call rewrites it.

    The tendencies are formed and returned on the band; curl u and the c
    and I tendencies are each one `spectral.div_curl`, written in place.

    Memory: the inverses write the multipliers' physical `rows`, and the
    physical stage forms every product in place in them.  The fresh arrays
    of a call are the returned stack, the quotient and band-sized or
    per-axis temporaries.
    """
    grid = s.grid
    dim = grid.dim
    pairs = sp.antisym_pairs(dim)
    mult = _rhs_multipliers(grid, params)
    h, c, I = s.x.coef[:1], s.x.coef[1], s.x.coef[2:]
    full_p, prod = mult.rows[: dim + 1], mult.rows[dim + 1 :]

    # band inverse: u, theta, (curl u)_ij (i < j) in `antisym_pairs` order; div u, unread, passes
    # through theta's row.  The Riesz rows on the band are -tend_j, negated exactly, so u has
    # `helmholtz_recompose`'s operations and signed zeros
    band = mult.band.inverse_input(dim + 1 + len(pairs))
    u_m, theta_m = band[:dim], band[dim : dim + 1]
    c_m = grid.to_band(c)
    sp.recompose_rows(np.negative(mult.tend_j), c_m, grid.to_band(I), u_m, np.empty_like(c_m))
    sp.div_curl(mult.ixi_m, u_m, out=band[dim:])
    np.multiply(mult.lam_m, grid.to_band(h), out=theta_m)
    mult.band.to_physical(band, out=prod[: len(band)])

    # full inverse: raw theta, viscous stress mu lap u + (mu + lambda) grad div u; u is formed in the
    # stress rows, and buffer row N + 1 holds the symbol (mu + lambda) i xi_k Lambda (real part +0)
    # and then its product with c
    full = mult.full.inverse_input(1 + dim)
    theta_raw, visc = full[:1], full[1:]
    grad = mult.buffer[dim + 1]
    np.multiply(mult.lam, h, out=theta_raw)
    sp.recompose_rows(grid.riesz, c, I, visc, grad)
    visc_lap = mult.visc_lap()
    for k in range(dim):
        np.multiply(visc_lap, visc[k], out=visc[k])
        grad.real = 0.0
        mult.visc_grad(k, out=grad.imag)
        grad *= c
        visc[k] += grad
    del visc_lap
    mult.full.to_physical(full, out=full_p)
    theta_raw_p, flux = full_p[0], full_p[1:]
    min_density = float(np.min(theta_raw_p)) + params.rho_bar
    max_density = float(np.max(theta_raw_p)) + params.rho_bar
    flux *= _viscous_quotient(theta_raw_p, params)

    # band forward input: the band inverse's u, theta, curl u rows become theta u; |u|^2/2; the flux
    # quotient * viscous stress + sum_j u_j (curl u)_ij, whose products pass through raw theta's row
    u_p, theta_p, curl_p = np.split(prod[: dim + 1 + len(pairs)], (dim, dim + 1))
    for p, (i, j) in enumerate(pairs):
        np.multiply(u_p[j], curl_p[p], out=theta_raw_p)
        flux[i] += theta_raw_p
        np.multiply(u_p[i], curl_p[p], out=theta_raw_p)
        flux[j] -= theta_raw_p
    speed_sq = theta_raw_p  # the squares pass through a curl u row
    np.square(u_p[0], out=speed_sq)
    for k in range(1, dim):
        np.square(u_p[k], out=curl_p[0])
        speed_sq += curl_p[0]
    diag = RhsDiagnostics(min_density, max_density, max_speed=float(np.sqrt(np.max(speed_sq))))
    u_p *= theta_p
    np.multiply(speed_sq, 0.5, out=theta_p[0])
    prod[dim + 1 : 2 * dim + 1] = flux
    theta_u, kinetic, flux = np.split(mult.band.to_spectral(prod[: 2 * dim + 1]), (dim, dim + 1))

    # tendencies on the band: -Lambda^-1 div(theta u), -Lambda^-1 div J and -Lambda^-1 curl J
    tend_j = mult.tend_j
    tend = np.empty((2 + len(pairs),) + grid.band_shape, dtype=np.complex128)
    np.sum(tend_j * theta_u, axis=0, out=tend[0])
    sp.div_curl(tend_j, flux, out=tend[1:])
    tend[1] += mult.lam_m * kinetic[0]
    return tend, diag
