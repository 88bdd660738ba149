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

Initial data enter as physical (density, velocity) pairs, `PrimitiveState`,
through `from_primitive`; the electrostatic potential is slaved to the
density by the Poisson coupling and is never formed.
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
    "PrimitiveState",
    "zeta",
    "CLAMP_BAND",
    "from_primitive",
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
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")

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

    def scaled(self, factor: float) -> "NspState":
        return NspState(self.x * factor, self.t)


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


CLAMP_BAND = (0.5, 1.5)  # `zeta` is the identity on this band times rho_bar and clamps outside it


def zeta(x, rho_bar: float):
    """Smooth even clamp of the density argument onto [rho_bar/4, 7*rho_bar/4].

    Identity on `CLAMP_BAND` * rho_bar, constant plateaus outside
    [rho_bar/4, 7*rho_bar/4], monotone cubic Hermite ramps between (zero
    slope at the clamped ends, unit slope at the identity ends).  Reading
    the middle branch through |x| is what keeps the clamp >= rho_bar/4 for
    negative arguments.
    """
    if rho_bar <= 0:
        raise ValueError("rho_bar must be positive")
    band_lo, band_hi = CLAMP_BAND
    r = np.abs(np.asarray(x, dtype=np.float64))
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


def from_primitive(p: PrimitiveState, params: FluidParams) -> NspState:
    grid = p.grid
    if np.min(p.rho) <= 0.0:
        raise ValueError(f"density must be positive everywhere, min = {np.min(p.rho):.6e}")
    mean_rho = float(np.mean(p.rho))
    if abs(mean_rho - params.rho_bar) > 1e-12 * max(1.0, params.rho_bar):
        raise ValueError(f"mean density {mean_rho!r} does not match rho_bar {params.rho_bar!r}")
    theta = sp.transform_to_spectral(grid, p.rho - params.rho_bar)
    h = sp.apply_lambda(theta, -1.0)
    c, I = sp.helmholtz_decompose(sp.transform_to_spectral(grid, p.u))
    return NspState(SpectralField(grid, np.concatenate([h.coef, c.coef, I.coef])))


# ---------------------------------------------------------------------------
# nonlinearities: the explicit right-hand side for the stepper


def _viscous_quotient(theta_phys: np.ndarray, params: FluidParams) -> np.ndarray:
    """theta / (rho_bar * rho) with the density clamped by `zeta`, formed in the clamp's own array."""
    q = zeta(theta_phys + params.rho_bar, params.rho_bar)
    q *= params.rho_bar
    return np.divide(theta_phys, q, out=q)


@dataclass
class RhsDiagnostics:
    min_density: float
    max_density: float
    max_speed: float


class _RhsMultipliers:
    """Fourier multipliers and band transforms of `explicit_rhs` for one (grid, params).

    Each is the product of the operators it stands for, so every quantity is
    one multiply of h, c, u or the forward transform away, or one
    `spectral.div_curl` with a symbol stack: `ixi` (d_j on the band) or
    `tend_j` (-Lambda^-1 d_j on the band).  `visc_grad` is stored as the real
    factor (mu + lambda) xi_j Lambda of the purely imaginary symbol
    (mu + lambda) i xi_j Lambda, whose real part is +0 on every mode.  The
    stored fields are Nyquist-free, hence so is every product.
    """

    def __init__(self, grid: Grid, params: FluidParams):
        lam = grid.lam
        self.lam = lam  # theta = Lambda h
        self.visc_lap = -params.mu * grid.lam_sq  # mu lap u
        self.visc_grad = (params.mu + params.lam) * np.stack(grid.wavenumbers) * lam  # (mu + lambda) grad div u, from c
        self.ixi = grid.to_band(grid.ixi)
        self.lam_m = grid.to_band(lam)  # -Lambda^-1 div grad of |u|^2/2
        self.tend_j = grid.to_band(-grid.riesz)  # rows of -Lambda^-1 div and -Lambda^-1 curl of the fluxes
        self.full = sp.BandTransform(grid, grid.dim + 1, grid.size // 2)
        npairs = len(sp.antisym_pairs(grid.dim))
        self.band = sp.BandTransform(grid, max(2 * grid.dim + 1, grid.dim + 1 + npairs), grid.size // 3)


@lru_cache(maxsize=4)
def _rhs_multipliers(grid: Grid, params: FluidParams) -> _RhsMultipliers:
    return _RhsMultipliers(grid, params)


def explicit_rhs(s: NspState, params: FluidParams) -> tuple[np.ndarray, RhsDiagnostics]:
    """Convection plus forcing tendencies for (h, c, I) in three batched transforms.

    Returns one fresh (2 + N(N-1)/2, *band_shape) stack in (h, c, I) row
    order, untruncated (the stepper's propagators carry the cutoff).  It
    shares no memory with the state, the multipliers or the transforms'
    buffers, so a later call leaves it as it is.

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

    All three are `spectral.BandTransform` calls.  A full inverse (the
    widest band, the half lattice) takes what must stay unaliased: raw theta
    (for the quotient and the diagnostics) and the viscous stress, N + 1
    components.  A band inverse takes u, theta and the N(N-1)/2 curl u
    components, gathered onto the two-thirds-rule band: N + 1 + N(N-1)/2
    components, 7 in 3D.  A band forward takes theta u, |u|^2/2 and the
    remaining flux: 2N + 1 components, 7 in 3D.  The tendencies are formed
    and returned on the band; curl u and the c and I tendencies are each one
    `spectral.div_curl`.

    Memory: both inverse inputs are written straight into the transforms'
    own buffers (`BandTransform.inverse_input`).  Besides the returned
    stack, the only fresh lattice arrays are the velocity, the full
    inverse's output, the band forward's input stack, into which the band
    inverse writes, and the forward's output; every other quantity is formed
    in place in one of them, and each is dropped once its last reader is
    done.
    """
    grid = s.grid
    dim = grid.dim
    pairs = sp.antisym_pairs(dim)
    mult = _rhs_multipliers(grid, params)
    c = s.c.coef[0]
    u = s.velocity().coef

    # band inverse: u, theta, (curl u)_ij (i < j) in `antisym_pairs` order; theta and u are gathered
    # before the full inverse transforms its input in place and before u's rows are reused below
    full = mult.full.inverse_input(1 + dim)
    theta_raw, visc = full[:1], full[1:]
    np.multiply(mult.lam, s.h.coef, out=theta_raw)
    band = mult.band.inverse_input(dim + 1 + len(pairs))
    u_m, theta_m, curl_u = np.split(band, (dim, dim + 1))
    u_m[...], theta_m[...] = grid.to_band(u), grid.to_band(theta_raw)
    curl_u[...] = sp.div_curl(mult.ixi, u_m)[1:]

    # full inverse: raw theta, viscous stress mu lap u + (mu + lambda) grad div u; u[k], read, holds
    # the symbol (mu + lambda) i xi_k Lambda (real part +0) and then its product with c
    for k, grad in enumerate(u):
        np.multiply(mult.visc_lap, grad, out=visc[k])
        grad.real, grad.imag = 0.0, mult.visc_grad[k]
        grad *= c
        visc[k] += grad
    del u, grad
    full_p = mult.full.to_physical(full)
    theta_raw_p, flux = full_p[0], full_p[1:]
    min_density = float(np.min(theta_raw_p)) + params.rho_bar
    max_density = float(np.max(theta_raw_p)) + params.rho_bar
    flux *= _viscous_quotient(theta_raw_p, params)

    # band forward input: the band inverse's u, theta, curl u rows become theta u; |u|^2/2; the flux
    # quotient * viscous stress + sum_j u_j (curl u)_ij, whose products pass through raw theta's row
    prod = np.empty((max(2 * dim + 1, len(band)),) + grid.shape)
    u_p, theta_p, curl_p = np.split(mult.band.to_physical(band, out=prod[: len(band)]), (dim, dim + 1))
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
    del full_p, theta_raw_p, flux, speed_sq, u_p, theta_p, curl_p
    theta_u, kinetic, flux = np.split(mult.band.to_spectral(prod[: 2 * dim + 1]), (dim, dim + 1))
    del prod

    # tendencies on the band: -Lambda^-1 div(theta u), -Lambda^-1 div J and -Lambda^-1 curl J
    tend_j = mult.tend_j
    tend = np.empty((2 + len(pairs),) + theta_u.shape[1:], dtype=np.complex128)
    np.sum(tend_j * theta_u, axis=0, out=tend[0])
    tend[1:] = sp.div_curl(tend_j, flux)
    tend[1] += mult.lam_m * kinetic[0]
    return tend, diag
