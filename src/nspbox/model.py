"""The reformulated charged-fluid system in damped variables (h, c, I).

State variables: h is the inverse-Lambda lift of the density deviation
theta = rho - rho_bar, c the gradient-part velocity potential, I the
antisymmetric solenoidal part.  The quadratic pressure law makes the
pressure and electrostatic forces exactly linear in these variables, so
the only nonlinearities are the convection terms, the density-weighted
viscous quotient J, and their div/curl projections F, G, H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral as sp
from .spectral import Grid, SpectralField, HelmholtzPair

__all__ = [
    "FluidParams",
    "NspState",
    "PrimitiveState",
    "zeta",
    "from_primitive",
    "to_primitive",
    "nonlinear_F",
    "nonlinear_J",
    "nonlinear_G",
    "nonlinear_H",
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
    gamma: float = 2.0

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
        if self.gamma != 2.0:
            raise ValueError("only the quadratic pressure law (gamma = 2) is supported")

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
    """Evolving state (h, c, I) at time t.

    Physical admissibility (pointwise positive density, I in the image of
    the curl lift) is enforced by the generators and watched by the
    stepper's flags rather than carried as a field here.
    """

    h: SpectralField
    c: SpectralField
    I: SpectralField
    t: float = 0.0

    def __post_init__(self) -> None:
        grid = self.h.grid
        if self.c.grid != grid or self.I.grid != grid:
            raise ValueError("state components live on different grids")
        HelmholtzPair(self.c, self.I)  # validates component counts

    @property
    def grid(self) -> Grid:
        return self.h.grid

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "NspState":
        npairs = len(sp.antisym_pairs(grid.dim))
        return cls(
            h=SpectralField.zeros(grid),
            c=SpectralField.zeros(grid),
            I=SpectralField.zeros(grid, npairs),
            t=t,
        )

    def velocity(self) -> SpectralField:
        return sp.helmholtz_recompose(HelmholtzPair(self.c, self.I))

    def theta(self) -> SpectralField:
        return sp.apply_lambda(self.h, 1.0)

    def scaled(self, factor: float) -> "NspState":
        return NspState(self.h * factor, self.c * factor, self.I * factor, t=self.t)

    def copy(self) -> "NspState":
        return NspState(self.h.copy(), self.c.copy(), self.I.copy(), t=self.t)


@dataclass
class PrimitiveState:
    """Physical-space density, velocity and electrostatic potential.

    The potential is slaved to the density through the Poisson coupling;
    omit it to have it computed, or supply it and it is checked against
    the density to 1e-10.
    """

    grid: Grid
    rho: np.ndarray
    u: np.ndarray
    rho_bar: float
    phi: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.rho.shape != self.grid.shape:
            raise ValueError("density shape does not match grid")
        if self.u.shape != (self.grid.dim,) + self.grid.shape:
            raise ValueError("velocity shape does not match grid")
        contrast = sp.transform_to_spectral(self.grid, self.rho - float(np.mean(self.rho)))
        if self.phi is None:
            self.phi = sp.poisson_solve(contrast).to_physical()[0]
        else:
            self.phi = np.asarray(self.phi, dtype=np.float64)
            if self.phi.shape != self.grid.shape:
                raise ValueError("potential shape does not match grid")
            residual = sp.laplacian(sp.transform_to_spectral(self.grid, self.phi)) - contrast
            scale = max(sp.l2_norm(contrast), 1e-300)
            if sp.l2_norm(residual) > 1e-10 * scale:
                raise ValueError("potential does not solve the density Poisson coupling")


def zeta(x, rho_bar: float):
    """Smooth even clamp of the density argument onto [rho_bar/4, 7*rho_bar/4].

    Identity on rho_bar/2 <= |x| <= 3*rho_bar/2, constant plateaus outside
    [rho_bar/4, 7*rho_bar/4], monotone cubic Hermite ramps between (zero
    slope at the clamped ends, unit slope at the identity ends).  Reading
    the middle branch through |x| is what keeps the clamp >= rho_bar/4 for
    negative arguments.
    """
    if rho_bar <= 0:
        raise ValueError("rho_bar must be positive")
    r = np.abs(np.asarray(x, dtype=np.float64))
    scalar = r.ndim == 0
    r = np.atleast_1d(r) / rho_bar
    out = np.empty_like(r)

    out[r <= 0.25] = 0.25
    mid = (r >= 0.5) & (r <= 1.5)
    out[mid] = r[mid]
    out[r >= 1.75] = 1.75

    lo = (r > 0.25) & (r < 0.5)
    out[lo] = _hermite(r[lo], 0.25, 0.5, 0.25, 0.5, 0.0, 1.0)
    hi = (r > 1.5) & (r < 1.75)
    out[hi] = _hermite(r[hi], 1.5, 1.75, 1.5, 1.75, 1.0, 0.0)

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
# primitive-variable conversions


def from_primitive(p: PrimitiveState, params: FluidParams) -> NspState:
    grid = p.grid
    if np.min(p.rho) <= 0.0:
        raise ValueError(f"density must be positive everywhere, min = {np.min(p.rho):.6e}")
    mean_rho = float(np.mean(p.rho))
    if abs(mean_rho - params.rho_bar) > 1e-12 * max(1.0, params.rho_bar):
        raise ValueError(f"mean density {mean_rho!r} does not match rho_bar {params.rho_bar!r}")
    theta = sp.transform_to_spectral(grid, p.rho - params.rho_bar)
    h = sp.apply_lambda(theta, -1.0)
    pair = sp.helmholtz_decompose(sp.transform_to_spectral(grid, p.u))
    return NspState(h=h, c=pair.c, I=pair.I)


def to_primitive(s: NspState, params: FluidParams) -> PrimitiveState:
    grid = s.grid
    theta = s.theta()
    rho = params.rho_bar + theta.to_physical()[0]
    u = s.velocity().to_physical()
    phi = sp.poisson_solve(theta).to_physical()[0]
    return PrimitiveState(grid=grid, rho=rho, u=u, phi=phi, rho_bar=params.rho_bar)


# ---------------------------------------------------------------------------
# nonlinearities


def _masked_phys(f: SpectralField, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return f.to_physical()
    return SpectralField(f.grid, f.coef * mask).to_physical()


def _spectralize(grid: Grid, phys: np.ndarray, mask: np.ndarray | None) -> SpectralField:
    out = sp.transform_to_spectral(grid, phys)
    if mask is None:
        return out
    return SpectralField(grid, out.coef * mask)


def _dealias_mask(s: NspState, dealias: bool) -> np.ndarray | None:
    return s.grid.dealias_mask if dealias else None


def nonlinear_F(s: NspState, dealias: bool = True) -> SpectralField:
    """F = -Lambda^-1 (Lambda h * div u), the quadratic mass-transport term."""
    grid = s.grid
    mask = _dealias_mask(s, dealias)
    theta_phys = _masked_phys(s.theta(), mask)[0]
    divu_phys = _masked_phys(sp.divergence(s.velocity()), mask)[0]
    return -1.0 * sp.apply_lambda(_spectralize(grid, theta_phys * divu_phys, mask), -1.0)


def _viscous_quotient(
    theta_phys: np.ndarray, params: FluidParams, guarded: bool
) -> np.ndarray:
    den = theta_phys + params.rho_bar
    if guarded:
        den = zeta(den, params.rho_bar)
    else:
        lowest = float(np.min(den))
        if lowest < 0.5 * params.rho_bar:
            raise ValueError(
                "unguarded viscous quotient outside the admissible band: "
                f"min density {lowest:.6e} < rho_bar/2 = {0.5 * params.rho_bar:.6e}"
            )
    return theta_phys / (params.rho_bar * den)


def nonlinear_J(s: NspState, params: FluidParams, guarded: bool = True, dealias: bool = True) -> SpectralField:
    """J = u.grad u + quotient(theta) * (mu lap u + (mu+lambda) grad div u), one component at a time."""
    grid = s.grid
    xi = grid.wavenumbers
    mask = _dealias_mask(s, dealias)
    u = s.velocity()
    u_phys = _masked_phys(u, mask)
    divu = sp.divergence(u)
    quot = _viscous_quotient(s.theta().to_physical()[0], params, guarded)
    out = np.zeros((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for i in range(grid.dim):
        adv = np.zeros(grid.shape)
        for j in range(grid.dim):
            du_ij = _masked_phys(SpectralField(grid, 1j * xi[j] * u.coef[i : i + 1]), mask)[0]
            adv += u_phys[j] * du_ij
        # viscous stress: mu lap u_i + (mu + lambda) d_i div u
        visc = SpectralField(
            grid,
            (-params.mu * grid.lam_sq * u.coef[i] + (params.mu + params.lam) * 1j * xi[i] * divu.coef[0])[None],
        ).to_physical()[0]
        out[i] = (_spectralize(grid, adv, mask) + _spectralize(grid, quot * visc, mask)).coef[0]
    return SpectralField(grid, out)


def nonlinear_G(s: NspState, params: FluidParams, guarded: bool = True, dealias: bool = True) -> SpectralField:
    """G = u.grad c - Lambda^-1 div J."""
    grid = s.grid
    mask = _dealias_mask(s, dealias)
    u = s.velocity()
    u_phys = _masked_phys(u, mask)
    adv = np.zeros(grid.shape)
    for j in range(grid.dim):
        dc_j = _masked_phys(SpectralField(grid, 1j * grid.wavenumbers[j] * s.c.coef), mask)[0]
        adv += u_phys[j] * dc_j
    conv = _spectralize(grid, adv, mask)
    J = nonlinear_J(s, params, guarded=guarded, dealias=dealias)
    return conv - sp.apply_lambda(sp.divergence(J), -1.0)


def nonlinear_H(s: NspState, params: FluidParams, guarded: bool = True, dealias: bool = True) -> SpectralField:
    """H = -Lambda^-1 curl J."""
    J = nonlinear_J(s, params, guarded=guarded, dealias=dealias)
    return -1.0 * sp.apply_lambda(sp.curl(J), -1.0)


# ---------------------------------------------------------------------------
# assembled explicit right-hand side for the stepper


@dataclass
class RhsDiagnostics:
    min_density: float
    max_speed: float


class _RhsMultipliers:
    """Fourier multipliers of `explicit_rhs` for one (grid, dealias, params).

    Each is the product of the operators it stands for, so every quantity is
    one multiply of h, c, I or the forward transform away.  The stored
    fields are Nyquist-free, hence so is every product.
    """

    def __init__(self, grid: Grid, dealias: bool, params: FluidParams):
        lam = grid.lam
        inv_lam = np.zeros_like(lam)
        np.divide(1.0, lam, out=inv_lam, where=lam > 0)
        mask = grid.dealias_mask if dealias else grid.keep_mask
        self.mask = mask  # dealiasing mask; the Nyquist-free keep mask without dealiasing
        self.ixi = 1j * np.stack(grid.wavenumbers)  # 1j * xi_j, one row per axis
        self.lam = lam  # theta = Lambda h, and div u = Lambda c
        self.lam_m = lam * mask
        self.grad_lam_m = self.ixi * self.lam_m  # grad of the dealiased theta, from h
        self.visc_lap = -params.mu * grid.lam_sq  # mu lap u
        self.visc_grad = (params.mu + params.lam) * self.ixi * lam  # (mu + lambda) grad div u, from c
        self.tend_h = -inv_lam * mask  # -Lambda^-1 of the dealiased h term
        self.tend_j = -grid.riesz * mask  # rows of -Lambda^-1 div and -Lambda^-1 curl of the dealiased J
        self._projected: tuple | None = None

    def tendency(self, project_mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """`tend_h` and `tend_j`, times `project_mask` when one is given.

        The products for the last mask are kept, keyed by the identity of the
        mask array, which a stepper passes unchanged on every call.
        """
        if project_mask is None:
            return self.tend_h, self.tend_j
        if self._projected is None or self._projected[0] is not project_mask:
            self._projected = (project_mask, self.tend_h * project_mask, self.tend_j * project_mask)
        return self._projected[1], self._projected[2]


@lru_cache(maxsize=4)
def _rhs_multipliers(grid: Grid, dealias: bool, params: FluidParams) -> _RhsMultipliers:
    return _RhsMultipliers(grid, dealias, params)


def _rhs_sizes(dim: int) -> tuple[int, ...]:
    """Component counts of the quantities `explicit_rhs` transforms in one batch.

    In order: dealiased u; raw theta; dealiased theta; dealiased div u; grad
    theta; grad u as rows (i, j) -> d_j u_i; the viscous stress.
    """
    return (dim, 1, 1, 1, dim, dim * dim, dim)


def _rhs_parts(stack: np.ndarray, dim: int) -> list[np.ndarray]:
    """Views of the batched quantities in a stack of `sum(_rhs_sizes(dim))` components."""
    parts = np.split(stack, np.cumsum(_rhs_sizes(dim))[:-1])
    parts[5] = parts[5].reshape((dim, dim) + stack.shape[1:])
    return parts


def explicit_rhs(
    s: NspState,
    params: FluidParams,
    dealias: bool = True,
    project_mask: np.ndarray | None = None,
) -> tuple[SpectralField, SpectralField, SpectralField, RhsDiagnostics]:
    """Convection plus forcing tendencies for (h, c, I) in two batched transforms.

    The advection of c cancels exactly between the left-hand convection term
    and the forcing G, so the net c tendency is just -Lambda^-1 div J; the h
    tendency keeps both its convection and F.  The linear terms are handled
    by the propagator, not here.  Every spectral quantity the products need
    is one cached multiplier away from h, c or u and goes through one
    inverse transform; the h term with the J components goes through one
    forward transform.  `nonlinear_F/J/H` compute the same terms one
    component at a time through the public operators.
    """
    grid = s.grid
    dim = grid.dim
    mult = _rhs_multipliers(grid, dealias, params)
    h, c = s.h.coef[0], s.c.coef[0]
    u = s.velocity().coef

    spec = np.empty((sum(_rhs_sizes(dim)),) + grid.spectral_shape, dtype=np.complex128)
    u_m, theta_raw, theta_m, divu_m, grad_theta, grad_u, visc = _rhs_parts(spec, dim)
    np.multiply(u, mult.mask, out=u_m)
    np.multiply(mult.lam, h, out=theta_raw[0])
    np.multiply(mult.lam_m, h, out=theta_m[0])
    np.multiply(mult.lam_m, c, out=divu_m[0])
    np.multiply(mult.grad_lam_m, h, out=grad_theta)
    np.multiply(mult.ixi[None], u_m[:, None], out=grad_u)
    # viscous stress: mu lap u + (mu + lambda) grad div u
    np.multiply(mult.visc_lap, u, out=visc)
    visc += mult.visc_grad * c

    phys = sp.transform_to_physical(SpectralField(grid, spec))
    u_p, theta_raw_p, theta_p, divu_p, grad_theta_p, grad_u_p, visc_p = _rhs_parts(phys, dim)
    theta_raw_p = theta_raw_p[0]

    diag = RhsDiagnostics(
        min_density=float(np.min(theta_raw_p)) + params.rho_bar,
        max_speed=float(np.max(np.sqrt(np.sum(u_p**2, axis=0)))),
    )

    # h: -Lambda^-1(u . grad Lambda h) - Lambda^-1(Lambda h div u)
    h_term = np.sum(u_p * grad_theta_p, axis=0) + theta_p[0] * divu_p[0]
    # J = u.grad u + quotient * viscous stress, guarded quotient throughout
    quot = _viscous_quotient(theta_raw_p, params, guarded=True)
    flux = np.sum(u_p * grad_u_p, axis=1) + quot * visc_p
    out = sp.transform_to_spectral(grid, np.concatenate([h_term[None], flux])).coef

    # tendencies: -Lambda^-1 h term, -Lambda^-1 div J and -Lambda^-1 curl J, all masked
    tend_h_mult, tend_j = mult.tendency(project_mask)
    J = out[1:]
    tend_c = np.sum(tend_j * J, axis=0, keepdims=True)
    tend_I = np.stack([tend_j[j] * J[i] - tend_j[i] * J[j] for i, j in sp.antisym_pairs(dim)])
    return (
        SpectralField(grid, tend_h_mult * out[:1]),
        SpectralField(grid, tend_c),
        SpectralField(grid, tend_I),
        diag,
    )
