"""Analysis only the checks read: a field-by-field state builder, spectral operators, energy budget,
shell-form sandwich, smoothing integral.

No solver or driver path forms these; the tests and `make_fixtures.py` measure the package with them.
"""

from __future__ import annotations

import numpy as np

from nspbox import energy, spectral as sp
from nspbox.energy import EnergyReport
from nspbox.model import FluidParams, NspState
from nspbox.spectral import Grid, SpectralField, antisym_pairs, l2_norm

__all__ = [
    "state_of",
    "inner",
    "gradient",
    "divergence",
    "curl",
    "laplacian",
    "poisson_solve",
    "physical_energy",
    "dissipation",
    "equivalence_bounds",
    "smoothing_integral",
]


def state_of(h: SpectralField, c: SpectralField, I: SpectralField, t: float = 0.0) -> NspState:
    """The state whose (h, c, I) stack is a copy of the three fields' rows."""
    return NspState(SpectralField(h.grid, np.concatenate([h.coef, c.coef, I.coef])), t)


def inner(f: SpectralField, g: SpectralField) -> float:
    """Volume-normalized L2 inner product of real fields."""
    return float(np.sum(f.grid.hermitian_weight * (f.coef * np.conj(g.coef)).real))


def gradient(f: SpectralField) -> SpectralField:
    if not f.is_scalar:
        raise ValueError("gradient expects a scalar field")
    return SpectralField(f.grid, np.stack([1j * xi * f.coef[0] for xi in f.grid.wavenumbers]))


def divergence(u: SpectralField) -> SpectralField:
    grid = u.grid
    if u.ncomp != grid.dim:
        raise ValueError("divergence expects a velocity field")
    coef = sum(1j * xi * u.coef[i] for i, xi in enumerate(grid.wavenumbers))
    return SpectralField(grid, coef[None])


def curl(u: SpectralField) -> SpectralField:
    """Antisymmetric curl with components (curl u)_{ij} = d_j u_i - d_i u_j, i < j."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise ValueError("curl expects a velocity field")
    xi = grid.wavenumbers
    comps = [1j * (xi[j] * u.coef[i] - xi[i] * u.coef[j]) for i, j in antisym_pairs(grid.dim)]
    return SpectralField(grid, np.stack(comps))


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coef * -f.grid.lam_sq)


def poisson_solve(theta: SpectralField) -> SpectralField:
    """Solve laplacian(phi) = theta for a mean-free scalar source."""
    if not theta.is_scalar:
        raise ValueError("Poisson source must be scalar")
    sp._require_mean_free(theta, "Poisson source (charge imbalance)")
    lam_sq = theta.grid.lam_sq
    mult = np.zeros_like(lam_sq)
    np.divide(-1.0, lam_sq, out=mult, where=lam_sq > 0)
    return SpectralField(theta.grid, theta.coef * mult)


def physical_energy(s: NspState, params: FluidParams) -> float:
    """1/2 <rho |u|^2> + 1/2 ||theta||^2 + 1/2 ||h||^2, volume-normalized.

    Kinetic, pressure (the quadratic law) and electrostatic energy: along the
    fluid equations its rate is minus `dissipation`.  The mean of the cubic
    kinetic term is exact when the state's wavenumbers stay below size/3 on
    every axis, so no triple product aliases onto the zero mode.
    """
    theta = s.theta()
    rho = params.rho_bar + theta.to_physical()[0]
    u = s.velocity().to_physical()
    kinetic = np.mean(rho * np.sum(u * u, axis=0))
    return 0.5 * (kinetic + l2_norm(theta) ** 2 + l2_norm(s.h) ** 2)


def dissipation(s: NspState, params: FluidParams) -> float:
    """mu ||grad u||^2 + (mu + lambda) ||div u||^2, the viscous loss of `physical_energy`."""
    u = s.velocity()
    grad_sq = l2_norm(SpectralField(s.grid, u.coef * s.grid.lam)) ** 2
    return params.mu * grad_sq + (params.mu + params.lam) * l2_norm(divergence(u)) ** 2


def equivalence_bounds(grid: Grid, k: int, params: FluidParams, weights=None) -> tuple[float, float]:
    """(c1, c2) with c1 alpha_k^2 <= z* B z <= c2 alpha_k^2 on every lattice |xi| of shell k.

    B is diagonal: the squared block norms, (1 + |xi|^2, 1) for k <= 0 and
    (|xi| + |xi|^3 + |xi|^5, |xi|) above, or the constant (h, c) `weights`.
    The constants are the extreme generalized eigenvalues of B against the
    energy form P of `energy._form_matrices`.
    """
    lams = energy._shell_lams(grid, k)
    if lams.size == 0:
        raise ValueError(f"shell {k} contains no lattice modes")
    P = energy._form_matrices(lams, k, energy.compute_constants(params), params)
    if weights is None:
        weights = (1.0 + lams**2, np.ones_like(lams)) if k <= 0 else (lams + lams**3 + lams**5, lams)
    B = np.zeros_like(P)
    B[:, 0, 0], B[:, 1, 1] = weights
    vals = energy._generalized_eigvalsh(B, P)
    return float(vals[:, 0].min()), float(vals[:, -1].max())


def smoothing_integral(reports: list[EnergyReport], reg_index: float) -> float:
    """Trapezoidal integral of sum_{k>0} 2^{k(s+3/2)} ||c_k|| along the run."""
    times = np.array([r.t for r in reports])
    vals = np.array([sum(2.0 ** (k * (reg_index + 1.5)) * c for k, c in zip(r.ks, r.norm_c) if k > 0) for r in reports])
    return float(np.trapezoid(vals, times))
