"""Time integration of the frequency-truncated system.

The stiff linear coupling of (h, c) and the heat flow of I are advanced by
exact per-mode propagators precomputed once per (grid, params, dt), each
block's exp, phi1 and phi2 from one augmented matrix exponential per distinct
|xi|^2 (the heat block is the 1x1 case of the pair's 2x2); only the
convection and forcing terms are treated explicitly, by second-order
exponential time differencing (ETDRK2, Cox & Matthews 2002).  The Friedrichs
cutoff J_n commutes with the per-mode linear flow, so it is a factor of the
phi-propagators, and projected states stay exactly zero off its annulus.  A
step works on (h, c, I) row stacks: the state itself, `NspState.x`, on the
half lattice, the tendencies of `model.explicit_rhs` and their phi-stages
on the two-thirds-rule band, which `Grid.add_band` adds into the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from . import model
from .model import FluidParams, NspState
from .spectral import Grid, SpectralField

__all__ = [
    "FriedrichsProjector",
    "StepperConfig",
    "LinearBlock",
    "FriedrichsStepper",
    "Trajectory",
    "NumericalAbort",
    "CFL_MARGIN",
]

# largest admissible convective number dt*|u|/dx
CFL_MARGIN = 0.9


class NumericalAbort(RuntimeError):
    """Raised when the integration produces non-finite data or breaks stability."""


@dataclass(frozen=True)
class FriedrichsProjector:
    """Sharp spectral cutoff onto the annulus 1/n <= |xi| <= n."""

    grid: Grid
    n: float

    def __post_init__(self) -> None:
        if not (self.n > 1.0):
            raise ValueError(f"truncation parameter must exceed 1, got {self.n}")

    @cached_property
    def mask(self) -> np.ndarray:
        lam = self.grid.lam
        inside = (lam >= 1.0 / self.n) & (lam <= self.n)
        return np.where(inside, 1.0, 0.0)

    def __call__(self, f: SpectralField) -> SpectralField:
        return SpectralField(f.grid, f.coef * self.mask)


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    n: float
    t_end: float

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (np.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(steps, 1.0)):
            raise ValueError(f"t_end must be a whole number of steps, got t_end / dt = {steps!r}")


class LinearBlock:
    """Exact dt-propagators for the per-mode linear system, truncated by `mask`.

    On each mode the pair (h, c) obeys z' = A z with
    A = [[0, -rho_bar], [|xi|^2 + 1, -nu_c |xi|^2]] and I obeys the heat flow
    I' = -nu_i |xi|^2 I, a 1x1 generator.  Both depend on |xi| alone, so each
    block's exponential and first two phi-functions are read off one augmented
    exponential (`_phi_table`: 6x6 for the pair, 3x3 for the heat) per
    distinct |xi|^2 of the grid's radial table (`Grid.radii_sq`) and gathered
    with `Grid.radial_index`: the state's factors `exp`, of shape (2, 2,
    *spectral_shape), and `heat_e` onto the half lattice, the tendencies'
    factors `phi1` and `phi2`, of shape (2, 2, *band_shape), and `heat_p1`
    and `heat_p2` onto the band, where `model.explicit_rhs` returns the
    tendencies.  Each 2x2 entry is a contiguous per-mode array.  The
    tendencies' factors carry the projector's `mask`: they are 0 off its
    annulus.
    """

    def __init__(self, grid: Grid, params: FluidParams, dt: float, mask: np.ndarray):
        q = grid.radii_sq
        band = grid.to_band(grid.radial_index)
        at = (grid.radial_index, band, band)  # exp on the half lattice, phi1 and phi2 on the band
        pair = _phi_table(params.pair_matrix(q), dt)
        self.exp, self.phi1, self.phi2 = (
            np.ascontiguousarray(np.moveaxis(M[i], (-2, -1), (0, 1))) for M, i in zip(pair, at)
        )
        heat = _phi_table(-params.nu_i * q[:, None, None], dt)
        self.heat_e, self.heat_p1, self.heat_p2 = (M[:, 0, 0][i] for M, i in zip(heat, at))
        band_mask = grid.to_band(mask)
        for stack in (self.phi1, self.phi2, self.heat_p1, self.heat_p2):
            stack *= band_mask


def _phi_table(gen: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(dt G), dt phi1(dt G) and dt phi2(dt G) of an (R, k, k) stack G over `Grid.radii_sq`.

    All three are read off one augmented (3k, 3k) exponential per radius, one
    `expm` batch, which avoids cancellation at small arguments.  Row 0 is the
    zero mode, which carries no state; it is kept inert.
    """
    k = gen.shape[-1]
    eye = np.eye(k)
    aug = np.zeros((len(gen), 3 * k, 3 * k))
    aug[:, :k, :k] = gen
    aug[:, :k, k : 2 * k] = eye
    aug[:, k : 2 * k, 2 * k :] = eye
    big = expm(dt * aug)
    E, P1, P2 = big[:, :k, :k], big[:, :k, k : 2 * k], big[:, :k, 2 * k :] / dt
    E[0], P1[0], P2[0] = eye, dt * eye, 0.5 * dt * eye
    return E, P1, P2


# [13/13] Pade numerator coefficients b_0..b_13, and the 1-norm up to which the
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponentials of an (..., n, n) stack by Pade-13 scaling and squaring.

    Each matrix is scaled by 2^-s, with s the least power that brings its
    1-norm to `_THETA13` or below, and its [13/13] Pade approximant is squared
    s times (Higham 2005).  Every matrix goes through the same operations
    whatever stack it is in, so a stack's results equal one-at-a-time calls.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a / (2.0**s)[..., None, None]
    b, eye = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(np.max(s, initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _apply(pair: np.ndarray, heat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One stage as a new stack: the 2x2 `pair` on the (h, c) rows of the state stack `x`, `heat` on its I rows.

    The pair's second products pass through the first I row before `heat` writes it.
    """
    out = np.empty(x.shape, dtype=np.complex128)
    for i in range(2):
        np.multiply(pair[i, 0], x[:1], out=out[i : i + 1])
        np.multiply(pair[i, 1], x[1:2], out=out[2:3])
        out[i : i + 1] += out[2:3]
    np.multiply(heat, x[2:], out=out[2:])
    return out


@dataclass
class StepFlags:
    """A run's health: its minimum density over all RHS calls, the last call's peak speed, the clamp's use.

    `min_density` starts at +inf and only falls, so `min_density > 0` is the run's positivity.
    """

    min_density: float = np.inf
    max_speed: float = 0.0
    guard_active: bool = False


@dataclass
class Trajectory:
    """Monitored samples of one run: monitor records, final state and the run's flags."""

    records: list = dc_field(default_factory=list)
    final_state: NspState | None = None
    flags: StepFlags | None = None


class FriedrichsStepper:
    """One sequential state machine advancing a projected state by dt steps."""

    def __init__(
        self,
        grid: Grid,
        params: FluidParams,
        cfg: StepperConfig,
        linear_only: bool = False,
    ):
        if params.dim != grid.dim:
            raise ValueError(f"fluid parameters are for dimension {params.dim}, the grid has {grid.dim}")
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self.linear_only = linear_only
        self.projector = FriedrichsProjector(grid, cfg.n)
        self.blocks = LinearBlock(grid, params, cfg.dt, self.projector.mask)
        self.flags = StepFlags()

    # -- explicit tendencies ------------------------------------------------

    def _tendencies(self, s: NspState) -> np.ndarray:
        tend, diag = model.explicit_rhs(s, self.params)
        self.flags.min_density = min(self.flags.min_density, diag.min_density)
        self.flags.max_speed = diag.max_speed
        band_lo, band_hi = model.CLAMP_BAND
        if diag.min_density < band_lo * self.params.rho_bar or diag.max_density > band_hi * self.params.rho_bar:
            self.flags.guard_active = True
        return tend

    def _check_health(self, s: NspState) -> None:
        # the peak of |h|^2 and |c|^2 propagates NaN and inf, so one pass of squared
        # magnitudes also checks h and c for finiteness; I is checked on its float view
        hc, I = s.x.coef[:2], s.x.coef[2:]
        peak_sq = float(np.max(hc.real**2 + hc.imag**2))
        if not (np.isfinite(peak_sq) and np.isfinite(I.view(np.float64)).all()):
            raise NumericalAbort(f"non-finite coefficients at t = {s.t:.6g}")
        drift = float(np.max(np.abs(s.x.zero_mode())))
        scale = max(np.sqrt(peak_sq), 1.0)
        if drift > 1e-12 * scale:
            raise NumericalAbort(f"state acquired a mean at t = {s.t:.6g} (drift {drift:.3e})")

    def _check_cfl(self, speed: float, error: type[Exception], what: str) -> None:
        """Raise `error` when the convective number dt*|u|/dx exceeds `CFL_MARGIN`."""
        number = self.cfg.dt * speed / self.grid.spacing
        if number > CFL_MARGIN:
            raise error(f"{what}: dt*|u|/dx = {number:.3f} > {CFL_MARGIN}")

    # -- stepping ------------------------------------------------------------

    def step(self, s: NspState) -> NspState:
        """One ETDRK2 step.

        A linear-only stepper has zero tendencies, so every phi-term vanishes
        and only the exact propagators remain.
        """
        blocks, t_new = self.blocks, s.t + self.cfg.dt
        # every term of a step is zero on the Nyquist planes (the inputs and the tendencies are), so `out` skips the scan
        x = _apply(blocks.exp, blocks.heat_e, s.x.coef)
        out = NspState(SpectralField.nyquist_free(self.grid, x), t_new)
        if not self.linear_only:
            n0 = self._tendencies(s)
            self.grid.add_band(x, _apply(blocks.phi1, blocks.heat_p1, n0))
            # `out` is the mid-stage state here: the RHS call reads it before `add_band` writes x again
            n1 = self._tendencies(out)
            n1 -= n0
            self.grid.add_band(x, _apply(blocks.phi2, blocks.heat_p2, n1))
        # a non-finite or mean-carrying input gives such an output, so `prepare`
        # and the output check below cover every state of a run
        self._check_cfl(self.flags.max_speed, NumericalAbort, f"convective stability violated at t = {out.t:.6g}")
        self._check_health(out)
        return out

    # -- driving ---------------------------------------------------------------

    def prepare(self, s0: NspState) -> NspState:
        """The projected, checked start of a run; the run's flags start afresh."""
        self.flags = StepFlags()
        s = NspState(self.projector(s0.x), s0.t)
        self._check_health(s)
        if not self.linear_only:
            u_phys = s.velocity().to_physical()
            speed = float(np.max(np.sqrt(np.sum(u_phys**2, axis=0))))
            self._check_cfl(speed, ValueError, "initial data violates the stability bound")
        return s

    def iterate(self, s0: NspState, stride: int = 1):
        """Yield the prepared state, every stride-th stepped state, and the final one."""
        if stride < 1:
            raise ValueError("monitor stride must be >= 1")
        s = self.prepare(s0)
        del s0  # `prepare` projected it into a fresh stack
        n_steps = round(self.cfg.t_end / self.cfg.dt)
        yield s
        for i in range(n_steps):
            s = self.step(s)
            if (i + 1) % stride == 0 or i + 1 == n_steps:
                yield s

    def run(self, s0: NspState, monitor=None, stride: int = 1) -> Trajectory:
        traj = Trajectory()
        states = self.iterate(s0, stride)
        del s0  # held by `iterate` alone, which drops it once prepared
        for s in states:
            if monitor is not None:
                traj.records.append(monitor(s, self.flags))
        traj.final_state = s
        traj.flags = self.flags
        return traj

