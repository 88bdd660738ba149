"""Time integration of the frequency-truncated system.

The stiff linear coupling of (h, c) and the heat flow of I are advanced by
exact per-mode propagators precomputed once per (grid, params, dt); only the
convection and forcing terms are treated explicitly, by second-order
exponential time differencing (ETDRK2, Cox & Matthews 2002).  The Friedrichs
cutoff J_n commutes with the per-mode linear flow, so it is a factor of the
phi-propagators, and projected states stay exactly zero off its annulus.  A
step works on (h, c, I) row stacks, the layout of `model.explicit_rhs`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import model
from .model import FluidParams, NspState
from .records import atomic_open
from .spectral import Grid, SpectralField, antisym_pairs

__all__ = [
    "FriedrichsProjector",
    "StepperConfig",
    "LinearBlock",
    "FriedrichsStepper",
    "Trajectory",
    "NumericalAbort",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
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


class LinearBlock:
    """Exact dt-propagators for the per-mode linear system, truncated by `mask`.

    On each mode the pair (h, c) obeys z' = A z with
    A = [[0, -rho_bar], [|xi|^2 + 1, -nu_c |xi|^2]] and the solenoidal part
    decays at rate nu_i |xi|^2.  A depends on |xi| alone, so the matrix
    exponential and the first two phi-functions are read off one augmented
    6x6 exponential per distinct |xi|^2 of the grid's radial table
    (`Grid.radii_sq`), which avoids cancellation at small arguments, and
    gathered onto the lattice with `Grid.radial_index` as three stacks `exp`,
    `phi1` and `phi2` of shape (2, 2, *spectral_shape), each 2x2 entry a
    contiguous per-mode array; `heat_e`, `heat_p1` and `heat_p2` are those of
    I.  The factors that multiply tendencies, `phi1`, `phi2`, `heat_p1` and
    `heat_p2`, carry the projector's `mask`: they are 0 off its annulus.
    """

    def __init__(self, grid: Grid, params: FluidParams, dt: float, mask: np.ndarray):
        q = grid.radii_sq
        A = params.pair_matrix(q)
        worst = float(np.max(np.linalg.eigvals(A[q > 0]).real, initial=-np.inf))
        if worst > 1e-12:
            raise NumericalAbort(f"linear pair block is not dissipative: max Re eig = {worst:.3e}")
        self.spectral_abscissa = worst

        eye = np.eye(2)
        aug = np.zeros((q.size, 6, 6))
        aug[:, 0:2, 0:2] = A
        aug[:, 0:2, 2:4] = eye
        aug[:, 2:4, 4:6] = eye
        big = expm(dt * aug)
        E, P1, P2 = big[:, 0:2, 0:2], big[:, 0:2, 2:4], big[:, 0:2, 4:6] / dt
        # q[0] == 0 is the zero mode, which carries no state; keep it inert
        E[0] = eye
        P1[0] = dt * eye
        P2[0] = 0.5 * dt * eye

        at = grid.radial_index
        self.exp, self.phi1, self.phi2 = (
            np.ascontiguousarray(np.moveaxis(M[at], (-2, -1), (0, 1))) for M in (E, P1, P2)
        )
        self.phi1 *= mask
        self.phi2 *= mask

        z = -params.nu_i * grid.lam_sq * dt
        self.heat_e = np.exp(z)
        self.heat_p1 = dt * _phi1(z) * mask
        self.heat_p2 = dt * _phi2(z) * mask


def _rows(x: np.ndarray) -> list[np.ndarray]:
    """The h, c and I rows of an (h, c, I) stack, as views."""
    return np.split(x, (1, 2))


def _apply(pair: np.ndarray, heat: np.ndarray, rows) -> np.ndarray:
    """One stage as a new stack: the 2x2 `pair` on (h, c), `heat` on I; `rows` keep their component axis."""
    h, c, I = rows
    out = np.empty((2 + len(I),) + I.shape[1:], dtype=np.complex128)
    for i in range(2):
        np.multiply(pair[i, 0], h, out=out[i : i + 1])
        out[i : i + 1] += pair[i, 1] * c
    np.multiply(heat, I, out=out[2:])
    return out


def _phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    series = 1.0 + z / 2.0 + z * z / 6.0
    return np.where(small, series, np.expm1(safe) / safe)


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    series = 0.5 + z / 6.0 + z * z / 24.0
    return np.where(small, series, (np.expm1(safe) - safe) / (safe * safe))


@dataclass
class StepFlags:
    min_density: float = np.inf
    max_speed: float = 0.0
    positivity_ok: bool = True
    guard_active: bool = False


@dataclass
class Trajectory:
    """Monitored samples of one run: times, monitor records, final state."""

    times: list[float] = dc_field(default_factory=list)
    records: list = dc_field(default_factory=list)
    final_state: NspState | None = None
    min_density: float = np.inf
    guard_ever_active: bool = False


class FriedrichsStepper:
    """One sequential state machine advancing a projected state by dt steps."""

    def __init__(
        self,
        grid: Grid,
        params: FluidParams,
        cfg: StepperConfig,
        linear_only: bool = False,
    ):
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
        if diag.min_density <= 0.0:
            self.flags.positivity_ok = False
        band_lo, band_hi = model.CLAMP_BAND
        if diag.min_density < band_lo * self.params.rho_bar or diag.max_density > band_hi * self.params.rho_bar:
            self.flags.guard_active = True
        return tend

    def _check_health(self, s: NspState) -> None:
        # the maxima propagate NaN and inf, so one scan per field also checks finiteness
        peak_h, peak_c = float(np.max(np.abs(s.h.coef))), float(np.max(np.abs(s.c.coef)))
        if not (np.isfinite(peak_h) and np.isfinite(peak_c) and np.isfinite(s.I.coef).all()):
            raise NumericalAbort(f"non-finite coefficients at t = {s.t:.6g}")
        drift = max(float(np.max(np.abs(f.zero_mode()))) for f in (s.h, s.c, s.I))
        scale = max(peak_h, peak_c, 1.0)
        if drift > 1e-12 * scale:
            raise NumericalAbort(f"state acquired a mean at t = {s.t:.6g} (drift {drift:.3e})")

    def _check_cfl(self, speed: float, when: str) -> None:
        if speed <= 0.0:
            return
        number = self.cfg.dt * speed / self.grid.spacing
        if number > CFL_MARGIN:
            raise NumericalAbort(
                f"convective stability violated {when}: dt*|u|/dx = {number:.3f} > {CFL_MARGIN}"
            )

    # -- stepping ------------------------------------------------------------

    def step(self, s: NspState) -> NspState:
        """One ETDRK2 step.

        A linear-only stepper has zero tendencies, so every phi-term vanishes
        and only the exact propagators remain.
        """
        blocks, t_new = self.blocks, s.t + self.cfg.dt
        x = _apply(blocks.exp, blocks.heat_e, (s.h.coef, s.c.coef, s.I.coef))
        if not self.linear_only:
            n0 = self._tendencies(s)
            x += _apply(blocks.phi1, blocks.heat_p1, _rows(n0))
            n1 = self._tendencies(self._state(x, t_new))
            n1 -= n0
            # the new state reuses n1's buffer, the last one the RHS allocated; a fresh buffer lets
            # glibc trim the heap every step (3D M=32: ~2500 minor page faults a step, not ~450)
            x = np.add(x, _apply(blocks.phi2, blocks.heat_p2, _rows(n1)), out=n1)
        out = self._state(x, t_new)
        # a non-finite or mean-carrying input gives such an output, so `prepare`
        # and the output check below cover every state of a run
        self._check_cfl(self.flags.max_speed, f"at t = {out.t:.6g}")
        self._check_health(out)
        return out

    def _state(self, x: np.ndarray, t: float) -> NspState:
        """The state whose h, c and I are views of the rows of an (h, c, I) stack."""
        return NspState(*(SpectralField(self.grid, rows) for rows in _rows(x)), t=t)

    # -- driving ---------------------------------------------------------------

    def prepare(self, s0: NspState) -> NspState:
        """The projected, checked start of a run; the run's flags start afresh."""
        self.flags = StepFlags()
        s = NspState(self.projector(s0.h), self.projector(s0.c), self.projector(s0.I), t=s0.t)
        self._check_health(s)
        if not self.linear_only:
            u_phys = s.velocity().to_physical()
            speed = float(np.max(np.sqrt(np.sum(u_phys**2, axis=0))))
            number = self.cfg.dt * speed / self.grid.spacing
            if number > CFL_MARGIN:
                raise ValueError(
                    f"initial data violates the stability bound: dt*|u|/dx = {number:.3f}"
                )
        return s

    def iterate(self, s0: NspState, stride: int = 1):
        """Yield the prepared state, every stride-th stepped state, and the final one."""
        if stride < 1:
            raise ValueError("monitor stride must be >= 1")
        s = self.prepare(s0)
        n_steps = int(round(self.cfg.t_end / self.cfg.dt)) if self.cfg.t_end > 0 else 0
        yield s
        for i in range(n_steps):
            s = self.step(s)
            if (i + 1) % stride == 0 or i + 1 == n_steps:
                yield s

    def run(self, s0: NspState, monitor=None, stride: int = 1) -> Trajectory:
        traj = Trajectory()
        for s in self.iterate(s0, stride):
            traj.times.append(s.t)
            if monitor is not None:
                traj.records.append(monitor(s, self.flags))
        traj.final_state = s
        traj.min_density = self.flags.min_density
        traj.guard_ever_active = self.flags.guard_active
        return traj


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"NSPCHK2"
_FULL_LATTICE_MAGIC = b"NSPCHK1"  # the earlier layout: full-lattice payload
_HEADER = struct.Struct("<7sqqdddddd")  # magic, N, M, L, n, t, mu, lambda, rho_bar


def save_checkpoint(path, s: NspState, params: FluidParams, n: float) -> None:
    """Header, then the half-lattice coefficients of h, c and I as little-endian complex128."""
    grid = s.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        grid.dim,
        grid.size,
        grid.length,
        float(n),
        s.t,
        params.mu,
        params.lam,
        params.rho_bar,
    )
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        for field_ in (s.h, s.c, s.I):
            fh.write(np.ascontiguousarray(field_.coef, dtype="<c16").tobytes())


def load_checkpoint(path) -> tuple[NspState, FluidParams, float]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated checkpoint header in {path}")
    magic, dim, size, length, n, t, mu, lam, rho_bar = _HEADER.unpack_from(raw)
    if magic == _FULL_LATTICE_MAGIC:
        raise ValueError(
            f"checkpoint {path} has magic {magic!r}, the full-lattice layout; "
            f"this version reads only {CHECKPOINT_MAGIC!r}, the half-lattice (rfftn) layout"
        )
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r} in {path}")
    header = {"L": length, "n": n, "t": t, "mu": mu, "lambda": lam, "rho_bar": rho_bar}
    bad = [name for name, value in header.items() if not np.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite checkpoint header value(s) {', '.join(bad)} in {path}")
    if not n > 1.0:
        raise ValueError(f"checkpoint truncation parameter must exceed 1, got n = {n} in {path}")
    grid = Grid(dim=int(dim), size=int(size), length=length)
    params = FluidParams(mu=mu, lam=lam, rho_bar=rho_bar, dim=int(dim))

    shapes = [(ncomp,) + grid.spectral_shape for ncomp in (1, 1, len(antisym_pairs(grid.dim)))]
    counts = [int(np.prod(shape)) for shape in shapes]
    payload = len(raw) - _HEADER.size
    expected = 16 * sum(counts)
    if payload < expected:
        raise ValueError(f"truncated checkpoint payload in {path}")
    if payload > expected:
        raise ValueError(f"{payload - expected} trailing bytes after the checkpoint payload in {path}")
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).astype(np.complex128)
    parts = np.split(data, np.cumsum(counts)[:-1])
    h, c, I = (SpectralField(grid, part.reshape(shape)) for part, shape in zip(parts, shapes))
    return NspState(h=h, c=c, I=I, t=t), params, n
