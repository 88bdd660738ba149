"""Frequency-localized energy functionals and their trajectory diagnostics.

Each dyadic shell carries a quadratic form alpha_k^2 mixing the density
variable h and the gradient-part velocity c with a carefully signed cross
term; with the constants chosen below the form is positive semidefinite and
its decay rate along the linear flow is bounded below by min(2^{2k}, 1)
times a positive constant.  `_form_matrices` defines the form per |xi|; the
bounds read it, and alpha_k^2 sums it against z = (h, c) under the squared
shell mask (`_shell_forms`).  A `ShellEnergy` keeps a shell's alpha_k^2 and
its h and c block norms, nothing else.

The monitor evaluates the mixed norm E(h, u, t), the convection weight V(t)
and the primitive-variable norm along runs, all from one table of hybrid
norms (`_norm_table`): each row names a shell spectrum (h, c, I, u,
theta = Lambda h or phi = -Lambda^-1 h) and an index (s, t).  A sample takes
one spectrum per field from one set of radial powers (`state_powers`; u from
an identity of 2-forms, not recomposed), reduces each row with a weight
vector built once per grid, and folds the sup rows into running maxima and
the integrand rows into trapezoidal integrals.  The damping and smoothing
margins the acceptance suite checks are computed post hoc from the
monitor's reports (`damping_margins`, `fit_damping_constant`,
`smoothing_integral`); the two damping fits read one (steps, shells) table
of consecutive alpha pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import lp
from .model import FluidParams, NspState
from .spectral import Grid, antisym_pairs

__all__ = [
    "EstimateConstants",
    "ShellEnergy",
    "EnergyReport",
    "EnergyMonitor",
    "GlobalBoundVerdict",
    "compute_constants",
    "feasibility_margins",
    "state_powers",
    "all_shell_energies",
    "equivalence_bounds",
    "display_equivalence_bounds",
    "linear_decay_rate_bound",
    "fit_damping_constant",
    "damping_margins",
    "envelopes_nonincreasing",
    "smoothing_integral",
    "accumulate_v",
    "global_bound_check",
    "convection_weighted",
    "initial_energy",
    "e0_indices",
    "ALPHA_FLOOR",
]

# Shells with alpha below this are treated as empty by the fitting helpers.
ALPHA_FLOOR = 1e-14


@dataclass(frozen=True)
class EstimateConstants:
    """Coupling constants of the shell energies and the global-bound factors.

    K1, M1, M2 drive the low-frequency form, K2, M3 the high-frequency one.
    A and c_tilde parameterize the small-data bound threshold
    A * c_tilde * E(0).
    """

    K1: float
    M1: float
    M2: float
    K2: float
    M3: float
    A: float
    c_tilde: float


def compute_constants(params: FluidParams, A: float = 16.0, c_tilde: float = 1.0) -> EstimateConstants:
    """Closed-form admissible constants for the given fluid parameters."""
    rho, beta = params.rho_bar, params.beta
    consts = EstimateConstants(
        K1=min(rho * beta / (rho**3 + 2.0 * beta**2), 1.0 / (8.0 * np.sqrt(rho))),
        M1=1.0 / (4.0 * np.sqrt(rho)),
        M2=5.0 * rho / (16.0 * beta),
        K2=beta / (4.0 * rho**2),
        M3=beta / (2.0 * rho**2),
        A=A,
        c_tilde=c_tilde,
    )
    margins = feasibility_margins(params, consts)
    bad = {name: m for name, m in margins.items() if not m > 0}
    if bad:
        raise ValueError(f"infeasible constant selection for {params}: {bad}")
    return consts


def feasibility_margins(params: FluidParams, consts: EstimateConstants) -> dict[str, float]:
    """Margins (must all be positive) of the admissibility conditions.

    The upper bound on M1 is 3/(8 sqrt(rho_bar)): together with K1 < M1 it
    gives 64 K1 M1 / 9 < 1/rho_bar, which is exactly what positive
    definiteness of the low-frequency form needs.
    """
    rho, beta = params.rho_bar, params.beta
    return {
        "low_c_coefficient": 73.0 / 64.0 - (32.0 / 9.0) * consts.M2 * beta / rho,
        "cross_vs_M1": consts.M1 - consts.K1,
        "M1_ceiling": 3.0 / (8.0 * np.sqrt(rho)) - consts.M1,
        "low_dissipation": beta - rho**2 * consts.K1 - beta * consts.K1 / (2.0 * consts.M2),
        "high_cross": consts.M3 - consts.K2,
        "high_ceiling": beta / rho**2 - consts.M3,
        "high_positive": consts.K2,
    }


# ---------------------------------------------------------------------------
# per-shell quadratic forms


def _form_matrices(lam: np.ndarray, k: int, consts: EstimateConstants, params: FluidParams):
    """Per-|xi| matrices of alpha_k^2 (P) and the squared-block-norm sum (B), each (n, 2, 2)."""
    rho, beta = params.rho_bar, params.beta
    zero, one = np.zeros_like(lam), np.ones_like(lam)
    if k <= 0:
        q = lam**2
        P = [[(1.0 + q) / rho, -consts.K1 * q], [-consts.K1 * q, one]]
        B = [[1.0 + q, zero], [zero, one]]
    else:
        l1, l3, l5 = lam, lam**3, lam**5
        hh = (l1 + l3) / rho + beta * consts.K2 / rho**2 * l5
        P = [[hh, -consts.K2 * l3], [-consts.K2 * l3, l1]]
        B = [[l1 + l3 + l5, zero], [zero, l1]]
    return np.moveaxis(np.array(P), -1, 0), np.moveaxis(np.array(B), -1, 0)


def _generalized_eigvalsh(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues w of a x = w b x for stacks of symmetric a and positive definite b.

    The Cholesky reduction of LAPACK sygv: with b = L L^T, the eigenvalues
    of L^-1 a L^-T.
    """
    inv_l = np.linalg.inv(np.linalg.cholesky(b))
    return np.linalg.eigvalsh(inv_l @ a @ np.swapaxes(inv_l, -1, -2))


@dataclass
class ShellEnergy:
    """One shell's energy value and the block norms feeding it."""

    k: int
    alpha_sq: float
    norm_h: float
    norm_c: float


def state_powers(s: NspState) -> np.ndarray:
    """Radial powers of h, c, Re h c*, I and u: the rows of a (5, `Grid.radii`) array.

    u is not recomposed.  For xi != 0, u = -i n c - i n.I with n = xi/|xi|; n.I is orthogonal to n
    and |n.I|^2 + |n^I|^2 = |I|^2 for any 2-form I, in the curl image or not, so mode by mode
    |u|^2 = |c|^2 + |I|^2 - sum_{i<j<k} |n_i I_jk - n_j I_ik + n_k I_ij|^2, whose terms are formed
    with `Grid.riesz` = i n (same modulus).  At xi = 0, u is 0.
    """
    grid, riesz = s.grid, s.grid.riesz
    pair = dict(zip(antisym_pairs(grid.dim), s.I.coef))
    power_c, power_I = lp.mode_power(s.c.coef), lp.mode_power(s.I.coef)
    power_u = power_c + power_I
    for i, j, k in combinations(range(grid.dim), 3):
        power_u -= lp.mode_power([riesz[i] * pair[j, k] - riesz[j] * pair[i, k] + riesz[k] * pair[i, j]])
    cross = (s.h.coef[0] * np.conj(s.c.coef[0])).real
    powers = np.array([grid.radial_sum(p) for p in (lp.mode_power(s.h.coef), power_c, cross, power_I, power_u)])
    powers[4, 0] = 0.0
    return powers


def _shell_forms(grid: Grid, consts: EstimateConstants, params: FluidParams) -> np.ndarray:
    """alpha_k^2 as a (shells, 3 * radii) matrix against the flattened h, c and cross rows of `state_powers`.

    Row k is the squared mask of shell k times (P_hh, P_cc, P_hc + P_ch) of `_form_matrices` per radius.
    """
    filters = lp.shell_filters(grid)
    rows = []
    for k, mask in zip(filters.ks, filters.radial_masks):
        P, _ = _form_matrices(grid.radii, k, consts, params)
        rows.append((mask**2 * np.array([P[:, 0, 0], P[:, 1, 1], P[:, 0, 1] + P[:, 1, 0]])).ravel())
    return np.array(rows)


def _shell_energies(forms: np.ndarray, powers: np.ndarray, spec_h: lp.DyadicSpectrum, spec_c: lp.DyadicSpectrum):
    """Every shell's `ShellEnergy`: alpha_k^2 from the `_shell_forms` matrix, block norms from the caller's spectra."""
    alpha_sq = forms @ powers[:3].ravel()
    rows = zip(spec_h.ks, alpha_sq, spec_h.block_norms, spec_c.block_norms)
    return [ShellEnergy(int(k), float(a), float(nh), float(nc)) for k, a, nh, nc in rows]


def all_shell_energies(s: NspState, consts: EstimateConstants, params: FluidParams) -> list[ShellEnergy]:
    powers = state_powers(s)
    spec_h, spec_c = map(lp.shell_filters(s.grid).spectrum, powers[:2])
    return _shell_energies(_shell_forms(s.grid, consts, params), powers, spec_h, spec_c)


def _shell_lams(grid: Grid, k: int) -> np.ndarray:
    """The nonzero distinct |xi| that shell k touches."""
    filters = lp.shell_filters(grid)
    if not filters.k_min <= k <= filters.k_max:
        return np.empty(0)
    r = grid.radii
    return r[(filters.radial_masks[k - filters.k_min] > 0) & (r > 0)]


def equivalence_bounds(grid: Grid, k: int, consts: EstimateConstants, params: FluidParams) -> tuple[float, float]:
    """(c1, c2) with c1 * alpha_k^2 <= sum of squared block norms <= c2 * alpha_k^2.

    Computed as extreme generalized eigenvalues of the two per-mode forms
    over the lattice wavenumbers the shell actually contains.
    """
    lams = _shell_lams(grid, k)
    if lams.size == 0:
        raise ValueError(f"shell {k} contains no lattice modes")
    P, B = _form_matrices(lams, k, consts, params)
    vals = _generalized_eigvalsh(B, P)
    return float(vals[:, 0].min()), float(vals[:, -1].max())


def display_equivalence_bounds(grid: Grid, k: int, consts: EstimateConstants, params: FluidParams) -> tuple[float, float]:
    """Sandwich constants against the shell-constant weights max(1, 2^{5k}) and max(1, 2^k).

    These are the squared versions of the first-power weights appearing in
    the summed norm displays.
    """
    lams = _shell_lams(grid, k)
    if lams.size == 0:
        raise ValueError(f"shell {k} contains no lattice modes")
    P, _ = _form_matrices(lams, k, consts, params)
    D = np.diag([max(1.0, 2.0 ** (5 * k)), max(1.0, 2.0**k)])
    vals = _generalized_eigvalsh(np.broadcast_to(D, P.shape), P)
    return float(vals[:, 0].min()), float(vals[:, -1].max())


def linear_decay_rate_bound(grid: Grid, consts: EstimateConstants, params: FluidParams) -> float:
    """Largest c with d/dt alpha_k^2 <= -2 c min(2^{2k}, 1) alpha_k^2 on the linear flow.

    Per mode this is a generalized eigenvalue problem between the Lyapunov
    derivative of the energy form along z' = A z and the form itself.
    """
    best = np.inf
    for k in lp.shell_filters(grid).ks:
        lams = _shell_lams(grid, k)
        if lams.size == 0:
            continue
        m = min(2.0 ** (2 * k), 1.0)
        P, _ = _form_matrices(lams, k, consts, params)
        A = params.pair_matrix(lams**2)
        lyap = np.swapaxes(A, -1, -2) @ P + P @ A
        # rate = -sup_x (x' lyap x) / (2 m x' P x)
        best = min(best, -float(_generalized_eigvalsh(lyap, 2.0 * m * P)[:, -1].max()))
    return float(best)


# ---------------------------------------------------------------------------
# trajectory-level reports


@dataclass
class EnergyReport:
    """Snapshot of every monitored norm at one instant."""

    t: float
    shells: list[ShellEnergy]
    hybrid_h: float
    hybrid_c: float
    hybrid_I: float
    hybrid_u: float
    besov_u_high: float
    v_accum: float
    e_value: float
    e_ratio: float
    prim_norm: float
    prim_ratio: float


@dataclass
class GlobalBoundVerdict:
    passed: bool
    max_ratio: float
    threshold_ratio: float


def e0_indices(dim: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """The hybrid indices of h and u in E(0): (N/2 - 3/2, N/2 + 1) and (N/2 - 3/2, N/2 - 1)."""
    n2 = 0.5 * dim
    return (n2 - 1.5, n2 + 1.0), (n2 - 1.5, n2 - 1.0)


def initial_energy(s: NspState) -> float:
    """E(0): hybrid norm of h at the sup indices plus that of u, from `state_powers`."""
    idx_h, idx_u = e0_indices(s.grid.dim)
    spec_h, spec_u = map(lp.shell_filters(s.grid).spectrum, state_powers(s)[[0, 4]])
    return spec_h.hybrid(idx_h) + spec_u.hybrid(idx_u)


def _norm_table(dim: int) -> tuple[tuple[str, tuple[float, float]], ...]:
    """The monitor's hybrid norms as (spectrum, (s, t)) rows, sup terms first, then the integrands.

    Rows 0-3 are the sup terms of h, u, theta and phi; rows 4-5 are c and I at u's index, reported
    only; rows 6-10 are the integrands of h, u, u at (N/2 + 1, N/2 + 1) (that of V), theta and phi.
    """
    n2 = 0.5 * dim
    idx_h, idx_u = e0_indices(dim)
    return (
        ("h", idx_h), ("u", idx_u), ("theta", (n2 - 2.5, n2)), ("phi", (n2 - 0.5, n2 + 2.0)),
        ("c", idx_u), ("I", idx_u),
        ("h", (n2 + 0.5, n2 + 1.0)), ("u", (n2 + 0.5, n2 + 1.0)), ("u", (n2 + 1.0, n2 + 1.0)),
        ("theta", (n2 - 0.5, n2)), ("phi", (n2 + 1.5, n2 + 2.0)),
    )


class EnergyMonitor:
    """Stateful per-run monitor; call it with successive states.

    Each row of `_norm_table` is one dot product of its weights with its spectrum's block norms.
    Running maxima of the sup rows (h, u, theta, phi) and trapezoidal integrals of the integrand
    rows (h, u, u-high, theta, phi) discretize E(h, u, t), V(t) and the primitive norm on the sample
    times; E and the primitive norm read the same u entries.  `_build` sets up the weights, the shell
    forms, the shell filters and 1/|xi|^2 once per grid.
    """

    def __init__(self, params: FluidParams, consts: EstimateConstants | None = None):
        self.params = params
        self.consts = consts if consts is not None else compute_constants(params)
        self.e0: float | None = None
        self._grid: Grid | None = None  # the grid of the last `_build`
        self._sup, self._integral = np.zeros(4), np.zeros(5)
        self._t = self._integrand = None  # time and integrands of the last sample

    def _build(self, grid: Grid) -> None:
        self._filters, r_sq = lp.shell_filters(grid), grid.radii_sq
        ks = np.arange(self._filters.k_min, self._filters.k_max + 1)
        self._grid, self._forms = grid, _shell_forms(grid, self.consts, self.params)
        self._weights = [(name, lp.hybrid_weights(ks, idx)) for name, idx in _norm_table(grid.dim)]
        self._inv_r_sq = np.divide(1.0, r_sq, out=np.zeros_like(r_sq), where=r_sq > 0)

    def __call__(self, s: NspState, flags=None) -> EnergyReport:
        if s.grid != self._grid:
            self._build(s.grid)
        # one pass over the half lattice gives every radial power, u without recomposition; theta =
        # Lambda h and phi = -Lambda^-1 h reuse that of h
        power_h, power_c, _, power_I, power_u = powers = state_powers(s)
        fields = (power_h, power_c, power_I, power_u, s.grid.radii_sq * power_h, self._inv_r_sq * power_h)
        spectra = dict(zip(("h", "c", "I", "u", "theta", "phi"), map(self._filters.spectrum, fields)))
        norms = np.array([w @ spectra[name].block_norms for name, w in self._weights])
        sup_now, integrand = norms[:4], norms[6:]

        if self._t is None:
            self.e0 = sup_now[0] + sup_now[1]
        else:
            dt = s.t - self._t
            if dt < 0:
                raise ValueError("monitor called with decreasing time")
            self._integral += 0.5 * dt * (self._integrand + integrand)
        self._sup = np.maximum(self._sup, sup_now)
        self._t, self._integrand = s.t, integrand

        sup, integral = self._sup, self._integral
        e_value = sup[0] + sup[1] + integral[0] + integral[1]
        e_ratio = e_value / self.e0 if self.e0 and self.e0 > 0 else 0.0
        # theta, u, phi: the summation order of the primitive norm's terms
        prim_norm = float(np.sum(sup[[2, 1, 3]]) + np.sum(integral[[3, 1, 4]]))
        prim_ratio = prim_norm / self.e0 if self.e0 and self.e0 > 0 else 0.0
        return EnergyReport(
            t=s.t,
            shells=_shell_energies(self._forms, powers, spectra["h"], spectra["c"]),
            hybrid_h=norms[0],
            hybrid_c=norms[4],
            hybrid_I=norms[5],
            hybrid_u=norms[1],
            besov_u_high=norms[8],
            v_accum=integral[2],
            e_value=e_value,
            e_ratio=e_ratio,
            prim_norm=prim_norm,
            prim_ratio=prim_ratio,
        )


# ---------------------------------------------------------------------------
# post-processing of report series


def _alpha_matrix(reports: list[EnergyReport]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    times = np.array([r.t for r in reports])
    ks = np.array([sh.k for sh in reports[0].shells])
    alphas = np.sqrt(np.maximum(np.array([[sh.alpha_sq for sh in r.shells] for r in reports]), 0.0))
    return times, ks, alphas


def _alpha_steps(reports: list[EnergyReport]):
    """Consecutive alpha pairs of every shell, for the damping fits.

    Returns (ks, m, a0, a1, dt, floor): a0 and a1 are alpha at the start and
    end of each step, shape (steps, shells); dt has shape (steps, 1); m is
    min(2^{2k}, 1) per shell; a shell at or below `floor` counts as empty.
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 monitored instants")
    times, ks, alphas = _alpha_matrix(reports)
    floor = ALPHA_FLOOR * max(float(alphas.max(initial=0.0)), 1.0)
    return ks, np.minimum(2.0 ** (2 * ks), 1.0), alphas[:-1], alphas[1:], np.diff(times)[:, None], floor


def fit_damping_constant(reports: list[EnergyReport]) -> float:
    """Largest c for which every shell obeys the decay inequality on this run."""
    _, m, a0, a1, dt, floor = _alpha_steps(reports)
    with np.errstate(divide="ignore", invalid="ignore"):  # empty shells, excluded below
        rates = -(a1 - a0) / (dt * m * a0)
    # fmin skips NaN rates, as a running min(c, rate) does
    c_fit = np.fmin.reduce(rates, axis=None, initial=np.inf, where=a0 > floor)
    if not np.isfinite(c_fit):
        raise ValueError("trajectory has no active shells to fit")
    return float(c_fit)


def damping_margins(reports: list[EnergyReport], c_fit: float) -> dict[int, float]:
    """Per shell: worst value of d(alpha)/dt + c_fit min(2^{2k},1) alpha over the window; 0.0 if always empty."""
    ks, m, a0, a1, dt, floor = _alpha_steps(reports)
    active = (a0 > floor) | (a1 > floor)
    worst = np.fmax.reduce((a1 - a0) / dt + c_fit * m * a0, axis=0, initial=-np.inf, where=active)
    return {int(k): float(w) if w > -np.inf else 0.0 for k, w in zip(ks, worst)}


def envelopes_nonincreasing(reports: list[EnergyReport], rtol: float = 1e-10) -> bool:
    """Check that each shell's sequence of local maxima never increases."""
    _, ks, alphas = _alpha_matrix(reports)
    for j in range(len(ks)):
        series = alphas[:, j]
        peaks = [series[0]]
        for i in range(1, len(series) - 1):
            if series[i] >= series[i - 1] and series[i] >= series[i + 1]:
                peaks.append(series[i])
        peaks.append(series[-1])
        peaks = np.array(peaks)
        if np.any(np.diff(peaks) > rtol * max(peaks.max(), 1e-300)):
            return False
    return True


def smoothing_integral(reports: list[EnergyReport], reg_index: float) -> float:
    """Trapezoidal integral of sum_{k>0} 2^{k(s+3/2)} ||c_k|| along the run."""
    times = np.array([r.t for r in reports])
    vals = np.array(
        [sum(2.0 ** (sh.k * (reg_index + 1.5)) * sh.norm_c for sh in r.shells if sh.k > 0) for r in reports]
    )
    return float(np.trapezoid(vals, times))


def accumulate_v(times, besov_vals) -> np.ndarray:
    """Running trapezoidal integral of ||u||_{B^{N/2+1}}; non-decreasing."""
    times = np.asarray(times, dtype=np.float64)
    vals = np.asarray(besov_vals, dtype=np.float64)
    if np.any(vals < 0):
        raise ValueError("norm series must be nonnegative")
    out = np.zeros_like(times)
    if len(times) > 1:
        out[1:] = np.cumsum(0.5 * np.diff(times) * (vals[1:] + vals[:-1]))
    return out


def convection_weighted(reports: list[EnergyReport], K: float, attr: str) -> np.ndarray:
    """Series of exp(-K V(t)) * attr over the reports.

    The weight never enters the solver; it is the post-processing view of
    the recorded norms under the convection gauge.
    """
    vals = np.array([getattr(r, attr) for r in reports], dtype=np.float64)
    v = np.array([r.v_accum for r in reports])
    return np.exp(-K * v) * vals


def global_bound_check(reports: list[EnergyReport], e0: float, consts: EstimateConstants) -> GlobalBoundVerdict:
    """Pass iff E(h, u, t) <= A * c_tilde * E(0) at every monitored instant."""
    threshold = consts.A * consts.c_tilde
    if e0 <= 0.0:
        return GlobalBoundVerdict(passed=True, max_ratio=0.0, threshold_ratio=threshold)
    max_ratio = max(r.e_value / e0 for r in reports)
    return GlobalBoundVerdict(passed=max_ratio <= threshold, max_ratio=float(max_ratio), threshold_ratio=threshold)
