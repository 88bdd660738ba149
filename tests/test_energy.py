"""Estimate constants, shell energy forms, damping and smoothing diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from nspbox import energy
from nspbox.energy import (
    ALPHA_FLOOR,
    EnergyMonitor,
    EnergyReport,
    ShellEnergy,
    _alpha_matrix,
    accumulate_v,
    all_shell_energies,
    compute_constants,
    damping_margins,
    display_equivalence_bounds,
    envelopes_nonincreasing,
    equivalence_bounds,
    feasibility_margins,
    fit_damping_constant,
    global_bound_check,
    initial_energy,
    linear_decay_rate_bound,
    smoothing_integral,
    state_powers,
)
from nspbox.lp import DEFAULT_PROFILE, dyadic_block, dyadic_spectrum, hybrid_norm, radial_power, shell_filters
from nspbox.model import FluidParams, NspState
from nspbox.spectral import Grid, SpectralField, helmholtz_decompose, inner, l2_norm, random_field
from nspbox.stepper import FriedrichsStepper, StepperConfig

from conftest import wave
from test_model import small_state

PARAMS = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)


def random_pair_state(grid, seed, h_scale=1.0, c_scale=1.0, xi_lo=0.0, xi_hi=None) -> NspState:
    rng = np.random.default_rng(seed)
    h = h_scale * random_field(grid, 1, rng, xi_lo=xi_lo, xi_hi=xi_hi)
    c = c_scale * random_field(grid, 1, rng, xi_lo=xi_lo, xi_hi=xi_hi)
    npairs = grid.dim * (grid.dim - 1) // 2
    return NspState(h=h, c=c, I=SpectralField.zeros(grid, npairs))


class TestConstants:
    def test_reference_values(self):
        c = compute_constants(PARAMS)
        assert c.M1 == 0.25
        assert c.M2 == 0.15625
        assert c.K1 == 0.125
        assert c.M3 == 1.0
        assert c.K2 == 0.5

    def test_half_shear_viscosity(self):
        c = compute_constants(FluidParams(mu=0.5, lam=0.0, rho_bar=1.0, dim=3))
        assert c.K2 == 0.25
        assert c.M3 == 0.5

    def test_cross_constant_strictly_below_m1(self):
        for mu in (0.1, 1.0, 10.0):
            for lam in (-mu / 2.0, 0.0, 3.0):
                for rho in (0.2, 1.0, 7.0):
                    p = FluidParams(mu=mu, lam=lam, rho_bar=rho, dim=3)
                    c = compute_constants(p)
                    assert c.K1 < c.M1
                    assert all(m > 0 for m in feasibility_margins(p, c).values())

    def test_branch_switch_in_k1(self):
        # the rational branch wins at extreme viscosities, the sqrt cap in between
        thin = compute_constants(FluidParams(mu=0.05, lam=0.0, rho_bar=1.0, dim=3))
        assert thin.K1 == pytest.approx(0.1 / 1.02)
        middle = compute_constants(FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3))
        assert middle.K1 == 0.125
        thick = compute_constants(FluidParams(mu=5.0, lam=0.0, rho_bar=1.0, dim=3))
        assert thick.K1 == pytest.approx(10.0 / 201.0)


class TestShellEnergy:
    def test_zero_state(self, grid3):
        consts = compute_constants(PARAMS)
        shells = all_shell_energies(NspState.zeros(grid3), consts, PARAMS)
        assert [sh.k for sh in shells] == list(shell_filters(grid3).ks)
        for sh in shells:
            assert sh.alpha_sq == 0.0
            assert sh.norm_h == 0.0 and sh.norm_c == 0.0

    def test_low_shell_single_mode_closed_form(self, grid3):
        consts = compute_constants(PARAMS)
        amp = 0.4
        s = NspState(
            h=wave(grid3, (1, 0, 0), amp=amp),
            c=SpectralField.zeros(grid3),
            I=SpectralField.zeros(grid3, 3),
        )
        shells = {sh.k: sh for sh in all_shell_energies(s, consts, PARAMS)}
        for k in (-1, 0):
            w = float(DEFAULT_PROFILE.phi(np.asarray(2.0**-k)))
            mode_norm = w * amp / np.sqrt(2.0)
            expected = (1.0 + 1.0) * mode_norm**2  # rho_bar = 1 and |xi| = 1
            assert shells[k].alpha_sq == pytest.approx(expected, rel=1e-12)

    def test_positive_on_random_states(self, grid3):
        consts = compute_constants(PARAMS)
        for seed in range(200):
            s = random_pair_state(grid3, seed=seed, h_scale=np.exp(seed % 5 - 2), c_scale=1.0)
            for sh in all_shell_energies(s, consts, PARAMS):
                assert sh.alpha_sq >= -1e-12 * max(sh.norm_h, sh.norm_c, 1.0) ** 2

    def test_equivalence_sandwich(self, grid3):
        consts = compute_constants(PARAMS)
        s = random_pair_state(grid3, seed=60)
        # the summed squared block norms, straight from the lattice: sum of mask^2 * weight * (z* B z)
        Ph, Pc, lam = np.abs(s.h.coef[0]) ** 2, np.abs(s.c.coef[0]) ** 2, grid3.lam
        filters = shell_filters(grid3)
        for sh in all_shell_energies(s, consts, PARAMS):
            c1, c2 = equivalence_bounds(grid3, sh.k, consts, PARAMS)
            w = filters.mask(sh.k) ** 2 * grid3.hermitian_weight
            if sh.k <= 0:
                total = np.sum(w * ((1.0 + lam**2) * Ph + Pc))
            else:
                total = np.sum(w * ((lam + lam**3 + lam**5) * Ph + lam * Pc))
            assert c1 * sh.alpha_sq - 1e-10 <= total <= c2 * sh.alpha_sq + 1e-10
            assert 0.0 < c1 <= c2

    def test_display_weight_sandwich(self, grid3):
        consts = compute_constants(PARAMS)
        s = random_pair_state(grid3, seed=61)
        for sh in all_shell_energies(s, consts, PARAMS):
            if sh.alpha_sq <= 1e-20:
                continue
            d1, d2 = display_equivalence_bounds(grid3, sh.k, consts, PARAMS)
            disp = max(1.0, 2.0 ** (5 * sh.k)) * sh.norm_h**2 + max(1.0, 2.0**sh.k) * sh.norm_c**2
            ratio = disp / sh.alpha_sq
            assert d1 - 1e-10 <= ratio <= d2 + 1e-10

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_shell_energies_match_direct_lattice_sums(self, grid_name, seed, request):
        # reference: sum over the stored modes of mask^2 * hermitian weight * (z* P z), z = (h, c)
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=grid.dim)
        consts = compute_constants(params)
        s = random_pair_state(grid, seed=seed, h_scale=0.3, c_scale=2.0)
        h, c = s.h.coef[0], s.c.coef[0]
        Ph, Pc, X = np.abs(h) ** 2, np.abs(c) ** 2, (h * np.conj(c)).real
        lam, rho = grid.lam, params.rho_bar
        filters = shell_filters(grid)
        shells = all_shell_energies(s, consts, params)
        assert [sh.k for sh in shells] == list(filters.ks)
        for sh in shells:
            w = filters.mask(sh.k) ** 2 * grid.hermitian_weight
            if sh.k <= 0:
                p_hh, p_hc, p_cc = (1.0 + lam**2) / rho, -consts.K1 * lam**2, 1.0
            else:
                p_hh = (lam + lam**3) / rho + params.beta * consts.K2 / rho**2 * lam**5
                p_hc, p_cc = -consts.K2 * lam**3, lam
            alpha_sq = np.sum(w * (p_hh * Ph + 2.0 * p_hc * X + p_cc * Pc))
            assert abs(sh.alpha_sq - alpha_sq) <= 1e-13 * alpha_sq
            assert abs(sh.norm_h - np.sqrt(np.sum(w * Ph))) <= 1e-13 * sh.norm_h
            assert abs(sh.norm_c - np.sqrt(np.sum(w * Pc))) <= 1e-13 * sh.norm_c

    def test_energies_evaluate_the_bounded_form(self, grid3, monkeypatch):
        # the evaluated alpha_k^2 and the three bound functions read one form, `_form_matrices`
        consts = compute_constants(PARAMS)
        s = random_pair_state(grid3, seed=62)
        plain = all_shell_energies(s, consts, PARAMS)
        form_matrices = energy._form_matrices

        def doubled_p(*args):
            P, B = form_matrices(*args)
            return 2.0 * P, B

        monkeypatch.setattr(energy, "_form_matrices", doubled_p)
        doubled = all_shell_energies(s, consts, PARAMS)
        assert [sh.alpha_sq for sh in doubled] == [2.0 * sh.alpha_sq for sh in plain]
        assert any(sh.alpha_sq > 0.0 for sh in plain)

    def test_empty_shell_rejected_in_bounds(self, grid3):
        consts = compute_constants(PARAMS)
        with pytest.raises(ValueError, match="no lattice modes"):
            equivalence_bounds(grid3, 40, consts, PARAMS)


def _reference_forms(lam, k, consts, params):
    """(P, B) of one |xi|, written out entry by entry."""
    rho, beta = params.rho_bar, params.beta
    if k <= 0:
        q = lam**2
        return np.array([[(1.0 + q) / rho, -consts.K1 * q], [-consts.K1 * q, 1.0]]), np.diag([1.0 + q, 1.0])
    hh = (lam + lam**3) / rho + beta * consts.K2 / rho**2 * lam**5
    P = np.array([[hh, -consts.K2 * lam**3], [-consts.K2 * lam**3, lam]])
    return P, np.diag([lam + lam**3 + lam**5, lam])


def _reference_shell_lams(grid, k):
    vals = np.unique(grid.lam[shell_filters(grid).mask(k) > 0])
    return vals[vals > 0]


BOUND_PARAMS = [PARAMS, FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=3)]


class TestFormBounds:
    """The batched generalized eigenvalues against one `scipy.linalg.eigh` per mode."""

    @pytest.mark.parametrize("params", BOUND_PARAMS, ids=["unit", "general"])
    def test_equivalence_bounds_match_per_mode_eigh(self, grid32, params):
        consts = compute_constants(params)
        for k in shell_filters(grid32).ks:
            lo, hi, d_lo, d_hi = np.inf, -np.inf, np.inf, -np.inf
            D = np.diag([max(1.0, 2.0 ** (5 * k)), max(1.0, 2.0**k)])
            for lam in _reference_shell_lams(grid32, k):
                P, B = _reference_forms(lam, k, consts, params)
                vals = eigh(B, P, eigvals_only=True)
                lo, hi = min(lo, vals[0]), max(hi, vals[-1])
                vals = eigh(D, P, eigvals_only=True)
                d_lo, d_hi = min(d_lo, vals[0]), max(d_hi, vals[-1])
            got = equivalence_bounds(grid32, k, consts, params)
            got += display_equivalence_bounds(grid32, k, consts, params)
            for a, b in zip(got, (lo, hi, d_lo, d_hi)):
                assert abs(a - b) <= 1e-13 * abs(b)

    @pytest.mark.parametrize("params", BOUND_PARAMS, ids=["unit", "general"])
    def test_linear_decay_rate_bound_matches_per_mode_eigh(self, grid32, params):
        consts = compute_constants(params)
        best = np.inf
        for k in shell_filters(grid32).ks:
            m = min(2.0 ** (2 * k), 1.0)
            for lam in _reference_shell_lams(grid32, k):
                P, _ = _reference_forms(lam, k, consts, params)
                q = lam**2
                A = np.array([[0.0, -params.rho_bar], [q + 1.0, -params.nu_c * q]])
                vals = eigh(A.T @ P + P @ A, 2.0 * m * P, eigvals_only=True)
                best = min(best, -vals[-1])
        got = linear_decay_rate_bound(grid32, consts, params)
        assert abs(got - best) <= 1e-13 * abs(best)


@pytest.fixture(scope="module")
def linear_traj(grid3):
    consts = compute_constants(PARAMS)
    s0 = random_pair_state(grid3, seed=62, h_scale=1.0, c_scale=0.5)
    cfg = StepperConfig(dt=1e-3, n=float(grid3.size), t_end=0.5)
    monitor = EnergyMonitor(PARAMS, consts)
    return FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(s0, monitor=monitor, stride=25)


def reference_fit_damping_constant(reports):
    """The per-shell, per-step loop `fit_damping_constant` vectorizes, kept as its exact reference."""
    times, ks, alphas = _alpha_matrix(reports)
    scale = float(alphas.max(initial=0.0))
    c_fit = np.inf
    for j, k in enumerate(ks):
        m = min(2.0 ** (2 * k), 1.0)
        for i in range(len(times) - 1):
            a0, a1 = alphas[i, j], alphas[i + 1, j]
            if a0 <= ALPHA_FLOOR * max(scale, 1.0):
                continue
            dt = times[i + 1] - times[i]
            c_fit = min(c_fit, -(a1 - a0) / (dt * m * a0))
    if not np.isfinite(c_fit):
        raise ValueError("trajectory has no active shells to fit")
    return float(c_fit)


def reference_damping_margins(reports, c_fit):
    """The per-shell, per-step loop `damping_margins` vectorizes, kept as its exact reference."""
    times, ks, alphas = _alpha_matrix(reports)
    scale = float(alphas.max(initial=0.0))
    margins = {}
    for j, k in enumerate(ks):
        m = min(2.0 ** (2 * k), 1.0)
        worst = -np.inf
        for i in range(len(times) - 1):
            a0, a1 = alphas[i, j], alphas[i + 1, j]
            if a0 <= ALPHA_FLOOR * max(scale, 1.0) and a1 <= ALPHA_FLOOR * max(scale, 1.0):
                continue
            dt = times[i + 1] - times[i]
            worst = max(worst, (a1 - a0) / dt + c_fit * m * a0)
        margins[int(k)] = float(worst) if worst > -np.inf else 0.0
    return margins


def hand_reports(times, alphas, ks=(-1, 0, 1, 2)) -> list[EnergyReport]:
    """Reports carrying only times and shell alphas (rows: instants, columns: shells)."""
    scalars = ("hybrid_h", "hybrid_c", "hybrid_I", "hybrid_u", "besov_u_high", "v_accum")
    scalars += ("e_value", "e_ratio", "prim_norm", "prim_ratio")
    shells = [[ShellEnergy(k, a * a, 0.0, 0.0) for k, a in zip(ks, row)] for row in alphas]
    return [EnergyReport(t=t, shells=row, **dict.fromkeys(scalars, 0.0)) for t, row in zip(times, shells)]


class TestDamping:
    def test_vectorized_fits_equal_loops_on_linear_run(self, linear_traj):
        c_fit = fit_damping_constant(linear_traj.records)
        assert c_fit == reference_fit_damping_constant(linear_traj.records)
        assert damping_margins(linear_traj.records, c_fit) == reference_damping_margins(linear_traj.records, c_fit)

    def test_vectorized_fits_equal_loops_with_empty_shells(self):
        # k = 0 empties mid-run, k = 1 starts empty, k = 2 never holds energy and reads the 0.0 default
        times = [0.0, 0.1, 0.25, 0.4]
        alphas = [[1.0, 0.5, 0.0, 0.0], [0.9, 0.45, 0.3, 0.0], [0.8, 0.0, 0.2, 0.0], [0.75, 0.0, 0.1, 0.0]]
        reports = hand_reports(times, alphas)
        c_fit = fit_damping_constant(reports)
        assert c_fit == reference_fit_damping_constant(reports)
        margins = damping_margins(reports, c_fit)
        assert margins == reference_damping_margins(reports, c_fit)
        assert margins[2] == 0.0
        rng = np.random.default_rng(64)
        for _ in range(20):
            alphas = rng.uniform(0.0, 2.0, (6, 4)) * (rng.uniform(size=(6, 4)) < 0.7)
            reports = hand_reports(np.cumsum(rng.uniform(0.01, 0.1, 6)), alphas)
            c_fit = fit_damping_constant(reports)
            assert c_fit == reference_fit_damping_constant(reports)
            assert damping_margins(reports, c_fit) == reference_damping_margins(reports, c_fit)

    def test_no_active_shells_rejected_like_the_loop(self):
        reports = hand_reports([0.0, 0.1, 0.2], np.zeros((3, 4)))
        for fit in (fit_damping_constant, reference_fit_damping_constant):
            with pytest.raises(ValueError, match="no active shells"):
                fit(reports)
        expected = dict.fromkeys((-1, 0, 1, 2), 0.0)
        assert damping_margins(reports, 1.0) == reference_damping_margins(reports, 1.0) == expected

    def test_fit_is_positive_and_margins_close(self, grid3, linear_traj):
        c_fit = fit_damping_constant(linear_traj.records)
        assert c_fit > 0.0
        margins = damping_margins(linear_traj.records, c_fit)
        assert max(margins.values()) <= 1e-8

    def test_fit_dominates_per_mode_bound(self, grid3, linear_traj):
        # the quadratic-form analysis yields a guaranteed decay rate; the
        # fitted constant on an actual run can only be faster
        consts = compute_constants(PARAMS)
        bound = linear_decay_rate_bound(grid3, consts, PARAMS)
        assert bound > 0.0
        c_fit = fit_damping_constant(linear_traj.records)
        assert c_fit >= 0.9 * bound

    def test_envelopes_monotone(self, linear_traj):
        assert envelopes_nonincreasing(linear_traj.records)

    def test_single_high_shell_decays_at_least_at_fit_rate(self, grid3):
        consts = compute_constants(PARAMS)
        s0 = random_pair_state(grid3, seed=63, xi_lo=5.4, xi_hi=10.6)  # shell k = 3 band
        cfg = StepperConfig(dt=1e-3, n=float(grid3.size), t_end=0.1)
        monitor = EnergyMonitor(PARAMS, consts)
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(s0, monitor=monitor, stride=10)
        c_fit = fit_damping_constant(traj.records)
        alphas = [np.sqrt(r.shells[4].alpha_sq) for r in traj.records]  # k = 3 slot
        assert traj.records[0].shells[4].k == 3
        rate = (np.log(alphas[0]) - np.log(alphas[-1])) / (traj.records[-1].t - traj.records[0].t)
        assert rate >= 0.95 * c_fit

    def test_short_window_rejected(self, linear_traj):
        with pytest.raises(ValueError, match="3 monitored"):
            fit_damping_constant(linear_traj.records[:2])
        with pytest.raises(ValueError, match="3 monitored"):
            damping_margins(linear_traj.records[:2], 1.0)

    def test_zero_trajectory_margins_vanish(self, grid3):
        consts = compute_constants(PARAMS)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        monitor = EnergyMonitor(PARAMS, consts)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True)
        traj = stepper.run(NspState.zeros(grid3), monitor=monitor, stride=2)
        margins = damping_margins(traj.records, c_fit=1.0)
        assert all(v == 0.0 for v in margins.values())


class TestSmoothing:
    def test_zero_trajectory(self, grid3):
        consts = compute_constants(PARAMS)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        monitor = EnergyMonitor(PARAMS, consts)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True)
        traj = stepper.run(NspState.zeros(grid3), monitor=monitor, stride=2)
        assert smoothing_integral(traj.records, 1.5) == 0.0

    def _c_only_run(self, grid, params, t_end=0.5):
        consts = compute_constants(params)
        rng = np.random.default_rng(64)
        c0 = random_field(grid, 1, rng, xi_lo=2.0)
        s0 = NspState(h=SpectralField.zeros(grid), c=c0, I=SpectralField.zeros(grid, 3))
        cfg = StepperConfig(dt=1e-3, n=float(grid.size), t_end=t_end)
        monitor = EnergyMonitor(params, consts)
        traj = FriedrichsStepper(grid, params, cfg, linear_only=True).run(s0, monitor=monitor, stride=10)
        reg = 0.5 * grid.dim
        integral = smoothing_integral(traj.records, reg)
        initial = hybrid_norm(s0.h, (reg, reg + 1.5)) + hybrid_norm(s0.c, (reg - 1.0, reg - 0.5))
        return integral, initial

    def test_high_frequency_integral_is_controlled(self, grid3):
        integral, initial = self._c_only_run(grid3, PARAMS)
        assert 0.0 < integral < 10.0 * initial

    def test_inverse_viscosity_scaling(self, grid3):
        thick, initial = self._c_only_run(grid3, PARAMS, t_end=1.0)
        thin, _ = self._c_only_run(
            grid3, FluidParams(mu=0.5, lam=0.0, rho_bar=1.0, dim=3), t_end=1.0
        )
        ratio = thin / thick
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


class TestAccumulateV:
    def test_zero_series(self):
        out = accumulate_v([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
        assert np.all(out == 0.0)

    def test_constant_integrand(self):
        times = np.linspace(0.0, 2.0, 9)
        out = accumulate_v(times, np.full(9, 3.0))
        assert out[-1] == pytest.approx(6.0, rel=1e-14)
        assert np.allclose(out, 3.0 * times)

    def test_non_decreasing(self):
        rng = np.random.default_rng(65)
        vals = rng.uniform(0.0, 1.0, 50)
        out = accumulate_v(np.linspace(0, 1, 50), vals)
        assert np.all(np.diff(out) >= 0.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            accumulate_v([0.0, 1.0], [1.0, -1.0])


class TestGlobalBound:
    def test_zero_data_passes_with_zero_ratio(self, grid3):
        consts = compute_constants(PARAMS)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        monitor = EnergyMonitor(PARAMS, consts)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True)
        traj = stepper.run(NspState.zeros(grid3), monitor=monitor, stride=2)
        verdict = global_bound_check(traj.records, monitor.e0, consts)
        assert verdict.passed and verdict.max_ratio == 0.0

    def test_growth_detected(self, grid3):
        import dataclasses

        consts = compute_constants(PARAMS)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.02)
        monitor = EnergyMonitor(PARAMS, consts)
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(
            random_pair_state(grid3, seed=66), monitor=monitor, stride=4
        )
        blown = [dataclasses.replace(r, e_value=r.e_value * 1e9) for r in traj.records]
        verdict = global_bound_check(blown, monitor.e0, consts)
        assert not verdict.passed


POWER_GRIDS = {"grid2": Grid(dim=2, size=16), "grid3": Grid(dim=3, size=16)}


@pytest.mark.parametrize("grid_name", sorted(POWER_GRIDS))
class TestStatePowers:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), curl_image=st.booleans())
    def test_rows_match_per_field_powers(self, grid_name, seed, curl_image):
        # the u row comes from the 2-form identity, without recomposing u; it
        # must hold for I off the curl image too (e.g. a loaded checkpoint)
        grid = POWER_GRIDS[grid_name]
        rng = np.random.default_rng(seed)
        h, c = random_field(grid, 1, rng), random_field(grid, 1, rng)
        if curl_image:
            I = helmholtz_decompose(random_field(grid, grid.dim, rng)).I
        else:
            I = random_field(grid, grid.dim * (grid.dim - 1) // 2, rng)
        s = NspState(h=h, c=c, I=I)
        power_h, power_c, cross, power_I, power_u = state_powers(s)
        assert np.array_equal(power_h, radial_power(h))
        assert np.array_equal(power_c, radial_power(c))
        assert np.array_equal(power_I, radial_power(I))
        assert abs(np.sum(cross) - inner(h, c)) <= 1e-13 * l2_norm(h) * l2_norm(c)
        expected = radial_power(s.velocity())
        assert np.all(np.abs(power_u - expected) <= 1e-14 * expected)

    def test_zero_mode_bin_is_zero(self, grid_name):
        # u has no mean even when c and I carry one
        grid = POWER_GRIDS[grid_name]
        s = small_state(grid, seed=76, amp=1e-2)
        zero = (slice(None),) + (0,) * grid.dim
        s.c.coef[zero], s.I.coef[zero] = 1.0, 2.0
        assert state_powers(s)[4, 0] == 0.0
        assert radial_power(s.velocity())[0] == 0.0


class TestMonitor:
    def test_ratio_starts_at_one_and_e_monotone(self, grid3):
        consts = compute_constants(PARAMS)
        s0 = small_state(grid3, seed=67, amp=1e-3)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.05)
        monitor = EnergyMonitor(PARAMS, consts)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(s0, monitor=monitor, stride=10)
        assert traj.records[0].e_ratio == pytest.approx(1.0, rel=1e-12)
        es = [r.e_value for r in traj.records]
        assert all(b >= a - 1e-15 for a, b in zip(es, es[1:]))
        vs = [r.v_accum for r in traj.records]
        assert all(b >= a for a, b in zip(vs, vs[1:]))

    def test_initial_energy_matches_monitor(self, grid3):
        s0 = small_state(grid3, seed=68, amp=1e-3)
        consts = compute_constants(PARAMS)
        monitor = EnergyMonitor(PARAMS, consts)
        report = monitor(s0)
        assert monitor.e0 == pytest.approx(initial_energy(s0), rel=1e-14)
        assert report.e_value == pytest.approx(monitor.e0, rel=1e-14)

    def test_reported_norms_equal_standalone_norms_exactly(self, grid3):
        s0 = small_state(grid3, seed=73, amp=1e-3)
        report = EnergyMonitor(PARAMS)(s0)
        n2 = 0.5 * grid3.dim
        # u is read from the state-level powers; TestStatePowers ties them to s.velocity()
        spec_u = shell_filters(grid3).spectrum(state_powers(s0)[4])
        assert report.hybrid_h == hybrid_norm(s0.h, (n2 - 1.5, n2 + 1.0))
        assert report.hybrid_c == hybrid_norm(s0.c, (n2 - 1.5, n2 - 1.0))
        assert report.hybrid_I == hybrid_norm(s0.I, (n2 - 1.5, n2 - 1.0))
        assert report.hybrid_u == spec_u.hybrid((n2 - 1.5, n2 - 1.0))
        assert report.besov_u_high == spec_u.hybrid((n2 + 1.0, n2 + 1.0))
        # each shell's block norms are those of the one h and c spectrum a sample computes
        spec_h, spec_c = map(shell_filters(grid3).spectrum, state_powers(s0)[:2])
        assert [sh.norm_h for sh in report.shells] == list(spec_h.block_norms)
        assert [sh.norm_c for sh in report.shells] == list(spec_c.block_norms)

    def test_primitive_norm_reads_theta_and_phi_spectra(self, grid3):
        # theta = Lambda h and phi = -Lambda^-1 h are weighted from the radial power of h
        from nspbox.spectral import apply_lambda

        s0 = small_state(grid3, seed=75, amp=1e-3)
        report = EnergyMonitor(PARAMS)(s0)
        n2 = 0.5 * grid3.dim
        expected = (
            hybrid_norm(s0.theta(), (n2 - 2.5, n2))
            + hybrid_norm(s0.velocity(), (n2 - 1.5, n2 - 1.0))
            + hybrid_norm(-apply_lambda(s0.h, -1.0), (n2 - 0.5, n2 + 2.0))
        )
        assert abs(report.prim_norm - expected) <= 1e-13 * expected

    def test_one_shell_filter_build_per_grid(self, grid3):
        s0 = small_state(grid3, seed=74, amp=1e-3)
        shell_filters.cache_clear()
        dyadic_spectrum(s0.h)
        dyadic_block(s0.h, 0)
        all_shell_energies(s0, compute_constants(PARAMS), PARAMS)
        EnergyMonitor(PARAMS)(s0)
        assert shell_filters.cache_info().misses == 1

    def test_form_coefficients_built_once_per_monitor(self, grid3, monkeypatch):
        calls = []
        shell_forms = energy._shell_forms
        monkeypatch.setattr(energy, "_shell_forms", lambda *args: calls.append(args) or shell_forms(*args))
        monitor = EnergyMonitor(PARAMS)
        s0 = small_state(grid3, seed=77, amp=1e-3)
        for t in (0.0, 0.1, 0.2):
            monitor(NspState(s0.h, s0.c, s0.I, t=t))
        assert len(calls) == 1

    def test_decreasing_time_rejected(self, grid3):
        consts = compute_constants(PARAMS)
        monitor = EnergyMonitor(PARAMS, consts)
        s0 = small_state(grid3, seed=69, amp=1e-3)
        monitor(s0)
        earlier = NspState(s0.h, s0.c, s0.I, t=-1.0)
        with pytest.raises(ValueError, match="decreasing"):
            monitor(earlier)

    def test_damping_margin_field_with_c_fit(self, grid3):
        consts = compute_constants(PARAMS)
        monitor = EnergyMonitor(PARAMS, consts)
        s0 = random_pair_state(grid3, seed=70)
        cfg = StepperConfig(dt=1e-3, n=float(grid3.size), t_end=0.02)
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(s0, monitor=monitor, stride=5)
        margins = damping_margins(traj.records, c_fit=1e-6)
        assert all(m <= 1e-8 for m in margins.values())

    def test_smoothing_margin_with_calibrated_constant(self, grid3):
        from frozen import FROZEN

        consts = compute_constants(PARAMS)
        rng = np.random.default_rng(71)
        c0 = random_field(grid3, 1, rng, xi_lo=2.0)
        s0 = NspState(h=SpectralField.zeros(grid3), c=c0, I=SpectralField.zeros(grid3, 3))
        cfg = StepperConfig(dt=1e-3, n=float(grid3.size), t_end=0.3)
        monitor = EnergyMonitor(PARAMS, consts)
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(s0, monitor=monitor, stride=10)
        # the majorant C (1 + V(t)) (||h0||_{B^{s,s+3/2}} + ||c0||_{B^{s-1,s-1/2}}) at s = N/2
        initial = hybrid_norm(s0.h, (1.5, 3.0)) + hybrid_norm(s0.c, (0.5, 1.0))
        recs = traj.records
        margins = [
            smoothing_integral(recs[: i + 1], 1.5)
            - FROZEN["smoothing_majorant_constant"] * (1.0 + r.v_accum) * initial
            for i, r in enumerate(recs)
        ]
        assert len(margins) == 31
        assert all(m <= 0.0 for m in margins)

    def test_convection_weight_series(self, grid3):
        from nspbox.energy import convection_weighted

        consts = compute_constants(PARAMS)
        s0 = small_state(grid3, seed=72, amp=1e-3)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.02)
        monitor = EnergyMonitor(PARAMS, consts)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(s0, monitor=monitor, stride=5)
        plain = convection_weighted(traj.records, 0.0, "hybrid_h")
        assert np.allclose(plain, [r.hybrid_h for r in traj.records])
        damped = convection_weighted(traj.records, 50.0, "hybrid_h")
        weights = damped / plain
        assert weights[0] == 1.0
        assert np.all(np.diff(weights) <= 0.0)


class TestNormTable:
    TIMES = (0.0, 0.1, 0.35)  # uneven steps, so each trapezoid weighs its own dt

    def states(self, grid):
        for i, t in enumerate(self.TIMES):
            s = small_state(grid, seed=80 + i, amp=1e-3 * (2, 3, 1)[i])  # the sup moves once
            yield NspState(s.h, s.c, s.I, t=t)

    def test_mixed_norms_equal_sup_and_trapezoid_of_standalone_norms(self, grid3):
        from nspbox.spectral import apply_lambda

        n2 = 0.5 * grid3.dim
        idx_h, idx_u = energy.e0_indices(grid3.dim)
        monitor, rows = EnergyMonitor(PARAMS), []
        for i, s in enumerate(self.states(grid3)):
            report = monitor(s)
            h, u, theta, phi = s.h, s.velocity(), s.theta(), -apply_lambda(s.h, -1.0)
            rows.append(
                [
                    hybrid_norm(h, idx_h),
                    hybrid_norm(u, idx_u),
                    hybrid_norm(theta, (n2 - 2.5, n2)),
                    hybrid_norm(phi, (n2 - 0.5, n2 + 2.0)),
                    hybrid_norm(h, (n2 + 0.5, n2 + 1.0)),
                    hybrid_norm(u, (n2 + 0.5, n2 + 1.0)),
                    hybrid_norm(u, (n2 + 1.0, n2 + 1.0)),
                    hybrid_norm(theta, (n2 - 0.5, n2)),
                    hybrid_norm(phi, (n2 + 1.5, n2 + 2.0)),
                ]
            )
            table = np.array(rows)
            sup = table[:, :4].max(axis=0)
            integral = np.trapezoid(table[:, 4:], self.TIMES[: i + 1], axis=0)
            expected = {
                "e_value": sup[0] + sup[1] + integral[0] + integral[1],
                "v_accum": integral[2],
                "prim_norm": sup[1:].sum() + integral[1] + integral[3:].sum(),
            }
            for name, want in expected.items():
                got = getattr(report, name)
                assert abs(got - want) <= 1e-14 * want, (i, name)

    def test_weights_built_once_per_grid(self, grid3, monkeypatch):
        from nspbox import lp

        calls = []
        weights = lp.hybrid_weights
        monkeypatch.setattr(lp, "hybrid_weights", lambda *args: calls.append(args) or weights(*args))
        monitor, per_sample = EnergyMonitor(PARAMS), []
        for s in self.states(grid3):
            monitor(s)
            per_sample.append(len(calls) - sum(per_sample))
        assert per_sample == [11, 0, 0]
