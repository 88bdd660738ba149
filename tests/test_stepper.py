"""Projector, exact linear propagators, time stepping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from nspbox.config import parse_config
from nspbox.energy import initial_energy
from nspbox.initial_data import make_initial_data
from nspbox.model import FluidParams, NspState
from nspbox.spectral import Grid, SpectralField, helmholtz_decompose, l2_norm, random_field
from nspbox.stepper import (
    CFL_MARGIN,
    FriedrichsProjector,
    FriedrichsStepper,
    LinearBlock,
    NumericalAbort,
    StepperConfig,
    _phi_table,
    expm,
)
from nspbox import model

from analysis import state_of
from conftest import embed, wave
from primitive import PrimitiveState, coordinates, from_primitive
from test_model import small_state

PARAMS = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)


def unmasked(grid) -> np.ndarray:
    """A truncation mask that keeps every mode, the zero mode included."""
    return np.ones(grid.spectral_shape)


def on_band(blocks: LinearBlock, table: np.ndarray) -> np.ndarray:
    """A per-radius tendency table gathered onto the two-thirds-rule band, as a stage reads it."""
    return np.take(table, blocks.band_index, axis=-1)


def pair_state(grid, h_amp=0.01, c_amp=0.02, nvec=(1, 0, 0)) -> NspState:
    return state_of(
        h=wave(grid, nvec, amp=h_amp),
        c=wave(grid, nvec, amp=c_amp),
        I=SpectralField.zeros(grid, grid.dim * (grid.dim - 1) // 2),
    )


class TestProjector:
    def test_idempotent(self, grid3):
        p = FriedrichsProjector(grid3, 3.0)
        f = random_field(grid3, 1, np.random.default_rng(40))
        once = p(f)
        twice = p(once)
        assert np.array_equal(once.coef, twice.coef)

    def test_identity_when_covering_lattice(self, grid3):
        p = FriedrichsProjector(grid3, float(grid3.size))
        f = random_field(grid3, 1, np.random.default_rng(41))
        assert np.array_equal(p(f).coef, f.coef)

    def test_high_mode_removed(self, grid3):
        p = FriedrichsProjector(grid3, 2.5)
        f = wave(grid3, (3, 0, 0))
        assert l2_norm(p(f)) == 0.0
        assert l2_norm(p(wave(grid3, (2, 0, 0)))) > 0.0

    def test_zero_mode_annihilated(self, grid3):
        from conftest import constant

        p = FriedrichsProjector(grid3, 4.0)
        assert l2_norm(p(constant(grid3, 1.0))) == 0.0

    def test_invalid_parameter(self, grid3):
        with pytest.raises(ValueError):
            FriedrichsProjector(grid3, 1.0)


class TestLinearBlock:
    def test_pair_propagator_against_high_order_integration(self, grid3):
        dt = 0.37
        blocks = LinearBlock(grid3, PARAMS, dt, unmasked(grid3))
        rng = np.random.default_rng(42)
        for q in (1.0, 2.0, 5.0, 48.0, 147.0):
            A = PARAMS.pair_matrix(q)
            z0 = rng.standard_normal(2)
            sol = solve_ivp(
                lambda t, z: A @ z, (0.0, dt), z0, method="DOP853", rtol=1e-12, atol=1e-14
            )
            idx = np.argwhere(np.isclose(grid3.lam_sq, q))
            if idx.size == 0:
                continue
            i = tuple(idx[0])
            exact = blocks.exp[(slice(None), slice(None)) + i] @ z0
            assert np.max(np.abs(exact - sol.y[:, -1])) < 1e-10 * max(1.0, np.max(np.abs(z0)))

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    def test_arrays_equal_per_radius_expm(self, grid_name, request):
        # reference: one 6x6 (pair) and one 3x3 (heat) augmented exponential per distinct |xi|^2,
        # from the package's `expm` on that radius alone (scipy's is a separate test), read off
        # entry by entry; the truncation zeroes the tendency factors off the annulus
        # 1/n <= |xi| <= n and nothing else
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=grid.dim)
        dt = 0.37
        mask = FriedrichsProjector(grid, 4.0).mask
        inside = (grid.lam >= 0.25) & (grid.lam <= 4.0)
        assert inside.any() and not inside.all()
        blocks = LinearBlock(grid, params, dt, mask)
        full = LinearBlock(grid, params, dt, unmasked(grid))
        assert np.array_equal(blocks.heat_e, full.heat_e)
        # the tendency factors are per-radius tables that a stage gathers onto the two-thirds-rule
        # band, the layout of the tendencies
        assert np.array_equal(blocks.band_index, grid.to_band(grid.radial_index))
        band_inside = grid.to_band(inside)
        assert band_inside.any() and not band_inside.all()
        for heat, heat_full in ((blocks.heat_p1, full.heat_p1), (blocks.heat_p2, full.heat_p2)):
            heat, heat_full = on_band(blocks, heat), on_band(full, heat_full)
            assert np.all(heat[~band_inside] == 0.0)
            assert np.array_equal(heat[band_inside], heat_full[band_inside])
        eye = np.eye(2)
        tables = (blocks.phi1, blocks.phi2, blocks.heat_p1, blocks.heat_p2)
        phi1, phi2, heat_p1, heat_p2 = (on_band(blocks, table) for table in tables)
        for q in np.unique(grid.lam_sq):
            where = grid.lam_sq == q
            band_where = grid.to_band(where)
            if q == 0.0:  # the inert zero mode
                E, P1, P2 = eye, dt * eye, 0.5 * dt * eye
                he, hp1, hp2 = 1.0, dt, 0.5 * dt
            else:
                aug = np.zeros((6, 6))
                aug[0:2, 0:2] = [[0.0, -params.rho_bar], [q + 1.0, -params.nu_c * q]]
                aug[0:2, 2:4] = eye
                aug[2:4, 4:6] = eye
                big = expm(dt * aug)
                E, P1, P2 = big[0:2, 0:2], big[0:2, 2:4], big[0:2, 4:6] / dt
                heat = np.zeros((3, 3))
                heat[0, 0] = -params.nu_i * q
                heat[0, 1] = heat[1, 2] = 1.0
                big = expm(dt * heat)
                he, hp1, hp2 = big[0, 0], big[0, 1], big[0, 2] / dt
            assert np.all(blocks.heat_e[where] == he)
            for stack, value in ((heat_p1, hp1), (heat_p2, hp2)):
                assert np.all(stack[band_where & band_inside] == value)
                assert np.all(stack[band_where & ~band_inside] == 0.0)
            for i in range(2):
                for j in range(2):
                    assert np.all(blocks.exp[i, j][where] == E[i, j])
                    for stack, M in ((phi1, P1), (phi2, P2)):
                        assert np.all(stack[i, j][band_where & band_inside] == M[i, j])
                        assert np.all(stack[i, j][band_where & ~band_inside] == 0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("size", [16, 32, 64, 128])
    def test_expm_matches_scipy(self, dim, size):
        # the forward error of scaling and squaring grows with the 2^s squarings (s ~ log2 of the
        # 1-norm): within 3e-13 of each result's largest entry up to M = 64, 2e-12 at M = 128 (s <= 12)
        from scipy.linalg import expm as scipy_expm

        grid = Grid(dim=dim, size=size)
        q = grid.radii_sq
        aug = np.zeros((q.size, 6, 6))
        aug[:, 0:2, 0:2] = FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=dim).pair_matrix(q)
        aug[:, 0:2, 2:4] = aug[:, 2:4, 4:6] = np.eye(2)
        tol = 3e-13 if size <= 64 else 2e-12
        for dt in (1e-3, 0.02, 0.37, 0.5):
            ours, ref = expm(dt * aug), scipy_expm(dt * aug)
            err = np.max(np.abs(ours - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2))
            assert np.max(err) <= tol, (dt, np.max(err))

    def test_stacks_are_contiguous_per_entry(self, grid3):
        # the state's factors per mode on the half lattice, the tendencies' per radius
        blocks = LinearBlock(grid3, PARAMS, 0.1, unmasked(grid3))
        shapes = (grid3.spectral_shape, grid3.radii.shape, grid3.radii.shape)
        for stack, shape in zip((blocks.exp, blocks.phi1, blocks.phi2), shapes):
            assert stack.shape == (2, 2) + shape
            assert all(stack[i, j].flags.c_contiguous for i in range(2) for j in range(2))
        assert blocks.heat_e.shape == grid3.spectral_shape
        assert blocks.heat_p1.shape == blocks.heat_p2.shape == grid3.radii.shape
        assert blocks.band_index.shape == grid3.band_shape

    def test_mask_must_be_radial(self, grid3):
        # the mask is folded into the tables per radius, so one that is not a function of |xi| is refused
        mask = unmasked(grid3)
        mask[1, 0, 0] = 0.0  # (-1, 0, 0) at the same radius keeps its 1
        with pytest.raises(ValueError, match=r"depend on \|xi\| alone"):
            LinearBlock(grid3, PARAMS, 0.1, mask)

    def test_dissipative(self, grid3):
        # the pair generator has trace -nu_c |xi|^2 <= 0 and determinant rho_bar (|xi|^2 + 1) > 0,
        # also at the viscosity limit 2 mu + N lambda = 0 that `FluidParams` admits
        q = grid3.radii_sq[1:]
        for lam in (0.0, -2.0 / 3.0):
            params = FluidParams(mu=1.0, lam=lam, rho_bar=1.0, dim=3)
            assert np.max(np.linalg.eigvals(params.pair_matrix(q)).real) <= 0.0

    def test_heat_factors_match_mpmath(self):
        # the heat block's 3x3 augmented exponential against exp(z), (e^z - 1)/z and
        # (e^z - 1 - z)/z^2 at 40 digits, as a fraction of the largest of the three: round-off
        # for |z| <= 10; above that the 2^s squarings of `expm` (s ~ log2 |z|) grow the error
        import mpmath

        z = -np.logspace(-8, 4, 121)

        def exact(x):
            x = mpmath.mpf(float(x))
            e = mpmath.exp(x)
            return [float(e), float((e - 1) / x), float((e - 1 - x) / x**2)]

        with mpmath.workdps(40):
            ref = np.array([exact(x) for x in z])
        # row 0 stands for the zero mode, which the table keeps inert
        table = _phi_table(np.r_[0.0, z][:, None, None], 1.0)
        ours = np.stack([M[1:, 0, 0] for M in table], axis=1)
        err = np.max(np.abs(ours - ref), axis=1) / np.max(np.abs(ref), axis=1)
        small = np.abs(z) <= 10.0
        assert np.max(err[small]) <= 2e-15
        assert np.max(err) <= 5e-13
        assert [M[0, 0, 0] for M in table] == [1.0, 1.0, 0.5]

    def test_heat_weights_match_series(self, grid3):
        blocks = LinearBlock(grid3, PARAMS, 1e-3, unmasked(grid3))
        z = -PARAMS.nu_i * grid3.lam_sq * 1e-3
        phi1_ref = np.where(z == 0, 1.0, np.expm1(np.where(z == 0, 1.0, z)) / np.where(z == 0, 1.0, z))
        assert np.allclose(on_band(blocks, blocks.heat_p1), grid3.to_band(1e-3 * phi1_ref), rtol=1e-10)


class TestStep:
    def test_equilibrium_is_fixed(self, grid3):
        cfg = StepperConfig(dt=1e-2, n=16.0, t_end=0.1)
        out = FriedrichsStepper(grid3, PARAMS, cfg).step(NspState.zeros(grid3))
        assert l2_norm(out.h) == 0.0 and l2_norm(out.c) == 0.0 and l2_norm(out.I) == 0.0

    def test_linear_pair_matches_exponential_oracle(self, grid3):
        from scipy.linalg import expm

        cfg = StepperConfig(dt=1e-3, n=16.0, t_end=0.25)
        s0 = pair_state(grid3, nvec=(2, 1, 0))
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(s0, stride=50)
        sf = traj.final_state
        q = 5.0
        A = np.array([[0.0, -1.0], [q + 1.0, -2.0 * q]])
        prop = expm(cfg.t_end * A)
        i = (2, 1, 0)
        z0 = np.array([s0.h.coef[0][i], s0.c.coef[0][i]])
        z = prop @ z0
        assert abs(sf.h.coef[0][i] - z[0]) < 1e-10
        assert abs(sf.c.coef[0][i] - z[1]) < 1e-10

    def test_heat_decay_of_solenoidal_part(self, grid3):
        rng = np.random.default_rng(43)
        u = random_field(grid3, 3, rng, xi_lo=1.5, xi_hi=4.0)
        _, I = helmholtz_decompose(u)
        s0 = state_of(h=SpectralField.zeros(grid3), c=SpectralField.zeros(grid3), I=I)
        cfg = StepperConfig(dt=2e-3, n=16.0, t_end=0.2)
        traj = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True).run(
            s0, monitor=lambda s, flags: l2_norm(s.I), stride=20
        )
        sf = traj.final_state
        decay = np.exp(-PARAMS.nu_i * grid3.lam_sq * cfg.t_end)
        expected = s0.I.coef * decay
        assert np.max(np.abs(sf.I.coef - expected)) < 1e-10 * np.max(np.abs(s0.I.coef))
        norms = traj.records
        assert all(b <= a for a, b in zip(norms, norms[1:]))

    def test_projection_invariance(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=3.0, t_end=0.01)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg)
        s0 = stepper.prepare(small_state(grid3, seed=44, amp=1e-2))
        out = stepper.step(s0)
        off = stepper.projector.mask == 0.0
        for f in (out.h, out.c, out.I):
            assert not f.coef[:, off].any()
            assert np.array_equal(stepper.projector(f).coef, f.coef)

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    @pytest.mark.parametrize("linear_only", [True, False], ids=["linear", "nonlinear"])
    def test_stepped_nyquist_planes_are_zero(self, grid_name, linear_only, request):
        # stepped fields skip the Nyquist scan of `SpectralField`, so a step must leave nothing there;
        # n = M keeps Nyquist modes inside the annulus, so the propagators do not zero them
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        cfg = StepperConfig(dt=1e-3, n=float(grid.size), t_end=1.0)
        stepper = FriedrichsStepper(grid, params, cfg, linear_only)
        assert stepper.projector.mask[grid.nyquist_mask].all()
        s = stepper.prepare(small_state(grid, seed=46, amp=0.3))
        for _ in range(3):
            s = stepper.step(s)
            for f in (s.h, s.c, s.I):
                assert not any(f.coef[plane].any() for plane in grid._nyquist_planes)

    def test_density_mean_is_conserved(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=1.0)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg)
        s = stepper.prepare(small_state(grid3, seed=45, amp=5e-3))
        for _ in range(1000):
            s = stepper.step(s)
            if not np.isfinite(s.t):
                break
        assert np.max(np.abs(s.theta().zero_mode())) <= 1e-12

    def test_determinism_bitwise(self, grid3):
        cfg = StepperConfig(dt=2e-3, n=8.0, t_end=0.05)

        def one_run():
            s0 = small_state(grid3, seed=46, amp=1e-2)
            return FriedrichsStepper(grid3, PARAMS, cfg).run(s0, monitor=lambda s, flags: l2_norm(s.h), stride=5)

        t1, t2 = one_run(), one_run()
        assert t1.records == t2.records
        assert np.array_equal(t1.final_state.h.coef, t2.final_state.h.coef)
        assert np.array_equal(t1.final_state.I.coef, t2.final_state.I.coef)

    def test_non_finite_state_aborts(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        s = small_state(grid3, seed=47, amp=1e-2)
        s.h.coef[0, 1, 0, 0] = np.nan
        with pytest.raises(NumericalAbort, match="non-finite"):
            FriedrichsStepper(grid3, PARAMS, cfg).step(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["h", "c", "I"])
    def test_non_finite_in_any_field_aborts(self, grid3, name, bad):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        s = small_state(grid3, seed=47, amp=1e-2)
        getattr(s, name).coef[0, 1, 0, 0] = bad
        # prepare checks the projected state before the fields mix
        with np.errstate(invalid="ignore"), pytest.raises(NumericalAbort, match="non-finite coefficients"):
            FriedrichsStepper(grid3, PARAMS, cfg).prepare(s)

    def test_initial_cfl_violation_rejected(self, grid3):
        cfg = StepperConfig(dt=1.0, n=8.0, t_end=1.0)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg)
        s = small_state(grid3, seed=48, amp=0.9)  # |u| ~ 0.9, dx ~ 0.39
        with pytest.raises(ValueError, match="stability"):
            stepper.prepare(s)

    def test_run_zero_time(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.0)
        s0 = small_state(grid3, seed=49, amp=1e-3)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(s0, stride=3)
        assert [s.t for s in FriedrichsStepper(grid3, PARAMS, cfg).iterate(s0, stride=3)] == [0.0]
        projected = FriedrichsProjector(grid3, cfg.n)(s0.h)
        assert np.array_equal(traj.final_state.h.coef, projected.coef)

    def test_times_strictly_increasing_and_stride_respected(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        states = FriedrichsStepper(grid3, PARAMS, cfg).iterate(small_state(grid3, seed=50, amp=1e-3), stride=4)
        times = [s.t for s in states]
        assert np.all(np.diff(times) > 0)
        assert len(times) == 1 + 2 + 1  # t0, two stride hits, final step

    def test_iterate_matches_run_bitwise(self, grid3):
        cfg = StepperConfig(dt=2e-3, n=8.0, t_end=0.03)
        s0 = small_state(grid3, seed=52, amp=1e-2)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(s0, monitor=lambda s, flags: s.t, stride=4)
        states = list(FriedrichsStepper(grid3, PARAMS, cfg).iterate(s0, stride=4))
        assert [s.t for s in states] == traj.records
        assert len(states) == 1 + 3 + 1  # t0, three stride hits, final step 15
        for name in ("h", "c", "I"):
            assert np.array_equal(getattr(states[-1], name).coef, getattr(traj.final_state, name).coef)

    def test_prepare_projects_into_a_fresh_stack(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        s0 = small_state(grid3, seed=53, amp=1e-2)
        assert not np.shares_memory(FriedrichsStepper(grid3, PARAMS, cfg).prepare(s0).x.coef, s0.x.coef)

    @pytest.mark.parametrize("linear_only", [True, False], ids=["linear", "nonlinear"])
    def test_run_leaves_its_input_unchanged(self, grid3, linear_only):
        # `experiment_perturb` at delta = 0 hands one state to two steppers
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        s0 = small_state(grid3, seed=54, amp=1e-2)
        before = s0.x.coef.tobytes()
        FriedrichsStepper(grid3, PARAMS, cfg, linear_only=linear_only).run(s0, stride=3)
        assert s0.x.coef.tobytes() == before

    def test_cfl_checked_on_every_step(self, grid3, monkeypatch):
        # the speed crosses the margin during step 5 only; the run stops there
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.03)
        stepper = FriedrichsStepper(grid3, PARAMS, cfg)
        too_fast = 2.0 * CFL_MARGIN * grid3.spacing / cfg.dt
        plain_rhs = model.explicit_rhs
        calls = []

        def rhs(*args, **kwargs):
            tend, diag = plain_rhs(*args, **kwargs)
            calls.append(1)
            if len(calls) in (9, 10):  # both ETDRK2 stages of step 5
                diag.max_speed = too_fast
            return tend, diag

        monkeypatch.setattr(model, "explicit_rhs", rhs)
        with pytest.raises(NumericalAbort, match=f"at t = {5 * cfg.dt:.6g}"):
            stepper.run(small_state(grid3, seed=53, amp=1e-3))
        assert len(calls) == 10

    def test_linear_fast_path_matches_general_path_bitwise(self, grid3, monkeypatch):
        # linear-only ETDRK2 skips the phi-terms; the general path on zero tendencies agrees exactly
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        fast = FriedrichsStepper(grid3, PARAMS, cfg, linear_only=True)
        general = FriedrichsStepper(grid3, PARAMS, cfg)

        def zero_rhs(s, *args, **kwargs):
            return np.zeros((5,) + s.grid.band_shape, complex), model.RhsDiagnostics(1.0, 1.0, 0.0)

        monkeypatch.setattr(model, "explicit_rhs", zero_rhs)
        a = b = fast.prepare(small_state(grid3, seed=56, amp=1e-2))
        for _ in range(5):
            a, b = fast.step(a), general.step(b)
            for name in ("h", "c", "I"):
                assert np.array_equal(getattr(a, name).coef, getattr(b, name).coef)
        assert a.t == b.t

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0, n=8.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=1e-3, n=8.0, t_end=-1.0)

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (0.3, 0.1), (1e-3, 0.1 + 1e-8), (1.0, np.inf)])
    def test_fractional_step_count_rejected(self, dt, t_end):
        # iterate takes round(t_end / dt) steps, which would end the run off t_end
        with pytest.raises(ValueError, match="whole number of steps"):
            StepperConfig(dt=dt, n=8.0, t_end=t_end)

    @pytest.mark.parametrize("dt, t_end, steps", [(1e-3, 0.1, 100), (0.02, 1.2, 60), (1e-3, 1.0, 1000), (1e-3, 0.0, 0)])
    def test_whole_step_count_accepted(self, dt, t_end, steps):
        cfg = StepperConfig(dt=dt, n=8.0, t_end=t_end)
        assert round(cfg.t_end / cfg.dt) == steps

    def test_params_of_another_dimension_rejected(self, grid3):
        # 2 mu + 3 lambda = -0.7: admissible in 2D, not in 3D
        params = FluidParams(mu=1.0, lam=-0.9, rho_bar=1.0, dim=2)
        with pytest.raises(ValueError, match="dimension 2, the grid has 3"):
            FriedrichsStepper(grid3, params, StepperConfig(dt=1e-3, n=8.0, t_end=0.01))


class TestMemory:
    # the criterion-08 configuration (3D, M = 32) as `nonlinear3d` runs it; tracemalloc sizes in
    # half-lattice complex components (0.266 MiB)
    CONFIG = (
        "grid.N = 3\ngrid.M = 32\nstepper.dt = 0.02\n"
        "init.kind = random-band\ninit.amplitude = 1e-3\ninit.band_lo = 0\ninit.band_hi = 2\n"
    )

    # one process's warm steps: three to warm up, then the minor faults a step over twenty more,
    # with a block of argv[2] MiB held from before the first step, one heap history of many
    WARM_STEP_FAULTS = """
import resource
import sys

import numpy as np

from nspbox.config import parse_config
from nspbox.initial_data import make_initial_data
from nspbox.stepper import FriedrichsStepper

cfg = parse_config(sys.argv[1])
stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
s = stepper.prepare(make_initial_data(cfg))
held = np.ones(int(float(sys.argv[2]) * 2**20) // 8)
for _ in range(3):
    s = stepper.step(s)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    s = stepper.step(s)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""

    @pytest.mark.parametrize("held_mib", [0.0, 0.1, 1.0])
    def test_warm_step_minor_faults(self, held_mib):
        # a warmed step reuses its pages: `explicit_rhs` transforms in its multipliers' own buffer and
        # physical rows, so its fresh arrays are band-sized or smaller; 0 faults a step measured in
        # each history.  Each measurement runs in a fresh interpreter, since a fault count also hangs
        # on the heap history of the process: with fresh physical arrays, glibc trimmed and regrew
        # the heap top each step in some histories (about 900 faults a step with 0.1 or 1 MiB held,
        # 0.6 with none) and not in others, such as the suite's own order
        import os
        import subprocess
        import sys
        from pathlib import Path

        import nspbox

        src = str(Path(nspbox.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", self.WARM_STEP_FAULTS, self.CONFIG, str(held_mib)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert float(done.stdout) <= 50

    def test_warm_nonlinear_step_peak(self):
        # the peak of one warmed step's fresh allocations: 9.81 measured, with the new state (5), the
        # first tendencies (1.4) and the band-sized and per-axis temporaries and the quotient of
        # `explicit_rhs`, which transforms in its multipliers' own buffer and physical rows
        import tracemalloc

        cfg = parse_config(self.CONFIG)
        stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
        s = stepper.step(stepper.prepare(make_initial_data(cfg)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stepper.step(s)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        component = 16 * np.prod(cfg.grid.spectral_shape)
        assert peak / component <= 10.5

    def test_live_set_after_prepare(self):
        # what set-up leaves alive once the caller has dropped the initial data: 12.16 measured, the
        # prepared state (5), the propagators (2.6: `exp` and `heat_e` per mode, the tendencies'
        # factors per radius and the band's radial index) and the grid's cached tables (4.2: the
        # complex Riesz symbols 3, |xi| and the radial index 0.5 each); the projector's mask is
        # formed on access, the wavenumbers are open axes and |xi|^2 is not kept
        import tracemalloc

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cfg = parse_config(self.CONFIG)
            s0 = make_initial_data(cfg)
            stepper = FriedrichsStepper(cfg.grid, cfg.params, cfg.stepper)
            s = stepper.prepare(s0)
            del s0
            live = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        component = 16 * np.prod(cfg.grid.spectral_shape)
        assert s.x.ncomp == 5
        assert live / component <= 13.0

    def test_monitored_run_high_water(self, tmp_path):
        # the whole driver, cold, cut to 6 steps sampled every 2nd: 40.68 measured, where a sample
        # held through the next stride beside the step's input and output, the transforms' two
        # buffers and fresh physical arrays, and the tendency factors on the band read 50.94
        import tracemalloc

        from nspbox import lp
        from nspbox.experiments import experiment_nonlinear

        cfg = parse_config(self.CONFIG + "stepper.t_end = 0.12\nmonitor.stride = 2\n")
        lp.shell_filters.cache_clear()
        model._rhs_multipliers.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = experiment_nonlinear(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        component = 16 * np.prod(cfg.grid.spectral_shape)
        assert result.exit_code == 0
        assert peak / component <= 44.0

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_run_drops_each_sample_once_read(self, grid3, stride):
        # while `run` steps towards the next sample, no earlier sampled state is alive but the step's
        # own input; the final state is the last sample
        import weakref

        samples = []
        stepper = FriedrichsStepper(grid3, PARAMS, StepperConfig(dt=1e-3, n=8.0, t_end=7e-3))
        plain_step = stepper.step

        def step(s):
            assert all(ref() is None or ref() is s for ref in samples)
            return plain_step(s)

        def monitor(s, flags):
            samples.append(weakref.ref(s))

        stepper.step = step
        traj = stepper.run(small_state(grid3, seed=65, amp=1e-2), monitor, stride)
        assert len(samples) == len(traj.records) == 1 + -(-7 // stride)
        assert samples[-1]() is traj.final_state
        assert [ref() for ref in samples[:-1]] == [None] * (len(samples) - 1)
        assert traj.final_state.t == pytest.approx(7e-3)

    def test_initial_data_high_water(self):
        # the peak of a cold `make_initial_data`: 14.24 measured, set by the velocity draw of
        # `random_field` beside the density draw; the (h, c, I) stack is formed and projected in
        # place once each raw field has been dropped
        import tracemalloc

        from nspbox import lp

        cfg = parse_config(self.CONFIG)
        lp.shell_filters.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            make_initial_data(cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        component = 16 * np.prod(cfg.grid.spectral_shape)
        assert peak / component <= 16.0


class TestInterleaving:
    @pytest.mark.parametrize("n_b", [8.0, 4.0], ids=["refine", "perturb"])
    def test_alternating_steppers_match_solo_runs(self, grid3, n_b):
        # `refine` steps radii n and 2n in turn, `perturb` two steppers of one n with separate
        # projectors; sharing a (grid, params) must leave each stepper's states as they are alone
        cfg_a, cfg_b = (StepperConfig(dt=2e-3, n=n, t_end=0.01) for n in (4.0, n_b))
        s0_a, s0_b = small_state(grid3, seed=63, amp=1e-2), small_state(grid3, seed=64, amp=1e-2)

        def solo(cfg, s0):
            return list(FriedrichsStepper(grid3, PARAMS, cfg).iterate(s0))

        alone_a, alone_b = solo(cfg_a, s0_a), solo(cfg_b, s0_b)
        a, b = FriedrichsStepper(grid3, PARAMS, cfg_a), FriedrichsStepper(grid3, PARAMS, cfg_b)
        sa, sb = a.prepare(s0_a), b.prepare(s0_b)
        assert len(alone_a) == len(alone_b) == 6
        for i, (want_a, want_b) in enumerate(zip(alone_a, alone_b)):
            if i:
                sa, sb = a.step(sa), b.step(sb)
            for got, want in ((sa, want_a), (sb, want_b)):
                assert got.t == want.t
                for name in ("h", "c", "I"):
                    assert np.array_equal(getattr(got, name).coef, getattr(want, name).coef)


class TestGuardFlag:
    @pytest.mark.parametrize(
        "amp, guarded", [(0.8, True), (-0.8, True), (0.4, False)], ids=["peak", "dip", "inside"]
    )
    def test_flag_marks_either_clamp_edge(self, grid3, amp, guarded):
        # a Gaussian density bump at rest: the peak reaches 1.79 rho_bar with its minimum near
        # rho_bar, the dip 0.21 rho_bar with its maximum near rho_bar; `zeta` clamps both
        x = np.stack(coordinates(grid3))
        bump = np.exp(-np.sum((x - np.pi) ** 2, axis=0) / 0.5)
        rho = 1.0 + amp * (bump - bump.mean())
        s0 = from_primitive(PrimitiveState(grid3, rho, np.zeros((3,) + grid3.shape)), PARAMS)
        stepper = FriedrichsStepper(grid3, PARAMS, StepperConfig(dt=1e-2, n=16.0, t_end=1e-2))
        stepper.step(stepper.prepare(s0))
        assert stepper.flags.guard_active is guarded

    def test_each_run_starts_with_fresh_flags(self, grid3):
        # a stepper reused for a second run reports that run's flags, not the first one's
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=5e-3)
        reused = FriedrichsStepper(grid3, PARAMS, cfg)
        first = reused.run(small_state(grid3, seed=52, amp=0.2))
        quiet, fresh = small_state(grid3, seed=53, amp=1e-3), FriedrichsStepper(grid3, PARAMS, cfg)
        again, alone = reused.run(quiet), fresh.run(quiet)
        assert again.flags.min_density == alone.flags.min_density > 0.99
        assert again.flags.guard_active is alone.flags.guard_active
        assert first.flags.min_density < again.flags.min_density  # the second run left the first's flags alone
        assert reused.flags == fresh.flags


def advance(grid, dt, t_end, seed=51, amp=0.05):
    cfg = StepperConfig(dt=dt, n=float(grid.size), t_end=t_end)
    s0 = small_state(grid, seed=seed, amp=amp)
    return FriedrichsStepper(grid, PARAMS, cfg).run(s0, stride=10**9).final_state


MEAN_GRIDS = {"grid2": Grid(dim=2, size=16), "grid3": Grid(dim=3, size=16)}


@pytest.mark.parametrize("linear_only", [True, False], ids=["linear", "nonlinear"])
@pytest.mark.parametrize("grid_name", sorted(MEAN_GRIDS))
class TestMeanProperty:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), amp=st.floats(min_value=1e-4, max_value=5e-2))
    def test_zero_mode_stays_zero_across_a_step(self, grid_name, linear_only, seed, amp):
        # every propagator and tendency multiplier leaves xi = 0 alone
        grid = MEAN_GRIDS[grid_name]
        params = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=grid.dim)
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=1e-3)
        stepper = FriedrichsStepper(grid, params, cfg, linear_only=linear_only)
        out = stepper.step(stepper.prepare(small_state(grid, seed=seed, amp=amp)))
        for f in (out.h, out.c, out.I):
            assert np.all(f.zero_mode() == 0.0)


class TestSchemes:
    def test_self_convergence_order(self, grid3):
        t_end = 0.04
        finals = [advance(grid3, dt, t_end) for dt in (4e-3, 2e-3, 1e-3)]
        e1 = l2_norm(finals[0].c - finals[1].c) + l2_norm(finals[0].h - finals[1].h)
        e2 = l2_norm(finals[1].c - finals[2].c) + l2_norm(finals[1].h - finals[2].h)
        order = np.log2(e1 / e2)
        assert order >= 1.9


class TestLatticeConvergence:
    @pytest.mark.parametrize("dim, t_end", [(2, 0.5), (3, 0.1)], ids=["2d", "3d"])
    def test_distance_falls_tenfold_per_doubling(self, dim, t_end):
        # one band-limited start embedded exactly into M = 16, 32 and 64; n = M keeps every mode
        cfg = parse_config(f"grid.N = {dim}\ngrid.M = 16\ninit.band_hi = 1\ninit.amplitude = 0.2\n")
        s0 = make_initial_data(cfg)
        finals = []
        for size in (16, 32, 64):
            grid = Grid(dim=dim, size=size)
            stepper = FriedrichsStepper(grid, cfg.params, StepperConfig(dt=0.01, n=float(size), t_end=t_end))
            finals.append(stepper.run(NspState(embed(s0.x, grid)), stride=50).final_state)

        def difference(coarse, fine):
            return NspState(embed(coarse.x, fine.grid) - fine.x)

        def distance(coarse, fine):
            return l2_norm(difference(coarse, fine).x) / l2_norm(fine.x)

        def e0_distance(coarse, fine):
            # the hybrid norms of h and u at the E(0) indices (`energy.e0_indices`), relative to the fine run's
            return initial_energy(difference(coarse, fine)) / initial_energy(fine)

        for metric in (distance, e0_distance):
            d = [metric(a, b) for a, b in zip(finals, finals[1:])]
            assert 0.0 < d[1] <= 0.1 * d[0], metric.__name__
