"""Projector, exact linear propagators, time stepping, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from nspbox.model import FluidParams, NspState
from nspbox.spectral import Grid, SpectralField, helmholtz_decompose, l2_norm, random_field
from nspbox.stepper import (
    CFL_MARGIN,
    CHECKPOINT_MAGIC,
    FriedrichsProjector,
    FriedrichsStepper,
    LinearBlock,
    NumericalAbort,
    StepperConfig,
    load_checkpoint,
    save_checkpoint,
)
from nspbox import model

from conftest import wave
from test_model import small_state

PARAMS = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)


def unmasked(grid) -> np.ndarray:
    """A truncation mask that keeps every mode, the zero mode included."""
    return np.ones(grid.spectral_shape)


def pair_state(grid, h_amp=0.01, c_amp=0.02, nvec=(1, 0, 0)) -> NspState:
    return NspState(
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
        # reference: one 6x6 augmented exponential per distinct |xi|^2, read off entry by entry;
        # the truncation zeroes the tendency factors off the annulus 1/n <= |xi| <= n and nothing else
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=0.7, lam=0.2, rho_bar=1.3, dim=grid.dim)
        dt = 0.37
        mask = FriedrichsProjector(grid, 4.0).mask
        inside = (grid.lam >= 0.25) & (grid.lam <= 4.0)
        assert inside.any() and not inside.all()
        blocks = LinearBlock(grid, params, dt, mask)
        full = LinearBlock(grid, params, dt, unmasked(grid))
        assert np.array_equal(blocks.heat_e, full.heat_e)
        for heat, heat_full in ((blocks.heat_p1, full.heat_p1), (blocks.heat_p2, full.heat_p2)):
            assert np.all(heat[~inside] == 0.0)
            assert np.array_equal(heat[inside], heat_full[inside])
        eye = np.eye(2)
        for q in np.unique(grid.lam_sq):
            where = grid.lam_sq == q
            if q == 0.0:  # the inert zero mode
                E, P1, P2 = eye, dt * eye, 0.5 * dt * eye
            else:
                aug = np.zeros((6, 6))
                aug[0:2, 0:2] = [[0.0, -params.rho_bar], [q + 1.0, -params.nu_c * q]]
                aug[0:2, 2:4] = eye
                aug[2:4, 4:6] = eye
                big = expm(dt * aug)
                E, P1, P2 = big[0:2, 0:2], big[0:2, 2:4], big[0:2, 4:6] / dt
            for i in range(2):
                for j in range(2):
                    assert np.all(blocks.exp[i, j][where] == E[i, j])
                    for stack, M in ((blocks.phi1, P1), (blocks.phi2, P2)):
                        assert np.all(stack[i, j][where & inside] == M[i, j])
                        assert np.all(stack[i, j][where & ~inside] == 0.0)

    def test_stacks_are_contiguous_per_entry(self, grid3):
        blocks = LinearBlock(grid3, PARAMS, 0.1, unmasked(grid3))
        for stack in (blocks.exp, blocks.phi1, blocks.phi2):
            assert stack.shape == (2, 2) + grid3.spectral_shape
            assert all(stack[i, j].flags.c_contiguous for i in range(2) for j in range(2))

    def test_dissipative(self, grid3):
        blocks = LinearBlock(grid3, PARAMS, 0.1, unmasked(grid3))
        assert blocks.spectral_abscissa <= 0.0

    def test_heat_weights_match_series(self, grid3):
        blocks = LinearBlock(grid3, PARAMS, 1e-3, unmasked(grid3))
        z = -PARAMS.nu_i * grid3.lam_sq * 1e-3
        phi1_ref = np.where(z == 0, 1.0, np.expm1(np.where(z == 0, 1.0, z)) / np.where(z == 0, 1.0, z))
        assert np.allclose(blocks.heat_p1, 1e-3 * phi1_ref, rtol=1e-10)


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
        pair = helmholtz_decompose(u)
        s0 = NspState(h=SpectralField.zeros(grid3), c=SpectralField.zeros(grid3), I=pair.I)
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
        assert traj.times == [0.0]
        projected = FriedrichsProjector(grid3, cfg.n)(s0.h)
        assert np.array_equal(traj.final_state.h.coef, projected.coef)

    def test_times_strictly_increasing_and_stride_respected(self, grid3):
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=0.01)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(small_state(grid3, seed=50, amp=1e-3), stride=4)
        diffs = np.diff(traj.times)
        assert np.all(diffs > 0)
        assert len(traj.times) == 1 + 2 + 1  # t0, two stride hits, final step

    def test_iterate_matches_run_bitwise(self, grid3):
        cfg = StepperConfig(dt=2e-3, n=8.0, t_end=0.03)
        s0 = small_state(grid3, seed=52, amp=1e-2)
        traj = FriedrichsStepper(grid3, PARAMS, cfg).run(s0, stride=4)
        states = list(FriedrichsStepper(grid3, PARAMS, cfg).iterate(s0, stride=4))
        assert [s.t for s in states] == traj.times
        assert len(states) == 1 + 3 + 1  # t0, three stride hits, final step 15
        for name in ("h", "c", "I"):
            assert np.array_equal(getattr(states[-1], name).coef, getattr(traj.final_state, name).coef)

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
            return np.zeros((5,) + s.grid.spectral_shape, complex), model.RhsDiagnostics(1.0, 1.0, 0.0)

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
        x = np.stack(grid3.coordinates())
        bump = np.exp(-np.sum((x - np.pi) ** 2, axis=0) / 0.5)
        rho = 1.0 + amp * (bump - bump.mean())
        s0 = model.from_primitive(model.PrimitiveState(grid3, rho, np.zeros((3,) + grid3.shape), 1.0), PARAMS)
        stepper = FriedrichsStepper(grid3, PARAMS, StepperConfig(dt=1e-2, n=16.0, t_end=1e-2))
        stepper.step(stepper.prepare(s0))
        assert stepper.flags.guard_active is guarded

    def test_each_run_starts_with_fresh_flags(self, grid3):
        # a stepper reused for a second run reports that run's flags, not the first one's
        cfg = StepperConfig(dt=1e-3, n=8.0, t_end=5e-3)
        reused = FriedrichsStepper(grid3, PARAMS, cfg)
        reused.run(small_state(grid3, seed=52, amp=0.2))
        quiet, fresh = small_state(grid3, seed=53, amp=1e-3), FriedrichsStepper(grid3, PARAMS, cfg)
        again, alone = reused.run(quiet), fresh.run(quiet)
        assert again.min_density == alone.min_density > 0.99
        assert again.guard_ever_active is alone.guard_ever_active
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


class TestCheckpoints:
    def test_round_trip_exact(self, grid3, tmp_path):
        s = small_state(grid3, seed=52, amp=1e-2)
        s.t = 1.25
        path = tmp_path / "state.chk"
        save_checkpoint(path, s, PARAMS, n=12.0)
        loaded, params, n = load_checkpoint(path)
        assert params == PARAMS
        assert n == 12.0
        assert loaded.t == 1.25
        assert np.array_equal(loaded.h.coef, s.h.coef)
        assert np.array_equal(loaded.c.coef, s.c.coef)
        assert np.array_equal(loaded.I.coef, s.I.coef)

    def test_bad_magic_rejected(self, grid3, tmp_path):
        s = small_state(grid3, seed=53, amp=1e-2)
        path = tmp_path / "state.chk"
        save_checkpoint(path, s, PARAMS, n=8.0)
        data = bytearray(path.read_bytes())
        data[:7] = b"NOTNSPX"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, grid3, tmp_path):
        s = small_state(grid3, seed=54, amp=1e-2)
        path = tmp_path / "state.chk"
        save_checkpoint(path, s, PARAMS, n=8.0)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_full_lattice_layout_rejected(self, grid3, tmp_path):
        path = tmp_path / "state.chk"
        save_checkpoint(path, small_state(grid3, seed=57, amp=1e-2), PARAMS, n=8.0)
        path.write_bytes(b"NSPCHK1" + path.read_bytes()[7:])
        with pytest.raises(ValueError, match="NSPCHK1.*full-lattice.*NSPCHK2"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, grid3, tmp_path):
        path = tmp_path / "state.chk"
        save_checkpoint(path, small_state(grid3, seed=58, amp=1e-2), PARAMS, n=8.0)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="4 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["L", "n", "t", "mu", "lambda", "rho_bar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_header_rejected(self, grid3, tmp_path, field, value):
        path = tmp_path / "state.chk"
        save_checkpoint(path, small_state(grid3, seed=59, amp=1e-2), PARAMS, n=8.0)
        self._rewrite_header(path, **{field: value})
        with pytest.raises(ValueError, match=f"non-finite checkpoint header value.*{field}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n", [1.0, 0.5, -3.0])
    def test_truncation_at_most_one_rejected(self, grid3, tmp_path, n):
        path = tmp_path / "state.chk"
        save_checkpoint(path, small_state(grid3, seed=60, amp=1e-2), PARAMS, n=8.0)
        self._rewrite_header(path, n=n)
        with pytest.raises(ValueError, match="must exceed 1"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, grid3, tmp_path):
        from types import SimpleNamespace

        path = tmp_path / "state.chk"
        save_checkpoint(path, small_state(grid3, seed=61, amp=1e-2), PARAMS, n=8.0)
        before = path.read_bytes()
        broken = small_state(grid3, seed=62, amp=1e-2)
        broken.I = SimpleNamespace(coef=[["not a number"]])  # fails after the header, h and c
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, PARAMS, n=8.0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.chk"]

    @staticmethod
    def _rewrite_header(path, **values):
        import struct

        fmt = "<7sqqdddddd"
        names = ("magic", "dim", "size", "L", "n", "t", "mu", "lambda", "rho_bar")
        raw = bytearray(path.read_bytes())
        header = dict(zip(names, struct.unpack_from(fmt, raw)))
        header.update(values)
        struct.pack_into(fmt, raw, 0, *(header[name] for name in names))
        path.write_bytes(bytes(raw))

    def test_header_layout(self, grid3, tmp_path):
        import struct

        s = small_state(grid3, seed=55, amp=1e-2)
        path = tmp_path / "state.chk"
        save_checkpoint(path, s, PARAMS, n=9.0)
        raw = path.read_bytes()
        magic, dim, size, length, n, t, mu, lam, rho_bar = struct.unpack_from("<7sqqdddddd", raw)
        assert magic == CHECKPOINT_MAGIC
        assert (dim, size) == (3, 16)
        assert (mu, lam, rho_bar) == (1.0, 0.0, 1.0)
        assert n == 9.0
