"""Fluid parameters, the density clamp, primitive conversions, nonlinearities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nspbox import model, spectral
from nspbox.config import parse_config
from nspbox.initial_data import make_initial_data
from nspbox.model import (
    FluidParams,
    NspState,
    _hermite,
    _viscous_quotient,
    explicit_rhs,
    zeta,
)
from nspbox.spectral import (
    Grid,
    SpectralField,
    apply_lambda,
    helmholtz_decompose,
    helmholtz_recompose,
    l2_norm,
    random_field,
    transform_to_spectral,
)

from analysis import dissipation, divergence, meshed_lattice, physical_energy, state_of
from conftest import dealias_mask, embed, hermitian_defect, wave
from convective import nonlinear_F, nonlinear_G, nonlinear_H, nonlinear_J
from primitive import PrimitiveState, check_potential, coordinates, from_primitive, potential, to_primitive

PARAMS3 = FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=3)


def small_state(grid, seed=0, amp=1e-2) -> NspState:
    """Random admissible state: (c, I) split off a velocity, contrast peaks at `amp`.

    I must lie in the image of the curl lift (the flow preserves that range),
    so it is generated by decomposing a random velocity, never drawn freely.
    """
    rng = np.random.default_rng(seed)
    h = random_field(grid, 1, rng)
    h = h * (amp / np.max(np.abs(apply_lambda(h, 1.0).to_physical())))
    u = random_field(grid, grid.dim, rng)
    u = u * (amp / np.max(np.abs(u.to_physical())))
    c, I = helmholtz_decompose(u)
    return state_of(h=h, c=c, I=I)


class TestFluidParams:
    def test_valid(self):
        p = FluidParams(mu=0.5, lam=-0.2, rho_bar=2.0, dim=3)
        assert p.beta == pytest.approx(0.8)
        assert p.nu_c > 0 and p.nu_i > 0

    def test_shear_viscosity_must_be_positive(self):
        with pytest.raises(ValueError, match="mu > 0"):
            FluidParams(mu=0.0, lam=0.0, rho_bar=1.0, dim=3)
        with pytest.raises(ValueError, match="mu > 0"):
            FluidParams(mu=-1.0, lam=0.0, rho_bar=1.0, dim=3)

    def test_combined_viscosity_constraint(self):
        with pytest.raises(ValueError, match="N\\*lambda"):
            FluidParams(mu=1.0, lam=-1.0, rho_bar=1.0, dim=3)
        # boundary case is allowed
        FluidParams(mu=1.5, lam=-1.0, rho_bar=1.0, dim=3)

    def test_background_density_positive(self):
        with pytest.raises(ValueError, match="density"):
            FluidParams(mu=1.0, lam=0.0, rho_bar=0.0, dim=3)

    def test_any_dimension_from_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=1)
        assert FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=4).dim == 4


class TestZeta:
    def test_branch_values(self):
        rho = 2.0
        assert zeta(rho, rho) == pytest.approx(rho)
        assert zeta(0.0, rho) == pytest.approx(rho / 4.0)
        assert zeta(10.0 * rho, rho) == pytest.approx(7.0 * rho / 4.0)
        assert zeta(0.6 * rho, rho) == pytest.approx(0.6 * rho)
        assert zeta(1.4 * rho, rho) == pytest.approx(1.4 * rho)

    def test_even_in_its_argument(self):
        rho = 1.0
        x = np.linspace(-4.0, 4.0, 801)
        assert np.allclose(zeta(x, rho), zeta(-x, rho))
        assert zeta(-rho, rho) == pytest.approx(rho)

    def test_floor_everywhere(self):
        rho = 1.3
        x = np.linspace(-20.0, 20.0, 4001)
        assert np.all(zeta(x, rho) >= rho / 4.0 - 1e-14)

    def test_monotone_in_magnitude(self):
        x = np.linspace(0.0, 3.0, 6001)
        vals = zeta(x, 1.0)
        assert np.all(np.diff(vals) >= -1e-14)

    def test_c1_transitions(self):
        # slopes approach 0 at the clamped ends and 1 at the identity ends
        rho, h = 1.0, 1e-6
        for edge, slope in ((0.25, 0.0), (0.5, 1.0), (1.5, 1.0), (1.75, 0.0)):
            inward = edge + h if slope == 0.0 and edge in (0.25,) or edge in (0.5, 1.75) else edge - h
            fd = (zeta(edge + h, rho) - zeta(edge - h, rho)) / (2.0 * h)
            assert fd == pytest.approx(slope, abs=1e-4)

    def test_scalar_and_array_forms(self):
        assert isinstance(zeta(1.0, 1.0), float)
        out = zeta(np.array([0.0, 1.0]), 1.0)
        assert out.shape == (2,)

    def test_rho_bar_validation(self):
        with pytest.raises(ValueError):
            zeta(1.0, 0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        rho=st.floats(min_value=0.05, max_value=20.0),
        xs=st.lists(
            st.floats(min_value=-3.0, max_value=3.0)
            | st.sampled_from([0.0, 0.25, 0.5, 1.5, 1.75, -0.25, -0.5, -1.5, -1.75]),
            min_size=1,
            max_size=64,
        ),
    )
    def test_equals_the_five_documented_branches_bitwise(self, rho, xs):
        x = np.array(xs) * rho
        r = np.abs(x) / rho
        branches = np.select(
            [r <= 0.25, r < 0.5, r <= 1.5, r < 1.75],
            [
                np.full_like(r, 0.25),
                _hermite(r, 0.25, 0.5, 0.25, 0.5, 0.0, 1.0),
                r,
                _hermite(r, 1.5, 1.75, 1.5, 1.75, 1.0, 0.0),
            ],
            default=1.75,
        )
        assert np.array_equal(zeta(x, rho), branches * rho)
        # in place, as the viscous quotient clamps rho_bar + theta in its own array
        inplace = x.copy()
        assert zeta(inplace, rho, out=inplace) is inplace
        assert np.array_equal(inplace, branches * rho)


class TestNspState:
    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    def test_rejects_wrong_component_counts(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        rows = 2 + len_pairs(grid)
        NspState(SpectralField.zeros(grid, rows))
        for wrong in (rows - 1, rows + 1):  # one row short, one row over
            with pytest.raises(ValueError, match=f"{rows} rows, got {wrong}"):
                NspState(SpectralField.zeros(grid, wrong))

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3", "grid4"])
    def test_fields_are_views_of_the_stack(self, grid_name, request):
        s = small_state(request.getfixturevalue(grid_name), seed=32)
        for f in (s.h, s.c, s.I):
            assert np.shares_memory(f.coef, s.x.coef)
        assert np.array_equal(np.concatenate([s.h.coef, s.c.coef, s.I.coef]), s.x.coef)


class TestConversions:
    def test_equilibrium_maps_to_zero_state(self, grid3):
        rho = np.full(grid3.shape, PARAMS3.rho_bar)
        u = np.zeros((3,) + grid3.shape)
        prim = PrimitiveState(grid=grid3, rho=rho, u=u)
        s = from_primitive(prim, PARAMS3)
        assert l2_norm(s.h) == 0.0 and l2_norm(s.c) == 0.0 and l2_norm(s.I) == 0.0

    def test_unit_mode_density_bump(self, grid3):
        eps = 1e-3
        x1 = coordinates(grid3)[0]
        rho = PARAMS3.rho_bar + eps * np.cos(x1)
        prim = PrimitiveState(grid=grid3, rho=rho, u=np.zeros((3,) + grid3.shape))
        s = from_primitive(prim, PARAMS3)
        expected = wave(grid3, (1, 0, 0), amp=eps)  # |xi| = 1 so the lift acts as identity
        assert np.max(np.abs(s.h.coef - expected.coef)) < 1e-12 * eps
        assert l2_norm(s.c) < 1e-15 and l2_norm(s.I) < 1e-15

    def test_gradient_velocity_has_no_solenoidal_part(self, grid3):
        g = random_field(grid3, 1, np.random.default_rng(30))
        u = helmholtz_recompose(g, SpectralField.zeros(grid3, 3))
        rho = np.full(grid3.shape, 1.0)
        prim = PrimitiveState(grid=grid3, rho=rho, u=u.to_physical())
        s = from_primitive(prim, PARAMS3)
        assert l2_norm(s.I) < 1e-12 * l2_norm(s.c)

    def test_zero_state_to_primitive(self, grid3):
        prim, phi = to_primitive(NspState.zeros(grid3), PARAMS3)
        assert np.allclose(prim.rho, PARAMS3.rho_bar)
        assert np.max(np.abs(prim.u)) == 0.0
        assert np.max(np.abs(phi)) == 0.0

    def test_round_trip(self, grid3):
        s = small_state(grid3, seed=31)
        prim, _ = to_primitive(s, PARAMS3)
        back = from_primitive(prim, PARAMS3)
        for a, b in ((s.h, back.h), (s.c, back.c), (s.I, back.I)):
            assert np.max(np.abs(a.coef - b.coef)) < 1e-10 * max(np.max(np.abs(a.coef)), 1e-30)

    def test_potential_of_single_mode(self, grid3):
        h = wave(grid3, (2, 0, 0), amp=0.01)
        s = state_of(h=h, c=SpectralField.zeros(grid3), I=SpectralField.zeros(grid3, 3))
        _, phi = to_primitive(s, PARAMS3)
        # phi-hat = -h-hat / |xi|, here |xi| = 2
        expected = wave(grid3, (2, 0, 0), amp=-0.005)
        got = transform_to_spectral(grid3, phi)
        assert np.max(np.abs(got.coef - expected.coef)) < 1e-14

    def test_nonpositive_density_rejected(self, grid3):
        x1 = coordinates(grid3)[0]
        rho = 1.0 + 1.5 * np.cos(x1)
        rho = rho - np.mean(rho) + 1.0
        prim_kwargs = dict(grid=grid3, u=np.zeros((3,) + grid3.shape))
        with pytest.raises(ValueError, match="positive"):
            from_primitive(PrimitiveState(rho=rho, **prim_kwargs), PARAMS3)

    def test_potential_is_derived_or_validated(self, grid3):
        eps = 1e-2
        x1 = coordinates(grid3)[0]
        rho = 1.0 + eps * np.cos(x1)
        prim = PrimitiveState(grid=grid3, rho=rho, u=np.zeros((3,) + grid3.shape))
        assert np.max(np.abs(potential(prim) + eps * np.cos(x1))) < 1e-12
        check_potential(prim, -eps * np.cos(x1))  # consistent, accepted
        with pytest.raises(ValueError, match="Poisson"):
            check_potential(prim, np.zeros(grid3.shape))

    def test_mean_density_mismatch_rejected(self, grid3):
        rho = np.full(grid3.shape, 1.5)
        prim = PrimitiveState(grid=grid3, rho=rho, u=np.zeros((3,) + grid3.shape))
        with pytest.raises(ValueError, match="rho_bar"):
            from_primitive(prim, PARAMS3)


def state_with(grid, h=None, c=None, I=None) -> NspState:
    return state_of(
        h=h if h is not None else SpectralField.zeros(grid),
        c=c if c is not None else SpectralField.zeros(grid),
        I=I if I is not None else SpectralField.zeros(grid, len_pairs(grid)),
    )


def len_pairs(grid):
    return grid.dim * (grid.dim - 1) // 2


class TestNonlinearF:
    def test_zero_velocity(self, grid3):
        s = state_with(grid3, h=wave(grid3, (1, 0, 0), amp=0.1))
        assert l2_norm(nonlinear_F(s)) == 0.0

    def test_zero_density(self, grid3):
        s = state_with(grid3, c=wave(grid3, (1, 0, 0), amp=0.1))
        assert l2_norm(nonlinear_F(s)) == 0.0

    def test_two_mode_convolution_oracle(self, grid3):
        # h = a cos x1 so Lambda h = a cos x1; c = g cos x1 gives u = (g sin x1, 0, 0)
        # and div u = g cos x1; product = a g cos^2 x1; F = -(a g / 4) cos 2x1
        a, g = 0.2, 0.3
        s = state_with(grid3, h=wave(grid3, (1, 0, 0), amp=a), c=wave(grid3, (1, 0, 0), amp=g))
        u = s.velocity().to_physical()
        x1 = coordinates(grid3)[0]
        assert np.max(np.abs(u[0] - g * np.sin(x1))) < 1e-12
        expected = wave(grid3, (2, 0, 0), amp=-a * g / 4.0)
        out = nonlinear_F(s)
        assert np.max(np.abs(out.coef - expected.coef)) < 1e-14


class TestNonlinearJ:
    def test_zero_velocity(self, grid3):
        s = state_with(grid3, h=wave(grid3, (1, 0, 0), amp=0.1))
        assert l2_norm(nonlinear_J(s, PARAMS3)) == 0.0

    def test_pure_advection_oracle(self, grid3):
        # theta = 0: J = u.grad u = (g^2/2) sin(2 x1) e1 for u = (g sin x1, 0, 0)
        g = 0.25
        s = state_with(grid3, c=wave(grid3, (1, 0, 0), amp=g))
        out = nonlinear_J(s, PARAMS3)
        expected = wave(grid3, (2, 0, 0), kind="sin", amp=g * g / 2.0)
        assert np.max(np.abs(out.coef[0] - expected.coef[0])) < 1e-14
        assert np.max(np.abs(out.coef[1:])) < 1e-15

    def test_guarded_matches_unguarded_inside_band(self, grid3):
        s = small_state(grid3, seed=32, amp=5e-3)
        guarded = nonlinear_J(s, PARAMS3, guarded=True)
        plain = nonlinear_J(s, PARAMS3, guarded=False)
        scale = max(np.max(np.abs(plain.coef)), 1e-30)
        assert np.max(np.abs(guarded.coef - plain.coef)) < 1e-12 * scale

    def test_unguarded_outside_band_rejected(self, grid3):
        s = state_with(grid3, h=wave(grid3, (1, 0, 0), amp=0.9), c=wave(grid3, (1, 0, 0), amp=0.1))
        with pytest.raises(ValueError, match="admissible"):
            nonlinear_J(s, PARAMS3, guarded=False)
        # guarded evaluation continues through the same state
        nonlinear_J(s, PARAMS3, guarded=True)


class TestNonlinearGH:
    def test_zero_state(self, grid3):
        s = NspState.zeros(grid3)
        assert l2_norm(nonlinear_G(s, PARAMS3)) == 0.0
        assert l2_norm(nonlinear_H(s, PARAMS3)) == 0.0

    def test_gradient_forcing_has_no_curl(self, grid3):
        # the single-mode potential above produces J parallel to a gradient
        s = state_with(grid3, c=wave(grid3, (1, 0, 0), amp=0.25))
        H = nonlinear_H(s, PARAMS3)
        J = nonlinear_J(s, PARAMS3)
        assert l2_norm(H) < 1e-12 * max(l2_norm(J), 1e-30)

    def test_forcing_split_recombines(self, grid3):
        s = small_state(grid3, seed=33)
        J = nonlinear_J(s, PARAMS3)
        mean_free = SpectralField(grid3, J.coef.copy())
        mean_free.coef[:, 0, 0, 0] = 0.0
        back = helmholtz_recompose(*helmholtz_decompose(mean_free))
        assert np.max(np.abs(back.coef - mean_free.coef)) < 1e-10 * np.max(np.abs(mean_free.coef))

    def test_outputs_are_real_fields(self, grid3):
        s = small_state(grid3, seed=34)
        assert hermitian_defect(nonlinear_F(s)) < 1e-12
        assert hermitian_defect(nonlinear_G(s, PARAMS3)) < 1e-12
        assert hermitian_defect(nonlinear_H(s, PARAMS3)) < 1e-12

    def test_mass_and_curl_forcings_are_mean_free(self, grid3):
        # G keeps the convection mean (it cancels against the transport term);
        # the inverse-lift forcings are mean-free by construction
        s = small_state(grid3, seed=35)
        assert np.max(np.abs(nonlinear_F(s).zero_mode())) == 0.0
        assert np.max(np.abs(nonlinear_H(s, PARAMS3).zero_mode())) == 0.0


def convective_tendencies(s: NspState, params: FluidParams) -> list[SpectralField]:
    """The (h, c, I) tendencies of `explicit_rhs` from the convective-form oracle, unprojected."""
    grid = s.grid
    mask = dealias_mask(grid)
    u_phys = SpectralField(grid, s.velocity().coef * mask).to_physical()
    theta = s.theta()
    conv = np.zeros(grid.shape)
    for j in range(grid.dim):
        d = SpectralField(grid, 1j * grid.wavenumbers[j] * theta.coef * mask).to_physical()[0]
        conv += u_phys[j] * d
    conv_spec = SpectralField(grid, transform_to_spectral(grid, conv).coef * mask)
    J = nonlinear_J(s, params)
    return [
        -1.0 * apply_lambda(conv_spec, -1.0) + nonlinear_F(s),
        -1.0 * apply_lambda(divergence(J), -1.0),
        nonlinear_H(s, params),
    ]


def assert_matches_oracle(s: NspState, params: FluidParams) -> None:
    grid = s.grid
    tend, _ = explicit_rhs(s, params)
    oracle = np.concatenate([f.coef for f in convective_tendencies(s, params)])
    assert not oracle[:, dealias_mask(grid) == 0.0].any()  # so the band holds all of it
    want = grid.to_band(oracle)
    assert tend.shape == want.shape == (2 + len_pairs(grid),) + grid.band_shape
    for g, w in zip(np.split(tend, (1, 2)), np.split(want, (1, 2))):
        assert np.max(np.abs(g - w)) < 1e-13 * np.max(np.abs(w))


def bits(a: np.ndarray) -> bytes:
    """The bytes of `a`: equal for bitwise-equal arrays, signed zeros included."""
    return np.ascontiguousarray(a).tobytes()


def projected_state(grid, s: NspState, n: float = 4.0) -> NspState:
    """`s` cut to the annulus 1/n <= |xi| <= n, as a stepper feeds it to the RHS."""
    from nspbox.stepper import FriedrichsProjector

    projector = FriedrichsProjector(grid, n)
    return NspState(projector(s.x))


class TestExplicitRhs:
    @pytest.mark.parametrize(
        "grid_name", ["grid2", "grid3", "grid4"], ids=["dealiased-grid2", "dealiased-grid3", "dealiased-grid4"]
    )
    @pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
    def test_matches_public_operations(self, grid_name, projected, request):
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        s = small_state(grid, seed=36)
        assert_matches_oracle(projected_state(grid, s) if projected else s, params)

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    def test_large_amplitude_matches_public_operations(self, grid_name, request):
        # x50: products and the guarded quotient far from linear, density still positive
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        assert_matches_oracle(projected_state(grid, NspState(small_state(grid, seed=36).x * 50.0)), params)

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    def test_batch_sizes(self, grid_name, request, monkeypatch):
        # full inverse: raw theta, viscous stress; band inverse: u, theta, (curl u)_ij (i < j);
        # band forward: theta u, |u|^2/2, the remaining flux.  The free transforms run on the same
        # class, so every transform of the call is counted here, by width.
        from nspbox import spectral

        grid = request.getfixturevalue(grid_name)
        n = grid.dim
        s = small_state(grid, seed=36)
        shapes = {grid.size // 2: ("full", grid.spectral_shape), grid.size // 3: ("band", grid.band_shape)}
        sizes = {"full_inverse": [], "full_forward": [], "band_inverse": [], "band_forward": []}
        plain_inverse, plain_forward = spectral.BandTransform.to_physical, spectral.BandTransform.to_spectral

        def to_physical(self, band, **out):
            width, shape = shapes[self.m]
            assert band.shape[1:] == self.shape == shape
            sizes[f"{width}_inverse"].append(len(band))
            return plain_inverse(self, band, **out)

        def to_spectral(self, values):
            sizes[f"{shapes[self.m][0]}_forward"].append(len(values))
            return plain_forward(self, values)

        monkeypatch.setattr(spectral.BandTransform, "to_physical", to_physical)
        monkeypatch.setattr(spectral.BandTransform, "to_spectral", to_spectral)
        explicit_rhs(s, FluidParams(mu=1.0, lam=0.0, rho_bar=1.0, dim=n))
        # N + 1 full inverse, N + 1 + N(N-1)/2 band inverse and 2N + 1 band forward components
        assert sizes == {
            "full_inverse": [{2: 3, 3: 4}[n]],
            "full_forward": [],
            "band_inverse": [{2: 4, 3: 7}[n]],
            "band_forward": [{2: 5, 3: 7}[n]],
        }

    def test_one_batched_transform_each_way(self, grid3, monkeypatch):
        # one band inverse, then one full inverse and one band forward, each a `BandTransform` call;
        # they take turns in one buffer, so the band inverse must be done before the full input is written
        from nspbox import spectral

        s = small_state(grid3, seed=36)
        widths = {grid3.size // 2: "full", grid3.size // 3: "band"}
        calls = []
        for name in ("to_physical", "to_spectral"):

            def counted(self, arg, _plain=getattr(spectral.BandTransform, name), _name=name, **out):
                calls.append((_name, widths[self.m]))
                return _plain(self, arg, **out)

            monkeypatch.setattr(spectral.BandTransform, name, counted)
        explicit_rhs(s, PARAMS3)
        assert calls == [("to_physical", "band"), ("to_physical", "full"), ("to_spectral", "band")]

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    @pytest.mark.parametrize("projected", [False, True], ids=["unprojected", "projected"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), amp=st.sampled_from([1e-2, 0.3]))
    def test_tendencies_vanish_off_the_band(self, grid_name, projected, seed, amp, request):
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        s = small_state(grid, seed=seed, amp=amp)
        tend, _ = explicit_rhs(projected_state(grid, s) if projected else s, params)
        # the tendencies are returned on the band alone, so they vanish off it by construction
        assert tend.shape == (2 + len_pairs(grid),) + grid.band_shape
        for row in tend:
            assert row.any()

    def test_diagnostics(self, grid3):
        s = state_with(grid3, h=wave(grid3, (1, 0, 0), amp=0.25))
        _, diag = explicit_rhs(s, PARAMS3)
        # theta = 0.25 cos x1 so the density spans [0.75, 1.25]; u = 0
        assert diag.min_density == pytest.approx(0.75, abs=1e-12)
        assert diag.max_density == pytest.approx(1.25, abs=1e-12)
        assert diag.max_speed == 0.0

    def test_equilibrium_fixed_point(self, grid3):
        tend, _ = explicit_rhs(NspState.zeros(grid3), PARAMS3)
        assert tend.shape == (2 + len_pairs(grid3),) + grid3.band_shape
        assert np.max(np.abs(tend)) == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("size", [16, 32])
    def test_real_viscous_gradient_factor_gives_the_complex_products(self, dim, size):
        # `visc_grad` forms (mu + lambda) xi_j Lambda per call; the complex symbol it stands for,
        # (mu + lambda) i xi_j Lambda, has real part +0 on every mode, so the product with c that
        # `explicit_rhs` forms from it is the complex form's, bit for bit, signed zeros included;
        # `visc_lap` is -mu |xi|^2 of the meshed lattice
        grid = Grid(dim, size)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=dim)
        mult = model._rhs_multipliers(grid, params)
        lattice = meshed_lattice(grid, params)
        symbol = (params.mu + params.lam) * lattice["ixi"] * lattice["lam"]
        assert bits(symbol.real) == bits(np.zeros(symbol.shape))
        factor = np.zeros((dim,) + grid.spectral_shape)
        for k in range(dim):
            mult.visc_grad(k, out=factor[k])
        assert bits(symbol.imag) == bits(factor)
        visc_lap = mult.visc_lap()
        assert bits(visc_lap) == bits(-params.mu * lattice["lam_sq"])
        s = small_state(grid, seed=size + dim)
        for state in (s, projected_state(grid, s)):
            c, u = state.c.coef[0], state.velocity().coef
            want = visc_lap * u
            want += symbol * c
            got = visc_lap * u
            grad = np.zeros_like(u)
            for k in range(dim):
                mult.visc_grad(k, out=grad[k].imag)
            grad *= c
            got += grad
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
    def test_no_aliasing_across_calls(self, grid_name, request):
        # the multipliers, their one transform buffer and their physical rows are shared by every
        # caller of one (grid, params): a call on B leaves what a call on A returned as it was, and
        # neither returned stack lies in any array the multipliers hold
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        a, b = small_state(grid, seed=70, amp=0.3), small_state(grid, seed=71)
        tend_a, diag_a = explicit_rhs(a, params)
        kept = bits(tend_a), bits(np.array(dataclasses.astuple(diag_a)))
        tend_b, diag_b = explicit_rhs(b, params)
        assert (bits(tend_a), bits(np.array(dataclasses.astuple(diag_a)))) == kept
        assert bits(tend_b) != kept[0]
        held = list(arrays_of(model._rhs_multipliers(grid, params)))
        assert len(held) >= 8
        for buffer in held + [a.x.coef, b.x.coef]:
            assert not np.shares_memory(tend_a, buffer)
            assert not np.shares_memory(tend_b, buffer)
        assert not np.shares_memory(tend_a, tend_b)
        again, _ = explicit_rhs(a, params)
        assert bits(again) == kept[0]

    @pytest.mark.parametrize("grid_name", ["grid2", "grid3", "grid4"])
    def test_three_transforms_take_turns_in_one_buffer(self, grid_name, request, monkeypatch):
        # both inverses read their input from the multipliers' one buffer and the band forward
        # returns a view of it, which the tendencies are read from before the next call rewrites it
        grid = request.getfixturevalue(grid_name)
        params = FluidParams(mu=1.0, lam=0.25, rho_bar=1.0, dim=grid.dim)
        mult = model._rhs_multipliers(grid, params)
        assert len(mult.buffer) == max(2 * grid.dim + 1, grid.dim + 1 + len_pairs(grid))
        for transform in (mult.full, mult.band):
            assert np.shares_memory(transform.inverse_input(1), mult.buffer)
        forward = []
        plain = spectral.BandTransform.to_spectral

        def to_spectral(self, values):
            forward.append(plain(self, values))
            return forward[-1]

        monkeypatch.setattr(spectral.BandTransform, "to_spectral", to_spectral)
        tend, _ = explicit_rhs(small_state(grid, seed=72), params)
        assert len(forward) == 1 and np.shares_memory(forward[0], mult.buffer)
        assert not np.shares_memory(tend, mult.buffer)


def arrays_of(obj) -> list[np.ndarray]:
    """Every array an object holds in its attributes, in tuples of them and in its transforms and grid."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, tuple):
            found += [v for v in value if isinstance(v, np.ndarray)]
        elif isinstance(value, (spectral.BandTransform, Grid)):
            found += arrays_of(value)
    return found


# |(dE/dt + D) / D| of `budget_residual`: 4.2e-7 in 2D and -2.0e-8 in 3D measured; the faults
# of `TestEnergyBudget` reach 6.9e-6 to 1.9e-4
BUDGET_RTOL = 2e-6


def budget_residual(dim: int, scaled: slice | None = None) -> float:
    """(dE/dt + D) / D for E = `physical_energy` and D = `dissipation`, at a moderate state.

    The state is `make_initial_data` at M = 16 (shells 0-1, amplitude 0.3,
    lambda = 0.3) embedded into M = 32, so it and its tendency, which lies on
    the two-thirds-rule band, keep every wavenumber below 32/3 and E is
    evaluated without aliasing.  dE/dt is a fourth-order central difference of
    E along the full tendency: the linear generator plus `explicit_rhs`,
    scattered by `Grid.add_band`, with its rows `scaled` by 1.1 if given.  E is
    cubic in the state, so the difference is exact up to rounding.
    """
    cfg = parse_config(f"grid.N = {dim}\ngrid.M = 16\nparams.lambda = 0.3\ninit.amplitude = 0.3\ninit.band_hi = 1\n")
    coarse, grid, params = make_initial_data(cfg), Grid(dim=dim, size=32), cfg.params
    s = NspState(embed(coarse.x, grid))
    h, c, I = s.h.coef, s.c.coef, s.I.coef
    gen = params.pair_matrix(grid.lam_sq)
    linear = [gen[..., k, 0] * h + gen[..., k, 1] * c for k in range(2)] + [-params.nu_i * grid.lam_sq * I]
    tend = np.concatenate(linear)
    nonlinear, _ = explicit_rhs(s, params)
    if scaled is not None:
        nonlinear[scaled] *= 1.1
    grid.add_band(tend, nonlinear)

    def energy_at(t: float) -> float:
        return physical_energy(NspState(SpectralField(grid, s.x.coef + t * tend)), params)

    dt = 1e-3
    rate = (8.0 * (energy_at(dt) - energy_at(-dt)) - (energy_at(2 * dt) - energy_at(-2 * dt))) / (12.0 * dt)
    loss = dissipation(s, params)
    return (rate + loss) / loss


class TestEnergyBudget:
    """The physical energy decays at the viscous rate along `explicit_rhs`, a check free of the oracle."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_explicit_rhs_closes_the_budget(self, dim):
        assert abs(budget_residual(dim)) <= BUDGET_RTOL

    @pytest.mark.parametrize("dim", [2, 3])
    def test_doubled_viscous_quotient_breaks_it(self, dim, monkeypatch):
        doubled = lambda theta, params: 2.0 * _viscous_quotient(theta, params)  # noqa: E731
        monkeypatch.setattr("nspbox.model._viscous_quotient", doubled)
        assert abs(budget_residual(dim)) > BUDGET_RTOL

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rows", [slice(1, 2), slice(2, None)], ids=["c-row", "I-rows"])
    def test_scaled_tendency_row_breaks_it(self, dim, rows):
        assert abs(budget_residual(dim, scaled=rows)) > BUDGET_RTOL
